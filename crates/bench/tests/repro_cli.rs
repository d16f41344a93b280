//! `repro` through the real binary: its refusals exit 2 before any work
//! starts, naming the culprit on stderr; `repro --smoke`, `repro
//! profile`, `repro fleet` and `repro scale` write the committed
//! artifacts at any global pool size; and `repro --smoke` registers a
//! pinned list of metric series.

mod common;

use std::process::{Command, Output};

/// Runs `repro args` in `dir` with the caller's `QENS_*` variables
/// replaced by `env`.
fn repro(dir: &std::path::Path, args: &[&str], env: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_repro"));
    for (name, _) in std::env::vars_os() {
        if name.to_string_lossy().starts_with("QENS_") {
            cmd.env_remove(name);
        }
    }
    cmd.current_dir(dir)
        .args(args)
        .envs(env.iter().copied())
        .output()
        .unwrap()
}

/// Asserts `repro args` under `env` is refused with `needle` in the
/// message.
fn assert_refused(args: &[&str], env: &[(&str, &str)], needle: &str) {
    let out = repro(&std::env::temp_dir(), args, env);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains(needle), "{needle:?} missing from: {stderr}");
    assert!(out.stdout.is_empty(), "a refused run prints nothing");
}

#[test]
fn serve_trace_needs_a_known_clock() {
    assert_refused(&["serve", "--trace", "bogus"], &[], "--trace");
    assert_refused(&["serve", "--trace"], &[], "--trace");
}

/// A zero count and a flag the subcommand does not own (`--smoke`
/// belongs to the experiments) are refused, not run.
#[test]
fn tool_subcommands_refuse_what_they_do_not_take() {
    assert_refused(&["load", "--queries", "0"], &[], "--queries");
    assert_refused(&["profile", "--queries", "0"], &[], "--queries");
    assert_refused(&["serve", "--smoke"], &[], "--smoke");
    assert_refused(&["serve", "--once"], &[], "--once");
    assert_refused(&["load", "--smoke"], &[], "--smoke");
    assert_refused(&["scale", "--smoke"], &[], "--smoke");
}

#[test]
fn a_stray_or_malformed_qens_variable_stops_the_run() {
    assert_refused(&["--smoke"], &[("QENS_TRACE", "wall")], "QENS_TRACE");
    assert_refused(&["--smoke"], &[("QENS_THREADS", "0")], "QENS_THREADS");
}

/// `repro args` at `QENS_THREADS=1` and `4`, each in a fresh temp
/// directory, writes `results/<name>` for every name byte for byte as
/// committed.
fn assert_pool_size_free(args: &[&str], names: &[&str]) {
    for threads in ["1", "4"] {
        common::assert_golden(names, &args.join(" "), |dir| {
            std::fs::create_dir_all(dir)?;
            let out = repro(dir, args, &[("QENS_THREADS", threads)]);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(out.status.success(), "QENS_THREADS={threads}: {stderr}");
            for name in names {
                std::fs::rename(dir.join("results").join(name), dir.join(name))?;
            }
            Ok(())
        });
    }
}

/// The fault trace and the logical-clock Chrome trace do not depend on
/// the global pool's size.
#[test]
fn smoke_traces_match_the_committed_files_at_pool_sizes_1_and_4() {
    assert_pool_size_free(&["--smoke"], &["trace.json", "fault_trace.json"]);
}

/// Nor do the logical-clock folded stacks and their flamegraph.
#[test]
fn profile_matches_the_committed_files_at_pool_sizes_1_and_4() {
    assert_pool_size_free(&["profile"], &["profile.folded", "profile.svg"]);
}

/// Nor do the fleet scorecards, the journal tail and the skew heatmap:
/// every field they export is an integer or leader-serial simulated
/// time.
#[test]
fn fleet_matches_the_committed_files_at_pool_sizes_1_and_4() {
    assert_pool_size_free(&["fleet"], &["fleet.json", "fig10_fleet_skew.csv"]);
}

/// Nor does the whole Fig. 11 sweep, its 1M-node row included: the CSV
/// holds structural counters and selection hashes, never wall time.
#[test]
fn scale_matches_the_committed_file_at_pool_sizes_1_and_4() {
    assert_pool_size_free(&["scale"], &["fig11_scale.csv"]);
}

/// The series `repro --smoke` registers, by kind, sorted; the SLO
/// verdict counter is left out, since whether a query lands in
/// `qens_slo_good_total` or `qens_slo_bad_total` depends on its wall
/// time.
const SMOKE_COUNTERS: &str = "
    qens_cluster_kmeans_fits_total qens_cluster_kmeans_iterations_total
    qens_edgesim_bytes_transferred_total qens_edgesim_nodes_quantized_total
    qens_edgesim_nodes_selected_total qens_edgesim_queries_total
    qens_edgesim_sample_visits_total qens_edgesim_samples_used_total
    qens_fedlearn_model_bytes_total qens_fedlearn_participants_total qens_fedlearn_rounds_total
    qens_fedlearn_sample_visits_total qens_fedlearn_samples_used_total
    qens_fedlearn_stages_total
    qens_mlkit_stage_samples_total qens_mlkit_train_calls_total
    qens_par_inline_tasks_total qens_par_scopes_total qens_par_tasks_total
    qens_selection_overlap_evals_total qens_selection_participants_total
    qens_selection_supporting_clusters_total";
const SMOKE_GAUGES: &str = "
    qens_edgesim_sim_seconds qens_edgesim_wall_seconds
    qens_par_workers
    qens_slo_burn_rate_1x qens_slo_burn_rate_6x qens_slo_objective_seconds";
const SMOKE_HISTOGRAMS: &str = "
    qens_cluster_kmeans_assign_nanos qens_cluster_kmeans_fit_nanos
    qens_cluster_kmeans_update_nanos
    qens_edgesim_quantize_all_nanos qens_edgesim_query_bytes qens_edgesim_query_sim_micros
    qens_edgesim_query_wall_micros
    qens_fedlearn_aggregate_nanos qens_fedlearn_run_query_nanos qens_fedlearn_train_nanos
    qens_mlkit_stage_nanos qens_mlkit_train_nanos
    qens_par_queue_depth
    qens_selection_rank_micros qens_selection_select_nanos";

/// The keys of the flat `"<kind>":{…}` object of a telemetry export.
fn keys<'a>(json: &'a str, kind: &str) -> Vec<&'a str> {
    let open = format!("\"{kind}\":{{");
    let body = &json[json.find(&open).expect("kind present") + open.len()..];
    let body = &body[..body.find('}').expect("object closes")];
    body.split(',')
        .filter_map(|pair| pair.split('"').nth(1))
        .collect()
}

/// `repro --smoke` registers exactly the pinned series: a renamed,
/// added or dropped timer shows here before it shows on a dashboard.
/// The pool size is pinned because the `qens_par_*` series depend on it.
#[test]
fn smoke_registers_the_pinned_series() {
    let dir = std::env::temp_dir().join(format!("qens_series_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = repro(&dir, &["--smoke"], &[("QENS_THREADS", "4")]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    let json = std::fs::read_to_string(dir.join("results").join("telemetry.json")).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();

    let verdicts = ["qens_slo_good_total", "qens_slo_bad_total"];
    let mut counters = keys(&json, "counters");
    let before = counters.len();
    counters.retain(|name| !verdicts.contains(name));
    assert!(counters.len() < before, "no SLO verdict counter");
    let histograms = json.split("{\"name\":\"").skip(1);
    let histograms = histograms.filter_map(|h| h.split('"').next()).collect();
    for (mut got, pinned) in [
        (counters, SMOKE_COUNTERS),
        (keys(&json, "gauges"), SMOKE_GAUGES),
        (histograms, SMOKE_HISTOGRAMS),
    ] {
        got.sort_unstable();
        assert_eq!(got, pinned.split_whitespace().collect::<Vec<_>>());
    }
}
