//! Regenerates every table and figure of the paper.
//!
//! ```text
//! cargo run --release -p bench --bin repro            # everything, quick scale
//! cargo run --release -p bench --bin repro -- fig7    # one experiment
//! cargo run --release -p bench --bin repro -- all --paper   # full paper scale
//! cargo run --release -p bench --bin repro -- --smoke # tiny end-to-end check
//! cargo run --release -p bench --bin repro -- ablations  # design ablations
//! cargo run --release -p bench --bin repro -- serve   # live /metrics endpoint
//! cargo run --release -p bench --bin repro -- serve --trace logical  # ... traced
//! cargo run --release -p bench --bin repro -- profile # flamegraph + SLO report
//! cargo run --release -p bench --bin repro -- scale   # Fig. 11 fleet-size sweep
//! ```
//!
//! Printed rows state the measured values next to the paper's; CSV series
//! land in `results/`. `--smoke` also writes `results/telemetry.json`,
//! the metric snapshot of its federation.
//!
//! The one environment setting is `QENS_THREADS` (the global pool's
//! worker count). Any other `QENS_*` variable, or a `QENS_THREADS` that
//! does not parse, stops the run with exit code 2 before it starts.

use std::ffi::OsStr;
use std::path::PathBuf;

use bench::{ablations, figures, report, tables, ExperimentScale};
use qens::prelude::ModelKind;
use qens::telemetry;

fn results_dir() -> PathBuf {
    PathBuf::from("results")
}

/// Writes `fed`'s metric snapshot to `results/telemetry.json` and
/// returns the snapshot for inspection.
fn write_telemetry(fed: &qens::Federation) -> telemetry::Snapshot {
    let snap = bench::metrics_snapshot(fed);
    let doc = telemetry::export::to_json(&snap);
    let dir = results_dir();
    std::fs::create_dir_all(&dir).expect("create results dir");
    let path = dir.join("telemetry.json");
    std::fs::write(&path, doc).expect("write telemetry.json");
    println!(
        "(telemetry: {} counters, {} histograms -> {})",
        snap.counters.len(),
        snap.histograms.len(),
        path.display()
    );
    snap
}

/// The `--smoke` fast path: a tiny federation, a couple of queries, and
/// hard assertions that the telemetry pipeline observed every layer.
fn run_smoke() {
    use qens::prelude::*;
    let fed = FederationBuilder::new()
        .heterogeneous_nodes(4, 60)
        .clusters_per_node(3)
        .seed(7)
        .epochs(2)
        .telemetry(true)
        .build();
    for qid in 0..2u64 {
        let q = fed.query_from_bounds(qid, &[0.0, 20.0, 0.0, 45.0]);
        let out = fed
            .run_query(&q, &PolicyKind::query_driven(2))
            .expect("smoke query runs");
        let loss = out
            .query_loss(fed.network(), &q)
            .expect("smoke query has data");
        assert!(loss.is_finite(), "smoke loss must be finite");
    }
    let snap = write_telemetry(&fed);
    assert!(!snap.is_empty(), "smoke run recorded no telemetry");
    // Every pipeline layer must have reported something: a counter's
    // value or a histogram's sample count.
    for metric in [
        "qens_cluster_kmeans_fit_nanos",
        "qens_selection_overlap_evals_total",
        "qens_mlkit_train_nanos",
        "qens_fedlearn_train_nanos",
        "qens_edgesim_query_bytes",
    ] {
        let reported = snap
            .counter(metric)
            .or_else(|| snap.histogram(metric).map(|h| h.count));
        assert!(
            reported.is_some_and(|v| v > 0),
            "smoke run missing {metric}"
        );
    }
    let run_query = snap
        .histogram("qens_fedlearn_run_query_nanos")
        .expect("smoke run timed run_query");
    assert_eq!(
        run_query.count, 2,
        "expected one run_query timing per smoke query"
    );
    println!(
        "run_query latency: p50 {:.0} ns, p95 {:.0} ns, p99 {:.0} ns over {} queries",
        run_query.p50(),
        run_query.p95(),
        run_query.p99(),
        run_query.count
    );

    // Fault and trace smoke: results/fault_trace.json and
    // results/trace.json. `golden_telemetry.rs` regenerates and byte-diffs
    // both at the default pool size, `repro_cli.rs` through this binary
    // at QENS_THREADS=1 and 4.
    let dir = results_dir();
    let out = bench::smoke::write_fault_and_trace(&dir).expect("write smoke traces");
    println!(
        "fault smoke: {} events ({} retries, {} dropped, {} replacements) -> {}",
        out.fault_trace.len(),
        out.accounting.retries,
        out.accounting.dropped_participants,
        out.accounting.replacements,
        dir.join("fault_trace.json").display()
    );
    let trace_path = dir.join("trace.json");
    let trace_bytes = std::fs::metadata(&trace_path)
        .expect("stat trace.json")
        .len();
    println!(
        "trace smoke: {trace_bytes} bytes of Chrome trace -> {} (open in Perfetto)",
        trace_path.display()
    );
    println!("smoke OK: pipeline + telemetry + tracing + fault engine healthy");
}

fn run_table1(scale: ExperimentScale) {
    let t = tables::table1(scale);
    println!(
        "{}",
        report::render_loss_comparison(
            "Table I: expected loss, homogeneous participants",
            (24.45, 24.70),
            &t,
            "All-node selection",
        )
    );
}

fn run_table2(scale: ExperimentScale) {
    let t = tables::table2(scale);
    println!(
        "{}",
        report::render_loss_comparison(
            "Table II: expected loss, heterogeneous participants",
            (9.70, 178.10),
            &t,
            "Compatible-node selection",
        )
    );
}

fn run_table3() {
    println!("Table III: model hyper-parameters (ours == paper)");
    println!("{:<18} {:>8} {:>8}", "", "LR", "NN");
    for (name, lr, nn) in tables::table3() {
        println!("{name:<18} {lr:>8} {nn:>8}");
    }
    println!();
}

fn run_fig1(scale: ExperimentScale) {
    println!(
        "{}",
        report::render_pair(
            "Fig. 1: similar participants (homogeneous population)",
            &figures::fig1(scale)
        )
    );
}

fn run_fig2(scale: ExperimentScale) {
    println!(
        "{}",
        report::render_pair(
            "Fig. 2: dissimilar participants (heterogeneous population)",
            &figures::fig2(scale)
        )
    );
}

fn run_fig5(scale: ExperimentScale) {
    let (query, clusters) = figures::fig5(scale);
    println!("Fig. 5: query projected onto a participant's clustered space");
    println!("{}", report::render_fig5(&query, &clusters));
}

fn run_fig6(scale: ExperimentScale) {
    let (query, needs) = figures::fig6(scale);
    println!("Fig. 6: data needed by the query vs data available");
    println!("{}", report::render_fig6(&query, &needs));
}

fn run_fig7(scale: ExperimentScale) {
    for (model, label) in [
        (ModelKind::Linear, "LR"),
        (
            ModelKind::Neural {
                hidden: scale.nn_hidden(),
            },
            "NN",
        ),
    ] {
        let rows = figures::fig7(scale, model);
        println!("{}", report::render_fig7(label, &rows));
        report::write_fig7_csv(&results_dir(), label, &rows).expect("write fig7 csv");
    }
    println!("(series written to results/fig7_lr.csv, results/fig7_nn.csv)\n");
}

fn run_extended(scale: ExperimentScale) {
    let rows = figures::extended_comparison(scale);
    println!(
        "{}",
        report::render_fig7("LR, all implemented mechanisms", &rows)
    );
}

fn run_fig8_fig9(scale: ExperimentScale) {
    let series = figures::fig8_fig9(scale);
    println!("{}", report::render_fig8_fig9(&series));
    report::write_fig8_fig9_csv(&results_dir(), &series).expect("write fig8/fig9 csv");
    println!("(series written to results/fig8_fig9.csv)\n");
}

/// `repro ablations`: the design ablations at their fixed Quick-scale
/// configuration (`--paper` does not change them).
fn run_ablations() {
    let rows = ablations::run();
    println!("Ablations: the paper's design choices against their alternatives");
    let line = |cells: &[String]| {
        cells
            .iter()
            .zip([12, 13, 16, 10, 13, 6, 10])
            .map(|(c, w)| format!("{c:<w$}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    let header: Vec<String> = ablations::CSV_HEADER.split(',').map(String::from).collect();
    println!("{}", line(&header));
    for r in &rows {
        println!("{}", line(&r.csv_fields()));
    }
    ablations::write_csv(&results_dir(), &rows).expect("write ablations csv");
    println!("(rows written to results/ablations.csv)\n");
}

/// `repro fleet`: the fleet-observability experiment. The scorecard
/// registry and journal record on the logical clock, so the artifacts
/// (`results/fleet.json`, `results/fig10_fleet_skew.csv`) are
/// byte-identical at any `QENS_THREADS` — `tests/repro_cli.rs` checks.
fn run_fleet_exp(scale: ExperimentScale) {
    bench::fleet::run_and_write(scale, &results_dir()).expect("write fleet artifacts");
}

fn run_fig8_faults(scale: ExperimentScale) {
    let rows = figures::fig8_faults(scale);
    println!("{}", report::render_fault_sweep(&rows));
    report::write_fig8_faults_csv(&results_dir(), &rows).expect("write fig8_faults csv");
    // The headline claim: the standby-backed mechanism still trains
    // models at heavy dropout instead of collapsing.
    let ours_heavy = rows
        .iter()
        .filter(|r| r.policy.contains("query-driven") && r.dropout >= 0.5)
        .collect::<Vec<_>>();
    assert!(
        ours_heavy
            .iter()
            .any(|r| r.completed > 0 && r.mean_loss.is_some_and(f64::is_finite)),
        "query-driven selection should degrade gracefully at >= 50% dropout"
    );
    println!("(series written to results/fig8_faults.csv)\n");
}

/// The startup check over the environment's `(name, value)` pairs:
/// `QENS_THREADS` must parse, and no other `QENS_*` name may be set —
/// the libraries read nothing else, so such a variable would silently do
/// nothing. The error names the offending variable.
fn check_env<K: AsRef<OsStr>, V: AsRef<OsStr>>(
    vars: impl IntoIterator<Item = (K, V)>,
) -> Result<(), String> {
    for (name, value) in vars {
        let name = name.as_ref().to_string_lossy();
        if name == qens::par::THREADS_ENV {
            let value = value.as_ref().to_string_lossy();
            qens::par::parse_threads(&value).map_err(|e| format!("{name}: {e}"))?;
        } else if name.starts_with("QENS_") {
            return Err(format!(
                "{name} is set, but the only environment setting is {}; unset it \
                 (trace a server with `repro serve --trace wall|logical`)",
                qens::par::THREADS_ENV
            ));
        }
    }
    Ok(())
}

/// `value` as a count of at least 1; otherwise exits 2 naming
/// `command` and `flag`.
fn positive_count(command: &str, flag: &str, value: Option<&String>) -> usize {
    value
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| {
            eprintln!("{command}: {flag} needs a positive integer");
            std::process::exit(2);
        })
}

fn main() {
    if let Err(e) = check_env(std::env::vars_os()) {
        eprintln!("repro: {e}");
        std::process::exit(2);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("serve") {
        let mut opts = bench::serve::ServeOptions::default();
        let mut it = args.iter().skip(1);
        while let Some(a) = it.next() {
            match a.as_str() {
                "--addr" => {
                    opts.addr = it
                        .next()
                        .unwrap_or_else(|| {
                            eprintln!("serve: --addr needs a host:port value");
                            std::process::exit(2);
                        })
                        .clone();
                }
                "--duration" => {
                    let duration = it
                        .next()
                        .and_then(|v| v.parse().ok())
                        .and_then(|s| std::time::Duration::try_from_secs_f64(s).ok())
                        .unwrap_or_else(|| {
                            eprintln!(
                                "serve: --duration needs a finite, non-negative number of seconds"
                            );
                            std::process::exit(2);
                        });
                    opts.duration = Some(duration);
                }
                "--trace" => {
                    let clock = match it.next().map(String::as_str) {
                        Some("wall") => telemetry::trace::Clock::Wall,
                        Some("logical") => telemetry::trace::Clock::Logical,
                        _ => {
                            eprintln!("serve: --trace needs wall or logical");
                            std::process::exit(2);
                        }
                    };
                    opts.trace = Some(clock);
                }
                other => {
                    eprintln!(
                        "serve: unknown flag {other:?}; expected [--addr host:port] \
                         [--duration seconds] [--trace wall|logical]"
                    );
                    std::process::exit(2);
                }
            }
        }
        if let Err(e) = bench::serve::serve(&opts) {
            eprintln!("serve: {e}");
            std::process::exit(1);
        }
        return;
    }
    if args.first().map(String::as_str) == Some("scale") {
        if let Some(other) = args.get(1) {
            eprintln!("scale: unknown flag {other:?}; it takes none");
            std::process::exit(2);
        }
        // Fig. 11: fleet-size scaling, scan vs spatial index. The CSV is
        // structural-only (no wall clock), so tests/repro_cli.rs can
        // byte-diff it across QENS_THREADS values.
        if let Err(e) = bench::scale::run_scale(&results_dir()) {
            eprintln!("scale: {e}");
            std::process::exit(1);
        }
        return;
    }
    if args.first().map(String::as_str) == Some("profile") {
        let mut opts = bench::profile::ProfileOptions::default();
        let mut it = args.iter().skip(1);
        while let Some(a) = it.next() {
            match a.as_str() {
                "--queries" => {
                    opts.queries = positive_count("profile", "--queries", it.next()) as u64;
                }
                "--out" => {
                    opts.out_dir = it.next().map(PathBuf::from).unwrap_or_else(|| {
                        eprintln!("profile: --out needs a directory path");
                        std::process::exit(2);
                    });
                }
                other => {
                    eprintln!(
                        "profile: unknown flag {other:?}; expected [--queries N] [--out dir]"
                    );
                    std::process::exit(2);
                }
            }
        }
        if let Err(e) = bench::profile::run_profile(&opts) {
            eprintln!("profile: {e}");
            std::process::exit(1);
        }
        return;
    }
    // `--smoke` belongs to the experiments, not to a tool subcommand:
    // each of those refuses it as an unknown flag above.
    if args.iter().any(|a| a == "--smoke") {
        run_smoke();
        return;
    }
    let scale = if args.iter().any(|a| a == "--paper") {
        ExperimentScale::Paper
    } else {
        ExperimentScale::Quick
    };
    let exp = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "all".to_string());
    // Resolved before anything prints, so an unknown name is refused
    // with an empty stdout like every other refusal.
    let run: fn(ExperimentScale) = match exp.as_str() {
        "table1" => run_table1,
        "table2" => run_table2,
        "table3" => |_| run_table3(),
        "fig1" => run_fig1,
        "fig2" => run_fig2,
        "fig5" => run_fig5,
        "fig6" => run_fig6,
        "fig7" => run_fig7,
        "fig8" | "fig9" | "fig8_fig9" => run_fig8_fig9,
        "faults" | "fig8_faults" => run_fig8_faults,
        "fleet" | "fig10" => run_fleet_exp,
        "extended" => run_extended,
        "ablations" => |_| run_ablations(),
        "all" => |scale| {
            run_table1(scale);
            run_table2(scale);
            run_table3();
            run_fig1(scale);
            run_fig2(scale);
            run_fig5(scale);
            run_fig6(scale);
            run_fig7(scale);
            run_fig8_fig9(scale);
            run_fig8_faults(scale);
            run_extended(scale);
            run_ablations();
        },
        other => {
            eprintln!(
                "unknown experiment {other:?}; expected one of \
                 table1|table2|table3|fig1|fig2|fig5|fig6|fig7|fig8|fig9|faults|fleet|extended|\
                 ablations|all [--paper | --smoke], or a tool subcommand: serve|profile|scale"
            );
            std::process::exit(2);
        }
    };

    println!("== qens paper reproduction ({scale:?} scale) ==\n");
    run(scale);
}

#[cfg(test)]
mod tests {
    use super::check_env;

    #[test]
    fn any_other_qens_variable_is_rejected_by_name() {
        let err = check_env([("QENS_THREADS", "2"), ("QENS_TRACE", "wall")]).unwrap_err();
        assert!(err.starts_with("QENS_TRACE "), "{err}");
    }

    #[test]
    fn threads_must_parse() {
        for bad in ["0", "abc", ""] {
            let err = check_env([("QENS_THREADS", bad)]).unwrap_err();
            assert!(err.starts_with("QENS_THREADS: "), "{bad:?}: {err}");
        }
        assert_eq!(check_env([("QENS_THREADS", "3")]), Ok(()));
    }

    #[test]
    fn names_without_the_prefix_are_ignored() {
        assert_eq!(check_env([("PATH", "/bin"), ("XQENS_TRACE", "1")]), Ok(()));
    }
}
