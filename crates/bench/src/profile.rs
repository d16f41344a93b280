//! The `repro profile` subcommand: run a deterministic profiling
//! workload and answer "where does a query spend its time?" three ways.
//!
//! Two passes over the same federation and query mix:
//!
//! 1. **Wall clock** — real nanosecond attribution, worker spans
//!    included. Printed as a top-self-time table plus the flight
//!    recorder's slowest queries and the SLO summary.
//! 2. **Logical clock** — deterministic tick attribution, leader-serial
//!    spans only. Written to `results/profile.folded` (flamegraph.pl
//!    folded format) and `results/profile.svg` (a self-contained
//!    flamegraph). Both artifacts are **byte-identical for any
//!    `QENS_THREADS`** — `tests/repro_cli.rs` diffs them at two pool
//!    sizes, which turns the profile itself into a CI regression
//!    artifact: any change to the span layout of the pipeline shows up
//!    as a diff.
//!
//! The workload is fixed-seed and mildly hostile (dropout + link loss
//! with full fault tolerance), so the profile covers the retry and
//! standby-promotion phases, not just the happy path.

use std::path::PathBuf;

use qens::prelude::*;
use qens::telemetry;
use qens::telemetry::profile as tprofile;
use qens::telemetry::trace;

/// What `repro profile` should run and where the artifacts land.
#[derive(Debug, Clone)]
pub struct ProfileOptions {
    /// Queries per pass.
    pub queries: u64,
    /// Output directory for `profile.folded` / `profile.svg`.
    pub out_dir: PathBuf,
}

impl Default for ProfileOptions {
    fn default() -> Self {
        Self {
            queries: 8,
            out_dir: PathBuf::from("results"),
        }
    }
}

/// Builds the fixed profiling federation (seeded, faulty, telemetry on).
fn build_federation() -> Federation {
    FederationBuilder::new()
        .heterogeneous_nodes(6, 120)
        .clusters_per_node(4)
        .seed(13)
        .epochs(2)
        .telemetry(true)
        .faults(
            FaultSpec::unreliable_edge(13)
                .with_dropout(0.25)
                .with_link_loss(0.4),
        )
        .fault_tolerance(FaultTolerance::full_strength())
        .build()
}

/// Runs the query mix once. Quorum loss under the hostile plan is fine —
/// failed attempts profile deterministically too, and the profiler must
/// cover them.
fn run_workload(fed: &Federation, queries: u64) {
    for qid in 0..queries {
        let lo = (qid % 3) as f64 * 5.0;
        let q = fed.query_from_bounds(qid, &[lo, lo + 20.0, 0.0, 45.0]);
        let _ = fed.run_query(&q, &PolicyKind::query_driven(3));
    }
}

/// One profiling pass under `clock`: fresh trace store, fresh flight
/// recorder/SLO state, the full query mix, then the aggregated profile.
fn profile_pass(clock: trace::Clock, queries: u64) -> tprofile::Profile {
    trace::set_mode(Some(clock));
    trace::clear();
    tprofile::reset();
    let fed = build_federation();
    run_workload(&fed, queries);
    tprofile::aggregate(&trace::snapshot_events())
}

fn print_top_table(profile: &tprofile::Profile, unit: &str) {
    println!(
        "  {:<52} {:>12} {:>12} {:>7}",
        "phase path", "self", "total", "count"
    );
    for (path, stat) in profile.top_by_self(14) {
        let shown: String = if path.len() > 52 {
            format!("..{}", &path[path.len() - 50..])
        } else {
            path.to_string()
        };
        println!(
            "  {shown:<52} {:>12} {:>12} {:>7}",
            format!("{} {unit}", stat.self_time),
            format!("{} {unit}", stat.total),
            stat.count
        );
    }
}

fn print_slowest(unit: &str) {
    let slowest = tprofile::slowest();
    if slowest.is_empty() {
        println!("  (flight recorder empty)");
        return;
    }
    for (rank, e) in slowest.iter().enumerate() {
        println!(
            "  #{:<2} query {:<4} {:>12} {unit}  ({} events retained)",
            rank + 1,
            e.query_id,
            e.duration,
            e.events.len()
        );
    }
}

/// Runs both passes and writes the logical-clock artifacts. Returns the
/// paths written.
///
/// # Panics
/// If the workload produces an empty profile or a malformed SVG — this
/// is a tier-1 gate, so a broken profiler must fail loudly.
pub fn run_profile(opts: &ProfileOptions) -> std::io::Result<(PathBuf, PathBuf)> {
    telemetry::set_enabled(true);

    // Pass 1: wall clock — the "real time" view.
    println!(
        "== profile pass 1: wall clock ({} queries) ==",
        opts.queries
    );
    let wall = profile_pass(trace::Clock::Wall, opts.queries);
    print_top_table(&wall, "ns");
    println!("\nslowest queries (flight recorder, wall nanos):");
    print_slowest("ns");
    let slo = tprofile::slo_view();
    println!(
        "\nSLO: objective {:.1} ms, target {:.3}: {} good / {} bad, burn 1x {:.3}, 6x {:.3}",
        tprofile::SLO_OBJECTIVE_NANOS as f64 / 1e6,
        tprofile::SLO_TARGET,
        slo.good_total,
        slo.bad_total,
        slo.burn_rate_1x,
        slo.burn_rate_6x,
    );

    // Pass 2: logical clock — the deterministic CI artifact.
    println!(
        "\n== profile pass 2: logical clock ({} queries) ==",
        opts.queries
    );
    let logical = profile_pass(trace::Clock::Logical, opts.queries);
    print_top_table(&logical, "ticks");
    println!("\nslowest queries (flight recorder, tick spans):");
    print_slowest("ticks");

    let folded = tprofile::to_folded(&logical);
    assert!(
        !folded.is_empty(),
        "logical profile pass produced no folded stacks"
    );
    for phase in ["query", "query;fedlearn.round", "query;fedlearn.select"] {
        assert!(
            folded.lines().any(|l| l.starts_with(&format!("{phase} "))),
            "folded profile is missing the {phase} path"
        );
    }
    let svg = tprofile::to_svg(&logical, "qens logical profile", "ticks");
    assert!(
        svg.starts_with("<svg ") && svg.trim_end().ends_with("</svg>"),
        "profile SVG is not a complete document"
    );

    std::fs::create_dir_all(&opts.out_dir)?;
    let folded_path = opts.out_dir.join("profile.folded");
    let svg_path = opts.out_dir.join("profile.svg");
    std::fs::write(&folded_path, &folded)?;
    std::fs::write(&svg_path, &svg)?;
    trace::set_mode(None);
    trace::clear();
    println!(
        "\nprofile OK: {} folded paths -> {}, {} byte SVG -> {}",
        logical.paths.len(),
        folded_path.display(),
        svg.len(),
        svg_path.display()
    );
    println!("(both artifacts are byte-identical for any QENS_THREADS)");
    Ok((folded_path, svg_path))
}
