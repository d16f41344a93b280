//! The `repro fleet` experiment: fleet scorecards + selection-skew
//! analytics over the three canonical query streams.
//!
//! Runs the paper federation through 200-query uniform, drifting and
//! hotspot workloads (with a light deterministic dropout plan, so the
//! fault-facing counters — dropped, promoted, retried — are exercised
//! too), each into a telemetry handle of its own, snapshots the
//! scorecards and the logical-clock journal tail after each stream, and
//! writes:
//!
//! * `results/fleet.json` — per-workload fleet documents (scorecards +
//!   skew stats + journal tail), fixed key order;
//! * `results/fig10_fleet_skew.csv` — the selection heatmap: one row per
//!   (workload, node) with every lifetime counter and the node's share
//!   of the stream's selections.
//!
//! Both artifacts are pure functions of the seeds: every scorecard field
//! they contain is integer or leader-serial simulated time, and the
//! journal is exported on the logical clock — `tests/repro_cli.rs` runs
//! this twice (`QENS_THREADS=1` vs `4`) and byte-diffs the outputs.

use std::path::Path;

use qens::prelude::*;
use qens::telemetry;
use qens::workload::{WorkloadConfig, WorkloadKind};

use crate::{paper_federation, ExperimentScale, EPSILON, L_SELECT, SEED};

/// Queries per stream (the paper's workload length).
const N_QUERIES: usize = 200;
/// Journal events embedded per workload in `fleet.json`.
const JOURNAL_TAIL: usize = 64;
/// Per-round dropout probability of the deterministic fault plan.
const DROPOUT: f64 = 0.1;

/// One workload's recorded outcome.
#[derive(Debug, Clone)]
pub struct FleetRun {
    /// Workload label (`uniform` / `drifting` / `hotspot`).
    pub workload: &'static str,
    /// Scorecards after the stream, node order.
    pub cards: Vec<telemetry::fleet::Scorecard>,
    /// Fleet size the stream ran against.
    pub fleet_size: u64,
    /// Skew statistics over the final scorecards.
    pub skew: telemetry::fleet::SkewStats,
    /// The deterministic fleet JSON document.
    pub fleet_json: String,
    /// Logical-clock journal tail (JSON lines).
    pub journal_tail: String,
    /// Ledger totals for the agreement check: (retries, dropped,
    /// replacements) summed over the stream's accounting rows.
    pub ledger: (usize, usize, usize),
    /// Queries the stream failed (quorum lost). The ledger only rows
    /// completed queries, so fleet totals exceed it when this is > 0.
    pub failed: usize,
}

/// The three canonical streams, in report order.
fn workloads() -> Vec<(&'static str, WorkloadKind)> {
    vec![
        ("uniform", WorkloadKind::Uniform),
        (
            "drifting",
            WorkloadKind::Drifting {
                step_frac: 0.02,
                spread_frac: 0.03,
            },
        ),
        (
            "hotspot",
            WorkloadKind::Hotspot {
                hotspots: 3,
                spread_frac: 0.05,
            },
        ),
    ]
}

/// Runs the three streams and returns their recorded fleets.
pub fn run_fleet(scale: ExperimentScale) -> Vec<FleetRun> {
    let fed = paper_federation(scale, ModelKind::Linear, Aggregation::WeightedAveraging);
    let pk = PolicyKind::QueryDriven {
        epsilon: EPSILON,
        l: L_SELECT,
    };
    let mut runs = Vec::with_capacity(3);
    for (label, kind) in workloads() {
        let tele = telemetry::Telemetry::new();
        tele.fleet().set_enabled(true);
        let wl = fed.workload(&WorkloadConfig {
            n_queries: N_QUERIES,
            kind,
            ..WorkloadConfig::paper_default(SEED ^ 0x10)
        });
        let mut config = fed.config().clone();
        config.faults = Some(FaultSpec::dropout(SEED, DROPOUT));
        config.tolerance = FaultTolerance::full_strength();
        let stream = tele
            .enter(|| qens::fedlearn::run_stream(fed.network(), &wl, pk.build().as_ref(), &config));
        let cards = tele.fleet().snapshot();
        let fleet_size = tele.fleet().fleet_size();
        let skew = telemetry::fleet::skew(&cards, fleet_size, telemetry::fleet::PROM_TOP_K);
        let ledger = (
            stream.accounting.rows.iter().map(|r| r.retries).sum(),
            stream
                .accounting
                .rows
                .iter()
                .map(|r| r.dropped_participants)
                .sum(),
            stream.accounting.rows.iter().map(|r| r.replacements).sum(),
        );
        runs.push(FleetRun {
            workload: label,
            cards,
            fleet_size,
            skew,
            fleet_json: tele.fleet().to_json(),
            journal_tail: tele
                .journal()
                .to_jsonl(telemetry::trace::Clock::Logical, Some(JOURNAL_TAIL)),
            ledger,
            failed: stream
                .per_query
                .iter()
                .filter(|q| q.error.is_some())
                .count(),
        });
    }
    runs
}

/// The combined `results/fleet.json` document: one entry per workload,
/// the journal tail embedded as an array of event objects.
pub fn to_json(runs: &[FleetRun]) -> String {
    let mut out = String::with_capacity(runs.iter().map(|r| r.fleet_json.len() + 4096).sum());
    out.push_str("{\"workloads\":[");
    for (i, run) in runs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"workload\":\"");
        out.push_str(run.workload);
        out.push_str("\",\"fleet\":");
        out.push_str(&run.fleet_json);
        out.push_str(",\"journal_tail\":[");
        let mut first = true;
        for line in run.journal_tail.lines().filter(|l| !l.is_empty()) {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(line);
        }
        out.push_str("]}");
    }
    out.push_str("]}");
    out.push('\n');
    out
}

/// The `results/fig10_fleet_skew.csv` heatmap: one row per
/// (workload, node), zero cards included so every cell of the heatmap is
/// present.
pub fn to_csv(runs: &[FleetRun]) -> String {
    let mut out = String::from(
        "workload,node,selected,participated,dropped,straggled,retried,promoted,\
         rounds_trained,bytes_transferred,share\n",
    );
    for run in runs {
        let total = run.skew.total_selections.max(1);
        let n = run.fleet_size.max(run.cards.len() as u64);
        for node in 0..n {
            match run.cards.iter().find(|c| c.node == node) {
                Some(card) => out.push_str(&format!(
                    "{},{},{},{},{},{},{},{},{},{},{:.6}\n",
                    run.workload,
                    card.node,
                    card.selected,
                    card.participated,
                    card.dropped,
                    card.straggled,
                    card.retried,
                    card.promoted,
                    card.rounds_trained,
                    card.bytes_transferred,
                    card.selected as f64 / total as f64,
                )),
                // A node the stream never touched: an explicit zero row,
                // so the heatmap has every cell.
                None => out.push_str(&format!(
                    "{},{},0,0,0,0,0,0,0,0,0.000000\n",
                    run.workload, node
                )),
            }
        }
    }
    out
}

/// Runs the experiment, prints the skew table and writes both artifacts.
pub fn run_and_write(scale: ExperimentScale, dir: &Path) -> std::io::Result<Vec<FleetRun>> {
    let runs = run_fleet(scale);
    println!("Fig. 10: selection skew per workload (fleet observability)");
    println!(
        "{:<10} {:>6} {:>10} {:>8} {:>8} {:>7} {:>9} {:>10}",
        "workload", "nodes", "selections", "gini", "entropy", "never", "hottest", "selected"
    );
    for run in &runs {
        let (hot_node, hot_count) = run.skew.top.first().copied().unwrap_or((0, 0));
        println!(
            "{:<10} {:>6} {:>10} {:>8.4} {:>8.4} {:>7} {:>9} {:>10}",
            run.workload,
            run.fleet_size,
            run.skew.total_selections,
            run.skew.gini,
            run.skew.entropy,
            run.skew.never_selected,
            format!("n{hot_node}"),
            hot_count,
        );
        // The registry and the simulator ledger must tell one story.
        // The ledger only rows completed queries, so a stream with
        // quorum-lost failures legitimately shows more fleet activity;
        // agreement is exact otherwise.
        let fleet = (
            run.cards.iter().map(|c| c.retried).sum::<u64>(),
            run.cards.iter().map(|c| c.dropped).sum::<u64>(),
            run.cards.iter().map(|c| c.promoted).sum::<u64>(),
        );
        let ledger = (
            run.ledger.0 as u64,
            run.ledger.1 as u64,
            run.ledger.2 as u64,
        );
        if run.failed == 0 {
            assert_eq!(
                fleet, ledger,
                "{}: scorecard totals must agree with the QueryAccounting ledger",
                run.workload
            );
        } else {
            assert!(
                fleet.0 >= ledger.0 && fleet.1 >= ledger.1 && fleet.2 >= ledger.2,
                "{}: fleet {fleet:?} must cover the completed-query ledger {ledger:?}",
                run.workload
            );
            println!(
                "  ({}: {} queries lost quorum; fleet counts their activity, \
                 the ledger does not)",
                run.workload, run.failed
            );
        }
    }
    std::fs::create_dir_all(dir)?;
    let json_path = dir.join("fleet.json");
    std::fs::write(&json_path, to_json(&runs))?;
    let csv_path = dir.join("fig10_fleet_skew.csv");
    std::fs::write(&csv_path, to_csv(&runs))?;
    println!(
        "(fleet scorecards -> {}, skew heatmap -> {})\n",
        json_path.display(),
        csv_path.display()
    );
    Ok(runs)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Structural checks only: the fleet registry is process-global and
    /// other bench tests in this binary run queries concurrently, so
    /// exact counts are asserted in `tests/fleet_observability.rs`
    /// (its own process) and on the single-purpose `repro fleet` path.
    #[test]
    fn fleet_runs_are_recorded_and_serialised() {
        let runs = run_fleet(ExperimentScale::Quick);
        assert_eq!(runs.len(), 3);
        for run in &runs {
            assert!(run.skew.total_selections > 0, "{}", run.workload);
            assert!(!run.cards.is_empty());
            assert!(run.fleet_json.contains("\"skew\":{"));
            assert!(
                run.journal_tail.contains("\"kind\":\"node_selected\""),
                "{} journal: {}",
                run.workload,
                run.journal_tail.len()
            );
            // The logical tail must not leak wall time.
            assert!(!run.journal_tail.contains("wall_nanos"));
        }
        let doc = to_json(&runs);
        assert!(doc.starts_with("{\"workloads\":[{\"workload\":\"uniform\""));
        assert_eq!(doc.matches('{').count(), doc.matches('}').count());
        let csv = to_csv(&runs);
        assert!(csv.lines().count() > 3);
        assert!(csv.starts_with("workload,node,selected"));
    }
}
