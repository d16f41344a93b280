//! `repro scale`: the fleet-size scaling experiment (Fig. 11).
//!
//! The paper's experiments stop at tens of nodes; ROADMAP item 1 asks
//! what happens at fleet scale. This module sweeps a synthetic
//! shared-space fleet across 1k / 10k / 100k / 1M nodes and runs the
//! same seeded query stream through both candidate sources of
//! [`QueryDriven`]:
//!
//! * `scan` — every node scored, and
//! * `indexed` — [`QueryDriven::indexed`], only the nodes the spatial
//!   index cannot rule out scored, by the same loop.
//!
//! Every query asserts the two selections are **bit-identical** before
//! anything is recorded, so the committed artifact doubles as an
//! equivalence check at scales the oracle cannot afford.
//!
//! `results/fig11_scale.csv` carries *structural* columns only — node
//! counts, probe counters, participant totals and an FNV selection
//! hash, never wall-clock — so the file is byte-identical at any
//! `QENS_THREADS` (`tests/repro_cli.rs` diffs two runs). Wall-clock
//! observations go to stdout where they belong.
//!
//! # The fleet constructor
//!
//! [`synthetic_fleet`] builds **summary-only** nodes
//! ([`EdgeNode::from_summaries`]): each node carries its cluster
//! summaries and no rows at all — no node-local part. That is exactly
//! the leader's view of a real fleet — the leader never holds remote
//! datasets, only the quantised synopses the nodes shipped (§III-B) —
//! and it is what makes a million-node sweep fit in memory: the
//! per-node footprint is the 96-byte leader view plus its summaries,
//! not a dataset clone.

use std::path::Path;
use std::time::Instant;

use qens::cluster::ClusterSummary;
use qens::edgesim::{EdgeNetwork, EdgeNode, NodeId};
use qens::geom::{HyperRect, Interval};
use qens::linalg::rng::{self as lrng, Rng};
use qens::selection::{
    GridConfig, Participant, QueryDriven, Ranked, Selection, SelectionContext, SelectionPolicy,
};
use qens::workload::{self, WorkloadConfig, WorkloadKind};

use crate::report;

/// Fleet sizes the sweep visits (the x-axis of Fig. 11).
pub const FLEET_SIZES: [usize; 4] = [1_000, 10_000, 100_000, 1_000_000];

/// Clusters per synthetic node.
pub const CLUSTERS_PER_NODE: usize = 3;

/// Fleet construction seed (workload uses its own).
pub const FLEET_SEED: u64 = 77;

/// Queries per fleet size.
pub const N_QUERIES: usize = 20;

/// The shared 2-D joint space every synthetic node lives in.
pub fn scale_space() -> HyperRect {
    HyperRect::new(vec![Interval::new(0.0, 1000.0), Interval::new(0.0, 1000.0)])
}

/// Builds an `n_nodes`-strong summary-only fleet over [`scale_space`].
///
/// Each node draws a centre uniformly over the space and scatters
/// `clusters_per_node` small cluster rectangles (half-widths 0.5–1.5,
/// centre jitter ±2, clamped to the space) around it, so node hulls are
/// tight and a narrow query prunes most of the fleet. Construction is
/// a single seeded pass: byte-identical fleets for a given
/// `(n_nodes, clusters_per_node, seed)` triple on every machine.
///
/// # Panics
/// Panics if `n_nodes == 0` or `clusters_per_node == 0`.
pub fn synthetic_fleet(n_nodes: usize, clusters_per_node: usize, seed: u64) -> EdgeNetwork {
    assert!(n_nodes > 0, "synthetic fleet needs at least one node");
    assert!(clusters_per_node > 0, "synthetic nodes need clusters");
    let space = scale_space();
    let (space_lo, space_hi) = {
        let iv = &space.intervals()[0];
        (iv.lo(), iv.hi())
    };
    let mut rng = lrng::rng_for(seed, 0x5CA1E);
    let mut nodes = Vec::with_capacity(n_nodes);
    for i in 0..n_nodes {
        let cx: f64 = rng.gen_range(space_lo..space_hi);
        let cy: f64 = rng.gen_range(space_lo..space_hi);
        let mut summaries = Vec::with_capacity(clusters_per_node);
        for k in 0..clusters_per_node {
            let ox: f64 = rng.gen_range(-2.0..2.0);
            let oy: f64 = rng.gen_range(-2.0..2.0);
            let hx: f64 = rng.gen_range(0.5..1.5);
            let hy: f64 = rng.gen_range(0.5..1.5);
            let x = Interval::new(
                (cx + ox - hx).clamp(space_lo, space_hi),
                (cx + ox + hx).clamp(space_lo, space_hi),
            );
            let y = Interval::new(
                (cy + oy - hy).clamp(space_lo, space_hi),
                (cy + oy + hy).clamp(space_lo, space_hi),
            );
            summaries.push(ClusterSummary {
                cluster_id: k,
                size: 16 + (i + k) % 48,
                // The node's leader view drops it on intake.
                representative: Vec::new(),
                rect: HyperRect::new(vec![x, y]),
            });
        }
        nodes.push(EdgeNode::from_summaries(
            NodeId(i),
            format!("synth-{i}"),
            1.0,
            summaries,
        ));
    }
    EdgeNetwork::from_nodes(nodes)
}

/// The scaling workload: narrow uniform queries (0.01–0.03 span
/// fraction per side), so candidate fractions stay small and the
/// index's pruning is visible at every fleet size.
pub fn scale_workload() -> workload::QueryWorkload {
    workload::generate(
        &scale_space(),
        &WorkloadConfig {
            n_queries: N_QUERIES,
            halfwidth_frac: (0.01, 0.03),
            kind: WorkloadKind::Uniform,
            seed: 4242,
        },
    )
}

/// One CSV row of the sweep (one fleet size × one candidate source).
#[derive(Debug, Clone, PartialEq)]
pub struct ScaleRow {
    /// Fleet size.
    pub nodes: usize,
    /// `"scan"` or `"indexed"`.
    pub path: &'static str,
    /// Queries run.
    pub queries: usize,
    /// Nodes the scoring loop actually scored across all queries.
    pub scored_nodes: u64,
    /// Grid cells visited (indexed path; 0 for scan).
    pub cells_probed: u64,
    /// Domains eliminated before per-node work (indexed; 0 for scan).
    pub domains_pruned: u64,
    /// Index rebuilds (indexed; 0 for scan).
    pub rebuilds: u64,
    /// Participants selected across all queries (identical per pair).
    pub participants: u64,
    /// Standby-tail nodes across all queries (identical per pair).
    pub standby: u64,
    /// FNV-1a hash over every selection's full structure.
    pub selection_hash: u64,
}

/// Folds one selection into an FNV-1a accumulator: node ids, ranking
/// bits and supporting-cluster structure for participants and standby
/// alike, each standby entry as `promote` turns it into a participant.
/// Bitwise — two sources produce equal hashes iff their selections are
/// bit-identical in every float.
fn fold_selection(
    mut h: u64,
    qid: u64,
    sel: &Selection,
    promote: impl Fn(&Ranked) -> Participant,
) -> u64 {
    const PRIME: u64 = 0x100_0000_01b3;
    let mut eat = |v: u64| {
        for byte in v.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(PRIME);
        }
    };
    eat(qid);
    let standby: Vec<Participant> = sel.standby.iter().map(promote).collect();
    for (tag, list) in [(1u64, &sel.participants), (2u64, &standby)] {
        eat(tag);
        eat(list.len() as u64);
        for p in list {
            eat(p.node.0 as u64);
            eat(p.ranking.to_bits());
            eat(p.supporting_clusters.len() as u64);
            for sc in &p.supporting_clusters {
                eat(sc.cluster_id as u64);
                eat(sc.overlap.to_bits());
                eat(sc.size as u64);
            }
        }
    }
    h
}

/// FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Runs the sweep over `sizes`, asserting scan/indexed bit-identity on
/// every query, and returns a `(scan, indexed)` row pair per size.
///
/// # Panics
/// Panics if any query's indexed selection diverges from the scan — the
/// sweep is an equivalence proof first and a scaling experiment second.
pub fn run_sweep(sizes: &[usize]) -> Vec<ScaleRow> {
    let workload = scale_workload();
    let mut rows = Vec::new();
    for &n in sizes {
        let build_start = Instant::now();
        let network = synthetic_fleet(n, CLUSTERS_PER_NODE, FLEET_SEED);
        println!(
            "scale: fleet of {n} summary-only nodes built in {:.2?}",
            build_start.elapsed()
        );

        let scan = QueryDriven::top_l(crate::L_SELECT);
        let indexed = QueryDriven::top_l(crate::L_SELECT).indexed(GridConfig::default());

        let mut scan_hash = FNV_OFFSET;
        let mut indexed_hash = FNV_OFFSET;
        let mut participants = 0u64;
        let mut standby = 0u64;
        let (mut scan_nanos, mut indexed_nanos) = (0u128, 0u128);
        for q in &workload.queries {
            let ctx = SelectionContext::new(&network, q);
            let t = Instant::now();
            let s = scan.select(&ctx);
            scan_nanos += t.elapsed().as_nanos();
            let t = Instant::now();
            let i = indexed.select(&ctx);
            indexed_nanos += t.elapsed().as_nanos();
            assert_eq!(
                s,
                i,
                "indexed selection diverged from the full scan at {n} nodes, query {}",
                q.id()
            );
            scan_hash = fold_selection(scan_hash, q.id(), &s, |r| scan.promote(&ctx, r));
            indexed_hash = fold_selection(indexed_hash, q.id(), &i, |r| indexed.promote(&ctx, r));
            participants += s.participants.len() as u64;
            standby += s.standby.len() as u64;
        }
        assert_eq!(scan_hash, indexed_hash, "selection hashes must agree");

        let stats = indexed.index_stats();
        let q = workload.queries.len();
        println!(
            "scale: {n:>9} nodes  scan {:>12.0} ns/query  indexed {:>12.0} ns/query  \
             ({} candidates / {} scored, {} domains pruned)",
            scan_nanos as f64 / q as f64,
            indexed_nanos as f64 / q as f64,
            stats.candidates,
            n as u64 * q as u64,
            stats.domains_pruned,
        );
        rows.push(ScaleRow {
            nodes: n,
            path: "scan",
            queries: q,
            scored_nodes: n as u64 * q as u64,
            cells_probed: 0,
            domains_pruned: 0,
            rebuilds: 0,
            participants,
            standby,
            selection_hash: scan_hash,
        });
        rows.push(ScaleRow {
            nodes: n,
            path: "indexed",
            queries: q,
            scored_nodes: stats.candidates,
            cells_probed: stats.cells_probed,
            domains_pruned: stats.domains_pruned,
            rebuilds: stats.rebuilds,
            participants,
            standby,
            selection_hash: indexed_hash,
        });
    }
    rows
}

/// Renders rows into the committed CSV shape.
pub fn csv_rows(rows: &[ScaleRow]) -> Vec<Vec<String>> {
    rows.iter()
        .map(|r| {
            vec![
                r.nodes.to_string(),
                r.path.to_string(),
                r.queries.to_string(),
                r.scored_nodes.to_string(),
                r.cells_probed.to_string(),
                r.domains_pruned.to_string(),
                r.rebuilds.to_string(),
                r.participants.to_string(),
                r.standby.to_string(),
                format!("{:016x}", r.selection_hash),
            ]
        })
        .collect()
}

/// CSV header (column meanings in [`ScaleRow`]).
pub const CSV_HEADER: &str =
    "nodes,path,queries,scored_nodes,cells_probed,domains_pruned,rebuilds,participants,standby,selection_hash";

/// The `repro scale` entry point: full sweep, CSV into `out_dir`.
pub fn run_scale(out_dir: &Path) -> std::io::Result<()> {
    let rows = run_sweep(&FLEET_SIZES);
    let path = out_dir.join("fig11_scale.csv");
    report::write_csv(&path, CSV_HEADER, &csv_rows(&rows))?;
    println!("(scaling series -> {})", path.display());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_fleet_is_deterministic_and_summary_only() {
        let a = synthetic_fleet(64, 3, 9);
        let b = synthetic_fleet(64, 3, 9);
        assert_eq!(a.nodes().len(), 64);
        for (x, y) in a.nodes().iter().zip(b.nodes()) {
            assert!(x.is_quantized());
            assert_eq!(x.summaries(), y.summaries());
            // Summary-only: no rows at all, the joint space read off the
            // summaries.
            assert_eq!(x.len(), 0);
            assert!(x.is_empty());
            assert_eq!(x.joint_dim(), 2);
        }
        // Different seed, different fleet.
        let c = synthetic_fleet(64, 3, 10);
        assert_ne!(a.nodes()[0].summaries(), c.nodes()[0].summaries());
    }

    #[test]
    fn rects_stay_inside_the_space() {
        let net = synthetic_fleet(200, 3, 77);
        let space = scale_space();
        for node in net.nodes() {
            for s in node.summaries().iter() {
                for (d, iv) in s.bounds.iter().enumerate() {
                    let sp = &space.intervals()[d];
                    assert!(iv.lo() >= sp.lo() && iv.hi() <= sp.hi());
                }
            }
        }
    }

    #[test]
    fn sweep_rows_pair_up_and_agree() {
        let rows = run_sweep(&[300]);
        assert_eq!(rows.len(), 2);
        let (scan, indexed) = (&rows[0], &rows[1]);
        assert_eq!(scan.path, "scan");
        assert_eq!(indexed.path, "indexed");
        assert_eq!(scan.selection_hash, indexed.selection_hash);
        assert_eq!(scan.participants, indexed.participants);
        assert!(scan.participants > 0, "sweep should select someone");
        assert_eq!(scan.scored_nodes, 300 * N_QUERIES as u64);
        assert!(
            indexed.scored_nodes < scan.scored_nodes,
            "index should prune at least one node"
        );
        assert_eq!(indexed.rebuilds, 1);
    }

    #[test]
    fn csv_rows_are_structural_only() {
        let rows = run_sweep(&[120]);
        let a = csv_rows(&rows);
        let b = csv_rows(&run_sweep(&[120]));
        assert_eq!(a, b, "CSV rows must be run-to-run identical");
        assert_eq!(CSV_HEADER.split(',').count(), a[0].len());
    }
}
