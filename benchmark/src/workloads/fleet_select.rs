//! `fleet_select`: one indexed `select` per operation over a million
//! summary-only nodes. `geom::index` probe/verify and `selection`
//! score/rank/sort do all the work; `fedlearn`, `mlkit` and `serve` do
//! none. No two queries share anything and the cache is off, so this is
//! the index's own cost.

use std::time::Instant;

use crate::digest::Digest;
use crate::facade::{self, ClusterBox, Network, Policy, Query, FLEET_L};
use crate::protocol::{Verified, Workload};
use crate::report::Metric;
use crate::spans::{p50_us, Recorder};
use crate::stats::{self, Rng};

const NODES: usize = 1_000_000;
const CLUSTERS_PER_NODE: usize = 3;
/// Side of the square joint space.
const SIDE: f64 = 1000.0;
/// Pool size: at the 17–27 ms an indexed select takes today, 128 gives
/// five to eight passes in a 20 s run.
const POOL: usize = 128;
/// Queries checked against the full scan (a scan is ~10× a select).
const SCAN_CHECKED: usize = 16;

pub struct FleetSelect {
    net: Network,
    policy: Policy,
    queries: Vec<Query>,
    fleet_build_s: f64,
    expected: Vec<u64>,
}

/// A node centred uniformly in the space with three small cluster
/// rectangles scattered around the centre, so hulls are tight and a
/// narrow query prunes most of the fleet.
fn fleet(seed: u64) -> Vec<facade::Node> {
    let mut rng = Rng::new(seed, 0xF1EE7);
    (0..NODES)
        .map(|id| {
            let (cx, cy) = (rng.range(0.0, SIDE), rng.range(0.0, SIDE));
            let clusters: Vec<ClusterBox> = (0..CLUSTERS_PER_NODE)
                .map(|k| {
                    let (ox, oy) = (rng.range(-2.0, 2.0), rng.range(-2.0, 2.0));
                    let (hx, hy) = (rng.range(0.5, 1.5), rng.range(0.5, 1.5));
                    let clamp = |v: f64| v.clamp(0.0, SIDE);
                    ClusterBox {
                        x: (clamp(cx + ox - hx), clamp(cx + ox + hx)),
                        y: (clamp(cy + oy - hy), clamp(cy + oy + hy)),
                        size: 16 + (id + k) % 48,
                    }
                })
                .collect();
            facade::summary_node(id, &clusters)
        })
        .collect()
}

impl Workload for FleetSelect {
    const NAME: &'static str = "fleet_select";
    const P99_METRIC: &'static str = "selection.latency_p99_ms";

    fn setup(seed: u64) -> Self {
        let start = Instant::now();
        let net = facade::network_from_nodes(fleet(seed));
        let fleet_build_s = start.elapsed().as_secs_f64();
        let policy = facade::policy(true, None, FLEET_L);
        let queries = facade::uniform_queries(SIDE, POOL, (0.01, 0.03), seed);
        // The first selection builds the index.
        std::hint::black_box(facade::select(&policy, &net, &queries[0]));
        Self {
            net,
            policy,
            queries,
            fleet_build_s,
            expected: Vec::new(),
        }
    }

    fn verify(&mut self) -> Verified {
        let scan = facade::policy(false, None, FLEET_L);
        let mut digest = Digest::new();
        let mut failed = 0;
        for (i, q) in self.queries.iter().enumerate() {
            let indexed = facade::selection_digest(&facade::select(&self.policy, &self.net, q));
            if i < SCAN_CHECKED
                && indexed != facade::selection_digest(&facade::select(&scan, &self.net, q))
            {
                failed += 1;
                eprintln!("fleet_select: query {i} differs from the full scan");
            }
            digest.word(indexed);
            self.expected.push(indexed);
        }
        Verified {
            attempted: self.queries.len() as u64,
            failed,
            digest: digest.value(),
            answer_loss: None,
            sim_s_per_query: None,
        }
    }

    fn ops_per_pass(&self) -> usize {
        self.queries.len()
    }

    fn pass(&mut self, rec: &mut Recorder, latencies_ms: &mut [f64]) -> u64 {
        let mut failed = 0;
        for (i, q) in self.queries.iter().enumerate() {
            let start = Instant::now();
            let selection = facade::select(&self.policy, &self.net, q);
            let end = Instant::now();
            latencies_ms[i] = (end - start).as_secs_f64() * 1e3;
            rec.record("selection.select", start, end, None, i as u64);
            if facade::selection_digest(&selection) != self.expected[i] {
                failed += 1;
            }
        }
        failed
    }

    fn layer_metrics(&mut self, rec: &mut Recorder, typical_ms: &[f64]) -> Vec<Metric> {
        // `geom::index` on its own: the same rectangles the policy's index
        // holds, probed with the same pool.
        let rects = facade::summary_bounds(&self.net);
        let mut index = None;
        for rep in 0..3 {
            let start = Instant::now();
            index = Some(facade::build_index(&rects));
            rec.record("geom.index_build", start, Instant::now(), None, rep);
        }
        let index = index.expect("built three times");
        drop(rects);
        let (mut candidates, mut cells, mut pruned, mut domains) = (0, 0, 0, 0);
        for (i, q) in self.queries.iter().enumerate() {
            let start = Instant::now();
            let counts = facade::candidates(&index, q);
            rec.record("geom.candidates", start, Instant::now(), None, i as u64);
            candidates += counts.candidates;
            cells += counts.cells_probed;
            pruned += counts.domains_pruned;
            domains += counts.domains;
        }
        drop(index);

        let scan = facade::policy(false, None, FLEET_L);
        for (i, q) in self.queries.iter().enumerate().take(8) {
            let start = Instant::now();
            std::hint::black_box(facade::select(&scan, &self.net, q));
            rec.record("selection.scan", start, Instant::now(), None, i as u64);
        }

        let n = self.queries.len() as f64;
        let select_ms = stats::median(typical_ms);
        let candidates_ms = p50_us(rec.spans(), "geom.candidates") / 1e3;
        let scan_ms = p50_us(rec.spans(), "selection.scan") / 1e3;
        vec![
            Metric::new("edgesim.fleet_build_s", self.fleet_build_s, "s"),
            Metric::new(
                "geom.index_build_ms",
                p50_us(rec.spans(), "geom.index_build") / 1e3,
                "ms",
            ),
            Metric::new("geom.candidates_ms", candidates_ms, "ms"),
            Metric::new("geom.candidates_per_query", candidates as f64 / n, "count"),
            Metric::new("geom.cells_probed_per_query", cells as f64 / n, "count"),
            Metric::new(
                "geom.domains_pruned_share",
                pruned as f64 / domains as f64,
                "ratio",
            ),
            Metric::new("selection.scan_1m_ms", scan_ms, "ms"),
            Metric::new("selection.index_speedup", scan_ms / select_ms, "ratio"),
            Metric::new("selection.score_rank_ms", select_ms - candidates_ms, "ms"),
            Metric::new("share.geom", candidates_ms / select_ms, "ratio"),
            Metric::new("share.selection", 1.0 - candidates_ms / select_ms, "ratio"),
        ]
    }

    fn describe(&self) -> String {
        format!(
            "pool {} nodes {} clusters_per_node {CLUSTERS_PER_NODE}",
            self.queries.len(),
            facade::node_count(&self.net)
        )
    }
}
