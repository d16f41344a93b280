//! `fleet_churn`: the same `selection` + `geom::index` layer used
//! differently — shared instead of unshared queries, and writes beside
//! the reads. Index and cache are both on; every 64th selection is
//! followed by one node absorbing samples and re-quantising. A change
//! that speeds `fleet_select`'s probe by making the build, the staleness
//! walk or per-entry memory heavier shows here.
//!
//! The selections of a pass are a fixed mix, so that every path of the
//! cache runs in every pass: 5 in 8 come from eight hotspots and share
//! buckets (delta re-scoring), 1 in 8 repeats the selection before it
//! (an exact hit), and 2 in 8 are drawn uniformly from the whole space —
//! three in four of those find no entry in their buckets (a miss, and
//! once the table is full a FIFO eviction — of a hot entry as often as
//! not, which then misses too). The first miss after a mutation pays the
//! index rebuild. Misses are a fifth of the selections on purpose:
//! `latency_p90_ms` then lies among them, not on the edge between the
//! slowest hit and the fastest miss.

use std::time::Instant;

use crate::digest::Digest;
use crate::facade::{self, CacheCounts, Network, NodeData, Policy, Query, FLEET_L};
use crate::protocol::{Verified, Workload};
use crate::report::Metric;
use crate::spans::{p50_us, Recorder};
use crate::stats::Rng;

const NODES: usize = 20_000;
const SAMPLES_PER_NODE: usize = 24;
const SIDE: f64 = 1000.0;
/// Selections per pass.
const POOL: usize = 512;
/// Every this-many-th selection is a cold query.
const COLD_EVERY: u64 = 4;
/// Selections `REPEAT_AT` past a multiple of this repeat their
/// predecessor.
const REPEAT_EVERY: u64 = 8;
const REPEAT_AT: u64 = 2;
/// Hot queries: what a pass has left after its cold and repeated ones,
/// so each pass walks the hot pool once.
const HOT: usize = POOL - POOL / COLD_EVERY as usize - POOL / REPEAT_EVERY as usize;
/// Cold queries; they come round again only long after the table has
/// dropped them.
const COLD: usize = 2048;
const CACHE_BUCKET: f64 = 64.0;
/// A mutation follows every this many selections.
const MUTATE_EVERY: u64 = 64;

pub struct FleetChurn {
    net: Network,
    policy: Policy,
    hot: Vec<Query>,
    cold: Vec<Query>,
    seed: u64,
    /// Selections made on `net` so far; drives the mutation schedule.
    op: u64,
    /// Per-class select times (µs) of the traced passes.
    exact_us: Vec<f64>,
    delta_us: Vec<f64>,
    miss_us: Vec<f64>,
    /// Misses that were the first after a mutation: they pay the index
    /// rebuild.
    rebuild_us: Vec<f64>,
    /// A node changed since the last miss, so the policy's index is out
    /// of date (hits re-score stale nodes without it).
    index_stale: bool,
    /// Where each node's samples lie; new samples land there too.
    centres: Vec<(f64, f64)>,
}

/// Samples scattered within a few units of `centre`.
fn samples(rng: &mut Rng, centre: (f64, f64), n: usize) -> Vec<(f64, f64)> {
    (0..n)
        .map(|_| {
            (
                (centre.0 + rng.range(-3.0, 3.0)).clamp(0.0, SIDE),
                (centre.1 + rng.range(-3.0, 3.0)).clamp(0.0, SIDE),
            )
        })
        .collect()
}

/// The mutation that follows selection number `op`, if one does: which
/// node, and the two samples it absorbs. A function of the seed and the
/// operation number only, so the verify pass can replay it on a second
/// network.
fn mutation(seed: u64, op: u64, centres: &[(f64, f64)]) -> Option<(usize, Vec<(f64, f64)>)> {
    op.is_multiple_of(MUTATE_EVERY).then(|| {
        let node = (op.wrapping_mul(7919) % NODES as u64) as usize;
        let mut rng = Rng::new(seed, 0xC0DE ^ op);
        (node, samples(&mut rng, centres[node], 2))
    })
}

enum Class {
    Exact,
    Delta,
    Miss,
}

fn classify(before: CacheCounts, after: CacheCounts) -> Class {
    if after.misses > before.misses {
        Class::Miss
    } else if after.delta_hits > before.delta_hits {
        Class::Delta
    } else {
        Class::Exact
    }
}

/// One selection on the live network: what came back, when, and which
/// cache path served it.
struct Timed {
    selection: facade::Selection,
    start: Instant,
    end: Instant,
    class: Class,
    /// A miss on an out-of-date index: it paid the rebuild.
    rebuilt: bool,
}

impl FleetChurn {
    fn counts(&self) -> CacheCounts {
        facade::cache_counts(&self.policy).expect("the churn policy is cached")
    }

    /// The query of selection number `op` (from 1): a function of the
    /// number alone, so the verify pass can replay it.
    fn query(&self, op: u64) -> &Query {
        if op.is_multiple_of(COLD_EVERY) {
            &self.cold[(op / COLD_EVERY) as usize % COLD]
        } else if op % REPEAT_EVERY == REPEAT_AT {
            self.query(op - 1)
        } else {
            let not_hot_so_far = op / COLD_EVERY + (op + REPEAT_EVERY - REPEAT_AT) / REPEAT_EVERY;
            &self.hot[(op - not_hot_so_far) as usize % HOT]
        }
    }

    /// The next selection of the schedule. Reading the cache's counters
    /// around it is outside the timed interval.
    fn select_next(&mut self) -> Timed {
        self.op += 1;
        let before = self.counts();
        let start = Instant::now();
        let selection = facade::select(&self.policy, &self.net, self.query(self.op));
        let end = Instant::now();
        let class = classify(before, self.counts());
        let rebuilt = matches!(class, Class::Miss) && self.index_stale;
        if matches!(class, Class::Miss) {
            self.index_stale = false;
        }
        Timed {
            selection,
            start,
            end,
            class,
            rebuilt,
        }
    }

    /// The mutation the schedule puts after the selection just made.
    fn due_mutation(&self) -> Option<(usize, Vec<(f64, f64)>)> {
        mutation(self.seed, self.op, &self.centres)
    }
}

impl Workload for FleetChurn {
    const NAME: &'static str = "fleet_churn";
    const P99_METRIC: &'static str = "selection.latency_p99_ms";

    fn setup(seed: u64) -> Self {
        let mut rng = Rng::new(seed, 0xDA7A);
        let centres: Vec<(f64, f64)> = (0..NODES)
            .map(|_| (rng.range(0.0, SIDE), rng.range(0.0, SIDE)))
            .collect();
        let nodes: Vec<NodeData> = centres
            .iter()
            .enumerate()
            .map(|(id, &centre)| NodeData {
                name: format!("churn-{id}"),
                points: samples(&mut rng, centre, SAMPLES_PER_NODE),
            })
            .collect();
        let fed = facade::churn_federation(&nodes, seed, CACHE_BUCKET);
        let policy = facade::build_policy(&fed, FLEET_L);
        let hot = facade::hotspot_queries(&fed, HOT, 8, 0.002, (0.01, 0.03), seed);
        let cold = facade::uniform_queries(SIDE, COLD, (0.01, 0.03), seed);
        // The workload mutates nodes, the federation only lends its
        // network out: work on a clone.
        let net = facade::network(&fed).clone();
        std::hint::black_box(facade::select(&policy, &net, &hot[0]));
        Self {
            net,
            policy,
            hot,
            cold,
            seed,
            op: 0,
            exact_us: Vec::new(),
            delta_us: Vec::new(),
            miss_us: Vec::new(),
            rebuild_us: Vec::new(),
            index_stale: false,
            centres,
        }
    }

    fn verify(&mut self) -> Verified {
        // The reference: a second clone, the plain full scan, the same
        // selections and mutations in the same order.
        let mut reference = self.net.clone();
        let scan = facade::policy(false, None, FLEET_L);
        let mut digest = Digest::new();
        let mut failed = 0;
        for _ in 0..POOL {
            let got = facade::selection_digest(&self.select_next().selection);
            let want =
                facade::selection_digest(&facade::select(&scan, &reference, self.query(self.op)));
            if got != want {
                failed += 1;
                eprintln!(
                    "fleet_churn: selection {} differs from the full scan",
                    self.op
                );
            }
            digest.word(got);
            if let Some((node, points)) = self.due_mutation() {
                facade::absorb_and_requantize(&mut self.net, node, &points, self.seed);
                facade::absorb_and_requantize(&mut reference, node, &points, self.seed);
                self.index_stale = true;
            }
        }
        // Let the table fill before anything is timed, so that every
        // timed pass runs with evictions: cold queries from the far end
        // of the list, until the first entry is pushed out.
        let mut fill = self.cold.iter().rev();
        while self.counts().evictions == 0 {
            let Some(q) = fill.next() else { break };
            std::hint::black_box(facade::select(&self.policy, &self.net, q));
        }
        self.index_stale = false;
        Verified {
            attempted: POOL as u64,
            failed,
            digest: digest.value(),
            answer_loss: None,
            sim_s_per_query: None,
        }
    }

    fn ops_per_pass(&self) -> usize {
        POOL
    }

    fn pass(&mut self, rec: &mut Recorder, latencies_ms: &mut [f64]) -> u64 {
        for latency_ms in latencies_ms {
            let t = self.select_next();
            *latency_ms = (t.end - t.start).as_secs_f64() * 1e3;
            rec.record("selection.select", t.start, t.end, None, self.op);
            if rec.enabled() {
                let us = (t.end - t.start).as_secs_f64() * 1e6;
                match t.class {
                    Class::Exact => self.exact_us.push(us),
                    Class::Delta => self.delta_us.push(us),
                    Class::Miss if t.rebuilt => self.rebuild_us.push(us),
                    Class::Miss => self.miss_us.push(us),
                }
            }
            std::hint::black_box(t.selection);
            if let Some((node, points)) = self.due_mutation() {
                let start = Instant::now();
                facade::absorb_and_requantize(&mut self.net, node, &points, self.seed);
                rec.record("edgesim.requantize", start, Instant::now(), None, self.op);
                self.index_stale = true;
            }
        }
        // The network changes under the selections, so no pass repeats the
        // verified one; the verify pass is the check.
        0
    }

    fn layer_metrics(&mut self, rec: &mut Recorder, _typical_ms: &[f64]) -> Vec<Metric> {
        // The same fleet and hot queries through the index alone: what the
        // cache is there to beat.
        let index_only = facade::policy(true, None, FLEET_L);
        for (i, q) in self.hot.iter().enumerate() {
            let start = Instant::now();
            std::hint::black_box(facade::select(&index_only, &self.net, q));
            rec.record(
                "selection.index_only",
                start,
                Instant::now(),
                None,
                i as u64,
            );
        }
        let totals = self.counts();
        let lookups = (totals.hits + totals.misses) as f64;
        let exact = totals.hits - totals.delta_hits;
        let miss_us = crate::stats::median(&self.miss_us);
        vec![
            Metric::new(
                "edgesim.requantize_us",
                p50_us(rec.spans(), "edgesim.requantize"),
                "us",
            ),
            Metric::new(
                "selection.cache_exact_us",
                crate::stats::median(&self.exact_us),
                "us",
            ),
            Metric::new(
                "selection.cache_delta_us",
                crate::stats::median(&self.delta_us),
                "us",
            ),
            Metric::new("selection.cache_miss_us", miss_us, "us"),
            Metric::new(
                "selection.rebuild_ms",
                (crate::stats::median(&self.rebuild_us) - miss_us) / 1e3,
                "ms",
            ),
            Metric::new(
                "selection.index_only_us",
                p50_us(rec.spans(), "selection.index_only"),
                "us",
            ),
            Metric::new(
                "selection.cache_exact_share",
                exact as f64 / lookups,
                "ratio",
            ),
            Metric::new(
                "selection.cache_delta_share",
                totals.delta_hits as f64 / lookups,
                "ratio",
            ),
            Metric::new(
                "selection.cache_miss_share",
                totals.misses as f64 / lookups,
                "ratio",
            ),
            Metric::new(
                "selection.cache_invalidations",
                totals.invalidations as f64,
                "count",
            ),
            Metric::new(
                "selection.cache_evictions",
                totals.evictions as f64,
                "count",
            ),
            // Every operation is one call into the cached policy; what
            // the index costs inside a miss cannot be timed from outside.
            Metric::new("share.selection", 1.0, "ratio"),
        ]
    }

    fn describe(&self) -> String {
        format!(
            "pool {POOL} hot {HOT} cold_every {COLD_EVERY} repeat_every {REPEAT_EVERY} nodes {} \
             samples_per_node {SAMPLES_PER_NODE} mutate_every {MUTATE_EVERY}",
            facade::node_count(&self.net)
        )
    }
}
