//! Integration tests for the selection memo
//! ([`CachedQueryDriven`]: exact boundary bits → the `Selection` that
//! was returned, in front of a `QueryDriven` with either candidate
//! source):
//!
//! * memoised selections must be **bitwise identical** to the naive
//!   reference ([`qens::selection::reference`]) — every ranking and
//!   every supporting-cluster overlap, for every query of a 200-query
//!   stream — at any worker count and for every workload kind,
//! * summary mutations (`absorb` + re-quantisation) must drop the table
//!   once and still reproduce the reference,
//! * over a deterministic schedule of repeats, new queries, summary
//!   churn, joins and no-op borrows, memo + index, memo alone and each
//!   candidate source alone select what the reference selects after
//!   every step, with summary churn patching the index in place and
//!   joins rebuilding it.

use qens::linalg::rng::{rng_for, Rng};
use qens::par::{self, ThreadPool};
use qens::prelude::*;
use qens::selection::{reference, GridConfig};
use qens::telemetry;
use qens::workload::generate;

fn network(seed: u64) -> EdgeNetwork {
    let nodes = scenario::heterogeneous_nodes(6, 80, seed);
    let mut net =
        EdgeNetwork::from_datasets(nodes.into_iter().map(|n| (n.name, n.dataset)).collect());
    net.quantize_all(5, seed);
    net
}

fn workload_of(kind: WorkloadKind, n_queries: usize, space: &HyperRect) -> QueryWorkload {
    generate(
        space,
        &WorkloadConfig {
            n_queries,
            halfwidth_frac: (0.10, 0.25),
            kind,
            seed: 4242,
        },
    )
}

fn assert_bitwise_eq(a: &Selection, b: &Selection, what: &str) {
    assert_eq!(a, b, "{what}: selections diverge");
    for (x, y) in a.standby.iter().zip(&b.standby) {
        assert_eq!(
            x.ranking.to_bits(),
            y.ranking.to_bits(),
            "{what}: standby ranking bits diverge on node {}",
            x.node
        );
    }
    for (x, y) in a.participants.iter().zip(&b.participants) {
        assert_eq!(
            x.ranking.to_bits(),
            y.ranking.to_bits(),
            "{what}: ranking bits diverge on node {}",
            x.node
        );
        for (cx, cy) in x.supporting_clusters.iter().zip(&y.supporting_clusters) {
            assert_eq!(
                cx.overlap.to_bits(),
                cy.overlap.to_bits(),
                "{what}: overlap bits diverge on node {} cluster {}",
                x.node,
                cx.cluster_id
            );
        }
    }
}

/// The reference's answer for `query` under `plain`'s ε and cut.
fn reference_of(net: &EdgeNetwork, plain: &QueryDriven, query: &Query) -> Selection {
    reference::select(net, query, plain.epsilon, plain.cap, plain.rule)
}

/// The acceptance contract: for a 200-query drifting stream (and a
/// uniform and a hotspot stream alongside), with every third query a
/// bit-exact repeat of the one before it, the memoised policy returns a
/// bitwise-identical `Selection` for every single query, at 1, 2 and 4
/// workers, on one memo kept across all thread counts. The table is
/// smaller than a stream, so every pass both hits (the repeats) and
/// misses (FIFO has dropped the stream's head by the time it comes
/// round again): answers stored under one pool serve under another, and
/// the policy behind the memo runs under each.
#[test]
fn cached_selections_are_bitwise_identical_across_threads_and_workloads() {
    let net = network(4);
    let space = net.global_space();
    let kinds: Vec<(&str, QueryWorkload)> = vec![
        ("uniform", workload_of(WorkloadKind::Uniform, 60, &space)),
        (
            "drifting",
            workload_of(
                WorkloadKind::Drifting {
                    step_frac: 0.02,
                    spread_frac: 0.03,
                },
                200,
                &space,
            ),
        ),
        (
            "hotspot",
            workload_of(
                WorkloadKind::Hotspot {
                    hotspots: 3,
                    spread_frac: 0.05,
                },
                60,
                &space,
            ),
        ),
    ];
    let plain = QueryDriven::top_l(3);
    for (name, wl) in &kinds {
        let queries: Vec<Query> = (0..wl.len())
            .map(|i| match i % 3 {
                2 => Query::from_boundary_vec(i as u64, &wl.queries[i - 1].to_boundary_vec()),
                _ => wl.queries[i].clone(),
            })
            .collect();
        let cached = CachedQueryDriven::new(
            plain.clone(),
            CacheConfig {
                capacity: 16,
                ..CacheConfig::default()
            },
        );
        for threads in [1usize, 2, 4] {
            let pool = ThreadPool::new(threads);
            let before = cached.stats();
            for q in &queries {
                let ctx = SelectionContext::new(&net, q);
                let what = format!("{name} query {} at {threads} threads", q.id());
                let want = reference_of(&net, &plain, q);
                assert_bitwise_eq(&want, &plain.select_with_pool(&ctx, &pool), &what);
                assert_bitwise_eq(&want, &cached.select_with_pool(&ctx, &pool), &what);
            }
            let after = cached.stats();
            assert!(
                after.hits - before.hits >= wl.len() as u64 / 3,
                "{name} at {threads} threads: every repeat hits ({after:?})"
            );
            assert!(
                after.misses - before.misses >= 16,
                "{name} at {threads} threads: the policy must run ({after:?})"
            );
        }
        let stats = cached.stats();
        assert_eq!(
            stats.hits + stats.misses,
            3 * wl.len() as u64,
            "{name}: every lookup is a hit or a miss"
        );
        assert_eq!(stats.delta_hits, 0);
    }
}

/// Mutating one node's data (stream absorb + re-quantisation) bumps its
/// summary epoch; the next lookup drops the table, counting the one
/// node that moved, and every replayed rectangle is recomputed to match
/// the reference bitwise — after which the replay hits again.
#[test]
fn absorb_invalidates_one_node_and_stays_exact() {
    let mut net = network(9);
    let plain = QueryDriven::top_l(3);
    let cached = CachedQueryDriven::with_defaults(plain.clone());
    let space = net.global_space();
    let wl = workload_of(WorkloadKind::Uniform, 8, &space);
    let pool = par::sized(2);
    let replay = |net: &EdgeNetwork, what: &str| {
        for q in &wl.queries {
            let ctx = SelectionContext::new(net, q);
            let want = reference_of(net, &plain, q);
            assert_bitwise_eq(&want, &plain.select_with_pool(&ctx, &pool), what);
            assert_bitwise_eq(&want, &cached.select_with_pool(&ctx, &pool), what);
        }
    };
    replay(&net, "warmup");
    let before = cached.stats();
    assert_eq!(before.invalidations, 0, "nothing mutated yet");
    assert_eq!((before.misses, before.entries), (8, 8));

    // Shift node 2's summaries: absorb fresh samples and re-quantise.
    let extra = scenario::heterogeneous_nodes(2, 30, 77)
        .into_iter()
        .next()
        .unwrap()
        .dataset;
    net.node_mut(NodeId(2)).absorb(&extra);
    net.node_mut(NodeId(2)).quantize(5, 9);

    replay(&net, "after absorb");
    let after = cached.stats();
    assert_eq!(
        after.invalidations, 1,
        "one node moved and the drift is seen once ({after:?})"
    );
    assert_eq!(
        (after.hits, after.misses, after.entries),
        (0, 16, 16),
        "no answer computed before the absorb may be served after it"
    );
    replay(&net, "replay on the settled fleet");
    let settled = cached.stats();
    assert_eq!((settled.hits, settled.misses), (8, 16));
    assert_eq!(settled.invalidations, 1);
}

/// What one step of the churn schedule does before it selects.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// Nothing: ask the last rectangle again.
    Repeat,
    /// Nothing: ask a new rectangle.
    NewQuery,
    /// A node absorbs samples and re-quantises.
    Absorb,
    /// A node re-quantises to a different K.
    Requantize,
    /// A node joins and quantises.
    Join,
    /// A `node_mut` borrow that changes nothing.
    NoOpBorrow,
}

/// ROADMAP 6(c) as one deterministic schedule: whatever sequence of
/// repeats, new queries, summary churn, joins and no-op borrows the
/// fleet goes through, memo + index, memo alone and each candidate
/// source alone select after every step what the reference selects;
/// a repeat with no real drift since is a hit; a no-op borrow drops,
/// patches and rebuilds nothing; real drift drops each table once and is
/// journaled once per memo, and each index patches once for an absorb
/// or a re-quantise and rebuilds once for a join. With ℓ = 1 the
/// selection keeps a 2-deep reserve, so as joins grow the fleet many
/// answers are a cut of a longer ranking: the sources must agree on
/// which entries make it, not only on their order.
#[test]
fn memo_and_index_follow_a_churning_fleet_exactly() {
    use telemetry::{journal, Event};
    const STEPS: u64 = 240;
    // Query ids no other test of this binary uses: the journal is
    // process-wide and is filtered by them below.
    const FIRST_ID: u64 = 7_000_000;
    let mut net = network(17);
    let plain = QueryDriven::top_l(1);
    let grid = GridConfig {
        domain_size: 2,
        cells_per_dim: 0,
    };
    // Room for every rectangle of the schedule: no eviction here.
    let index = plain.clone().indexed(grid);
    let both = CachedQueryDriven::new(index.clone(), CacheConfig::default());
    let memo = CachedQueryDriven::with_defaults(plain.clone());
    let pool = ThreadPool::new(2);
    let fresh_data = |seed: u64| {
        scenario::heterogeneous_nodes(2, 30, seed)
            .into_iter()
            .next()
            .unwrap()
            .dataset
    };
    telemetry::fleet::set_enabled(true);

    let mut rng = rng_for(0x6C, 19);
    let mut bounds = vec![0.0, 20.0, 0.0, 45.0];
    // The model: rectangles answered since the last real drift, and the
    // counters each structure must show.
    let mut answered: Vec<Vec<u64>> = Vec::new();
    let (mut hits, mut misses, mut invalidations) = (0u64, 0u64, 0u64);
    let (mut rebuilds, mut patches) = (0u64, 0u64);
    let mut seen = [0usize; 6];
    let mut cut_short = 0;
    for step in 0..STEPS {
        let kind = [
            Step::Repeat,
            Step::NewQuery,
            Step::Absorb,
            Step::Requantize,
            Step::Join,
            Step::NoOpBorrow,
        ][rng.gen_range(0..6usize)];
        seen[kind as usize] += 1;
        let victim = NodeId(rng.gen_range(0..net.len()));
        let moved = match kind {
            Step::Repeat => 0,
            Step::NewQuery => {
                let space = net.global_space();
                bounds = (0..space.dim())
                    .flat_map(|d| {
                        let axis = space.interval(d);
                        let lo = rng.gen_range(axis.lo()..axis.hi());
                        [lo, lo + rng.gen_range(0.05..0.4) * axis.length()]
                    })
                    .collect();
                0
            }
            Step::Absorb => {
                net.node_mut(victim).absorb(&fresh_data(step));
                net.node_mut(victim).quantize(5, step);
                1
            }
            Step::Requantize => {
                let k = if net.node(victim).k() == 3 { 4 } else { 3 };
                net.node_mut(victim).quantize(k, step);
                1
            }
            Step::Join => {
                let id = net.add_node(format!("joiner-{step}"), fresh_data(step), 1.0);
                net.node_mut(id).quantize(5, step);
                1
            }
            Step::NoOpBorrow => {
                let capacity = net.node(victim).capacity();
                net.node_mut(victim).set_capacity(capacity);
                0
            }
        };
        let key: Vec<u64> = bounds.iter().map(|b| b.to_bits()).collect();
        if step == 0 {
            // Each structure's first look at the fleet: a build, not a
            // drift.
            rebuilds += 1;
        } else if moved > 0 {
            answered.clear();
            invalidations += moved;
            match kind {
                Step::Join => rebuilds += 1,
                _ => patches += 1,
            }
        }
        if answered.contains(&key) {
            hits += 1;
        } else {
            misses += 1;
            answered.push(key);
        }

        let q = Query::from_boundary_vec(FIRST_ID + step, &bounds);
        let ctx = SelectionContext::new(&net, &q);
        let what = format!("step {step} ({kind:?})");
        let want = reference_of(&net, &plain, &q);
        let supporting = reference::ranked(&net, &q, plain.epsilon, plain.rule).len();
        cut_short += usize::from(supporting > want.len() + want.standby.len());
        assert_bitwise_eq(&want, &plain.select_with_pool(&ctx, &pool), &what);
        assert_bitwise_eq(&want, &both.select_with_pool(&ctx, &pool), &what);
        assert_bitwise_eq(&want, &memo.select_with_pool(&ctx, &pool), &what);
        assert_bitwise_eq(&want, &index.select_with_pool(&ctx, &pool), &what);

        for (name, stats) in [("memo + index", both.stats()), ("memo", memo.stats())] {
            assert_eq!(
                (stats.hits, stats.misses, stats.invalidations),
                (hits, misses, invalidations),
                "{what}: {name}"
            );
        }
        for (name, stats) in [
            ("index", index.index_stats()),
            ("the index behind the memo", both.inner().index_stats()),
        ] {
            assert_eq!(
                (stats.rebuilds, stats.patches),
                (rebuilds, patches),
                "{what}: {name}"
            );
        }
        let journaled: Vec<u64> = journal::tail(None)
            .iter()
            .filter_map(|e| match e.event {
                Event::CacheInvalidated(query, stale) if query == q.id() => Some(stale),
                _ => None,
            })
            .collect();
        let expected = if step > 0 && moved > 0 {
            vec![moved; 2]
        } else {
            Vec::new()
        };
        assert_eq!(journaled, expected, "{what}: one event per memo per drift");
    }
    telemetry::fleet::set_enabled(false);
    assert!(
        seen.iter().all(|&n| n >= 20),
        "every kind of step must occur often: {seen:?}"
    );
    assert!(
        hits >= 40 && invalidations >= 60 && patches >= 40 && rebuilds >= 20,
        "{hits} hits, {invalidations} invalidations, {patches} patches, {rebuilds} rebuilds"
    );
    assert!(
        cut_short >= STEPS as usize / 4,
        "only {cut_short} answers cut the ranking short"
    );
}

/// The memo's counters must reach the scrape surface: after a stream
/// that misses, hits and is invalidated, the Prometheus text exposition
/// carries a sample, HELP and TYPE for every `qens_cache_*` series, all
/// format-conformant.
#[test]
fn prometheus_export_covers_cache_series() {
    let mut net = network(11);
    telemetry::set_enabled(true);
    let cached = CachedQueryDriven::with_defaults(QueryDriven::top_l(3));
    let q0 = Query::from_boundary_vec(0, &[0.0, 15.0, 0.0, 30.0]);
    let q1 = Query::from_boundary_vec(1, &[0.5, 15.5, 0.0, 30.0]);
    cached.select(&SelectionContext::new(&net, &q0)); // miss + entry
    cached.select(&SelectionContext::new(&net, &q0)); // hit
    cached.select(&SelectionContext::new(&net, &q1)); // miss + entry
    cached.select(&SelectionContext::new(&net, &q1)); // hit
    let extra = scenario::heterogeneous_nodes(2, 30, 78)
        .into_iter()
        .next()
        .unwrap()
        .dataset;
    net.node_mut(NodeId(0)).absorb(&extra);
    net.node_mut(NodeId(0)).quantize(5, 11);
    cached.select(&SelectionContext::new(&net, &q1)); // invalidation + miss
    let text = telemetry::export::to_prometheus(&telemetry::global().snapshot());
    telemetry::set_enabled(false);

    for series in [
        "qens_cache_hits_total",
        "qens_cache_misses_total",
        "qens_cache_invalidations_total",
        "qens_cache_entries_total",
        "qens_cache_entries",
    ] {
        assert!(
            text.lines().any(|l| l.starts_with(series)),
            "export must contain a {series} sample"
        );
        assert!(
            text.contains(&format!("# HELP {series} ")),
            "{series} must carry HELP"
        );
        assert!(
            text.contains(&format!("# TYPE {series} ")),
            "{series} must carry TYPE"
        );
    }
    // Exposition conformance over the cache lines specifically.
    for line in text
        .lines()
        .filter(|l| l.starts_with("qens_cache_") && !l.is_empty())
    {
        let (_, value) = line.rsplit_once(' ').expect("sample has a value");
        assert!(
            value.parse::<f64>().is_ok(),
            "unparseable sample value in line: {line}"
        );
    }
    let stats = cached.stats();
    assert_eq!((stats.misses, stats.hits, stats.invalidations), (3, 2, 1));
}
