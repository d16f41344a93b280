//! Allocation budgets per query. Wall-clock numbers drift between
//! machines and sessions; allocation counts are a pure function of the
//! code and its input, so they are pinned here as upper bounds: the
//! allocations and bytes of one untraced `run_query`, and of one
//! `query_loss` on its outcome, on two federations:
//!
//! * the federation `repro serve` answers on (6 heterogeneous nodes, the
//!   selection memo and telemetry on), driven as its connection threads
//!   drive it: one built policy, many distinct rectangles;
//! * the paper federation (10 air-quality nodes × 8 760 h, K = 5, LR,
//!   100 epochs), over a few of its paper queries.
//!
//! Each bound is the largest mean measured at pool sizes 1, 2 and 4.
//! A change that removes allocations lowers its bound; one that adds an
//! allocation per query fails here.
//!
//! A counting `#[global_allocator]` wraps the system allocator and
//! counts every thread (pool workers included). The file holds one test,
//! so no sibling test allocates inside a measurement window, and every
//! pool worker has started before the first window opens.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use qens::prelude::*;
use qens::{fedlearn, par};

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: Counting = Counting;

/// Allocations and bytes, summed over several calls.
#[derive(Debug, Default, Clone, Copy)]
struct Tally {
    allocs: u64,
    bytes: u64,
}

impl Tally {
    fn add<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let (a0, b0) = (
            ALLOCS.load(Ordering::Relaxed),
            BYTES.load(Ordering::Relaxed),
        );
        let r = f();
        self.allocs += ALLOCS.load(Ordering::Relaxed) - a0;
        self.bytes += BYTES.load(Ordering::Relaxed) - b0;
        r
    }

    /// Fails unless the mean per call is at most `allocs` allocations
    /// and `bytes` bytes.
    fn assert_within(&self, calls: u64, (allocs, bytes): (u64, u64), what: &str) {
        let mean = (
            self.allocs as f64 / calls as f64,
            self.bytes as f64 / calls as f64,
        );
        assert!(
            self.allocs <= allocs * calls && self.bytes <= bytes * calls,
            "{what}: {:.1} allocations and {:.0} bytes per call, budget {allocs} and {bytes}",
            mean.0,
            mean.1,
        );
    }
}

/// Blocks until every worker of `pool` runs. A worker's start-up
/// allocates (a copy of its thread name), and on a loaded machine a
/// worker first scheduled inside a window would count there: one task
/// per worker and one for the submitter, all waiting for each other.
fn start_workers(pool: &par::ThreadPool) {
    if pool.threads() > 1 {
        let all = std::sync::Barrier::new(pool.threads() + 1);
        pool.map_chunks(pool.threads() + 1, 1, |_| {
            all.wait();
        });
    }
}

/// Warm-up queries per federation: they fill the lazily built state
/// (pool threads, registry series, the memo's first entries).
const WARM_UP: usize = 5;

/// Runs `queries` through `run` after the warm-ups and returns the
/// tallies of the run and of the loss of its outcome.
fn tally(
    fed: &Federation,
    queries: &[Query],
    run: impl Fn(&Query) -> fedlearn::RoundOutcome,
) -> (Tally, Tally) {
    for q in &queries[..WARM_UP] {
        let out = run(q);
        std::hint::black_box(out.query_loss(fed.network(), q));
    }
    let (mut run_tally, mut loss_tally) = (Tally::default(), Tally::default());
    for q in &queries[WARM_UP..] {
        let out = run_tally.add(|| run(q));
        let loss = loss_tally.add(|| out.query_loss(fed.network(), q));
        std::hint::black_box(loss);
        drop(out);
    }
    (run_tally, loss_tally)
}

/// `repro serve`'s federation, built as `bench::serve::demo_federation`
/// builds it, on a pool of `threads`.
fn serve_federation(threads: usize) -> Federation {
    FederationBuilder::new()
        .heterogeneous_nodes(6, 120)
        .clusters_per_node(4)
        .seed(13)
        .epochs(2)
        .telemetry(true)
        .fleet(true)
        .selection_cache(true)
        .threads(threads)
        .build()
}

/// The paper's evaluation federation (§V-A), on a pool of `threads`.
fn paper_federation(threads: usize) -> Federation {
    FederationBuilder::new()
        .air_quality_nodes(10, 8760)
        .clusters_per_node(5)
        .seed(20230403)
        .epochs(100)
        .telemetry(false)
        .fleet(false)
        .trace(None)
        .selection_cache(false)
        .index(false)
        .threads(threads)
        .build()
}

/// Per call: `(allocations, bytes)` of `run_query`, then of `query_loss`
/// on its outcome — the largest mean over pool sizes 1, 2 and 4, rounded
/// up. `query_loss` streams the rows it scores: its one allocation is
/// the scaled feature row it reuses.
const SERVE_RUN: (u64, u64) = (265, 33_354);
const SERVE_LOSS: (u64, u64) = (1, 16);
const PAPER_RUN: (u64, u64) = (340, 691_563);
const PAPER_LOSS: (u64, u64) = (1, 16);

#[test]
fn a_query_stays_within_its_allocation_budget() {
    start_workers(par::global());
    for threads in [1, 2, 4] {
        start_workers(&par::sized(threads));
        // The server's way: one built policy (and memo) for every query,
        // distinct rectangles, so every lookup misses.
        let fed = serve_federation(threads);
        let policy = fed.build_policy(&PolicyKind::query_driven(3));
        let queries: Vec<Query> = (0..45u64)
            .map(|i| {
                let lo = i as f64 * 0.25;
                fed.query_from_bounds(i, &[lo, lo + 20.0, 0.0, 45.0])
            })
            .collect();
        let (run, loss) = tally(&fed, &queries, |q| {
            fedlearn::run_query(fed.network(), q, policy.as_ref(), fed.config())
                .expect("serve query runs")
        });
        let calls = (queries.len() - WARM_UP) as u64;
        run.assert_within(
            calls,
            SERVE_RUN,
            &format!("serve run_query, {threads} threads"),
        );
        loss.assert_within(
            calls,
            SERVE_LOSS,
            &format!("serve query_loss, {threads} threads"),
        );
        drop((policy, fed));

        let fed = paper_federation(threads);
        let queries = fed.paper_workload(20230403).queries[..WARM_UP + 5].to_vec();
        let (run, loss) = tally(&fed, &queries, |q| {
            fed.run_query(q, &PolicyKind::query_driven(4))
                .expect("paper query runs")
        });
        let calls = (queries.len() - WARM_UP) as u64;
        run.assert_within(
            calls,
            PAPER_RUN,
            &format!("paper run_query, {threads} threads"),
        );
        loss.assert_within(
            calls,
            PAPER_LOSS,
            &format!("paper query_loss, {threads} threads"),
        );
    }
}
