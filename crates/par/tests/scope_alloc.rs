//! Allocation discipline of a pooled scope: publishing a scope costs a
//! fixed number of allocations, whatever its task count — the task
//! indices are claimed from a counter, not queued one boxed job each.
//!
//! A counting `#[global_allocator]` wraps the system allocator; the
//! measurement windows run on this test binary's only test, so the
//! deltas belong to the pool (its workers allocate nothing while they
//! run these tasks).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use par::ThreadPool;

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: Counting = Counting;

/// Allocations of `SCOPES` one-chunk-per-task `map_chunks` scopes of
/// `tasks` tasks each.
fn scope_allocations(pool: &ThreadPool, tasks: usize) -> u64 {
    const SCOPES: u64 = 50;
    let before = ALLOCS.load(Ordering::Relaxed);
    for _ in 0..SCOPES {
        let partials = pool.map_chunks(tasks, 1, |r| r.start);
        assert_eq!(partials.len(), tasks);
    }
    ALLOCS.load(Ordering::Relaxed) - before
}

/// All sizes share one test: a second test in this binary would run
/// beside it and land in its windows.
#[test]
fn a_scope_allocates_the_same_at_any_task_count() {
    let pool = ThreadPool::new(2);
    // Warm the lazily registered telemetry, the queue and each thread's
    // first-use state.
    for tasks in [2, 16, 256] {
        scope_allocations(&pool, tasks);
    }
    let counts: Vec<(usize, u64)> = [2, 16, 256]
        .into_iter()
        .map(|tasks| (tasks, scope_allocations(&pool, tasks)))
        .collect();
    assert!(
        counts.iter().all(|&(_, n)| n == counts[0].1),
        "allocations per 50 scopes, by task count: {counts:?}"
    );
}
