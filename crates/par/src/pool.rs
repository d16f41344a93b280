//! The bounded worker pool and its scope-style deterministic APIs.

use std::any::Any;
use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Instant;

/// A scope's task body, called once with each task index; `'static`
/// only because [`ThreadPool::run`] erases the caller's lifetime.
type Body = dyn Fn(usize) + Sync;

/// Queue state guarded by one mutex (shutdown lives inside so workers
/// cannot miss the signal between a look at the queue and a wait).
struct QueueState {
    /// Published scopes, oldest first. A scope leaves the queue once a
    /// thread finds it has no task index left to claim.
    scopes: VecDeque<Arc<Scope>>,
    shutdown: bool,
}

struct Shared {
    state: Mutex<QueueState>,
    work_ready: Condvar,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // Tasks never unwind while holding pool locks (panics are caught at
    // the task boundary), but be robust anyway.
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// One published [`ThreadPool::run`] call: its body, the next task
/// index to claim and the latch.
struct Scope {
    /// The submitter's body with its lifetime erased (see `run`).
    body: *const Body,
    tasks: usize,
    next: AtomicUsize,
    latch: Mutex<Latch>,
    done: Condvar,
    /// The submitter's current telemetry handle, entered around each
    /// task so the task records where its submitter does.
    telemetry: Option<telemetry::Telemetry>,
    /// The submitter's trace query while wall tracing is on (`u64::MAX`
    /// otherwise).
    query: u64,
    /// When the scope was published, while wall tracing is on.
    published: Option<Instant>,
}

/// The tasks not yet finished and the first captured panic.
struct Latch {
    unfinished: usize,
    panic: Option<Box<dyn Any + Send + 'static>>,
}

// SAFETY: every field but `body` is `Send`. `body` points at a
// `dyn Fn(usize) + Sync`, which any thread may call through a shared
// reference, and it is only dereferenced while `run` keeps its referent
// alive (see `Scope::run_claims`).
unsafe impl Send for Scope {}
// SAFETY: every field but `body` is `Sync`; `body` is only read, and
// what it points at is `Sync` (see the `Send` impl above).
unsafe impl Sync for Scope {}

impl Scope {
    fn exhausted(&self) -> bool {
        self.next.load(Ordering::Relaxed) >= self.tasks
    }

    /// Claims task indices and runs them until none is left. The claim
    /// is a relaxed `fetch_add`: it hands each index to exactly one
    /// thread and publishes no data (the tasks' writes reach the
    /// submitter through the latch mutex).
    fn run_claims(&self) {
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.tasks {
                return;
            }
            // The task ends its span *before* the count-down can
            // release the submitter (which may export the trace at once).
            let task = || {
                let _traced = self.published.map(|t| traced_task(self.query, t));
                // SAFETY: index `i` is claimed by this thread and not
                // yet counted down, so the submitter is still inside
                // `run`, whose caller owns the body for that whole call.
                let body = unsafe { &*self.body };
                catch_unwind(AssertUnwindSafe(|| body(i))).err()
            };
            let panic = match &self.telemetry {
                Some(t) => t.enter(task),
                None => task(),
            };
            let mut latch = lock(&self.latch);
            if latch.panic.is_none() {
                latch.panic = panic;
            }
            latch.unfinished -= 1;
            if latch.unfinished == 0 {
                self.done.notify_one();
            }
        }
    }
}

/// Drops the scopes at the front of the queue that have no task index
/// left to claim.
fn pop_exhausted(scopes: &mut VecDeque<Arc<Scope>>) {
    while scopes.front().is_some_and(|s| s.exhausted()) {
        scopes.pop_front();
    }
}

/// A bounded pool of long-lived workers with deterministic chunked
/// parallel APIs. See the crate docs for the determinism contract.
///
/// A pool of `threads <= 1` spawns **no** OS threads: every API runs
/// inline on the caller, which doubles as the bit-identical serial
/// reference path.
pub struct ThreadPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    threads: usize,
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool")
            .field("threads", &self.threads)
            .finish()
    }
}

impl ThreadPool {
    /// Creates a pool with `threads` workers (0 is treated as 1; a pool
    /// of 1 runs everything inline and spawns nothing).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            state: Mutex::new(QueueState {
                scopes: VecDeque::new(),
                shutdown: false,
            }),
            work_ready: Condvar::new(),
        });
        let workers = if threads > 1 {
            (0..threads)
                .map(|i| {
                    let shared = Arc::clone(&shared);
                    std::thread::Builder::new()
                        .name(format!("qens-par-{i}"))
                        .spawn(move || worker_loop(&shared))
                        .expect("spawning a pool worker thread")
                })
                .collect()
        } else {
            Vec::new()
        };
        Self {
            shared,
            workers,
            threads,
        }
    }

    /// The configured worker count (1 means "inline serial").
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `body(i)` for every `i` in `0..tasks` and returns once all
    /// have finished (scope semantics), so `body` may borrow from the
    /// caller's stack.
    ///
    /// With one worker or at most one task the indices run inline, in
    /// order. Otherwise the call publishes one scope: the workers and
    /// the caller claim indices from it, and the caller, out of indices,
    /// blocks until the last claimed one finishes. A blocked caller
    /// waits only on tasks that other threads are running, which is
    /// what makes nested calls (a pooled kernel calling another)
    /// deadlock-free. Completion order is scheduling-dependent —
    /// determinism is the responsibility of the chunked wrappers, which
    /// give each index a fixed output slot.
    ///
    /// # Panics
    /// If a task panics, the panic is re-raised on the caller after all
    /// tasks of the scope have finished (first payload wins).
    fn run(&self, tasks: usize, body: &(dyn Fn(usize) + Sync)) {
        if self.threads <= 1 || tasks <= 1 {
            telemetry::counter!("qens_par_inline_tasks_total").add(tasks as u64);
            (0..tasks).for_each(body);
            return;
        }
        telemetry::counter!("qens_par_scopes_total").incr();
        telemetry::counter!("qens_par_tasks_total").add(tasks as u64);
        // Dispatch-window span (publish → every task done). Wall-only:
        // a single-thread pool never reaches this point (it runs inline
        // above), so a logical-clock event here would break the
        // QENS_THREADS byte-identity contract.
        let _scope_span = telemetry::wall_span("par.scope", &[("tasks", tasks as u64)]);

        // Dispatch tracing (queue wait vs execute) is wall-mode only:
        // completion order is scheduling-dependent by design, so the
        // logical clock must never see it. While tracing is off no clock
        // is read and nothing is recorded. A traced scope records its
        // submitter's query: the worker that runs one of its tasks may be
        // answering another query (see `traced_task`).
        let telemetry = telemetry::Telemetry::current();
        let traced = telemetry
            .as_ref()
            .is_some_and(|t| t.trace().mode() == Some(telemetry::trace::Clock::Wall));
        let body: *const (dyn Fn(usize) + Sync + '_) = body;
        // SAFETY: this only erases the body's lifetime. The body is
        // dereferenced only for a claimed index that has not yet been
        // counted down (`Scope::run_claims`), and this function does not
        // return until every index is counted down, so no dereference
        // outlives the borrow. Task panics are caught before the
        // count-down, so the latch always drains. This is the argument
        // `std::thread::scope` makes, minus the per-call thread spawn.
        let body =
            unsafe { std::mem::transmute::<*const (dyn Fn(usize) + Sync + '_), *const Body>(body) };
        let scope = Arc::new(Scope {
            body,
            tasks,
            next: AtomicUsize::new(0),
            latch: Mutex::new(Latch {
                unfinished: tasks,
                panic: None,
            }),
            done: Condvar::new(),
            telemetry,
            query: if traced {
                telemetry::trace::current_query()
            } else {
                u64::MAX
            },
            published: traced.then(Instant::now),
        });
        {
            let mut state = lock(&self.shared.state);
            pop_exhausted(&mut state.scopes);
            let unclaimed: usize = state
                .scopes
                .iter()
                .map(|s| s.tasks.saturating_sub(s.next.load(Ordering::Relaxed)))
                .sum();
            telemetry::histogram!("qens_par_queue_depth").record((unclaimed + tasks) as u64);
            state.scopes.push_back(Arc::clone(&scope));
        }
        // The caller claims too, so at most `tasks - 1` workers find work.
        for _ in 1..tasks.min(self.threads + 1) {
            self.shared.work_ready.notify_one();
        }

        scope.run_claims();
        let mut latch = lock(&scope.latch);
        while latch.unfinished > 0 {
            latch = scope.done.wait(latch).unwrap_or_else(|p| p.into_inner());
        }
        let panic_payload = latch.panic.take();
        drop(latch);
        if let Some(payload) = panic_payload {
            resume_unwind(payload);
        }
    }

    /// Applies `f` to every fixed-size chunk `[lo, hi)` of `0..len` and
    /// returns the per-chunk partials **in chunk order**, ready for an
    /// ordered (bit-deterministic) reduction by the caller.
    ///
    /// Chunk boundaries depend only on `len` and `chunk`, never on the
    /// worker count, so the returned vector is identical for any pool.
    ///
    /// # Panics
    /// Panics if `chunk == 0`.
    pub fn map_chunks<U, F>(&self, len: usize, chunk: usize, f: F) -> Vec<U>
    where
        U: Send,
        F: Fn(Range<usize>) -> U + Sync,
    {
        assert!(chunk > 0, "chunk size must be positive");
        let slots: Vec<Mutex<Option<U>>> =
            (0..len.div_ceil(chunk)).map(|_| Mutex::new(None)).collect();
        self.run(slots.len(), &|ci| {
            let lo = ci * chunk;
            let partial = f(lo..(lo + chunk).min(len));
            *lock(&slots[ci]) = Some(partial);
        });
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .unwrap_or_else(|p| p.into_inner())
                    .expect("every chunk ran to completion")
            })
            .collect()
    }

    /// Runs `f(offset, chunk_slice)` over disjoint fixed-size chunks of
    /// `data`. `offset` is the chunk's starting index in `data`.
    ///
    /// Chunks are disjoint `&mut` sub-slices, so tasks may write their
    /// region freely; chunk boundaries are worker-count independent.
    ///
    /// # Panics
    /// Panics if `chunk == 0`.
    pub fn for_each_chunk<T, F>(&self, data: &mut [T], chunk: usize, f: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        assert!(chunk > 0, "chunk size must be positive");
        let parts: Vec<Mutex<&mut [T]>> = data.chunks_mut(chunk).map(Mutex::new).collect();
        self.run(parts.len(), &|ci| f(ci * chunk, &mut lock(&parts[ci])));
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        {
            let mut state = lock(&self.shared.state);
            state.shutdown = true;
        }
        self.shared.work_ready.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Starts a traced pool task of `query`, published at `published`: runs
/// the rest of the task under the query's trace scope and records its
/// queue wait (publish → claim, on whichever thread claimed it), then
/// opens the `par.task` span that times the task body. The span drops
/// before the scope (tuple fields drop in order), so it closes on the
/// stack it opened on. Kept out of line so an untraced task pays nothing
/// for it.
#[cold]
#[inline(never)]
fn traced_task(query: u64, published: Instant) -> (telemetry::Span, telemetry::trace::TaskScope) {
    let scope = telemetry::trace::task_scope(query);
    let wait = u64::try_from(published.elapsed().as_nanos()).unwrap_or(u64::MAX);
    telemetry::histogram!("qens_par_queue_wait_nanos").record(wait);
    (
        telemetry::wall_span("par.task", &[("queue_nanos", wait)]),
        scope,
    )
}

fn worker_loop(shared: &Shared) {
    loop {
        let scope = {
            let mut state = lock(&shared.state);
            loop {
                pop_exhausted(&mut state.scopes);
                if let Some(scope) = state.scopes.front() {
                    break Arc::clone(scope);
                }
                if state.shutdown {
                    return;
                }
                state = shared
                    .work_ready
                    .wait(state)
                    .unwrap_or_else(|p| p.into_inner());
            }
        };
        scope.run_claims();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::time::Duration;

    fn pools() -> Vec<ThreadPool> {
        vec![ThreadPool::new(1), ThreadPool::new(2), ThreadPool::new(4)]
    }

    #[test]
    fn single_thread_pool_spawns_no_workers() {
        let pool = ThreadPool::new(1);
        assert_eq!(pool.threads(), 1);
        assert!(pool.workers.is_empty());
        let zero = ThreadPool::new(0);
        assert_eq!(zero.threads(), 1);
    }

    #[test]
    fn chunked_float_reduction_is_bit_identical_across_pool_sizes() {
        // A sum that is sensitive to association order if chunking were
        // scheduling-dependent.
        let xs: Vec<f64> = (0..10_000)
            .map(|i| (i as f64 * 0.7309).sin() * 1e6 + 1e-6 * i as f64)
            .collect();
        let reduce = |pool: &ThreadPool| -> f64 {
            pool.map_chunks(xs.len(), 256, |r| r.map(|i| xs[i]).sum::<f64>())
                .iter()
                .sum()
        };
        let reference = reduce(&ThreadPool::new(1));
        for pool in pools() {
            for _ in 0..3 {
                let got = reduce(&pool);
                assert_eq!(got.to_bits(), reference.to_bits());
            }
        }
    }

    #[test]
    fn for_each_chunk_covers_every_element_exactly_once() {
        for pool in pools() {
            let mut data = vec![0u64; 4097];
            pool.for_each_chunk(&mut data, 64, |offset, part| {
                for (j, v) in part.iter_mut().enumerate() {
                    *v += (offset + j) as u64 + 1;
                }
            });
            for (i, v) in data.iter().enumerate() {
                assert_eq!(*v, i as u64 + 1, "element {i} visited wrongly");
            }
        }
    }

    #[test]
    fn map_chunks_handles_empty_and_tail_chunks() {
        let pool = ThreadPool::new(4);
        let empty: Vec<Vec<usize>> = pool.map_chunks(0, 16, |r| r.collect());
        assert!(empty.is_empty());
        let chunks = pool.map_chunks(10, 4, |r| (r.start, r.end));
        assert_eq!(chunks, vec![(0, 4), (4, 8), (8, 10)]);
    }

    #[test]
    fn map_indexed_preserves_input_order_for_every_pool_size() {
        // A per-index map written as per-chunk partials: the partials land
        // in chunk order for every pool size, whichever thread ran them, so
        // flattened they are the input, in order.
        let items: Vec<u64> = (0..1000).collect();
        for pool in pools() {
            let out: Vec<u64> = pool
                .map_chunks(items.len(), 7, |r| {
                    r.map(|i| (i as u64) * 2 + items[i]).collect::<Vec<_>>()
                })
                .concat();
            assert_eq!(out.len(), items.len());
            for (i, v) in out.iter().enumerate() {
                assert_eq!(*v, (i as u64) * 3);
            }
        }
    }

    #[test]
    fn scoped_tasks_may_borrow_the_stack() {
        let pool = ThreadPool::new(4);
        let data: Vec<usize> = (0..100).collect();
        let hits = AtomicUsize::new(0);
        pool.run(10, &|t| {
            hits.fetch_add(data[t * 10], Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), (0..10).map(|t| t * 10).sum());
    }

    #[test]
    fn nested_scopes_do_not_deadlock() {
        let pool = ThreadPool::new(2);
        let total = AtomicUsize::new(0);
        pool.run(4, &|_| {
            // A pooled kernel calling another pooled kernel: the inner
            // scope's caller (a worker, or the outer caller) claims its
            // own indices and waits only on tasks that are running.
            let inner = pool.map_chunks(100, 10, |r| r.sum::<usize>());
            total.fetch_add(inner.iter().sum::<usize>(), Ordering::Relaxed);
        });
        assert_eq!(total.load(Ordering::Relaxed), 4 * (0..100).sum::<usize>());
    }

    #[test]
    fn task_panics_propagate_to_the_caller_after_the_scope_drains() {
        let pool = ThreadPool::new(3);
        let completed = AtomicUsize::new(0);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(8, &|t| {
                if t == 3 {
                    panic!("task 3 exploded");
                }
                completed.fetch_add(1, Ordering::Relaxed);
            });
        }));
        let payload = result.expect_err("panic must propagate");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .unwrap_or("<non-str payload>");
        assert!(msg.contains("task 3 exploded"), "got {msg:?}");
        // Every sibling still ran: the scope drains before re-raising.
        assert_eq!(completed.load(Ordering::Relaxed), 7);
        // The pool stays usable after a panicked scope.
        let sum: usize = pool.map_chunks(50, 5, |r| r.sum::<usize>()).iter().sum();
        assert_eq!(sum, (0..50).sum::<usize>());
    }

    /// Three submitters share one 2-worker pool for 2 000 scopes each,
    /// half of whose tasks nest a scope of their own. A lost wake-up
    /// would hang a submitter: the run is joined through a 60 s
    /// timeout, so it fails the suite instead.
    #[test]
    fn concurrent_and_nested_scopes_finish_with_exact_sums() {
        const SCOPES: usize = 2_000;
        let (done, finished) = mpsc::channel();
        std::thread::spawn(move || {
            let pool = ThreadPool::new(2);
            let sums: Vec<(usize, usize)> = std::thread::scope(|s| {
                let submitters: Vec<_> = (0..3)
                    .map(|t| {
                        let pool = &pool;
                        s.spawn(move || {
                            let (mut got, mut want) = (0, 0);
                            for k in 0..SCOPES {
                                let tasks = 2 + (k * 7 + t) % 7;
                                let nest = k % 2 == 0;
                                let partials = pool.map_chunks(tasks, 1, |r| {
                                    let inner = if nest {
                                        pool.map_chunks(40, 8, |r| r.sum::<usize>()).iter().sum()
                                    } else {
                                        0
                                    };
                                    r.start + 1 + inner
                                });
                                got += partials.iter().sum::<usize>();
                                want += tasks * (tasks + 1) / 2
                                    + if nest {
                                        tasks * (0..40).sum::<usize>()
                                    } else {
                                        0
                                    };
                            }
                            (got, want)
                        })
                    })
                    .collect();
                submitters
                    .into_iter()
                    .map(|h| h.join().expect("submitter thread"))
                    .collect()
            });
            let _ = done.send(sums);
        });
        let sums = finished
            .recv_timeout(Duration::from_secs(60))
            .expect("every scope finished within 60 s");
        for (got, want) in sums {
            assert_eq!(got, want);
        }
    }

    #[test]
    #[should_panic(expected = "chunk size must be positive")]
    fn zero_chunk_rejected() {
        ThreadPool::new(2).map_chunks(10, 0, |_| ());
    }

    #[test]
    fn drop_joins_all_workers() {
        let pool = ThreadPool::new(4);
        let out = pool.map_chunks(3, 1, |r| r.start * 2);
        assert_eq!(out, vec![0, 2, 4]);
        drop(pool); // must not hang
    }
}
