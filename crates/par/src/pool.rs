//! The bounded worker pool and its scope-style deterministic APIs.

use std::any::Any;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

/// A type-erased, lifetime-erased job on the shared injector queue.
///
/// Jobs are only ever enqueued by [`ThreadPool::run_scoped`], which
/// blocks until every job it enqueued has finished — that blocking is
/// what makes the lifetime erasure sound (see the safety comment there).
type Job = Box<dyn FnOnce() + Send + 'static>;

/// Queue state guarded by one mutex (shutdown lives inside so workers
/// cannot miss the signal between a pop attempt and a wait).
struct QueueState {
    jobs: VecDeque<Job>,
    shutdown: bool,
}

struct Shared {
    state: Mutex<QueueState>,
    work_ready: Condvar,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // Jobs never unwind while holding pool locks (panics are caught at
    // the task boundary), but be robust anyway.
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Per-scope completion latch plus the first captured panic.
struct ScopeState {
    remaining: Mutex<usize>,
    done: Condvar,
    panic: Mutex<Option<Box<dyn Any + Send + 'static>>>,
}

impl ScopeState {
    fn new(tasks: usize) -> Self {
        Self {
            remaining: Mutex::new(tasks),
            done: Condvar::new(),
            panic: Mutex::new(None),
        }
    }

    fn finish_task(&self) {
        let mut rem = lock(&self.remaining);
        *rem -= 1;
        if *rem == 0 {
            self.done.notify_all();
        }
    }

    fn record_panic(&self, payload: Box<dyn Any + Send + 'static>) {
        let mut slot = lock(&self.panic);
        if slot.is_none() {
            *slot = Some(payload);
        }
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
                jobs: VecDeque::new(),
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
        telemetry::gauge!("qens_par_workers").set(threads as f64);
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

    /// Runs every task to completion before returning (scope semantics).
    ///
    /// Tasks may borrow from the caller's stack (`'env`). With more than
    /// one worker the tasks run on the pool while the caller helps drain
    /// the queue; with one worker (or one task) they run inline in order.
    /// Task *completion order* is scheduling-dependent — determinism is
    /// the responsibility of the chunked wrappers, which assign each
    /// task a fixed output slot.
    ///
    /// # Panics
    /// If a task panics, the panic is re-raised on the caller after all
    /// tasks of the scope have finished (first payload wins).
    pub fn run_scoped<'env, I>(&self, tasks: I)
    where
        I: IntoIterator<Item = Box<dyn FnOnce() + Send + 'env>>,
    {
        let tasks: Vec<Box<dyn FnOnce() + Send + 'env>> = tasks.into_iter().collect();
        if tasks.is_empty() {
            return;
        }
        telemetry::counter!("qens_par_scopes_total").incr();
        if self.threads <= 1 || tasks.len() == 1 {
            telemetry::counter!("qens_par_inline_tasks_total").add(tasks.len() as u64);
            for task in tasks {
                task();
            }
            return;
        }
        telemetry::counter!("qens_par_tasks_total").add(tasks.len() as u64);
        // Dispatch-window span (enqueue → every task done). Wall-only:
        // a single-thread pool never reaches this point (it trains
        // inline above), so a logical-clock event here would break the
        // QENS_THREADS byte-identity contract.
        let _scope_span = telemetry::wall_span("par.scope", &[("tasks", tasks.len() as u64)]);

        // Dispatch tracing (queue wait vs execute) is wall-mode only:
        // completion order is scheduling-dependent by design, so the
        // logical clock must never see it. The flag is one relaxed load;
        // while tracing is off no clock is read and nothing is recorded.
        let trace_dispatch = telemetry::trace::mode() == Some(telemetry::trace::Clock::Wall);
        let scope = Arc::new(ScopeState::new(tasks.len()));
        {
            let mut state = lock(&self.shared.state);
            for task in tasks {
                let scope = Arc::clone(&scope);
                let enqueued_at = trace_dispatch.then(std::time::Instant::now);
                let job: Box<dyn FnOnce() + Send + 'env> = Box::new(move || {
                    {
                        // Queue wait = enqueue → first instruction of the
                        // job on whichever thread picked it up; the span
                        // then times the task body. The scope block ends
                        // the span *before* `finish_task` can unblock the
                        // caller (which may immediately export the trace).
                        let _task_span = enqueued_at.map(|t| {
                            let wait = u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
                            telemetry::histogram!("qens_par_queue_wait_nanos").record(wait);
                            telemetry::wall_span("par.task", &[("queue_nanos", wait)])
                        });
                        if let Err(payload) = catch_unwind(AssertUnwindSafe(task)) {
                            scope.record_panic(payload);
                        }
                    }
                    scope.finish_task();
                });
                // SAFETY: the job may borrow data that only lives for
                // `'env`. `run_scoped` does not return until
                // `scope.remaining` hits zero, i.e. until this closure
                // (and every sibling) has fully executed, so the borrows
                // never outlive the frame that owns them. Panics inside
                // the user task are caught above, so the job itself
                // cannot unwind out of a worker and leave the latch
                // hanging. This is the same argument `std::thread::scope`
                // makes, minus the per-call thread spawn.
                let job: Job =
                    unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Job>(job) };
                state.jobs.push_back(job);
            }
            telemetry::histogram!("qens_par_queue_depth").record(state.jobs.len() as u64);
            self.shared.work_ready.notify_all();
        }

        // Work-stealing-lite: the caller drains the shared queue (its
        // own tasks or a sibling scope's — both are sound, both callers
        // are blocked here) instead of idling. This is also what makes
        // nested `run_scoped` calls from inside a worker deadlock-free.
        loop {
            while let Some(job) = self.try_pop() {
                job();
            }
            let rem = lock(&scope.remaining);
            if *rem == 0 {
                break;
            }
            // Short-timeout wait: re-check the queue for help-work while
            // still being woken promptly by the final `finish_task`.
            let (rem, _timeout) = scope
                .done
                .wait_timeout(rem, Duration::from_micros(200))
                .unwrap_or_else(|p| p.into_inner());
            if *rem == 0 {
                break;
            }
        }
        let panic_payload = lock(&scope.panic).take();
        if let Some(payload) = panic_payload {
            resume_unwind(payload);
        }
    }

    fn try_pop(&self) -> Option<Job> {
        lock(&self.shared.state).jobs.pop_front()
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
        let n_chunks = len.div_ceil(chunk);
        let mut out: Vec<Option<U>> = Vec::with_capacity(n_chunks);
        out.resize_with(n_chunks, || None);
        let bounds = |ci: usize| {
            let lo = ci * chunk;
            lo..(lo + chunk).min(len)
        };
        if self.threads <= 1 || n_chunks <= 1 {
            telemetry::counter!("qens_par_inline_tasks_total").add(n_chunks as u64);
            for (ci, slot) in out.iter_mut().enumerate() {
                *slot = Some(f(bounds(ci)));
            }
        } else {
            let slots = SharedSlots::new(&mut out);
            let f = &f;
            let slots_ref = &slots;
            self.run_scoped((0..n_chunks).map(|ci| {
                Box::new(move || {
                    // SAFETY: chunk index `ci` is unique to this task, so
                    // no two tasks touch the same slot.
                    unsafe { slots_ref.set(ci, f(bounds(ci))) };
                }) as Box<dyn FnOnce() + Send + '_>
            }));
        }
        out.into_iter()
            .map(|slot| slot.expect("every chunk ran to completion"))
            .collect()
    }

    /// Maps `f` over `items`, returning results in input order.
    ///
    /// Items are grouped into fixed chunks of `chunk` per task; each
    /// result is written to its input index, so the output is identical
    /// for any worker count.
    pub fn map_indexed<T, U, F>(&self, items: &[T], chunk: usize, f: F) -> Vec<U>
    where
        T: Sync,
        U: Send,
        F: Fn(usize, &T) -> U + Sync,
    {
        let partials = self.map_chunks(items.len(), chunk, |range| {
            range.map(|i| f(i, &items[i])).collect::<Vec<U>>()
        });
        let mut out = Vec::with_capacity(items.len());
        for part in partials {
            out.extend(part);
        }
        out
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
        let n_chunks = data.len().div_ceil(chunk);
        if self.threads <= 1 || n_chunks <= 1 {
            telemetry::counter!("qens_par_inline_tasks_total").add(n_chunks as u64);
            for (ci, part) in data.chunks_mut(chunk).enumerate() {
                f(ci * chunk, part);
            }
            return;
        }
        let f = &f;
        self.run_scoped(data.chunks_mut(chunk).enumerate().map(|(ci, part)| {
            Box::new(move || f(ci * chunk, part)) as Box<dyn FnOnce() + Send + '_>
        }));
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

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut state = lock(&shared.state);
            loop {
                if let Some(job) = state.jobs.pop_front() {
                    break Some(job);
                }
                if state.shutdown {
                    break None;
                }
                state = shared
                    .work_ready
                    .wait(state)
                    .unwrap_or_else(|p| p.into_inner());
            }
        };
        match job {
            Some(job) => job(),
            None => return,
        }
    }
}

/// Raw shared access to a `Vec<Option<U>>` where every task writes a
/// distinct index (enforced by construction in [`ThreadPool::map_chunks`]).
struct SharedSlots<'a, U> {
    ptr: *mut Option<U>,
    len: usize,
    _marker: PhantomData<&'a mut [Option<U>]>,
}

// SAFETY: the slots are only written through `set`, each index by exactly
// one task, and the owning Vec outlives the scope (the caller of
// `map_chunks` holds it across `run_scoped`, which blocks).
unsafe impl<U: Send> Sync for SharedSlots<'_, U> {}
unsafe impl<U: Send> Send for SharedSlots<'_, U> {}

impl<'a, U> SharedSlots<'a, U> {
    fn new(slots: &'a mut Vec<Option<U>>) -> Self {
        Self {
            ptr: slots.as_mut_ptr(),
            len: slots.len(),
            _marker: PhantomData,
        }
    }

    /// # Safety
    /// Each index must be written by at most one task, and `i < len`.
    unsafe fn set(&self, i: usize, value: U) {
        assert!(i < self.len, "slot index out of bounds");
        // SAFETY: disjoint indices per the caller contract; the pointee
        // is alive for 'a which spans the whole scope.
        unsafe { *self.ptr.add(i) = Some(value) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

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
    fn map_indexed_preserves_input_order_for_every_pool_size() {
        let items: Vec<u64> = (0..1000).collect();
        for pool in pools() {
            let out = pool.map_indexed(&items, 7, |i, &x| (i as u64) * 2 + x);
            assert_eq!(out.len(), items.len());
            for (i, v) in out.iter().enumerate() {
                assert_eq!(*v, (i as u64) * 3);
            }
        }
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
    fn scoped_tasks_may_borrow_the_stack() {
        let pool = ThreadPool::new(4);
        let data: Vec<usize> = (0..100).collect();
        let hits = AtomicUsize::new(0);
        pool.run_scoped((0..10).map(|t| {
            let data = &data;
            let hits = &hits;
            Box::new(move || {
                hits.fetch_add(data[t * 10], Ordering::Relaxed);
            }) as Box<dyn FnOnce() + Send + '_>
        }));
        assert_eq!(hits.load(Ordering::Relaxed), (0..10).map(|t| t * 10).sum());
    }

    #[test]
    fn nested_scopes_do_not_deadlock() {
        let pool = ThreadPool::new(2);
        let total = AtomicUsize::new(0);
        pool.run_scoped((0..4).map(|_| {
            let pool = &pool;
            let total = &total;
            Box::new(move || {
                // A pooled kernel calling another pooled kernel: the
                // inner scope's caller (a worker) helps drain the queue.
                let inner = pool.map_chunks(100, 10, |r| r.sum::<usize>());
                total.fetch_add(inner.iter().sum::<usize>(), Ordering::Relaxed);
            }) as Box<dyn FnOnce() + Send + '_>
        }));
        assert_eq!(total.load(Ordering::Relaxed), 4 * (0..100).sum::<usize>());
    }

    #[test]
    fn task_panics_propagate_to_the_caller_after_the_scope_drains() {
        let pool = ThreadPool::new(3);
        let completed = AtomicUsize::new(0);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run_scoped((0..8).map(|t| {
                let completed = &completed;
                Box::new(move || {
                    if t == 3 {
                        panic!("task 3 exploded");
                    }
                    completed.fetch_add(1, Ordering::Relaxed);
                }) as Box<dyn FnOnce() + Send + '_>
            }));
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

    #[test]
    #[should_panic(expected = "chunk size must be positive")]
    fn zero_chunk_rejected() {
        ThreadPool::new(2).map_chunks(10, 0, |_| ());
    }

    #[test]
    fn drop_joins_all_workers() {
        let pool = ThreadPool::new(4);
        let out = pool.map_indexed(&[1u8, 2, 3], 1, |_, &x| x * 2);
        assert_eq!(out, vec![2, 4, 6]);
        drop(pool); // must not hang
    }
}
