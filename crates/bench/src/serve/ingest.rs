//! The ingestion pipeline: a bounded queue between the HTTP workers and
//! one batcher thread that coalesces compatible queries into shared
//! federation waves.
//!
//! Back-pressure is explicit at both ends. At the front, a full queue
//! rejects the push and the HTTP worker answers `429 Retry-After` — the
//! queue can never grow past [`qens::AdmissionConfig::queue_depth`]. At
//! the back, the batcher sheds queries whose enqueue-to-dequeue age
//! blew the staleness deadline (`503`), so a backlog burns down instead
//! of serving arbitrarily stale work.
//!
//! Batching keys on the quantized query rectangle
//! ([`selection::CacheConfig::compatibility_key`]): queries whose
//! bounds land in the same buckets share a training wave via
//! [`fedlearn::run_batch`], and the per-query answers stay
//! bit-identical to unbatched serving.

use std::collections::VecDeque;
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use qens::geom::Query;
use qens::{fedlearn, telemetry, PolicyKind};

use super::ServerState;

/// A bounded MPMC queue: `Mutex<VecDeque>` + `Condvar`, capacity
/// enforced at push time (the producer is told, never blocked).
pub struct BoundedQueue<T> {
    inner: Mutex<VecDeque<T>>,
    cv: Condvar,
    cap: usize,
}

impl<T> BoundedQueue<T> {
    pub fn new(cap: usize) -> Self {
        Self {
            inner: Mutex::new(VecDeque::new()),
            cv: Condvar::new(),
            cap,
        }
    }

    /// Enqueues unless the queue is at capacity; a `cap` of 0 rejects
    /// everything (the admission-control test hook).
    pub fn try_push(&self, item: T) -> Result<(), T> {
        let mut q = self.inner.lock().expect("queue poisoned");
        if q.len() >= self.cap {
            return Err(item);
        }
        q.push_back(item);
        telemetry::gauge!("qens_serve_queue_depth").set(q.len() as f64);
        drop(q);
        self.cv.notify_one();
        Ok(())
    }

    /// Pops the head, waiting up to `timeout` for one to appear.
    pub fn pop_wait(&self, timeout: Duration) -> Option<T> {
        let mut q = self.inner.lock().expect("queue poisoned");
        if q.is_empty() {
            let (guard, _) = self.cv.wait_timeout(q, timeout).expect("queue poisoned");
            q = guard;
        }
        let item = q.pop_front();
        if item.is_some() {
            telemetry::gauge!("qens_serve_queue_depth").set(q.len() as f64);
        }
        item
    }

    /// Pops up to `max` more items without waiting (the batcher's
    /// coalescing window).
    pub fn drain_up_to(&self, max: usize) -> Vec<T> {
        let mut q = self.inner.lock().expect("queue poisoned");
        let n = max.min(q.len());
        let drained: Vec<T> = q.drain(..n).collect();
        if !drained.is_empty() {
            telemetry::gauge!("qens_serve_queue_depth").set(q.len() as f64);
        }
        drained
    }

    pub fn len(&self) -> usize {
        self.inner.lock().expect("queue poisoned").len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Wakes every waiter (used on shutdown so the batcher re-checks
    /// its exit condition immediately).
    pub fn notify_all(&self) {
        self.cv.notify_all();
    }
}

/// The answer the batcher sends back to the HTTP worker holding the
/// client connection.
pub struct Reply {
    pub status: &'static str,
    pub content_type: &'static str,
    pub body: String,
}

/// One admitted query waiting for a federation wave.
pub struct QueryJob {
    pub query: Query,
    pub enqueued: Instant,
    pub reply: mpsc::Sender<Reply>,
}

pub(super) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// The batcher thread body: pop → shed stale → group by bucket key →
/// one [`fedlearn::run_batch`] per group → reply per query.
///
/// Runs until shutdown is requested *and* the queue is empty, so
/// requests admitted before a shutdown still get real answers (the
/// graceful-drain contract `tests/serve_http.rs`'s
/// `graceful_drain_answers_in_flight_queries` asserts).
pub fn batcher_loop(state: Arc<ServerState>) {
    // The policy (and its selection memo) lives for the whole server:
    // built here because boxed policies are not Send, and shared across
    // every wave so a repeated rectangle hits the memo.
    let policy = state
        .fed
        .build_policy(&PolicyKind::query_driven(super::SERVE_SELECT_L));
    let compat = state.fed.cache_config().unwrap_or_default();
    let admission = state.admission;
    loop {
        let Some(head) = state.queue.pop_wait(Duration::from_millis(100)) else {
            if state.is_draining() && state.queue.is_empty() {
                break;
            }
            continue;
        };
        let mut jobs = vec![head];
        jobs.extend(
            state
                .queue
                .drain_up_to(admission.batch_max.saturating_sub(1)),
        );

        // Load shedding: a query that waited past the staleness deadline
        // gets a fast 503 instead of a stale federation round.
        let mut live: Vec<QueryJob> = Vec::with_capacity(jobs.len());
        for job in jobs {
            let age_ms = job.enqueued.elapsed().as_millis() as u64;
            telemetry::histogram!("qens_serve_wait_micros")
                .record(job.enqueued.elapsed().as_micros() as u64);
            if admission.deadline_ms.is_some_and(|d| d == 0 || age_ms > d) {
                telemetry::counter!("qens_serve_shed_total").incr();
                telemetry::emit(&telemetry::Event::AdmissionShed(job.query.id(), age_ms));
                let _ = job.reply.send(Reply {
                    status: "503 Service Unavailable",
                    content_type: "application/json",
                    body: format!(
                        "{{\"error\":\"shed: queued {age_ms} ms, deadline {} ms\"}}\n",
                        admission.deadline_ms.unwrap_or(0)
                    ),
                });
                continue;
            }
            live.push(job);
        }
        if live.is_empty() {
            continue;
        }

        // Group by the bucket compatibility key, preserving
        // arrival order within each group.
        let mut groups: Vec<(u64, Vec<QueryJob>)> = Vec::new();
        for job in live {
            let key = compat.compatibility_key(&job.query);
            match groups.iter_mut().find(|(k, _)| *k == key) {
                Some((_, g)) => g.push(job),
                None => groups.push((key, vec![job])),
            }
        }

        for (key, group) in groups {
            let queries: Vec<Query> = group.iter().map(|j| j.query.clone()).collect();
            telemetry::counter!("qens_serve_batches_total").incr();
            telemetry::counter!("qens_serve_batched_queries_total").add(queries.len() as u64);
            let span = telemetry::span(
                "serve.batch",
                &[("bucket", key), ("queries", queries.len() as u64)],
            );
            let outcomes = fedlearn::run_batch(
                state.fed.network(),
                &queries,
                policy.as_ref(),
                state.fed.config(),
            );
            span.finish();
            for (job, outcome) in group.into_iter().zip(outcomes) {
                let reply = match outcome {
                    Ok(out) => {
                        let loss = out
                            .query_loss(state.fed.network(), &job.query)
                            .map_or("null".to_string(), |l| format!("{l}"));
                        let participants: Vec<String> = out
                            .selection
                            .participants
                            .iter()
                            .map(|p| format!("{{\"node\":{},\"ranking\":{}}}", p.node.0, p.ranking))
                            .collect();
                        Reply {
                            status: "200 OK",
                            content_type: "application/json",
                            body: format!(
                                "{{\"query_id\":{},\"loss\":{loss},\"participants\":[{}],\"standby\":{},\"samples_used\":{},\"sim_seconds\":{},\"batch\":{}}}\n",
                                job.query.id(),
                                participants.join(","),
                                out.selection.standby.len(),
                                out.accounting.samples_used,
                                out.accounting.sim_seconds,
                                queries.len(),
                            ),
                        }
                    }
                    Err(e) => Reply {
                        status: "422 Unprocessable Entity",
                        content_type: "application/json",
                        body: format!("{{\"error\":\"{}\"}}\n", json_escape(&e.to_string())),
                    },
                };
                // A client that gave up (timed out, disconnected) just
                // drops its receiver; that is not the batcher's problem.
                let _ = job.reply.send(reply);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounded_queue_enforces_capacity_and_order() {
        let q: BoundedQueue<u32> = BoundedQueue::new(2);
        assert!(q.try_push(1).is_ok());
        assert!(q.try_push(2).is_ok());
        assert_eq!(q.try_push(3), Err(3));
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop_wait(Duration::from_millis(1)), Some(1));
        assert_eq!(q.drain_up_to(5), vec![2]);
        assert_eq!(q.pop_wait(Duration::from_millis(1)), None);
    }

    #[test]
    fn zero_capacity_rejects_everything() {
        let q: BoundedQueue<u32> = BoundedQueue::new(0);
        assert_eq!(q.try_push(7), Err(7));
    }

    #[test]
    fn pop_wait_sees_a_push_from_another_thread() {
        let q: Arc<BoundedQueue<u32>> = Arc::new(BoundedQueue::new(4));
        let q2 = Arc::clone(&q);
        let producer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            q2.try_push(42).unwrap();
        });
        assert_eq!(q.pop_wait(Duration::from_secs(5)), Some(42));
        producer.join().unwrap();
    }

    #[test]
    fn json_escape_handles_quotes_and_control_bytes() {
        assert_eq!(json_escape("plain"), "plain");
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }
}
