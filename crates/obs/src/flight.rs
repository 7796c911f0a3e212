//! Flight recorder: one process-wide bounded ring of recently closed
//! spans. Reads copy and never consume, so any number of readers see
//! the same records, and [`crate::drain_spans`] does not touch them — a
//! postmortem ("why was *that* request slow?") can be assembled after
//! the fact.
//!
//! ## Ring format
//!
//! The ring holds the last [`RING_CAP`] spans closed while the flight
//! bit is on, on any thread. Each span is pushed at close and stamped
//! with the next value of a process-wide sequence number (`seq`, from
//! 0, never reused). When the ring is full the oldest span is evicted:
//! the recorder keeps the recent tail and never grows.
//!
//! A push takes a blocking lock, so contention with another pusher or a
//! reader delays the closing span by one short critical section but
//! never drops a record. Poisoning is ignored: a panic under the lock
//! can only have lost the record it was pushing, and telemetry must
//! never take its caller down.
//!
//! ## Reads
//!
//! - [`page`]: spans from a `seq` cursor on, oldest first (a server's
//!   `stats` view). A cursor skips spans evicted before they were paged
//!   and never repeats one.
//! - [`for_request`]: one request's spans (`trace`, postmortems).
//! - [`snapshot`]: the whole ring (`dump_flight`).

use std::collections::VecDeque;
use std::sync::{Mutex, MutexGuard, PoisonError};

use crate::trace::SpanRecord;

/// Ring capacity, in spans.
pub const RING_CAP: usize = 4096;

/// A span as the ring holds it.
#[derive(Clone, Debug)]
pub struct RingSpan {
    /// Position in push order, from 0; the [`page`] cursor space.
    pub seq: u64,
    /// The span itself.
    pub span: SpanRecord,
}

/// The ring's state. The process has one ([`RING`]); tests build their
/// own.
struct Ring {
    spans: VecDeque<RingSpan>,
    next_seq: u64,
}

static RING: Mutex<Ring> = Mutex::new(Ring::new());

/// Locks `ring`, ignoring poisoning: every update leaves the ring valid.
fn lock(ring: &Mutex<Ring>) -> MutexGuard<'_, Ring> {
    ring.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Ring {
    const fn new() -> Self {
        Self {
            spans: VecDeque::new(),
            next_seq: 0,
        }
    }

    fn push(&mut self, span: SpanRecord) {
        let seq = self.next_seq;
        if self.spans.len() == RING_CAP {
            self.spans.pop_front();
        }
        self.spans.push_back(RingSpan { seq, span });
        self.next_seq = seq + 1;
    }

    fn page(&self, since: u64, max: usize) -> Result<(Vec<RingSpan>, u64), u64> {
        if since > self.next_seq {
            return Err(self.next_seq);
        }
        let first = self.spans.front().map_or(self.next_seq, |s| s.seq);
        let skip = self.spans.partition_point(|s| s.seq < since);
        let out: Vec<RingSpan> = self.spans.range(skip..).take(max).cloned().collect();
        let cursor = out.last().map_or(since.max(first), |s| s.seq + 1);
        Ok((out, cursor))
    }

    fn for_request(&self, request: u64) -> Vec<SpanRecord> {
        let mut out: Vec<SpanRecord> = self
            .spans
            .iter()
            .filter(|s| s.span.request == request)
            .map(|s| s.span.clone())
            .collect();
        out.sort_by_key(|r| (r.start_ns, r.thread));
        out
    }

    fn snapshot(&self) -> Vec<SpanRecord> {
        self.spans.iter().map(|s| s.span.clone()).collect()
    }
}

/// Pushes a closed span. Called from the span guard's drop while the
/// flight bit is on; callers go through `span!`, not this.
pub(crate) fn push(span: SpanRecord) {
    lock(&RING).push(span);
}

/// Spans with `seq >= since`, oldest first, at most `max`, plus the
/// cursor to pass as `since` next time (past the last span returned, or
/// the frontier when nothing is left). `Err(frontier)` when `since` is
/// beyond the next sequence number the ring will assign.
pub fn page(since: u64, max: usize) -> Result<(Vec<RingSpan>, u64), u64> {
    lock(&RING).page(since, max)
}

/// Every retained span recorded under `request`, sorted by
/// `(start_ns, thread)`.
pub fn for_request(request: u64) -> Vec<SpanRecord> {
    lock(&RING).for_request(request)
}

/// Every retained span, in push order.
pub fn snapshot() -> Vec<SpanRecord> {
    lock(&RING).snapshot()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::FLAG_LOCK;

    fn record(request: u64, start_ns: u64) -> SpanRecord {
        SpanRecord {
            name: "t",
            id: start_ns + 1,
            parent: 0,
            request,
            thread: 1,
            start_ns,
            dur_ns: 10,
        }
    }

    fn ring_with(records: Vec<SpanRecord>) -> Ring {
        let mut ring = Ring::new();
        for r in records {
            ring.push(r);
        }
        ring
    }

    #[test]
    fn query_pages_with_cursor() {
        let ring = ring_with((0..10).map(|i| record(7, i * 100)).collect());
        let (page, cursor) = ring.page(0, 4).unwrap();
        assert_eq!(page.len(), 4);
        assert_eq!(cursor, 4, "full page points at the next unreturned span");
        let (page, cursor) = ring.page(cursor, 100).unwrap();
        assert_eq!(page.len(), 6);
        assert_eq!(cursor, 10, "exhausted page points past the frontier");
        let (page, cursor) = ring.page(cursor, 100).unwrap();
        assert!(page.is_empty());
        assert_eq!(cursor, 10);
    }

    #[test]
    fn query_rejects_future_cursor() {
        let ring = ring_with(vec![record(1, 0)]);
        let frontier = ring.page(99, 10).unwrap_err();
        assert_eq!(frontier, 1);
    }

    #[test]
    fn for_request_filters_and_orders() {
        let ring = ring_with(vec![record(2, 300), record(1, 100), record(2, 200)]);
        let got = ring.for_request(2);
        assert_eq!(got.len(), 2);
        assert!(got[0].start_ns < got[1].start_ns);
        assert!(got.iter().all(|r| r.request == 2));
    }

    #[test]
    fn ring_is_bounded_and_keeps_the_recent_tail() {
        let ring = ring_with((0..RING_CAP as u64 + 100).map(|i| record(0, i)).collect());
        let all = ring.snapshot();
        assert_eq!(all.len(), RING_CAP);
        // The oldest 100 were evicted; the newest survive, in push order.
        assert!(all.iter().all(|s| s.start_ns >= 100));
        assert_eq!(all.last().unwrap().start_ns, RING_CAP as u64 + 99);
        assert!(all.windows(2).all(|w| w[1].start_ns == w[0].start_ns + 1));
        assert!(ring.spans.iter().all(|s| s.seq == s.span.start_ns));
        // A cursor into the evicted range skips to the oldest retained
        // span instead of repeating or failing.
        let (page, cursor) = ring.page(5, 3).unwrap();
        let seqs: Vec<u64> = page.iter().map(|s| s.seq).collect();
        assert_eq!(seqs, [100, 101, 102]);
        assert_eq!(cursor, 103);
    }

    #[test]
    fn poisoned_lock_still_pushes_pages_and_snapshots() {
        let ring = Mutex::new(ring_with(vec![record(3, 0)]));
        let poisoned = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let _held = ring.lock().unwrap();
                    panic!("poison the ring");
                })
                .join()
        });
        assert!(poisoned.is_err());
        assert!(ring.is_poisoned());
        // The same lock path the process-wide ring's functions take.
        lock(&ring).push(record(3, 100));
        let (page, cursor) = lock(&ring).page(0, 10).unwrap();
        assert_eq!(page.len(), 2);
        assert_eq!(cursor, 2);
        assert_eq!(lock(&ring).snapshot().len(), 2);
        assert_eq!(lock(&ring).for_request(3).len(), 2);
    }

    #[test]
    fn spans_survive_drain_and_carry_their_request() {
        let _guard = FLAG_LOCK.lock().unwrap();
        crate::enable_tracing();
        crate::enable_flight();
        let _ = crate::drain_spans();
        let req = crate::next_request_id();
        let (outer_id, inner_id) = {
            let _ctx = crate::ctx_guard(Some(crate::TraceCtx {
                request: req,
                parent: 0,
            }));
            let outer = crate::span("flight_outer");
            let inner = crate::span("flight_inner");
            (outer.id(), inner.id())
        };
        // Draining the trace collector must not touch the recorder.
        let drained = crate::drain_spans();
        assert!(drained.iter().any(|r| r.id == outer_id));
        let recs = for_request(req);
        assert_eq!(recs.len(), 2, "{recs:?}");
        let inner = recs.iter().find(|r| r.id == inner_id).unwrap();
        assert_eq!(inner.parent, outer_id);
        assert!(recs.iter().any(|r| r.id == outer_id && r.parent == 0));
        crate::disable_all();
    }

    #[test]
    fn spans_of_exited_threads_stay_visible() {
        let _guard = FLAG_LOCK.lock().unwrap();
        crate::enable_flight();
        let req = crate::next_request_id();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(move || {
                    let _ctx = crate::ctx_guard(Some(crate::TraceCtx {
                        request: req,
                        parent: 0,
                    }));
                    let _s = crate::span("flight_exited");
                });
            }
        });
        // The scoped threads exited; their spans are still in the ring.
        let recs = for_request(req);
        assert_eq!(recs.len(), 4);
        let mut threads: Vec<u64> = recs.iter().map(|r| r.thread).collect();
        threads.sort_unstable();
        threads.dedup();
        assert_eq!(threads.len(), 4);
        crate::disable_all();
    }

    #[test]
    fn disabled_recorder_is_inert() {
        let _guard = FLAG_LOCK.lock().unwrap();
        crate::disable_all();
        crate::enable_tracing();
        let req = crate::next_request_id();
        {
            let _ctx = crate::ctx_guard(Some(crate::TraceCtx {
                request: req,
                parent: 0,
            }));
            let _s = crate::span("flight_never");
        }
        assert!(for_request(req).is_empty());
        crate::disable_all();
        let _ = crate::drain_spans();
    }
}
