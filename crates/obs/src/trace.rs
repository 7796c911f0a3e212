//! Tracing spans: RAII guards, per-thread buffers, a lock-free
//! collector, request-scoped trace contexts, and JSON-lines /
//! flame-table export.
//!
//! ## Span buffer format
//!
//! Each thread owns a buffer of finished [`SpanRecord`]s plus a stack of
//! open span ids (so a span's parent is whatever was open on the same
//! thread when it started). Records carry a process-unique id
//! `(thread_serial << 32) | per_thread_sequence`, the parent id (0 =
//! root), and monotonic `start_ns`/`dur_ns` from [`crate::clock`] —
//! durations are saturating, never negative.
//!
//! ## Trace contexts
//!
//! A [`TraceCtx`] carries a request id plus the span id to parent the
//! next *root* span under. It is installed per thread via [`ctx_guard`]
//! and captured for handoff via [`current_ctx`]; a thread boundary
//! propagates it by capturing on the submitting thread and installing
//! on the receiving one (`soc_pool::Service` does this for every job).
//! Every span closed while a ctx is installed carries its request id,
//! and a root span (empty local stack) parents to `ctx.parent` — so one
//! request's spans stitch into a single tree across threads.
//!
//! ## Flush protocol
//!
//! Buffers flush to the global collector (a Treiber-stack of record
//! chunks, push = one CAS, no locks) when (a) the thread's outermost
//! span closes, (b) the buffer exceeds a size cap, or (c) the thread
//! exits (TLS destructor) — so scoped worker threads flush automatically
//! at scope join. [`drain_spans`] flushes the calling thread, then swaps
//! the whole stack out and returns every record sorted by
//! `(thread, start)`. Spans still open, or buffered on other
//! still-running threads, are not included — drain after joining the
//! workers whose spans you want.
//!
//! The collector is lossless and drain-once. Separately, while the
//! flight recorder is on, every span is also pushed into the bounded
//! [`crate::flight`] ring at close, which readers copy without
//! consuming.

use std::cell::RefCell;
use std::ptr;
use std::sync::atomic::{AtomicPtr, AtomicU64, Ordering};

use crate::clock;

/// One finished span.
#[derive(Clone, Debug)]
pub struct SpanRecord {
    /// Static span name (the `span!` argument).
    pub name: &'static str,
    /// Process-unique span id.
    pub id: u64,
    /// Id of the enclosing span: an open span on the same thread, or —
    /// for a thread-root span under an installed [`TraceCtx`] — the
    /// cross-thread parent from the ctx (0 = no parent).
    pub parent: u64,
    /// Request id from the installed [`TraceCtx`] (0 = none).
    pub request: u64,
    /// Serial number of the recording thread.
    pub thread: u64,
    /// Start timestamp, nanoseconds since the process clock epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds (saturating).
    pub dur_ns: u64,
}

/// Request-scoped trace identity, threaded explicitly across thread
/// handoffs: the request id plus the span id to parent the receiving
/// thread's next root span under.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceCtx {
    /// Process-unique request id (mint via [`next_request_id`]; 0 = none).
    pub request: u64,
    /// Span id new root spans parent to (0 = none).
    pub parent: u64,
}

/// Mints a process-unique request id (monotonic, starts at 1).
pub fn next_request_id() -> u64 {
    static NEXT_REQUEST: AtomicU64 = AtomicU64::new(1);
    NEXT_REQUEST.fetch_add(1, Ordering::Relaxed)
}

/// Flush the thread buffer at this many records even if spans are still
/// open — bounds memory for long-running span-heavy threads.
const FLUSH_AT: usize = 256;

struct ThreadSpans {
    thread: u64,
    next_seq: u32,
    stack: Vec<u64>,
    buf: Vec<SpanRecord>,
    ctx: Option<TraceCtx>,
}

impl ThreadSpans {
    fn new() -> Self {
        static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);
        Self {
            thread: NEXT_THREAD.fetch_add(1, Ordering::Relaxed),
            next_seq: 0,
            stack: Vec::new(),
            buf: Vec::new(),
            ctx: None,
        }
    }

    fn flush(&mut self) {
        if !self.buf.is_empty() {
            push_chunk(std::mem::take(&mut self.buf));
        }
    }
}

impl Drop for ThreadSpans {
    fn drop(&mut self) {
        // Thread exit: whatever is buffered reaches the collector, so
        // scoped worker threads need no explicit flush call.
        self.flush();
    }
}

thread_local! {
    static THREAD_SPANS: RefCell<ThreadSpans> = RefCell::new(ThreadSpans::new());
}

// ---- the lock-free collector: a Treiber stack of record chunks ----

struct Chunk {
    records: Vec<SpanRecord>,
    next: *mut Chunk,
}

static HEAD: AtomicPtr<Chunk> = AtomicPtr::new(ptr::null_mut());

fn push_chunk(records: Vec<SpanRecord>) {
    let node = Box::into_raw(Box::new(Chunk {
        records,
        next: ptr::null_mut(),
    }));
    let mut head = HEAD.load(Ordering::Acquire);
    loop {
        // Safety: `node` is owned by this call until the CAS succeeds.
        unsafe { (*node).next = head };
        match HEAD.compare_exchange_weak(head, node, Ordering::AcqRel, Ordering::Acquire) {
            Ok(_) => return,
            Err(actual) => head = actual,
        }
    }
}

/// Flushes the calling thread's buffered spans to the collector.
/// (Other threads flush when their outermost span closes or when they
/// exit.)
pub fn flush_thread_spans() {
    THREAD_SPANS.with(|t| t.borrow_mut().flush());
}

/// Flushes the calling thread, then drains the collector: every flushed
/// span so far, sorted by `(thread, start_ns)`. Draining clears the
/// collector.
pub fn drain_spans() -> Vec<SpanRecord> {
    flush_thread_spans();
    let mut head = HEAD.swap(ptr::null_mut(), Ordering::AcqRel);
    let mut out = Vec::new();
    while !head.is_null() {
        // Safety: the swap made this list exclusively ours.
        let chunk = unsafe { Box::from_raw(head) };
        out.extend(chunk.records);
        head = chunk.next;
    }
    out.sort_by_key(|r| (r.thread, r.start_ns, r.id));
    out
}

/// Restores the previously installed [`TraceCtx`] on drop. Create via
/// [`ctx_guard`].
pub struct CtxGuard {
    prev: Option<TraceCtx>,
    installed: bool,
}

/// Installs `ctx` as the calling thread's trace context for the guard's
/// lifetime (the previous ctx is restored on drop). Inert — no TLS
/// touch — when `ctx` is `None` and span capture is off.
pub fn ctx_guard(ctx: Option<TraceCtx>) -> CtxGuard {
    if ctx.is_none() && !crate::span_capture_enabled() {
        return CtxGuard {
            prev: None,
            installed: false,
        };
    }
    let prev = THREAD_SPANS.with(|t| std::mem::replace(&mut t.borrow_mut().ctx, ctx));
    CtxGuard {
        prev,
        installed: true,
    }
}

impl Drop for CtxGuard {
    fn drop(&mut self) {
        if self.installed {
            THREAD_SPANS.with(|t| t.borrow_mut().ctx = self.prev);
        }
    }
}

/// Captures the calling thread's trace context for handoff to another
/// thread: the installed request id plus — as the parent for the
/// receiving thread's root spans — the innermost span currently open
/// here (falling back to the installed ctx's parent). `None` when span
/// capture is off or there is nothing to propagate.
pub fn current_ctx() -> Option<TraceCtx> {
    if !crate::span_capture_enabled() {
        return None;
    }
    THREAD_SPANS.with(|t| {
        let t = t.borrow();
        let request = t.ctx.map_or(0, |c| c.request);
        let parent = t
            .stack
            .last()
            .copied()
            .unwrap_or_else(|| t.ctx.map_or(0, |c| c.parent));
        (request != 0 || parent != 0).then_some(TraceCtx { request, parent })
    })
}

/// An open span; the drop closes and records it. Create via
/// [`span`] / `span!`.
pub struct SpanGuard {
    /// `None` when span capture was disabled at open time (fully inert).
    open: Option<OpenSpan>,
}

struct OpenSpan {
    name: &'static str,
    id: u64,
    start_ns: u64,
}

impl SpanGuard {
    /// This span's process-unique id (0 when the guard is inert) — the
    /// value to hand out as [`TraceCtx::parent`].
    pub fn id(&self) -> u64 {
        self.open.as_ref().map_or(0, |o| o.id)
    }
}

/// Opens a span. Inert (no clock read, no TLS touch) while both tracing
/// and the flight recorder are disabled.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    if !crate::span_capture_enabled() {
        return SpanGuard { open: None };
    }
    let id = THREAD_SPANS.with(|t| {
        let mut t = t.borrow_mut();
        t.next_seq += 1;
        let id = (t.thread << 32) | u64::from(t.next_seq);
        t.stack.push(id);
        id
    });
    SpanGuard {
        open: Some(OpenSpan {
            name,
            id,
            start_ns: clock::now_ns(),
        }),
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(open) = self.open.take() else {
            return;
        };
        let dur_ns = clock::saturating_delta_ns(open.start_ns, clock::now_ns());
        THREAD_SPANS.with(|t| {
            let mut t = t.borrow_mut();
            // Pop back to this span's frame. Out-of-order guard drops
            // cannot happen with RAII lifetimes, but be lenient: pop
            // until we find our id (or the stack empties).
            while let Some(top) = t.stack.pop() {
                if top == open.id {
                    break;
                }
            }
            // A thread-root span under an installed ctx parents to the
            // cross-thread span named by the ctx.
            let parent = t
                .stack
                .last()
                .copied()
                .unwrap_or_else(|| t.ctx.map_or(0, |c| c.parent));
            let record = SpanRecord {
                name: open.name,
                id: open.id,
                parent,
                request: t.ctx.map_or(0, |c| c.request),
                thread: t.thread,
                start_ns: open.start_ns,
                dur_ns,
            };
            if crate::flight_enabled() {
                crate::flight::push(record.clone());
            }
            if crate::tracing_enabled() {
                t.buf.push(record);
                if t.stack.is_empty() || t.buf.len() >= FLUSH_AT {
                    t.flush();
                }
            }
        });
    }
}

/// Renders spans as JSON lines, one object per span, fields:
/// `name, id, parent, request, thread, start_us, dur_us`.
pub fn spans_to_json_lines(records: &[SpanRecord]) -> String {
    let mut out = String::new();
    for r in records {
        out.push_str(&format!(
            "{{\"name\": {}, \"id\": {}, \"parent\": {}, \"request\": {}, \"thread\": {}, \
             \"start_us\": {}, \"dur_us\": {}}}\n",
            crate::json::quote(r.name),
            r.id,
            r.parent,
            r.request,
            r.thread,
            r.start_ns / 1_000,
            r.dur_ns / 1_000,
        ));
    }
    out
}

/// Aggregates spans into a flame-style table: one row per span name
/// with call count, total time, and *self* time (total minus the time
/// of direct children), sorted by self time descending.
pub fn flame_table(records: &[SpanRecord]) -> String {
    use std::collections::HashMap;
    // Sum of direct children's duration per parent id.
    let mut child_ns: HashMap<u64, u64> = HashMap::new();
    for r in records {
        if r.parent != 0 {
            *child_ns.entry(r.parent).or_insert(0) += r.dur_ns;
        }
    }
    struct Row {
        calls: u64,
        total_ns: u64,
        self_ns: u64,
    }
    let mut by_name: HashMap<&'static str, Row> = HashMap::new();
    for r in records {
        let children = child_ns.get(&r.id).copied().unwrap_or(0);
        let row = by_name.entry(r.name).or_insert(Row {
            calls: 0,
            total_ns: 0,
            self_ns: 0,
        });
        row.calls += 1;
        row.total_ns += r.dur_ns;
        row.self_ns += r.dur_ns.saturating_sub(children);
    }
    let mut rows: Vec<(&'static str, Row)> = by_name.into_iter().collect();
    rows.sort_by(|a, b| b.1.self_ns.cmp(&a.1.self_ns).then(a.0.cmp(b.0)));
    let width = rows.iter().map(|(n, _)| n.len()).max().unwrap_or(4).max(4);
    let mut out = format!(
        "{:<width$}  {:>8}  {:>12}  {:>12}\n",
        "span", "calls", "total ms", "self ms"
    );
    for (name, row) in rows {
        out.push_str(&format!(
            "{:<width$}  {:>8}  {:>12.3}  {:>12.3}\n",
            name,
            row.calls,
            row.total_ns as f64 / 1e6,
            row.self_ns as f64 / 1e6,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::FLAG_LOCK;

    #[test]
    fn spans_nest_and_export() {
        let _guard = FLAG_LOCK.lock().unwrap();
        crate::enable_tracing();
        let _ = drain_spans(); // clear leftovers from other tests
        {
            let _outer = span("outer");
            std::thread::sleep(std::time::Duration::from_millis(1));
            {
                let _inner = span("inner");
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        }
        let records = drain_spans();
        crate::disable_all();
        assert_eq!(records.len(), 2);
        let inner = records.iter().find(|r| r.name == "inner").unwrap();
        let outer = records.iter().find(|r| r.name == "outer").unwrap();
        assert_eq!(inner.parent, outer.id);
        assert_eq!(outer.parent, 0);
        assert!(outer.dur_ns >= inner.dur_ns);
        assert!(inner.dur_ns > 0);

        let json = spans_to_json_lines(&records);
        assert_eq!(json.lines().count(), 2);
        assert!(json.contains("\"name\": \"inner\""));
        for line in json.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'));
            assert_eq!(line.matches('{').count(), line.matches('}').count());
        }

        let flame = flame_table(&records);
        assert!(flame.contains("outer"), "{flame}");
        assert!(flame.contains("inner"), "{flame}");
    }

    #[test]
    fn flame_self_time_subtracts_children() {
        let records = vec![
            SpanRecord {
                name: "parent",
                id: 100,
                parent: 0,
                request: 0,
                thread: 1,
                start_ns: 0,
                dur_ns: 10_000_000,
            },
            SpanRecord {
                name: "child",
                id: 101,
                parent: 100,
                request: 0,
                thread: 1,
                start_ns: 1_000,
                dur_ns: 4_000_000,
            },
        ];
        let flame = flame_table(&records);
        let parent_line = flame.lines().find(|l| l.starts_with("parent")).unwrap();
        // total 10ms, self 6ms.
        assert!(parent_line.contains("10.000"), "{flame}");
        assert!(parent_line.contains("6.000"), "{flame}");
    }

    #[test]
    fn json_lines_escape_hostile_span_names() {
        let records = vec![SpanRecord {
            name: "bad\"name\\with\ncontrol\u{1}and🚗",
            id: 7,
            parent: 0,
            request: 0,
            thread: 1,
            start_ns: 0,
            dur_ns: 10,
        }];
        let json = spans_to_json_lines(&records);
        assert_eq!(json.lines().count(), 1);
        assert!(
            json.contains("\"bad\\\"name\\\\with\\ncontrol\\u0001and🚗\""),
            "{json}"
        );
        // The line itself must stay one line: the raw \n was escaped.
        assert!(json.trim_end().find('\n').is_none(), "{json}");
    }

    #[test]
    fn disabled_spans_are_inert() {
        let _guard = FLAG_LOCK.lock().unwrap();
        crate::disable_all();
        let _ = drain_spans();
        {
            let _s = span("never_recorded");
        }
        assert!(drain_spans().is_empty());
    }

    #[test]
    fn ctx_threads_request_ids_across_threads() {
        let _guard = FLAG_LOCK.lock().unwrap();
        crate::enable_tracing();
        let _ = drain_spans();
        let req = next_request_id();
        let root_id;
        {
            let _ctx = ctx_guard(Some(TraceCtx {
                request: req,
                parent: 0,
            }));
            let root = span("request_root");
            root_id = root.id();
            assert_ne!(root_id, 0);
            // What a pool boundary captures: parent = the innermost
            // open span here, request = the installed id.
            let handoff = current_ctx().expect("ctx with open span");
            assert_eq!(
                handoff,
                TraceCtx {
                    request: req,
                    parent: root_id
                }
            );
            std::thread::scope(|scope| {
                scope.spawn(move || {
                    let _g = ctx_guard(Some(handoff));
                    let _s = span("worker_root");
                    let _n = span("worker_nested");
                });
            });
        }
        let records = drain_spans();
        crate::disable_all();
        assert!(records.iter().all(|r| r.request == req), "{records:?}");
        let worker_root = records.iter().find(|r| r.name == "worker_root").unwrap();
        let nested = records.iter().find(|r| r.name == "worker_nested").unwrap();
        let root = records.iter().find(|r| r.name == "request_root").unwrap();
        // The stitched tree: nested → worker_root → request_root → 0,
        // crossing the thread boundary at worker_root.
        assert_eq!(nested.parent, worker_root.id);
        assert_eq!(worker_root.parent, root.id);
        assert_ne!(worker_root.thread, root.thread);
        assert_eq!(root.parent, 0);
        assert_eq!(root.id, root_id);
    }

    #[test]
    fn ctx_guard_restores_previous_ctx() {
        let _guard = FLAG_LOCK.lock().unwrap();
        crate::enable_tracing();
        let outer = TraceCtx {
            request: 71,
            parent: 0,
        };
        {
            let _a = ctx_guard(Some(outer));
            assert_eq!(current_ctx(), Some(outer));
            {
                let inner = TraceCtx {
                    request: 72,
                    parent: 9,
                };
                let _b = ctx_guard(Some(inner));
                assert_eq!(current_ctx(), Some(inner));
            }
            assert_eq!(current_ctx(), Some(outer));
        }
        assert_eq!(current_ctx(), None);
        crate::disable_all();
        // Disabled: fully inert, nothing to capture.
        assert_eq!(current_ctx(), None);
        let g = ctx_guard(None);
        drop(g);
    }

    #[test]
    fn request_ids_are_unique_and_nonzero() {
        let a = next_request_id();
        let b = next_request_id();
        assert_ne!(a, 0);
        assert_ne!(b, 0);
        assert_ne!(a, b);
    }

    #[test]
    fn cross_thread_spans_flush_on_thread_exit() {
        let _guard = FLAG_LOCK.lock().unwrap();
        crate::enable_tracing();
        let _ = drain_spans();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    let _s = span("worker_span");
                });
            }
        });
        let records = drain_spans();
        crate::disable_all();
        let workers = records.iter().filter(|r| r.name == "worker_span").count();
        assert_eq!(workers, 4);
        // Thread serials are distinct.
        let mut threads: Vec<u64> = records.iter().map(|r| r.thread).collect();
        threads.sort_unstable();
        threads.dedup();
        assert_eq!(threads.len(), 4);
    }
}
