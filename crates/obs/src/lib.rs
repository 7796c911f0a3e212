//! # soc-obs
//!
//! A dependency-free observability substrate for the `standout`
//! workspace: **metrics** (sharded atomic counters, gauges, and
//! DDSketch-style quantile sketches behind a static registry),
//! **tracing** (lightweight RAII spans with monotonic timings, parent
//! links, request-scoped [`TraceCtx`] propagation, and per-thread
//! buffers flushed to a lock-free collector), and a **flight recorder**
//! (one process-wide bounded ring of recent spans, each stamped with a
//! sequence number — see [`flight`]).
//!
//! ## Why not a crate from the registry?
//!
//! The workspace builds fully offline with zero external dependencies
//! (see DESIGN.md "Dependencies"); `metrics`/`tracing` are not available.
//! The subset the solver, pool, miner, and serving layers need — relaxed
//! counters, latency sketches, span timings — fits in one small crate.
//!
//! ## The disabled fast path
//!
//! Both subsystems are **off by default**. Every recording call first
//! checks a process-wide flag word (one relaxed atomic load + branch)
//! and returns immediately when its subsystem is disabled — no clock
//! read, no thread-local access, no shard lookup. Hot paths therefore
//! stay instrumented permanently; the production cost of an unused
//! instrument is the branch.
//!
//! ```
//! soc_obs::enable_metrics();
//! let hits = soc_obs::counter!("example.hits");
//! hits.inc();
//! soc_obs::sketch!("example.latency_us").record(250);
//! {
//!     soc_obs::enable_tracing();
//!     let _span = soc_obs::span!("example_work");
//! } // span closes + flushes here
//! assert!(hits.value() >= 1);
//! assert!(!soc_obs::metrics_table().is_empty());
//! soc_obs::disable_all();
//! ```
//!
//! ## Naming convention
//!
//! Dotted lowercase paths, `subsystem.metric[_unit]`:
//! `pool.service.executed`, `solver.lp_us`, `serving.instance_us`. Metric
//! names are `&'static str` and registered once; re-registering the same
//! name with a different kind panics (it is a programming error).

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod clock;
pub mod flight;
pub mod json;
mod metrics;
mod sketch;
mod trace;

use std::sync::atomic::{AtomicU8, Ordering};

pub use clock::Ticks;
pub use metrics::{format_rows, Counter, Gauge, MetricRow, MetricValue, Registry, Snapshot};
pub use sketch::{QuantileSketch, SketchSnapshot, SKETCH_GAMMA};
pub use trace::{
    ctx_guard, current_ctx, drain_spans, flame_table, flush_thread_spans, next_request_id, span,
    spans_to_json_lines, CtxGuard, SpanGuard, SpanRecord, TraceCtx,
};

const METRICS_BIT: u8 = 0b001;
const TRACING_BIT: u8 = 0b010;
const FLIGHT_BIT: u8 = 0b100;

/// Process-wide enable flags. Relaxed loads are sufficient: recording is
/// advisory and readers tolerate a stale flag for a few instructions.
static FLAGS: AtomicU8 = AtomicU8::new(0);

/// True when metric recording is on.
#[inline(always)]
pub fn metrics_enabled() -> bool {
    FLAGS.load(Ordering::Relaxed) & METRICS_BIT != 0
}

/// True when span recording is on.
#[inline(always)]
pub fn tracing_enabled() -> bool {
    FLAGS.load(Ordering::Relaxed) & TRACING_BIT != 0
}

/// True when the flight recorder is on.
#[inline(always)]
pub fn flight_enabled() -> bool {
    FLAGS.load(Ordering::Relaxed) & FLIGHT_BIT != 0
}

/// True when spans must be captured at all — tracing *or* the flight
/// recorder is on. The single branch guarding [`span`].
#[inline(always)]
pub fn span_capture_enabled() -> bool {
    FLAGS.load(Ordering::Relaxed) & (TRACING_BIT | FLIGHT_BIT) != 0
}

/// Turns metric recording on.
pub fn enable_metrics() {
    FLAGS.fetch_or(METRICS_BIT, Ordering::SeqCst);
}

/// Turns metric recording off. Recorded values remain readable.
pub fn disable_metrics() {
    FLAGS.fetch_and(!METRICS_BIT, Ordering::SeqCst);
}

/// Turns span recording on.
pub fn enable_tracing() {
    FLAGS.fetch_or(TRACING_BIT, Ordering::SeqCst);
}

/// Turns span recording off. Buffered spans stay buffered until drained.
pub fn disable_tracing() {
    FLAGS.fetch_and(!TRACING_BIT, Ordering::SeqCst);
}

/// Turns the flight recorder on.
pub fn enable_flight() {
    FLAGS.fetch_or(FLIGHT_BIT, Ordering::SeqCst);
}

/// Turns the flight recorder off. The ring stays readable.
pub fn disable_flight() {
    FLAGS.fetch_and(!FLIGHT_BIT, Ordering::SeqCst);
}

/// Turns every subsystem on: metrics, tracing, and the flight recorder.
pub fn enable_all() {
    FLAGS.fetch_or(METRICS_BIT | TRACING_BIT | FLIGHT_BIT, Ordering::SeqCst);
}

/// Turns every subsystem off.
pub fn disable_all() {
    FLAGS.store(0, Ordering::SeqCst);
}

/// `Some(now_ns)` when metrics are enabled, `None` (no clock read)
/// otherwise. The idiom for conditional timing around a hot call:
///
/// ```
/// let t0 = soc_obs::metrics_then_now();
/// // ... the measured work ...
/// if let Some(t0) = t0 {
///     soc_obs::sketch!("doc.example_us").record(soc_obs::clock::elapsed_us(t0));
/// }
/// ```
#[inline]
pub fn metrics_then_now() -> Option<u64> {
    metrics_enabled().then(clock::now_ns)
}

/// The global metric registry.
pub fn registry() -> &'static Registry {
    metrics::global()
}

/// Renders every registered metric as an aligned text table.
pub fn metrics_table() -> String {
    registry().snapshot().to_table()
}

/// Renders every registered metric as a single JSON object.
pub fn metrics_json() -> String {
    registry().snapshot().to_json()
}

/// Renders every registered metric in the Prometheus text exposition
/// format (see [`Snapshot::to_prometheus`]).
pub fn metrics_prometheus() -> String {
    registry().snapshot().to_prometheus()
}

/// Resets every registered metric to zero (counts, sums, gauges).
/// Registration survives; only values clear. Meant for experiment
/// harnesses that measure deltas.
pub fn reset_metrics() {
    registry().reset();
}

/// Interns a [`Counter`] by name, once per call site.
///
/// Expands to a `&'static Counter`; the registry lookup happens on the
/// first execution only (cached in a `OnceLock` per call site).
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static SLOT: ::std::sync::OnceLock<&'static $crate::Counter> = ::std::sync::OnceLock::new();
        *SLOT.get_or_init(|| $crate::registry().counter($name))
    }};
}

/// Interns a [`Gauge`] by name, once per call site. See [`counter!`].
#[macro_export]
macro_rules! gauge {
    ($name:expr) => {{
        static SLOT: ::std::sync::OnceLock<&'static $crate::Gauge> = ::std::sync::OnceLock::new();
        *SLOT.get_or_init(|| $crate::registry().gauge($name))
    }};
}

/// Interns a [`QuantileSketch`] by name, once per call site. See
/// [`counter!`].
#[macro_export]
macro_rules! sketch {
    ($name:expr) => {{
        static SLOT: ::std::sync::OnceLock<&'static $crate::QuantileSketch> =
            ::std::sync::OnceLock::new();
        *SLOT.get_or_init(|| $crate::registry().sketch($name))
    }};
}

/// Opens a tracing span closed by the guard's drop:
/// `let _span = span!("solve_mip");`
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span($name)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    // The enable flags are process-global; tests that toggle them
    // serialize on this lock so they cannot observe each other's state.
    pub(crate) static FLAG_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn flags_toggle_independently() {
        let _guard = FLAG_LOCK.lock().unwrap();
        disable_all();
        assert!(!metrics_enabled() && !tracing_enabled() && !flight_enabled());
        assert!(!span_capture_enabled());
        enable_metrics();
        assert!(metrics_enabled() && !tracing_enabled());
        enable_tracing();
        assert!(metrics_enabled() && tracing_enabled());
        assert!(span_capture_enabled());
        disable_metrics();
        assert!(!metrics_enabled() && tracing_enabled());
        disable_tracing();
        enable_flight();
        assert!(flight_enabled() && !tracing_enabled());
        assert!(span_capture_enabled(), "flight alone captures spans");
        enable_all();
        assert!(metrics_enabled() && tracing_enabled() && flight_enabled());
        disable_all();
        assert!(!metrics_enabled() && !tracing_enabled() && !flight_enabled());
    }

    #[test]
    fn disabled_path_records_nothing() {
        let _guard = FLAG_LOCK.lock().unwrap();
        disable_all();
        let c = counter!("test.lib.disabled_counter");
        let h = sketch!("test.lib.disabled_sketch");
        c.add(5);
        h.record(123);
        assert_eq!(c.value(), 0);
        assert_eq!(h.snapshot().count, 0);
        assert!(metrics_then_now().is_none());
    }

    #[test]
    fn macro_returns_the_same_instance() {
        let a = counter!("test.lib.same_instance");
        let b = registry().counter("test.lib.same_instance");
        assert!(std::ptr::eq(a, b));
    }
}
