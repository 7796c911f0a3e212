//! Metrics: sharded counters, gauges, and quantile sketches behind a
//! static registry.
//!
//! ## Shard/flush protocol
//!
//! Counters are striped across [`SHARDS`] cache-line-padded atomic
//! cells (sketches across fewer, see [`crate::QuantileSketch`]); each
//! thread hashes to a fixed stripe (a thread-local assigned round-robin
//! on first use), so concurrent increments from connection threads and
//! solver workers hit distinct cache lines instead of bouncing one. Increments use `Relaxed` ordering — a metric cell
//! carries no control dependency, and torn *reads across shards* are
//! acceptable mid-flight. Reads (`value`, `snapshot`) sum the stripes;
//! exactness is guaranteed once the writing threads have been joined
//! (every `fetch_add` is then visible via the join's happens-before
//! edge), which is the registry's "flush": there is no buffered state,
//! so joining writers *is* the flush.
//!
//! ## Registration
//!
//! Metrics are interned by `&'static str` name in a global map and
//! leaked (`Box::leak`) so handles are `&'static` and recording never
//! takes a lock. Re-registering a name with a different kind panics.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

use crate::sketch::{QuantileSketch, SketchSnapshot};

/// Stripes per counter. 16 keeps the threads that record at once (one
/// per served connection plus the solver workers) on mostly distinct
/// stripes while keeping an idle counter at 1 KiB.
pub(crate) const SHARDS: usize = 16;

#[repr(align(64))]
#[derive(Default)]
struct PaddedU64(AtomicU64);

/// The calling thread's stripe, assigned round-robin on first use.
#[inline]
pub(crate) fn shard_id() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static SHARD: usize = NEXT.fetch_add(1, Ordering::Relaxed) % SHARDS;
    }
    SHARD.with(|s| *s)
}

/// A monotonically increasing sum, striped across shards.
#[derive(Default)]
pub struct Counter {
    shards: [PaddedU64; SHARDS],
}

impl Counter {
    /// Adds `n` (no-op while metrics are disabled).
    #[inline]
    pub fn add(&self, n: u64) {
        if crate::metrics_enabled() {
            self.shards[shard_id()].0.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds 1 (no-op while metrics are disabled).
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// The summed value across shards.
    pub fn value(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }

    fn reset(&self) {
        for s in &self.shards {
            s.0.store(0, Ordering::Relaxed);
        }
    }
}

/// A signed instantaneous value (queue depths, live worker counts).
/// Unsharded: gauges are written orders of magnitude less often than
/// counters (once per batch claim, not once per task).
#[derive(Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// Sets the gauge (no-op while metrics are disabled).
    #[inline]
    pub fn set(&self, v: i64) {
        if crate::metrics_enabled() {
            self.value.store(v, Ordering::Relaxed);
        }
    }

    /// Adds `d` (may be negative; no-op while metrics are disabled).
    #[inline]
    pub fn add(&self, d: i64) {
        if crate::metrics_enabled() {
            self.value.fetch_add(d, Ordering::Relaxed);
        }
    }

    /// The current value.
    pub fn value(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

enum Metric {
    Counter(&'static Counter),
    Gauge(&'static Gauge),
    Sketch(&'static QuantileSketch),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Sketch(_) => "sketch",
        }
    }
}

/// The static metric registry: an interning map from name to leaked
/// metric. All recording goes through `&'static` handles; the map lock
/// is touched only at registration and snapshot time.
#[derive(Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<&'static str, Metric>>,
}

pub(crate) fn global() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::default)
}

impl Registry {
    fn intern<T: Default + 'static>(
        &self,
        name: &'static str,
        wrap: fn(&'static T) -> Metric,
        unwrap: fn(&Metric) -> Option<&'static T>,
    ) -> &'static T {
        let mut map = self.metrics.lock().expect("metric registry poisoned");
        let entry = map
            .entry(name)
            .or_insert_with(|| wrap(Box::leak(Box::new(T::default()))));
        let (found, kind) = (unwrap(entry), entry.kind());
        // Release the lock before any panic so a kind clash (a programming
        // error at one call site) cannot poison the whole registry.
        drop(map);
        found.unwrap_or_else(|| {
            panic!("metric {name:?} already registered as a {kind}, requested as a different kind")
        })
    }

    /// The counter named `name`, created on first use.
    ///
    /// # Panics
    /// Panics if `name` is registered as a different metric kind.
    pub fn counter(&self, name: &'static str) -> &'static Counter {
        self.intern(name, Metric::Counter, |m| match m {
            Metric::Counter(c) => Some(c),
            _ => None,
        })
    }

    /// The gauge named `name`, created on first use.
    ///
    /// # Panics
    /// Panics if `name` is registered as a different metric kind.
    pub fn gauge(&self, name: &'static str) -> &'static Gauge {
        self.intern(name, Metric::Gauge, |m| match m {
            Metric::Gauge(g) => Some(g),
            _ => None,
        })
    }

    /// The quantile sketch named `name`, created on first use.
    ///
    /// # Panics
    /// Panics if `name` is registered as a different metric kind.
    pub fn sketch(&self, name: &'static str) -> &'static QuantileSketch {
        self.intern(name, Metric::Sketch, |m| match m {
            Metric::Sketch(s) => Some(s),
            _ => None,
        })
    }

    /// A point-in-time copy of every registered metric, sorted by name.
    pub fn snapshot(&self) -> Snapshot {
        let map = self.metrics.lock().expect("metric registry poisoned");
        Snapshot {
            rows: map
                .iter()
                .map(|(name, m)| MetricRow {
                    name: (*name).to_string(),
                    value: match m {
                        Metric::Counter(c) => MetricValue::Counter(c.value()),
                        Metric::Gauge(g) => MetricValue::Gauge(g.value()),
                        Metric::Sketch(s) => MetricValue::Sketch(Box::new(s.snapshot())),
                    },
                })
                .collect(),
        }
    }

    /// Zeroes every registered metric (registration survives).
    pub fn reset(&self) {
        let map = self.metrics.lock().expect("metric registry poisoned");
        for m in map.values() {
            match m {
                Metric::Counter(c) => c.reset(),
                Metric::Gauge(g) => g.reset(),
                Metric::Sketch(s) => s.reset(),
            }
        }
    }
}

/// One named metric value inside a [`Snapshot`].
#[derive(Clone, Debug)]
pub struct MetricRow {
    /// Dotted metric name.
    pub name: String,
    /// The value at snapshot time.
    pub value: MetricValue,
}

/// A snapshot value of any metric kind. `Float` never comes from the
/// registry; it lets callers render derived ratios (hit rates,
/// per-node averages) through the same table machinery.
#[derive(Clone, Debug)]
pub enum MetricValue {
    /// Counter sum.
    Counter(u64),
    /// Gauge level.
    Gauge(i64),
    /// Quantile-sketch summary (boxed: sparse bucket list).
    Sketch(Box<SketchSnapshot>),
    /// A derived floating-point statistic.
    Float(f64),
}

/// A point-in-time copy of the whole registry.
#[derive(Clone, Debug)]
pub struct Snapshot {
    /// All rows, sorted by metric name.
    pub rows: Vec<MetricRow>,
}

impl Snapshot {
    /// Rows whose name starts with `prefix`.
    pub fn with_prefix(&self, prefix: &str) -> Snapshot {
        Snapshot {
            rows: self
                .rows
                .iter()
                .filter(|r| r.name.starts_with(prefix))
                .cloned()
                .collect(),
        }
    }

    /// Renders as an aligned two-column text table.
    pub fn to_table(&self) -> String {
        format_rows(&self.rows)
    }

    /// Renders as one JSON object: counters/gauges as numbers,
    /// sketches as `{count, sum, max, mean, p50, p90, p99, p999}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        for (i, row) in self.rows.iter().enumerate() {
            out.push_str(&format!("  {}: ", crate::json::quote(&row.name)));
            match &row.value {
                MetricValue::Counter(v) => out.push_str(&v.to_string()),
                MetricValue::Gauge(v) => out.push_str(&v.to_string()),
                MetricValue::Float(v) => out.push_str(&format!("{v:.3}")),
                MetricValue::Sketch(s) => {
                    out.push_str(&format!(
                        "{{\"count\": {}, \"sum\": {}, \"max\": {}, \"mean\": {:.3}, \
                         \"p50\": {:.1}, \"p90\": {:.1}, \"p99\": {:.1}, \"p999\": {:.1}}}",
                        s.count,
                        s.sum,
                        s.max,
                        s.mean(),
                        s.quantile(0.50),
                        s.quantile(0.90),
                        s.quantile(0.99),
                        s.quantile(0.999),
                    ));
                }
            }
            out.push_str(if i + 1 < self.rows.len() { ",\n" } else { "\n" });
        }
        out.push_str("}\n");
        out
    }

    /// Renders the snapshot in the Prometheus text exposition format
    /// (version 0.0.4): counters/gauges as single samples, sketches as
    /// `summary` families with `quantile` labels plus `_sum`/`_count`.
    /// Names are prefixed `soc_` and sanitized to `[a-zA-Z0-9_:]`;
    /// quantiles are ≈1%-relative-error estimates.
    pub fn to_prometheus(&self) -> String {
        fn sanitize(name: &str) -> String {
            let mut out = String::with_capacity(name.len() + 4);
            out.push_str("soc_");
            for c in name.chars() {
                if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                    out.push(c);
                } else {
                    out.push('_');
                }
            }
            out
        }
        const QS: [(f64, &str); 4] = [(0.5, "0.5"), (0.9, "0.9"), (0.99, "0.99"), (0.999, "0.999")];
        let mut out = String::new();
        for row in &self.rows {
            let name = sanitize(&row.name);
            match &row.value {
                MetricValue::Counter(v) => {
                    out.push_str(&format!("# TYPE {name} counter\n{name} {v}\n"));
                }
                MetricValue::Gauge(v) => {
                    out.push_str(&format!("# TYPE {name} gauge\n{name} {v}\n"));
                }
                MetricValue::Float(v) => {
                    out.push_str(&format!("# TYPE {name} gauge\n{name} {v}\n"));
                }
                MetricValue::Sketch(s) => {
                    out.push_str(&format!("# TYPE {name} summary\n"));
                    for (q, label) in QS {
                        out.push_str(&format!(
                            "{name}{{quantile=\"{label}\"}} {:.1}\n",
                            s.quantile(q)
                        ));
                    }
                    out.push_str(&format!("{name}_sum {}\n{name}_count {}\n", s.sum, s.count));
                }
            }
        }
        out
    }
}

/// Renders metric rows as an aligned two-column text table — the shared
/// formatter behind [`Snapshot::to_table`] and the CLI's `--stats`.
pub fn format_rows(rows: &[MetricRow]) -> String {
    let width = rows.iter().map(|r| r.name.len()).max().unwrap_or(6).max(6);
    let mut out = format!("{:<width$}  value\n", "metric");
    for row in rows {
        let rendered = match &row.value {
            MetricValue::Counter(v) => v.to_string(),
            MetricValue::Gauge(v) => v.to_string(),
            MetricValue::Float(v) => format!("{v:.3}"),
            MetricValue::Sketch(s) => format!(
                "count={} mean={:.1} p50~{:.0} p90~{:.0} p99~{:.0} p999~{:.0} max={}",
                s.count,
                s.mean(),
                s.quantile(0.50),
                s.quantile(0.90),
                s.quantile(0.99),
                s.quantile(0.999),
                s.max
            ),
        };
        out.push_str(&format!("{:<width$}  {rendered}\n", row.name));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::FLAG_LOCK;

    #[test]
    fn counter_and_sketch_record_when_enabled() {
        let _guard = FLAG_LOCK.lock().unwrap();
        crate::enable_metrics();
        let c = global().counter("test.metrics.counter");
        let h = global().sketch("test.metrics.dist");
        c.reset();
        h.reset();
        c.add(3);
        c.inc();
        for v in [0, 1, 7, 8, 1000] {
            h.record(v);
        }
        assert_eq!(c.value(), 4);
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 1016);
        assert_eq!(s.max, 1000);
        assert_eq!(s.zero, 1, "0 has its own bucket");
        // 1, 7, 8 and 1000 each land in their own geometric bucket.
        assert_eq!(s.buckets.len(), 4, "{:?}", s.buckets);
        assert!(s.buckets.iter().all(|&(_, c)| c == 1), "{:?}", s.buckets);
        crate::disable_all();
    }

    #[test]
    fn gauge_set_add() {
        let _guard = FLAG_LOCK.lock().unwrap();
        crate::enable_metrics();
        let g = global().gauge("test.metrics.gauge");
        g.set(10);
        g.add(-3);
        assert_eq!(g.value(), 7);
        g.reset();
        assert_eq!(g.value(), 0);
        crate::disable_all();
    }

    #[test]
    fn duplicate_registration_from_two_call_sites_shares_one_metric() {
        let _guard = FLAG_LOCK.lock().unwrap();
        crate::enable_metrics();
        // Two independent lookups of the same name must intern to the
        // same leaked cell (the `stats` endpoint serves these numbers;
        // a per-call-site duplicate would silently split the count).
        let a = global().counter("test.metrics.dup_name");
        let b = global().counter("test.metrics.dup_name");
        assert!(std::ptr::eq(a, b));
        a.reset();
        a.add(2);
        b.add(3);
        assert_eq!(a.value(), 5);
        // And only one row appears in the snapshot.
        let rows = global().snapshot().with_prefix("test.metrics.dup_name");
        assert_eq!(rows.rows.len(), 1);
        crate::disable_all();
    }

    #[test]
    fn json_escapes_hostile_metric_names() {
        let _guard = FLAG_LOCK.lock().unwrap();
        crate::enable_metrics();
        // Names are &'static str from call sites, but nothing stops a
        // call site from embedding quotes or control characters.
        let c = global().counter("test.metrics.\"quoted\"\nname");
        c.reset();
        c.inc();
        let json = global()
            .snapshot()
            .with_prefix("test.metrics.\"quoted\"")
            .to_json();
        assert!(
            json.contains("\"test.metrics.\\\"quoted\\\"\\nname\": 1"),
            "{json}"
        );
        crate::disable_all();
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_mismatch_panics() {
        let _ = global().counter("test.metrics.kind_clash");
        let _ = global().gauge("test.metrics.kind_clash");
    }

    #[test]
    fn snapshot_table_and_json_render() {
        let _guard = FLAG_LOCK.lock().unwrap();
        crate::enable_metrics();
        global().counter("test.metrics.render_c").reset();
        global().counter("test.metrics.render_c").add(12);
        global().sketch("test.metrics.render_s").reset();
        global().sketch("test.metrics.render_s").record(100);
        let snap = global().snapshot().with_prefix("test.metrics.render");
        assert_eq!(snap.rows.len(), 2);
        let table = snap.to_table();
        assert!(table.contains("test.metrics.render_c"), "{table}");
        assert!(table.contains("12"), "{table}");
        assert!(table.contains("count=1"), "{table}");
        let json = snap.to_json();
        assert!(json.contains("\"test.metrics.render_c\": 12"), "{json}");
        assert!(json.contains("\"count\": 1"), "{json}");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        crate::disable_all();
    }

    #[test]
    fn sketch_interns_renders_and_resets() {
        let _guard = FLAG_LOCK.lock().unwrap();
        crate::enable_metrics();
        let s = global().sketch("test.metrics.sk");
        s.reset();
        for v in [100u64, 200, 300, 4000] {
            s.record(v);
        }
        let a = global().sketch("test.metrics.sk");
        assert!(std::ptr::eq(a, s));
        let snap = global().snapshot().with_prefix("test.metrics.sk");
        assert_eq!(snap.rows.len(), 1);
        let table = snap.to_table();
        assert!(table.contains("count=4"), "{table}");
        assert!(table.contains("p999~"), "{table}");
        let json = snap.to_json();
        assert!(json.contains("\"p999\":"), "{json}");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        global().reset();
        assert_eq!(s.snapshot().count, 0);
        crate::disable_all();
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn sketch_kind_clash_panics() {
        let _ = global().counter("test.metrics.clash");
        let _ = global().sketch("test.metrics.clash");
    }

    #[test]
    fn prometheus_text_renders_every_kind() {
        let _guard = FLAG_LOCK.lock().unwrap();
        crate::enable_metrics();
        global().counter("test.metrics.prom_c").reset();
        global().counter("test.metrics.prom_c").add(7);
        global().gauge("test.metrics.prom-g").set(-2);
        global().sketch("test.metrics.prom_s").reset();
        global().sketch("test.metrics.prom_s").record(500);
        let text = global()
            .snapshot()
            .with_prefix("test.metrics.prom")
            .to_prometheus();
        assert!(
            text.contains("# TYPE soc_test_metrics_prom_c counter"),
            "{text}"
        );
        assert!(text.contains("soc_test_metrics_prom_c 7"), "{text}");
        // '-' sanitized to '_'.
        assert!(text.contains("soc_test_metrics_prom_g -2"), "{text}");
        assert!(
            text.contains("# TYPE soc_test_metrics_prom_s summary"),
            "{text}"
        );
        for q in ["0.5", "0.9", "0.99", "0.999"] {
            assert!(
                text.contains(&format!("soc_test_metrics_prom_s{{quantile=\"{q}\"}}")),
                "{text}"
            );
        }
        assert!(text.contains("soc_test_metrics_prom_s_count 1"), "{text}");
        assert!(text.contains("soc_test_metrics_prom_s_sum 500"), "{text}");
        // Every non-comment line is "name[{labels}] value".
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            assert_eq!(line.split_whitespace().count(), 2, "{line}");
        }
        crate::disable_all();
    }

    #[test]
    fn reset_clears_values_but_keeps_registration() {
        let _guard = FLAG_LOCK.lock().unwrap();
        crate::enable_metrics();
        let c = global().counter("test.metrics.reset_me");
        c.add(5);
        global().reset();
        assert_eq!(c.value(), 0);
        assert!(global()
            .snapshot()
            .rows
            .iter()
            .any(|r| r.name == "test.metrics.reset_me"));
        crate::disable_all();
    }
}
