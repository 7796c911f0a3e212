//! Bounded-relative-error quantile sketches (DDSketch-style).
//!
//! A [`QuantileSketch`] maps each sample `v ≥ 1` to the geometric
//! bucket `⌈log_γ v⌉` with γ = [`SKETCH_GAMMA`] (zero gets its own
//! bucket). Any value in bucket `i` lies in `(γ^(i-1), γ^i]`, so the
//! midpoint estimate `2γ^i / (γ+1)` is within a **relative error of
//! α = (γ−1)/(γ+1) ≈ 1%** of the true value — at *every* quantile, not
//! just the median. It is the registry's only distribution type: every
//! latency and depth metric is a sketch.
//!
//! The structure is fixed-size (the bucket count depends only on γ and
//! the u64 range, never on the data), striped across a few cache-line-
//! padded shards like the counters, and snapshots are **mergeable**:
//! merging per-shard (or per-process) snapshots bucket-wise is exact —
//! the merged sketch is bit-identical to one that saw all samples.
//!
//! Recording costs one `ln` plus one relaxed `fetch_add` (~20 ns); the
//! sketch is meant for per-instance latencies (µs–ms granularity), not
//! per-op counters.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Bucket growth factor γ. α = (γ−1)/(γ+1) ≈ 0.99% relative error.
pub const SKETCH_GAMMA: f64 = 1.02;

/// Bucket count: `⌈ln(u64::MAX) / ln γ⌉` ≈ 2241, padded for safety.
/// Fixed — independent of the data distribution.
const SKETCH_BUCKETS: usize = 2244;

/// Stripes per sketch. Sketches record per *instance* (not per op), so
/// fewer stripes than the counters' 16 suffice; mergeability across any
/// number of snapshots is what matters (see [`SketchSnapshot::merge`]).
const SKETCH_SHARDS: usize = 4;

#[inline]
fn inv_ln_gamma() -> f64 {
    static V: OnceLock<f64> = OnceLock::new();
    *V.get_or_init(|| 1.0 / SKETCH_GAMMA.ln())
}

/// The geometric bucket index of `v ≥ 1`: `⌈log_γ v⌉`, clamped to the
/// fixed bucket range.
#[inline]
fn bucket_index(v: u64) -> usize {
    let idx = ((v as f64).ln() * inv_ln_gamma()).ceil();
    (idx.max(0.0) as usize).min(SKETCH_BUCKETS - 1)
}

/// The midpoint estimate for bucket `i`: `2γ^i / (γ+1)`, within α of
/// any value in `(γ^(i-1), γ^i]`.
#[inline]
fn bucket_value(i: usize) -> f64 {
    2.0 * SKETCH_GAMMA.powi(i as i32) / (SKETCH_GAMMA + 1.0)
}

#[repr(align(64))]
struct SketchShard {
    zero: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
    buckets: Vec<AtomicU64>,
}

impl Default for SketchShard {
    fn default() -> Self {
        Self {
            zero: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
            buckets: (0..SKETCH_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
        }
    }
}

/// A fixed-size, mergeable, bounded-relative-error quantile sketch of
/// `u64` samples (typically microseconds). See the module docs.
pub struct QuantileSketch {
    shards: [SketchShard; SKETCH_SHARDS],
}

impl Default for QuantileSketch {
    fn default() -> Self {
        Self {
            shards: std::array::from_fn(|_| SketchShard::default()),
        }
    }
}

impl QuantileSketch {
    /// Records one sample (no-op while metrics are disabled).
    #[inline]
    pub fn record(&self, v: u64) {
        if !crate::metrics_enabled() {
            return;
        }
        let shard = &self.shards[crate::metrics::shard_id() % SKETCH_SHARDS];
        if v == 0 {
            shard.zero.fetch_add(1, Ordering::Relaxed);
        } else {
            shard.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        }
        // Saturating, not wrapping: two `u64::MAX` samples must not fold
        // the shard sum back to small values (`fetch_add` wraps).
        let _ = shard
            .sum
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |s| {
                Some(s.saturating_add(v))
            });
        shard.max.fetch_max(v, Ordering::Relaxed);
    }

    /// A point-in-time copy, shards merged (see the exactness contract
    /// in the [`crate::metrics`] module docs).
    pub fn snapshot(&self) -> SketchSnapshot {
        let mut snap = SketchSnapshot::empty();
        let mut dense = vec![0u64; SKETCH_BUCKETS];
        for s in &self.shards {
            snap.zero += s.zero.load(Ordering::Relaxed);
            snap.sum = snap.sum.saturating_add(s.sum.load(Ordering::Relaxed));
            snap.max = snap.max.max(s.max.load(Ordering::Relaxed));
            for (d, cell) in dense.iter_mut().zip(&s.buckets) {
                *d += cell.load(Ordering::Relaxed);
            }
        }
        snap.buckets = dense
            .iter()
            .enumerate()
            .filter(|(_, &c)| c != 0)
            .map(|(i, &c)| (i as u32, c))
            .collect();
        snap.count = snap.zero + snap.buckets.iter().map(|&(_, c)| c).sum::<u64>();
        snap
    }

    pub(crate) fn reset(&self) {
        for s in &self.shards {
            s.zero.store(0, Ordering::Relaxed);
            s.sum.store(0, Ordering::Relaxed);
            s.max.store(0, Ordering::Relaxed);
            for b in &s.buckets {
                b.store(0, Ordering::Relaxed);
            }
        }
    }
}

/// A point-in-time copy of one [`QuantileSketch`], sparse (only
/// occupied buckets) and mergeable.
#[derive(Clone, Debug, Default)]
pub struct SketchSnapshot {
    /// Samples recorded (including zeros).
    pub count: u64,
    /// Samples equal to zero.
    pub zero: u64,
    /// Sum of all samples (saturating).
    pub sum: u64,
    /// Largest sample.
    pub max: u64,
    /// Occupied `(bucket_index, count)` pairs, ascending by index.
    pub buckets: Vec<(u32, u64)>,
}

impl SketchSnapshot {
    /// An empty snapshot (merge identity).
    pub fn empty() -> Self {
        Self::default()
    }

    /// The guaranteed relative-error bound α = (γ−1)/(γ+1) ≈ 0.0099.
    pub fn error_bound() -> f64 {
        (SKETCH_GAMMA - 1.0) / (SKETCH_GAMMA + 1.0)
    }

    /// Mean sample value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The estimated value at quantile `q ∈ [0, 1]` (0 when empty),
    /// within [`Self::error_bound`] of the exact rank-`⌈q·n⌉` sample.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = self.zero;
        if seen >= rank {
            return 0.0;
        }
        for &(i, c) in &self.buckets {
            seen += c;
            if seen >= rank {
                // The true value lies in (γ^(i-1), γ^i] and is ≤ max;
                // clamping to max only tightens the estimate.
                return bucket_value(i as usize).min(self.max as f64);
            }
        }
        self.max as f64
    }

    /// Merges `other` into `self` bucket-wise. Exact: the result equals
    /// the snapshot of a sketch that recorded both sample streams.
    pub fn merge(&mut self, other: &SketchSnapshot) {
        self.count += other.count;
        self.zero += other.zero;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
        let mut merged: Vec<(u32, u64)> =
            Vec::with_capacity(self.buckets.len() + other.buckets.len());
        let (mut a, mut b) = (
            self.buckets.iter().peekable(),
            other.buckets.iter().peekable(),
        );
        loop {
            match (a.peek(), b.peek()) {
                (Some(&&(ia, ca)), Some(&&(ib, cb))) => {
                    if ia < ib {
                        merged.push((ia, ca));
                        a.next();
                    } else if ib < ia {
                        merged.push((ib, cb));
                        b.next();
                    } else {
                        merged.push((ia, ca + cb));
                        a.next();
                        b.next();
                    }
                }
                (Some(&&x), None) => {
                    merged.push(x);
                    a.next();
                }
                (None, Some(&&x)) => {
                    merged.push(x);
                    b.next();
                }
                (None, None) => break,
            }
        }
        self.buckets = merged;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::FLAG_LOCK;

    fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
        let rank = (q * sorted.len() as f64).ceil().max(1.0) as usize;
        sorted[rank - 1]
    }

    #[test]
    fn bucket_roundtrip_within_bound() {
        let alpha = SketchSnapshot::error_bound();
        for v in [1u64, 2, 3, 10, 99, 1000, 123_456, 10_000_000_000] {
            let est = bucket_value(bucket_index(v));
            let rel = (est - v as f64).abs() / v as f64;
            assert!(rel <= alpha * 1.0001, "v={v} est={est} rel={rel}");
        }
        // The top of the range still maps inside the fixed table.
        assert!(bucket_index(u64::MAX) < SKETCH_BUCKETS);
    }

    #[test]
    fn quantiles_track_exact_samples_within_one_percent() {
        let _guard = FLAG_LOCK.lock().unwrap();
        crate::enable_metrics();
        let sk = QuantileSketch::default();
        // A deterministic heavy-tailed sample set: v = ⌊10^(i/250)⌋+i%7.
        let mut samples: Vec<u64> = (0..2000u64)
            .map(|i| (10f64.powf(i as f64 / 250.0)) as u64 + i % 7)
            .collect();
        for &v in &samples {
            sk.record(v);
        }
        samples.sort_unstable();
        let snap = sk.snapshot();
        assert_eq!(snap.count, 2000);
        assert_eq!(snap.sum, samples.iter().sum::<u64>());
        assert_eq!(snap.max, *samples.last().unwrap());
        let alpha = SketchSnapshot::error_bound();
        for q in [0.5, 0.9, 0.99, 0.999] {
            let exact = exact_quantile(&samples, q) as f64;
            let est = snap.quantile(q);
            let rel = (est - exact).abs() / exact;
            assert!(
                rel <= alpha * 1.001,
                "q={q} exact={exact} est={est} rel={rel}"
            );
        }
        // Monotone in q.
        assert!(snap.quantile(0.5) <= snap.quantile(0.9));
        assert!(snap.quantile(0.9) <= snap.quantile(0.999));
        crate::disable_all();
    }

    #[test]
    fn zero_and_edge_samples() {
        let _guard = FLAG_LOCK.lock().unwrap();
        crate::enable_metrics();
        let sk = QuantileSketch::default();
        sk.record(0);
        sk.record(0);
        sk.record(1);
        sk.record(u64::MAX);
        sk.record(u64::MAX); // sum saturates
        let snap = sk.snapshot();
        assert_eq!(snap.count, 5);
        assert_eq!(snap.zero, 2);
        assert_eq!(snap.sum, u64::MAX);
        assert_eq!(snap.quantile(0.0), 0.0);
        assert_eq!(snap.quantile(0.3), 0.0);
        assert_eq!(snap.quantile(1.0), u64::MAX as f64);
        crate::disable_all();
    }

    #[test]
    fn merge_is_exact() {
        let _guard = FLAG_LOCK.lock().unwrap();
        crate::enable_metrics();
        let combined = QuantileSketch::default();
        let parts: Vec<QuantileSketch> = (0..16).map(|_| QuantileSketch::default()).collect();
        for i in 0..4096u64 {
            let v = i * i % 10_007;
            combined.record(v);
            parts[(i % 16) as usize].record(v);
        }
        let mut merged = SketchSnapshot::empty();
        for p in &parts {
            merged.merge(&p.snapshot());
        }
        let whole = combined.snapshot();
        assert_eq!(merged.count, whole.count);
        assert_eq!(merged.zero, whole.zero);
        assert_eq!(merged.sum, whole.sum);
        assert_eq!(merged.max, whole.max);
        assert_eq!(merged.buckets, whole.buckets);
        for q in [0.01, 0.5, 0.9, 0.99, 0.999, 1.0] {
            assert_eq!(merged.quantile(q), whole.quantile(q), "q={q}");
        }
        crate::disable_all();
    }

    #[test]
    fn disabled_recording_is_inert() {
        let _guard = FLAG_LOCK.lock().unwrap();
        crate::disable_all();
        let sk = QuantileSketch::default();
        sk.record(123);
        assert_eq!(sk.snapshot().count, 0);
    }
}
