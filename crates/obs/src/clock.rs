//! Monotonic clock shim used by every timing site.
//!
//! All observability timestamps are `u64` nanoseconds since a
//! process-wide epoch (the first clock read), sourced from
//! [`std::time::Instant`]. Two properties are load-bearing:
//!
//! - **Monotonic reads**: `Instant` never goes backwards, and the epoch
//!   subtraction uses `saturating_duration_since`, so [`now_ns`] is
//!   non-decreasing across calls on every thread.
//! - **Saturating deltas**: all elapsed computations go through
//!   [`Ticks::saturating_elapsed_since`] / [`saturating_delta_ns`],
//!   which clamp at zero. Even if a caller mixes up start/end (or a
//!   future clock source misbehaves), sketch recording can never
//!   panic on underflow or file a negative duration into a bucket.
//!
//! `Duration` deliberately does not appear in this module's API: raw
//! `u64` nanos keep the hot-path arithmetic branch-free and make the
//! saturation contract explicit at the type level.

use std::sync::OnceLock;
use std::time::Instant;

/// A monotonic timestamp: nanoseconds since the process clock epoch.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Ticks(pub u64);

impl Ticks {
    /// Nanoseconds from `earlier` to `self`, clamped at zero when the
    /// arguments are reversed (never panics, never wraps).
    #[inline]
    pub fn saturating_elapsed_since(self, earlier: Ticks) -> u64 {
        self.0.saturating_sub(earlier.0)
    }
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// The current monotonic timestamp.
#[inline]
pub fn now() -> Ticks {
    Ticks(now_ns())
}

/// Nanoseconds since the process clock epoch. Non-decreasing.
#[inline]
pub fn now_ns() -> u64 {
    // saturating_duration_since: the epoch is initialized from the first
    // call's `Instant::now`, so a racing second call could observe an
    // epoch infinitesimally in its future; saturate to 0 instead of
    // panicking.
    let d = Instant::now().saturating_duration_since(epoch());
    // 2^64 ns ≈ 584 years of process uptime; the cast cannot truncate in
    // practice.
    d.as_nanos() as u64
}

/// `end - start` in nanoseconds, clamped at zero.
#[inline]
pub fn saturating_delta_ns(start_ns: u64, end_ns: u64) -> u64 {
    end_ns.saturating_sub(start_ns)
}

/// Microseconds elapsed since `start_ns` (a [`now_ns`] reading), clamped
/// at zero — the common argument to a latency sketch.
#[inline]
pub fn elapsed_us(start_ns: u64) -> u64 {
    saturating_delta_ns(start_ns, now_ns()) / 1_000
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn now_is_monotonic_within_a_thread() {
        let mut prev = now_ns();
        for _ in 0..10_000 {
            let t = now_ns();
            assert!(t >= prev, "clock went backwards: {t} < {prev}");
            prev = t;
        }
    }

    #[test]
    fn saturating_elapsed_clamps_reversed_arguments() {
        // Fabricated non-monotonic readings: "earlier" is numerically
        // larger. The delta must clamp to zero, not wrap to ~u64::MAX —
        // a wrapped delta would land in the top sketch bucket and
        // poison every percentile.
        let earlier = Ticks(1_000_000);
        let later = Ticks(999_000);
        assert_eq!(later.saturating_elapsed_since(earlier), 0);
        assert_eq!(saturating_delta_ns(1_000_000, 999_000), 0);
        // The well-ordered case still measures.
        assert_eq!(earlier.saturating_elapsed_since(later), 1_000);
    }

    #[test]
    fn elapsed_us_never_underflows_even_for_future_starts() {
        // A start timestamp claimed to be an hour in the future.
        let future = now_ns() + 3_600 * 1_000_000_000;
        assert_eq!(elapsed_us(future), 0);
    }

    #[test]
    fn real_elapsed_measures_forward() {
        let t0 = now_ns();
        std::thread::sleep(std::time::Duration::from_millis(2));
        let dt = saturating_delta_ns(t0, now_ns());
        assert!(dt >= 1_000_000, "slept 2ms but measured {dt}ns");
    }
}
