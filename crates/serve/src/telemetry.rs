//! Serve-side telemetry stores, all bounded: per-tenant request
//! counters and slow-request postmortems. Spans live in the process-wide
//! flight ring in `soc-obs` ([`soc_obs::flight`]); `stats`, `trace` and
//! `dump_flight` read it directly.

use std::collections::{HashMap, VecDeque};
use std::sync::{Mutex, MutexGuard};

use soc_obs::SpanRecord;

/// Most spans one `stats` reply carries (page with `since` for more).
pub(crate) const STATS_SPANS_MAX: usize = 64;
/// Most slow-request postmortems retained.
const POSTMORTEM_CAP: usize = 16;

/// Telemetry must never take the server down: a panic while holding one
/// of these locks only loses records, so poisoning is ignored.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Counters for one tenant (session name), reported in `stats`.
#[derive(Clone, Copy, Default)]
pub(crate) struct TenantCounters {
    /// Connections that touched this session (each counted once).
    pub conns: u64,
    /// Successful `load`/`ingest` mutations.
    pub loads: u64,
    /// Solved instances (single and batch).
    pub solves: u64,
    /// Typed errors attributed to this session.
    pub errors: u64,
}

/// Per-tenant counter table keyed by session name.
pub(crate) struct TenantStats {
    inner: Mutex<HashMap<String, TenantCounters>>,
}

impl TenantStats {
    pub(crate) fn new() -> Self {
        Self {
            inner: Mutex::new(HashMap::new()),
        }
    }

    fn bump(&self, session: &str, f: impl FnOnce(&mut TenantCounters)) {
        let mut inner = lock(&self.inner);
        f(inner.entry(session.to_string()).or_default());
    }

    /// A connection referenced `session` for the first time.
    pub(crate) fn conn(&self, session: &str) {
        self.bump(session, |c| c.conns += 1);
    }

    /// A `load`/`ingest` succeeded for `session`.
    pub(crate) fn load(&self, session: &str) {
        self.bump(session, |c| c.loads += 1);
    }

    /// One instance solved for `session`.
    pub(crate) fn solve(&self, session: &str) {
        self.bump(session, |c| c.solves += 1);
    }

    /// A typed error was attributed to `session`.
    pub(crate) fn error(&self, session: &str) {
        self.bump(session, |c| c.errors += 1);
    }

    /// All tenants, sorted by session name for deterministic replies.
    pub(crate) fn snapshot(&self) -> Vec<(String, TenantCounters)> {
        let inner = lock(&self.inner);
        let mut out: Vec<(String, TenantCounters)> =
            inner.iter().map(|(k, v)| (k.clone(), *v)).collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }
}

/// A flight-recorder capture of one slow request.
pub(crate) struct Postmortem {
    /// The request id the capture belongs to.
    pub request: u64,
    /// How long the frame took end to end, microseconds.
    pub frame_us: u64,
    /// The request's spans at capture time.
    pub records: Vec<SpanRecord>,
}

/// Bounded queue of slow-request postmortems.
pub(crate) struct FlightStore {
    inner: Mutex<VecDeque<Postmortem>>,
}

impl FlightStore {
    pub(crate) fn new() -> Self {
        Self {
            inner: Mutex::new(VecDeque::new()),
        }
    }

    /// Captures the spans of `request` (a frame that just ran for
    /// `frame_us` ≥ the slow threshold). Empty captures are kept too:
    /// "the recorder saw nothing" is itself a postmortem finding.
    pub(crate) fn capture(&self, request: u64, frame_us: u64) {
        let records = soc_obs::flight::for_request(request);
        let mut inner = lock(&self.inner);
        inner.push_back(Postmortem {
            request,
            frame_us,
            records,
        });
        if inner.len() > POSTMORTEM_CAP {
            inner.pop_front();
        }
    }

    /// Number of retained postmortems.
    pub(crate) fn len(&self) -> usize {
        lock(&self.inner).len()
    }

    /// Spans for a `dump_flight` frame and their source (`"live"` or
    /// `"postmortem"`). A specific request prefers the newest matching
    /// postmortem (the capture is pinned even after the ring wraps) and
    /// falls back to the live ring; no request means the whole ring, in
    /// push order.
    pub(crate) fn dump(
        &self,
        request: Option<u64>,
    ) -> (Vec<SpanRecord>, &'static str, Option<u64>) {
        match request {
            None => (soc_obs::flight::snapshot(), "live", None),
            Some(r) => {
                let inner = lock(&self.inner);
                if let Some(p) = inner.iter().rev().find(|p| p.request == r) {
                    return (p.records.clone(), "postmortem", Some(p.frame_us));
                }
                drop(inner);
                (soc_obs::flight::for_request(r), "live", None)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tenants_count_independently() {
        let t = TenantStats::new();
        t.conn("a");
        t.solve("a");
        t.solve("a");
        t.error("b");
        t.load("b");
        let snap = t.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].0, "a");
        assert_eq!(snap[0].1.conns, 1);
        assert_eq!(snap[0].1.solves, 2);
        assert_eq!(snap[1].1.errors, 1);
        assert_eq!(snap[1].1.loads, 1);
    }

    #[test]
    fn flight_store_bounds_and_prefers_postmortems() {
        let store = FlightStore::new();
        for i in 0..POSTMORTEM_CAP as u64 + 5 {
            store.capture(i, i * 1000);
        }
        assert_eq!(store.len(), POSTMORTEM_CAP);
        // Request 0 was evicted; the dump falls back to the live ring.
        let (_, source, _) = store.dump(Some(0));
        assert_eq!(source, "live");
        let last = POSTMORTEM_CAP as u64 + 4;
        let (_, source, frame_us) = store.dump(Some(last));
        assert_eq!(source, "postmortem");
        assert_eq!(frame_us, Some(last * 1000));
    }
}
