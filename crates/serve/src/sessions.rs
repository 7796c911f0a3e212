//! Named per-tenant sessions, each holding one immutable query log.
//!
//! Logs are stored as `Arc<QueryLog>` so a solve can pin the log it was
//! dispatched against while a concurrent `load` swaps the session to a
//! new one — requests always see a consistent log, never a torn update.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use soc_data::{io, QueryLog};

use crate::proto::{ErrorCode, ProtoError};

/// Summary returned by mutations, echoed to the client.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SessionInfo {
    /// Rows in the log as parsed and ingested (`QueryLog::len`), not
    /// distinct queries: two identical rows count twice, a weighted
    /// `Nx` row once.
    pub queries: usize,
    /// Total query weight.
    pub total_weight: usize,
    /// Attribute-universe width.
    pub attrs: usize,
}

fn info(log: &QueryLog) -> SessionInfo {
    SessionInfo {
        queries: log.len(),
        total_weight: log.total_weight(),
        attrs: log.num_attrs(),
    }
}

/// The tenant session table. A plain mutex suffices: mutations are rare
/// and reads only clone an `Arc`.
pub struct SessionStore {
    map: Mutex<HashMap<String, Arc<QueryLog>>>,
    max_sessions: usize,
}

impl SessionStore {
    /// Creates an empty store admitting at most `max_sessions` names.
    pub fn new(max_sessions: usize) -> Self {
        Self {
            map: Mutex::new(HashMap::new()),
            max_sessions,
        }
    }

    /// Number of live sessions.
    pub fn len(&self) -> usize {
        self.map.lock().expect("session table poisoned").len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Fetches a session's log.
    pub fn get(&self, name: &str) -> Result<Arc<QueryLog>, ProtoError> {
        self.map
            .lock()
            .expect("session table poisoned")
            .get(name)
            .cloned()
            .ok_or_else(|| {
                ProtoError::new(ErrorCode::NoSuchSession, format!("no session {name:?}"))
            })
    }

    /// Parses `data` and replaces (or creates) session `name`.
    pub fn load(&self, name: &str, data: &str) -> Result<SessionInfo, ProtoError> {
        let log = io::parse_query_log(data)
            .map_err(|e| ProtoError::new(ErrorCode::BadData, e.to_string()))?;
        let mut map = self.map.lock().expect("session table poisoned");
        if !map.contains_key(name) && map.len() >= self.max_sessions {
            return Err(ProtoError::new(
                ErrorCode::TooManySessions,
                format!("session table is full ({} sessions)", self.max_sessions),
            ));
        }
        let summary = info(&log);
        map.insert(name.to_string(), Arc::new(log));
        Ok(summary)
    }

    /// Parses `data` and appends its rows to existing session `name`.
    /// The incoming rows must match the session's width; the session's
    /// schema wins (an `attrs` header in `data` only sets the width).
    /// A distinct view the current log already built is carried forward
    /// ([`QueryLog::append`]), so projected solves keep reading one.
    ///
    /// The merged log is built outside the table lock — it copies every
    /// row — and swapped in only if the session still holds the log it
    /// was built from; after a concurrent `load` or `ingest` the rows are
    /// merged into the newer log instead.
    pub fn ingest(&self, name: &str, data: &str) -> Result<SessionInfo, ProtoError> {
        let incoming = io::parse_query_log(data)
            .map_err(|e| ProtoError::new(ErrorCode::BadData, e.to_string()))?;
        loop {
            let current = self.get(name)?;
            if incoming.is_empty() {
                return Ok(info(&current));
            }
            if incoming.num_attrs() != current.num_attrs() {
                return Err(ProtoError::new(
                    ErrorCode::BadData,
                    format!(
                        "ingest width {} does not match session width {}",
                        incoming.num_attrs(),
                        current.num_attrs()
                    ),
                ));
            }
            let merged = Arc::new(current.append(&incoming));
            let summary = info(&merged);
            let mut map = self.map.lock().expect("session table poisoned");
            if let Some(slot) = map.get_mut(name).filter(|s| Arc::ptr_eq(s, &current)) {
                *slot = merged;
                return Ok(summary);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_then_get_then_replace() {
        let store = SessionStore::new(4);
        let s = store.load("t1", "110\n2x 011\n").unwrap();
        assert_eq!(
            s,
            SessionInfo {
                queries: 2,
                total_weight: 3,
                attrs: 3
            }
        );
        assert_eq!(store.get("t1").unwrap().len(), 2);

        // load replaces wholesale
        let s = store.load("t1", "1010\n").unwrap();
        assert_eq!(s.attrs, 4);
        assert_eq!(store.get("t1").unwrap().num_attrs(), 4);
    }

    #[test]
    fn get_unknown_session_is_typed() {
        let store = SessionStore::new(4);
        assert_eq!(
            store.get("ghost").unwrap_err().code,
            ErrorCode::NoSuchSession
        );
    }

    #[test]
    fn load_bad_data_is_typed() {
        let store = SessionStore::new(4);
        let e = store.load("t1", "110\nxyz\n").unwrap_err();
        assert_eq!(e.code, ErrorCode::BadData);
        assert!(e.message.contains("line 2"), "{}", e.message);
    }

    #[test]
    fn ingest_appends_and_checks_width() {
        let store = SessionStore::new(4);
        store.load("t1", "110\n").unwrap();
        let s = store.ingest("t1", "3x 011\n").unwrap();
        assert_eq!(s.queries, 2);
        assert_eq!(s.total_weight, 4);

        let e = store.ingest("t1", "0110\n").unwrap_err();
        assert_eq!(e.code, ErrorCode::BadData);
        assert!(e.message.contains("width"));

        let e = store.ingest("ghost", "011\n").unwrap_err();
        assert_eq!(e.code, ErrorCode::NoSuchSession);

        // Empty ingest is a no-op, not an error.
        let s = store.ingest("t1", "# nothing\n").unwrap();
        assert_eq!(s.queries, 2);
    }

    #[test]
    fn concurrent_ingests_all_land() {
        let store = SessionStore::new(4);
        store.load("t1", "110\n").unwrap();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..50 {
                        store.ingest("t1", "2x 011\n").unwrap();
                    }
                });
            }
        });
        let log = store.get("t1").unwrap();
        assert_eq!(log.len(), 201);
        assert_eq!(log.total_weight(), 401);
    }

    #[test]
    fn session_cap_applies_to_new_names_only() {
        let store = SessionStore::new(2);
        store.load("a", "1\n").unwrap();
        store.load("b", "1\n").unwrap();
        let e = store.load("c", "1\n").unwrap_err();
        assert_eq!(e.code, ErrorCode::TooManySessions);
        // Replacing an existing session is always allowed.
        store.load("a", "11\n").unwrap();
        assert_eq!(store.len(), 2);
    }
}
