//! The versioned JSON-lines protocol: typed requests, error codes, and
//! frame parsing. See `PROTOCOL.md` at the repository root for the wire
//! grammar; this module is its executable counterpart.
//!
//! Every frame is one `\n`-terminated line holding one JSON object. The
//! contract the server hardening tests pin down: **any** byte sequence a
//! client sends yields either a typed request or a typed
//! [`ProtoError`] — never a panic, and never a silently dropped
//! connection (except when framing itself is unrecoverable, e.g. an
//! over-long line, where the server sends a final error frame and then
//! closes).

use crate::json::{self, Json};

/// The protocol version this build speaks.
pub const PROTOCOL_VERSION: u64 = 1;

/// Machine-readable error codes carried in `error` frames.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorCode {
    /// The line is not valid JSON or not a JSON object.
    Parse,
    /// First request on a connection must be `hello`.
    NeedHello,
    /// The client requested a protocol version this server cannot speak.
    UnsupportedVersion,
    /// Unknown `type` value.
    UnknownType,
    /// A required field is absent.
    MissingField,
    /// A field is present but has the wrong type or an invalid value.
    BadField,
    /// The named session does not exist.
    NoSuchSession,
    /// Query-log data failed to parse or is inconsistent with the session.
    BadData,
    /// The request line exceeded the server's size limit (fatal: the
    /// server closes the connection after sending this, as framing is
    /// lost).
    LineTooLong,
    /// The connection was admitted over capacity and is being closed.
    Busy,
    /// The server is shutting down and no longer accepts work.
    ShuttingDown,
    /// The connection sat idle past the server's idle timeout.
    IdleTimeout,
    /// The per-tenant session table is full.
    TooManySessions,
    /// The request was valid but the server failed internally.
    Internal,
}

impl ErrorCode {
    /// The wire name of the code.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::Parse => "parse",
            ErrorCode::NeedHello => "need_hello",
            ErrorCode::UnsupportedVersion => "unsupported_version",
            ErrorCode::UnknownType => "unknown_type",
            ErrorCode::MissingField => "missing_field",
            ErrorCode::BadField => "bad_field",
            ErrorCode::NoSuchSession => "no_such_session",
            ErrorCode::BadData => "bad_data",
            ErrorCode::LineTooLong => "line_too_long",
            ErrorCode::Busy => "busy",
            ErrorCode::ShuttingDown => "shutting_down",
            ErrorCode::IdleTimeout => "idle_timeout",
            ErrorCode::TooManySessions => "too_many_sessions",
            ErrorCode::Internal => "internal",
        }
    }
}

/// A typed protocol failure, rendered to the client as an `error` frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProtoError {
    /// Machine-readable code.
    pub code: ErrorCode,
    /// Human-readable detail.
    pub message: String,
}

impl ProtoError {
    /// Creates an error.
    pub fn new(code: ErrorCode, message: impl Into<String>) -> Self {
        Self {
            code,
            message: message.into(),
        }
    }
}

/// Which algorithm a solve request runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Algo {
    /// Exhaustive enumeration.
    Brute,
    /// Branch-and-bound ILP.
    Ilp,
    /// Maximal-frequent-itemset solver (the default).
    #[default]
    Mfi,
    /// Deterministic MFI mining.
    MfiDet,
    /// ConsumeAttr greedy.
    Attr,
    /// ConsumeAttrCumul greedy.
    Cumul,
    /// ConsumeQueries greedy.
    Queries,
    /// Local search.
    Local,
    /// Cluster-compressed sketch-and-refine (deterministic MFI inside).
    Sketch,
}

impl Algo {
    /// Parses the wire name.
    pub fn parse(name: &str) -> Option<Algo> {
        Some(match name {
            "brute" => Algo::Brute,
            "ilp" => Algo::Ilp,
            "mfi" => Algo::Mfi,
            "mfi-det" => Algo::MfiDet,
            "attr" => Algo::Attr,
            "cumul" => Algo::Cumul,
            "queries" => Algo::Queries,
            "local" => Algo::Local,
            "sketch" => Algo::Sketch,
            _ => return None,
        })
    }

    /// The wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            Algo::Brute => "brute",
            Algo::Ilp => "ilp",
            Algo::Mfi => "mfi",
            Algo::MfiDet => "mfi-det",
            Algo::Attr => "attr",
            Algo::Cumul => "cumul",
            Algo::Queries => "queries",
            Algo::Local => "local",
            Algo::Sketch => "sketch",
        }
    }

    /// Instantiates the algorithm. Called inside worker jobs so the
    /// boxed trait object never crosses a thread boundary.
    pub fn build(self) -> Box<dyn soc_core::SocAlgorithm> {
        use soc_core::*;
        match self {
            Algo::Brute => Box::new(BruteForce),
            Algo::Ilp => Box::new(IlpSolver::default()),
            Algo::Mfi => Box::new(MfiSolver::default()),
            Algo::MfiDet => Box::new(MfiSolver::deterministic()),
            Algo::Attr => Box::new(ConsumeAttr),
            Algo::Cumul => Box::new(ConsumeAttrCumul),
            Algo::Queries => Box::new(ConsumeQueries),
            Algo::Local => Box::new(LocalSearch::default()),
            // The sketch solver wants the log size to derive its cluster
            // count; `run_solve` constructs it directly from the session
            // log and the request's `clusters` field. This context-free
            // fallback uses the clustering config default so `build`
            // stays total.
            Algo::Sketch => Box::new(SketchSolver::new(soc_data::ClusterConfig::default().k)),
        }
    }
}

/// Common solve parameters shared by `solve` and `solve_batch`.
#[derive(Clone, Debug, PartialEq)]
pub struct SolveParams {
    /// Tenant session holding the query log.
    pub session: String,
    /// Attribute budget `m`.
    pub m: usize,
    /// Algorithm to run.
    pub algo: Algo,
    /// Solve on the tuple-projected instance.
    pub project: bool,
    /// Cluster count for the `sketch` algorithm (`None` derives it from
    /// the session log size). Rejected with any other algorithm.
    pub clusters: Option<usize>,
}

/// A parsed request body.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Version negotiation; must be the first frame on a connection.
    Hello {
        /// Requested protocol version.
        version: u64,
    },
    /// Replace (or create) a session's query log from inline text data.
    Load {
        /// Tenant session name.
        session: String,
        /// Query log in the `soc_data::io` text format.
        data: String,
    },
    /// Append rows to an existing session's query log.
    Ingest {
        /// Tenant session name.
        session: String,
        /// Additional rows in the same text format.
        data: String,
    },
    /// Solve one tuple.
    Solve {
        /// Shared parameters.
        params: SolveParams,
        /// The tuple as a 0/1 bitstring.
        tuple: String,
    },
    /// Solve many tuples; results stream back as they finish.
    SolveBatch {
        /// Shared parameters.
        params: SolveParams,
        /// The tuples as 0/1 bitstrings.
        tuples: Vec<String>,
    },
    /// Live metric registry + recent trace spans (bounded; `since` is a
    /// cursor from a previous `stats` reply to fetch only newer spans).
    Stats {
        /// Span cursor from a previous reply's `spans_cursor` (0 = from
        /// the oldest retained span).
        since: Option<u64>,
    },
    /// The stitched span tree of one request id.
    Trace {
        /// Request id as returned in `solve_ok` / `solve_batch_done`.
        request: u64,
    },
    /// Flight-recorder dump: the recent spans in the ring, optionally
    /// filtered to one request, preferring a slow-request postmortem.
    DumpFlight {
        /// Restrict to this request id.
        request: Option<u64>,
    },
    /// Metric registry in the Prometheus text exposition format.
    MetricsText,
    /// Liveness probe.
    Ping,
    /// Ask the server to shut down gracefully.
    Shutdown,
}

/// One parsed frame: the echoed request id (if the client sent one and
/// the line parsed far enough to extract it) plus the typed body or a
/// typed error.
#[derive(Clone, Debug)]
pub struct Frame {
    /// Client-chosen correlation id (string or number), echoed in every
    /// reply to this request.
    pub id: Option<Json>,
    /// The request, or why it could not be one.
    pub body: Result<Request, ProtoError>,
}

/// Parses one line into a [`Frame`]. Total: every input produces a
/// frame; malformed input produces an `Err` body, never a panic.
pub fn parse_frame(line: &str) -> Frame {
    let value = match json::parse(line) {
        Ok(v) => v,
        Err(e) => {
            return Frame {
                id: None,
                body: Err(ProtoError::new(ErrorCode::Parse, e.to_string())),
            }
        }
    };
    if !matches!(value, Json::Obj(_)) {
        return Frame {
            id: None,
            body: Err(ProtoError::new(
                ErrorCode::Parse,
                "frame must be a JSON object",
            )),
        };
    }
    // The id is echoed even on field errors, so pipelined clients can
    // correlate failures. Only strings and numbers are legal ids.
    let id = match value.get("id") {
        None => None,
        Some(v @ (Json::Str(_) | Json::Num(_))) => Some(v.clone()),
        Some(_) => {
            return Frame {
                id: None,
                body: Err(ProtoError::new(
                    ErrorCode::BadField,
                    "id must be a string or number",
                )),
            }
        }
    };
    Frame {
        id,
        body: parse_body(&value),
    }
}

fn parse_body(value: &Json) -> Result<Request, ProtoError> {
    let ty = req_str(value, "type")?;
    match ty {
        "hello" => Ok(Request::Hello {
            version: req_u64(value, "version")?,
        }),
        "load" => Ok(Request::Load {
            session: req_session(value)?,
            data: req_str(value, "data")?.to_string(),
        }),
        "ingest" => Ok(Request::Ingest {
            session: req_session(value)?,
            data: req_str(value, "data")?.to_string(),
        }),
        "solve" => Ok(Request::Solve {
            params: solve_params(value)?,
            tuple: req_str(value, "tuple")?.to_string(),
        }),
        "solve_batch" => {
            let items = value
                .get("tuples")
                .ok_or_else(|| ProtoError::new(ErrorCode::MissingField, "missing field tuples"))?
                .as_array()
                .ok_or_else(|| ProtoError::new(ErrorCode::BadField, "tuples must be an array"))?;
            let tuples = items
                .iter()
                .map(|v| {
                    v.as_str().map(str::to_string).ok_or_else(|| {
                        ProtoError::new(ErrorCode::BadField, "tuples entries must be strings")
                    })
                })
                .collect::<Result<Vec<_>, _>>()?;
            Ok(Request::SolveBatch {
                params: solve_params(value)?,
                tuples,
            })
        }
        "stats" => Ok(Request::Stats {
            since: opt_u64(value, "since")?,
        }),
        "trace" => Ok(Request::Trace {
            request: req_u64(value, "request")?,
        }),
        "dump_flight" => Ok(Request::DumpFlight {
            request: opt_u64(value, "request")?,
        }),
        "metrics_text" => Ok(Request::MetricsText),
        "ping" => Ok(Request::Ping),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(ProtoError::new(
            ErrorCode::UnknownType,
            format!("unknown request type {other:?}"),
        )),
    }
}

fn solve_params(value: &Json) -> Result<SolveParams, ProtoError> {
    let m = req_u64(value, "m")?;
    let m = usize::try_from(m)
        .map_err(|_| ProtoError::new(ErrorCode::BadField, "m does not fit usize"))?;
    let algo = match value.get("algo") {
        None => Algo::default(),
        Some(v) => {
            let name = v
                .as_str()
                .ok_or_else(|| ProtoError::new(ErrorCode::BadField, "algo must be a string"))?;
            Algo::parse(name).ok_or_else(|| {
                ProtoError::new(ErrorCode::BadField, format!("unknown algorithm {name:?}"))
            })?
        }
    };
    let project = match value.get("project") {
        None => false,
        Some(v) => v
            .as_bool()
            .ok_or_else(|| ProtoError::new(ErrorCode::BadField, "project must be a boolean"))?,
    };
    let clusters = match value.get("clusters") {
        None => None,
        Some(v) => {
            let k = v.as_u64().ok_or_else(|| {
                ProtoError::new(ErrorCode::BadField, "clusters must be a positive integer")
            })?;
            let k = usize::try_from(k)
                .map_err(|_| ProtoError::new(ErrorCode::BadField, "clusters does not fit usize"))?;
            if k == 0 {
                return Err(ProtoError::new(
                    ErrorCode::BadField,
                    "clusters must be at least 1",
                ));
            }
            if algo != Algo::Sketch {
                return Err(ProtoError::new(
                    ErrorCode::BadField,
                    format!(
                        "clusters only applies to the sketch algorithm, not {:?}",
                        algo.as_str()
                    ),
                ));
            }
            Some(k)
        }
    };
    Ok(SolveParams {
        session: req_session(value)?,
        m,
        algo,
        project,
        clusters,
    })
}

/// Session names are bounded, non-empty printable identifiers — they
/// are map keys, so a hostile tenant must not intern unbounded junk.
fn req_session(value: &Json) -> Result<String, ProtoError> {
    let name = req_str(value, "session")?;
    if name.is_empty() || name.len() > 128 {
        return Err(ProtoError::new(
            ErrorCode::BadField,
            "session must be 1..=128 bytes",
        ));
    }
    if name.chars().any(|c| c.is_control()) {
        return Err(ProtoError::new(
            ErrorCode::BadField,
            "session must not contain control characters",
        ));
    }
    Ok(name.to_string())
}

fn req_str<'a>(value: &'a Json, field: &str) -> Result<&'a str, ProtoError> {
    value
        .get(field)
        .ok_or_else(|| ProtoError::new(ErrorCode::MissingField, format!("missing field {field}")))?
        .as_str()
        .ok_or_else(|| ProtoError::new(ErrorCode::BadField, format!("{field} must be a string")))
}

fn opt_u64(value: &Json, field: &str) -> Result<Option<u64>, ProtoError> {
    match value.get(field) {
        None => Ok(None),
        Some(v) => v.as_u64().map(Some).ok_or_else(|| {
            ProtoError::new(
                ErrorCode::BadField,
                format!("{field} must be a non-negative integer"),
            )
        }),
    }
}

fn req_u64(value: &Json, field: &str) -> Result<u64, ProtoError> {
    value
        .get(field)
        .ok_or_else(|| ProtoError::new(ErrorCode::MissingField, format!("missing field {field}")))?
        .as_u64()
        .ok_or_else(|| {
            ProtoError::new(
                ErrorCode::BadField,
                format!("{field} must be a non-negative integer"),
            )
        })
}

/// Renders an `error` reply frame.
pub fn error_frame(id: Option<&Json>, err: &ProtoError) -> String {
    let mut fields = vec![
        ("type".to_string(), json::s("error")),
        ("code".to_string(), json::s(err.code.as_str())),
        ("message".to_string(), json::s(&err.message)),
    ];
    if let Some(id) = id {
        fields.push(("id".to_string(), id.clone()));
    }
    let mut line = Json::Obj(fields).render();
    line.push('\n');
    line
}

/// Renders a success reply frame of type `ty` with extra fields.
pub fn reply_frame(ty: &str, id: Option<&Json>, fields: Vec<(&'static str, Json)>) -> String {
    let mut all = vec![("type".to_string(), json::s(ty))];
    for (k, v) in fields {
        all.push((k.to_string(), v));
    }
    if let Some(id) = id {
        all.push(("id".to_string(), id.clone()));
    }
    let mut line = Json::Obj(all).render();
    line.push('\n');
    line
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_full_request_surface() {
        let f = parse_frame(r#"{"type":"hello","version":1}"#);
        assert_eq!(f.body.unwrap(), Request::Hello { version: 1 });

        let f = parse_frame(r#"{"type":"load","session":"t1","data":"110\n011\n","id":7}"#);
        assert_eq!(f.id, Some(Json::Num(7.0)));
        assert!(matches!(f.body.unwrap(), Request::Load { session, .. } if session == "t1"));

        let f = parse_frame(
            r#"{"type":"solve","session":"t1","tuple":"110","m":2,"algo":"brute","project":true}"#,
        );
        match f.body.unwrap() {
            Request::Solve { params, tuple } => {
                assert_eq!(tuple, "110");
                assert_eq!(params.m, 2);
                assert_eq!(params.algo, Algo::Brute);
                assert!(params.project);
            }
            other => panic!("{other:?}"),
        }

        let f =
            parse_frame(r#"{"type":"solve_batch","session":"t1","tuples":["110","011"],"m":1}"#);
        match f.body.unwrap() {
            Request::SolveBatch { params, tuples } => {
                assert_eq!(tuples, vec!["110", "011"]);
                assert_eq!(params.algo, Algo::Mfi); // default
            }
            other => panic!("{other:?}"),
        }

        for (line, want) in [
            (r#"{"type":"stats"}"#, Request::Stats { since: None }),
            (
                r#"{"type":"stats","since":42}"#,
                Request::Stats { since: Some(42) },
            ),
            (
                r#"{"type":"trace","request":9}"#,
                Request::Trace { request: 9 },
            ),
            (
                r#"{"type":"dump_flight"}"#,
                Request::DumpFlight { request: None },
            ),
            (
                r#"{"type":"dump_flight","request":9}"#,
                Request::DumpFlight { request: Some(9) },
            ),
            (r#"{"type":"metrics_text"}"#, Request::MetricsText),
            (r#"{"type":"ping"}"#, Request::Ping),
            (r#"{"type":"shutdown"}"#, Request::Shutdown),
        ] {
            assert_eq!(parse_frame(line).body.unwrap(), want);
        }
    }

    #[test]
    fn telemetry_frames_reject_bad_fields() {
        for (line, code) in [
            (r#"{"type":"trace"}"#, ErrorCode::MissingField),
            (r#"{"type":"trace","request":"x"}"#, ErrorCode::BadField),
            (r#"{"type":"trace","request":-1}"#, ErrorCode::BadField),
            (r#"{"type":"stats","since":-1}"#, ErrorCode::BadField),
            (r#"{"type":"stats","since":"old"}"#, ErrorCode::BadField),
            (r#"{"type":"stats","since":1.5}"#, ErrorCode::BadField),
            (
                r#"{"type":"dump_flight","request":false}"#,
                ErrorCode::BadField,
            ),
        ] {
            assert_eq!(parse_frame(line).body.unwrap_err().code, code, "{line}");
        }
    }

    #[test]
    fn every_algo_name_roundtrips() {
        for name in [
            "brute", "ilp", "mfi", "mfi-det", "attr", "cumul", "queries", "local", "sketch",
        ] {
            assert_eq!(Algo::parse(name).unwrap().as_str(), name);
        }
        assert_eq!(Algo::parse("quantum"), None);
    }

    #[test]
    fn clusters_field_is_sketch_only_and_positive() {
        // Valid: sketch with an explicit count.
        let f = parse_frame(
            r#"{"type":"solve","session":"t1","tuple":"110","m":2,"algo":"sketch","clusters":16}"#,
        );
        match f.body.unwrap() {
            Request::Solve { params, .. } => {
                assert_eq!(params.algo, Algo::Sketch);
                assert_eq!(params.clusters, Some(16));
            }
            other => panic!("{other:?}"),
        }
        // Valid: sketch without clusters derives the count server-side.
        let f =
            parse_frame(r#"{"type":"solve","session":"t1","tuple":"110","m":2,"algo":"sketch"}"#);
        match f.body.unwrap() {
            Request::Solve { params, .. } => assert_eq!(params.clusters, None),
            other => panic!("{other:?}"),
        }
        // Invalid shapes are all typed bad_field errors.
        for line in [
            // zero clusters
            r#"{"type":"solve","session":"t1","tuple":"110","m":2,"algo":"sketch","clusters":0}"#,
            // clusters with a non-sketch algorithm
            r#"{"type":"solve","session":"t1","tuple":"110","m":2,"algo":"brute","clusters":4}"#,
            // clusters with the (non-sketch) default algorithm
            r#"{"type":"solve","session":"t1","tuple":"110","m":2,"clusters":4}"#,
            // non-integer clusters
            r#"{"type":"solve","session":"t1","tuple":"110","m":2,"algo":"sketch","clusters":"many"}"#,
            r#"{"type":"solve","session":"t1","tuple":"110","m":2,"algo":"sketch","clusters":2.5}"#,
            r#"{"type":"solve","session":"t1","tuple":"110","m":2,"algo":"sketch","clusters":-3}"#,
        ] {
            let f = parse_frame(line);
            assert_eq!(f.body.unwrap_err().code, ErrorCode::BadField, "{line}");
        }
        // solve_batch shares the same params surface.
        let f = parse_frame(
            r#"{"type":"solve_batch","session":"t1","tuples":["110"],"m":1,"algo":"sketch","clusters":2}"#,
        );
        match f.body.unwrap() {
            Request::SolveBatch { params, .. } => assert_eq!(params.clusters, Some(2)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn id_is_echoed_even_on_field_errors() {
        let f = parse_frame(r#"{"type":"solve","id":"req-9"}"#);
        assert_eq!(f.id, Some(Json::Str("req-9".into())));
        assert_eq!(f.body.unwrap_err().code, ErrorCode::MissingField);
    }

    #[test]
    fn error_frames_render_with_and_without_id() {
        let err = ProtoError::new(ErrorCode::Parse, "broken \"quote\"");
        let line = error_frame(None, &err);
        assert!(line.ends_with('\n'));
        let v = json::parse(line.trim_end()).unwrap();
        assert_eq!(v.get("type").and_then(Json::as_str), Some("error"));
        assert_eq!(v.get("code").and_then(Json::as_str), Some("parse"));
        assert_eq!(
            v.get("message").and_then(Json::as_str),
            Some("broken \"quote\"")
        );

        let id = Json::Num(3.0);
        let v = json::parse(error_frame(Some(&id), &err).trim_end()).unwrap();
        assert_eq!(v.get("id").and_then(Json::as_u64), Some(3));
    }

    #[test]
    fn session_name_hardening() {
        let f = parse_frame(r#"{"type":"load","session":"","data":""}"#);
        assert_eq!(f.body.unwrap_err().code, ErrorCode::BadField);
        let long = "x".repeat(129);
        let f = parse_frame(&format!(
            r#"{{"type":"load","session":"{long}","data":""}}"#
        ));
        assert_eq!(f.body.unwrap_err().code, ErrorCode::BadField);
        let f = parse_frame(r#"{"type":"load","session":"a\u0001b","data":""}"#);
        assert_eq!(f.body.unwrap_err().code, ErrorCode::BadField);
        // Unicode names are fine.
        let f = parse_frame(r#"{"type":"load","session":"カタログ","data":""}"#);
        assert!(f.body.is_ok());
    }
}
