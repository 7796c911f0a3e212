//! End-to-end tests over real TCP sockets: happy path, concurrency,
//! hostile framing, mid-solve disconnects, and shutdown under load.
//!
//! Server tests share a process-global lock so at most one server runs
//! at a time — thread-leak accounting and metric assertions would
//! cross-talk otherwise.

use std::collections::{BTreeSet, HashMap};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::thread::JoinHandle;
use std::time::Duration;

use soc_core::SocAlgorithm;
use soc_serve::json::{self, Json};
use soc_serve::{ServeReport, Server, ServerConfig, ServerHandle};

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    match LOCK.get_or_init(|| Mutex::new(())).lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

struct TestServer {
    handle: ServerHandle,
    thread: Option<JoinHandle<std::io::Result<ServeReport>>>,
}

impl TestServer {
    fn start(cfg: ServerConfig) -> TestServer {
        let server = Server::bind(cfg).expect("bind ephemeral port");
        let handle = server.handle();
        let thread = std::thread::spawn(move || server.serve());
        TestServer {
            handle,
            thread: Some(thread),
        }
    }

    fn connect(&self) -> Client {
        Client::connect(&self.handle)
    }

    /// Asks for shutdown and returns the accept loop's report.
    fn stop(mut self) -> ServeReport {
        self.handle.shutdown();
        self.thread
            .take()
            .unwrap()
            .join()
            .expect("serve thread panicked")
            .expect("serve returned an error")
    }
}

impl Drop for TestServer {
    fn drop(&mut self) {
        if let Some(thread) = self.thread.take() {
            self.handle.shutdown();
            let _ = thread.join();
        }
    }
}

struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(handle: &ServerHandle) -> Client {
        let stream = TcpStream::connect(handle.local_addr()).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let reader = BufReader::new(stream.try_clone().unwrap());
        Client { stream, reader }
    }

    fn send(&mut self, line: &str) {
        self.stream.write_all(line.as_bytes()).expect("send");
        self.stream.write_all(b"\n").expect("send newline");
    }

    fn recv(&mut self) -> Json {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("read reply");
        assert!(n > 0, "server closed the connection unexpectedly");
        json::parse(line.trim_end()).expect("reply is valid JSON")
    }

    /// Sends, then asserts the reply type.
    fn roundtrip(&mut self, line: &str, want_type: &str) -> Json {
        self.send(line);
        let reply = self.recv();
        assert_eq!(
            reply.get("type").and_then(Json::as_str),
            Some(want_type),
            "for request {line:?} got {reply:?}"
        );
        reply
    }

    fn hello(&mut self) {
        self.roundtrip(r#"{"type":"hello","version":1}"#, "hello_ok");
    }

    /// Reads until EOF (peer closed).
    fn read_to_eof(&mut self) -> String {
        let mut rest = String::new();
        let _ = self.reader.read_to_string(&mut rest);
        rest
    }
}

/// The paper's Fig 1 query log, width 6.
const FIG1: &str = "110000\\n100100\\n010100\\n000101\\n001010\\n";

fn assert_error(reply: &Json, code: &str) {
    assert_eq!(reply.get("type").and_then(Json::as_str), Some("error"));
    assert_eq!(
        reply.get("code").and_then(Json::as_str),
        Some(code),
        "unexpected error reply {reply:?}"
    );
}

#[test]
fn happy_path_load_solve_stats_shutdown() {
    let _serial = serial();
    let server = TestServer::start(ServerConfig::default());
    let mut c = server.connect();
    c.hello();

    let reply = c.roundtrip(
        &format!(r#"{{"type":"load","session":"cars","data":"{FIG1}","id":"L1"}}"#),
        "load_ok",
    );
    assert_eq!(reply.get("queries").and_then(Json::as_u64), Some(5));
    assert_eq!(reply.get("attrs").and_then(Json::as_u64), Some(6));
    assert_eq!(reply.get("id").and_then(Json::as_str), Some("L1"));

    // Fig 1: keeping {AC, FourDoor, PowerDoors} satisfies 3 queries.
    let reply = c.roundtrip(
        r#"{"type":"solve","session":"cars","tuple":"110111","m":3,"algo":"brute","id":7}"#,
        "solve_ok",
    );
    assert_eq!(reply.get("satisfied").and_then(Json::as_u64), Some(3));
    assert_eq!(reply.get("id").and_then(Json::as_u64), Some(7));
    let retained = reply.get("retained").and_then(Json::as_str).unwrap();
    assert_eq!(retained.len(), 6);
    assert_eq!(retained.matches('1').count(), 3);

    // Every algorithm answers; exact ones agree on the objective.
    for (algo, exact) in [
        ("brute", true),
        ("ilp", true),
        ("mfi", true),
        ("mfi-det", true),
        ("attr", false),
        ("cumul", false),
        ("queries", false),
        ("local", false),
        // The derived cluster count caps at the 5-query log, so the
        // sketch degenerates to identity clustering and its exact
        // inner solver must find the optimum.
        ("sketch", true),
    ] {
        let req = format!(
            r#"{{"type":"solve","session":"cars","tuple":"110111","m":3,"algo":"{algo}","project":true}}"#
        );
        let reply = c.roundtrip(&req, "solve_ok");
        let satisfied = reply.get("satisfied").and_then(Json::as_u64).unwrap();
        if exact {
            assert_eq!(satisfied, 3, "{algo} is exact");
        } else {
            assert!(satisfied <= 3, "{algo} cannot beat the optimum");
        }
    }

    // ingest extends the log in place.
    let reply = c.roundtrip(
        r#"{"type":"ingest","session":"cars","data":"2x 110000\n"}"#,
        "ingest_ok",
    );
    assert_eq!(reply.get("queries").and_then(Json::as_u64), Some(6));
    assert_eq!(reply.get("total_weight").and_then(Json::as_u64), Some(7));

    let reply = c.roundtrip(r#"{"type":"stats"}"#, "stats_ok");
    let metrics = reply.get("metrics").expect("metrics object");
    let solves = metrics
        .get("serve.solves")
        .and_then(Json::as_u64)
        .expect("serve.solves counter present");
    assert!(solves >= 9, "solves counted: {solves}");
    assert_eq!(reply.get("sessions").and_then(Json::as_u64), Some(1));
    assert!(reply.get("spans").and_then(Json::as_array).is_some());

    c.roundtrip(r#"{"type":"ping"}"#, "pong");
    c.roundtrip(r#"{"type":"shutdown"}"#, "shutdown_ok");

    let report = server.stop();
    assert_eq!(report.conns_accepted, 1);
    assert!(report.requests >= 13);
}

#[test]
fn protocol_errors_keep_the_connection_alive() {
    let _serial = serial();
    let server = TestServer::start(ServerConfig::default());
    let mut c = server.connect();

    // Before hello, typed requests are refused…
    c.send(r#"{"type":"stats"}"#);
    assert_error(&c.recv(), "need_hello");
    // …a wrong version is refused…
    c.send(r#"{"type":"hello","version":99}"#);
    assert_error(&c.recv(), "unsupported_version");
    // …and malformed junk gets a parse error, not a hangup.
    for junk in ["not json at all", "[1,2,3]", r#"{"type":"ping""#, "{}"] {
        c.send(junk);
        let reply = c.recv();
        assert_eq!(reply.get("type").and_then(Json::as_str), Some("error"));
    }

    // The connection is still fine: complete the handshake and work.
    c.hello();
    c.roundtrip(r#"{"type":"ping"}"#, "pong");

    // Field-level failures echo the id.
    c.send(r#"{"type":"solve","session":"ghost","tuple":"1","m":1,"id":"x9"}"#);
    let reply = c.recv();
    assert_error(&reply, "no_such_session");
    assert_eq!(reply.get("id").and_then(Json::as_str), Some("x9"));

    c.roundtrip(
        &format!(r#"{{"type":"load","session":"s","data":"{FIG1}"}}"#),
        "load_ok",
    );
    c.send(r#"{"type":"solve","session":"s","tuple":"11","m":1}"#);
    assert_error(&c.recv(), "bad_field"); // width mismatch
    c.send(r#"{"type":"load","session":"s","data":"11\nxx\n"}"#);
    assert_error(&c.recv(), "bad_data");

    // Sketch cluster counts are bounded by the session's log size…
    c.send(r#"{"type":"solve","session":"s","tuple":"110111","m":3,"algo":"sketch","clusters":6}"#);
    assert_error(&c.recv(), "bad_field"); // only 5 queries loaded
                                          // …while an in-range count solves normally on the same connection.
    let reply = c.roundtrip(
        r#"{"type":"solve","session":"s","tuple":"110111","m":3,"algo":"sketch","clusters":2}"#,
        "solve_ok",
    );
    assert!(reply.get("satisfied").and_then(Json::as_u64).unwrap() <= 3);
    assert_eq!(reply.get("algo").and_then(Json::as_str), Some("sketch"));

    drop(c);
    server.stop();
}

#[test]
fn oversized_line_gets_typed_error_then_close() {
    let _serial = serial();
    let server = TestServer::start(ServerConfig {
        max_line_bytes: 1024,
        ..ServerConfig::default()
    });
    let mut c = server.connect();
    c.hello();
    let huge = format!(
        r#"{{"type":"load","session":"s","data":"{}"}}"#,
        "1".repeat(4096)
    );
    // The server may close the socket while we are still writing (it
    // only needs >1024 bytes to decide), so ignore write errors here.
    let _ = c.stream.write_all(huge.as_bytes());
    let _ = c.stream.write_all(b"\n");
    assert_error(&c.recv(), "line_too_long");
    // Framing is unrecoverable: the server closes after the error.
    assert_eq!(c.read_to_eof(), "");
    server.stop();
}

#[test]
fn pipelined_requests_answer_in_order_with_ids() {
    let _serial = serial();
    let server = TestServer::start(ServerConfig::default());
    let mut c = server.connect();
    // One write carrying the whole conversation, valid and invalid
    // frames interleaved. Replies must come back in order, ids echoed.
    let batch = format!(
        concat!(
            r#"{{"type":"hello","version":1,"id":1}}"#,
            "\n",
            r#"{{"type":"load","session":"s","data":"{data}","id":2}}"#,
            "\n",
            r#"{{"type":"nope","id":3}}"#,
            "\n",
            r#"{{"type":"solve","session":"s","tuple":"110111","m":3,"id":4}}"#,
            "\n",
            r#"not even json"#,
            "\n",
            r#"{{"type":"ping","id":6}}"#,
            "\n",
        ),
        data = FIG1
    );
    c.stream.write_all(batch.as_bytes()).unwrap();

    let types: Vec<(Option<u64>, String)> = (0..6)
        .map(|_| {
            let r = c.recv();
            (
                r.get("id").and_then(Json::as_u64),
                r.get("type").and_then(Json::as_str).unwrap().to_string(),
            )
        })
        .collect();
    assert_eq!(
        types,
        vec![
            (Some(1), "hello_ok".to_string()),
            (Some(2), "load_ok".to_string()),
            (Some(3), "error".to_string()),
            (Some(4), "solve_ok".to_string()),
            (None, "error".to_string()),
            (Some(6), "pong".to_string()),
        ]
    );
    drop(c);
    server.stop();
}

#[test]
fn concurrent_clients_solve_batches_in_parallel() {
    let _serial = serial();
    let server = TestServer::start(ServerConfig {
        threads: 4,
        ..ServerConfig::default()
    });

    let clients: Vec<_> = (0..4)
        .map(|k| {
            let handle = server.handle.clone();
            std::thread::spawn(move || {
                let mut c = Client::connect(&handle);
                c.hello();
                c.roundtrip(
                    &format!(r#"{{"type":"load","session":"t{k}","data":"{FIG1}"}}"#),
                    "load_ok",
                );
                let tuples: Vec<String> =
                    (0..8).map(|_| "\"110111\"".to_string()).collect();
                c.send(&format!(
                    r#"{{"type":"solve_batch","session":"t{k}","tuples":[{}],"m":3,"algo":"mfi-det"}}"#,
                    tuples.join(",")
                ));
                let mut seen = [false; 8];
                for _ in 0..8 {
                    let r = c.recv();
                    assert_eq!(r.get("type").and_then(Json::as_str), Some("solve_result"));
                    assert_eq!(r.get("satisfied").and_then(Json::as_u64), Some(3));
                    let idx = r.get("index").and_then(Json::as_u64).unwrap() as usize;
                    assert!(!seen[idx], "duplicate index {idx}");
                    seen[idx] = true;
                }
                let done = c.recv();
                assert_eq!(done.get("type").and_then(Json::as_str), Some("solve_batch_done"));
                assert_eq!(done.get("count").and_then(Json::as_u64), Some(8));
                assert_eq!(done.get("delivered").and_then(Json::as_u64), Some(8));
            })
        })
        .collect();
    for t in clients {
        t.join().expect("client thread");
    }

    let report = server.stop();
    assert_eq!(report.conns_accepted, 4);
}

#[test]
fn admission_limit_rejects_with_busy() {
    let _serial = serial();
    let server = TestServer::start(ServerConfig {
        max_conns: 1,
        ..ServerConfig::default()
    });
    let mut first = server.connect();
    first.hello(); // guarantees the first connection is admitted & live

    let mut second = server.connect();
    let reply = second.recv();
    assert_error(&reply, "busy");
    assert_eq!(second.read_to_eof(), "", "rejected connection is closed");

    // The admitted connection is unaffected.
    first.roundtrip(r#"{"type":"ping"}"#, "pong");
    drop(first);
    let report = server.stop();
    assert_eq!(report.conns_rejected, 1);
}

/// Builds a width-20 log and tuple whose brute-force solve is slow
/// enough (~ms) that a deep batch queue survives long enough to observe
/// cancellation and shutdown-under-load behavior.
fn slow_instance() -> (String, String) {
    let mut rows = String::new();
    for q in 0..20u32 {
        let mut row = String::new();
        for a in 0..20u32 {
            // A dense, deterministic pattern with varied overlap.
            row.push(if (q * 7 + a * 3) % 4 != 0 { '1' } else { '0' });
        }
        rows.push_str(&row);
        rows.push_str("\\n");
    }
    (rows, "1".repeat(20))
}

#[test]
fn mid_solve_disconnect_cancels_the_batch_and_frees_the_server() {
    let _serial = serial();
    let server = TestServer::start(ServerConfig {
        threads: 1,
        ..ServerConfig::default()
    });
    let (rows, tuple) = slow_instance();

    let mut c = server.connect();
    c.hello();
    c.roundtrip(
        &format!(r#"{{"type":"load","session":"big","data":"{rows}"}}"#),
        "load_ok",
    );
    let tuples: Vec<String> = (0..64).map(|_| format!("\"{tuple}\"")).collect();
    c.send(&format!(
        r#"{{"type":"solve_batch","session":"big","tuples":[{}],"m":8,"algo":"brute"}}"#,
        tuples.join(",")
    ));
    // Take one streamed result, then vanish mid-batch.
    let first = c.recv();
    assert_eq!(
        first.get("type").and_then(Json::as_str),
        Some("solve_result")
    );
    drop(c);

    // The server must recover promptly: a new client gets service
    // without waiting for the orphaned batch to grind through.
    let mut c2 = server.connect();
    c2.hello();
    c2.roundtrip(r#"{"type":"ping"}"#, "pong");
    drop(c2);
    server.stop();
}

#[test]
fn shutdown_under_load_drains_inflight_batch() {
    let _serial = serial();
    let server = TestServer::start(ServerConfig {
        threads: 2,
        ..ServerConfig::default()
    });
    let (rows, tuple) = slow_instance();

    let mut worker = server.connect();
    worker.hello();
    worker.roundtrip(
        &format!(r#"{{"type":"load","session":"big","data":"{rows}"}}"#),
        "load_ok",
    );
    const BATCH: usize = 24;
    let tuples: Vec<String> = (0..BATCH).map(|_| format!("\"{tuple}\"")).collect();
    worker.send(&format!(
        r#"{{"type":"solve_batch","session":"big","tuples":[{}],"m":8,"algo":"brute"}}"#,
        tuples.join(",")
    ));
    // Wait for evidence that the batch is genuinely in flight.
    let first = worker.recv();
    assert_eq!(
        first.get("type").and_then(Json::as_str),
        Some("solve_result")
    );

    // A second client asks the server to shut down NOW.
    let mut admin = server.connect();
    admin.hello();
    admin.roundtrip(r#"{"type":"shutdown"}"#, "shutdown_ok");
    drop(admin);

    // The in-flight batch still completes in full: graceful shutdown
    // drains dispatched work instead of severing it.
    for _ in 1..BATCH {
        let r = worker.recv();
        assert_eq!(r.get("type").and_then(Json::as_str), Some("solve_result"));
    }
    let done = worker.recv();
    assert_eq!(
        done.get("type").and_then(Json::as_str),
        Some("solve_batch_done")
    );
    assert_eq!(
        done.get("delivered").and_then(Json::as_u64),
        Some(BATCH as u64)
    );
    // After the batch, the connection is told the server is going away.
    let bye = worker.recv();
    assert_error(&bye, "shutting_down");
    assert_eq!(worker.read_to_eof(), "");

    server.stop();
}

/// Field `key` of a JSON object as a u64 (panics when absent).
fn u64_of(v: &Json, key: &str) -> u64 {
    v.get(key)
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("{key} missing in {v:?}"))
}

/// A span as `(name, id, parent)`.
type SpanRow = (String, u64, u64);

/// Fetches one request's `trace` and checks it is one complete tree:
/// every span carries the request and chains through `parent` links to
/// the single `serve_frame` root, whose parent is 0. Returns the spans
/// and the root id.
fn trace_tree(c: &mut Client, request: u64) -> (Vec<SpanRow>, u64) {
    let trace = c.roundtrip(
        &format!(r#"{{"type":"trace","request":{request}}}"#),
        "trace_ok",
    );
    assert_eq!(u64_of(&trace, "request"), request);
    let spans: Vec<SpanRow> = trace
        .get("spans")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .map(|s| {
            assert_eq!(
                u64_of(s, "request"),
                request,
                "foreign span in the trace: {s:?}"
            );
            let name = s.get("name").and_then(Json::as_str).unwrap().to_string();
            (name, u64_of(s, "id"), u64_of(s, "parent"))
        })
        .collect();
    let roots: Vec<&SpanRow> = spans.iter().filter(|s| s.0 == "serve_frame").collect();
    assert_eq!(
        roots.len(),
        1,
        "exactly one root span per request: {spans:?}"
    );
    let root = roots[0].1;
    assert_eq!(roots[0].2, 0, "the root span has no parent");
    let parent_of: HashMap<u64, u64> = spans.iter().map(|s| (s.1, s.2)).collect();
    for s in &spans {
        let mut at = s.1;
        for _ in 0..spans.len() {
            if at == root {
                break;
            }
            at = *parent_of
                .get(&at)
                .unwrap_or_else(|| panic!("span {at} has no parent in the trace: {spans:?}"));
        }
        assert_eq!(at, root, "span {s:?} does not chain to the root");
    }
    (spans, root)
}

#[test]
fn telemetry_stitches_one_request_across_threads() {
    let _serial = serial();
    let server = TestServer::start(ServerConfig {
        threads: 2,
        slow_ms: Some(0), // every frame leaves a flight postmortem
        ..ServerConfig::default()
    });
    let (rows, tuple) = slow_instance();

    let mut c = server.connect();
    c.hello();
    c.roundtrip(
        &format!(r#"{{"type":"load","session":"big","data":"{rows}"}}"#),
        "load_ok",
    );

    // A batch solved on pool workers with the branch-and-bound solver,
    // so the request's span tree crosses serve → pool → solver layers.
    let tuples: Vec<String> = (0..4).map(|_| format!("\"{tuple}\"")).collect();
    c.send(&format!(
        r#"{{"type":"solve_batch","session":"big","tuples":[{}],"m":8,"algo":"ilp"}}"#,
        tuples.join(",")
    ));
    for _ in 0..4 {
        let r = c.recv();
        assert_eq!(r.get("type").and_then(Json::as_str), Some("solve_result"));
    }
    let done = c.recv();
    assert_eq!(
        done.get("type").and_then(Json::as_str),
        Some("solve_batch_done")
    );
    let request = done
        .get("request")
        .and_then(Json::as_u64)
        .expect("solve_batch_done carries its request id");
    assert!(request > 0);

    // The trace frame returns the stitched tree: one serve_frame root,
    // one solve_instance per tuple parented to it (despite running on
    // other threads), and solver spans below those — all one request.
    let (spans, root) = trace_tree(&mut c, request);
    let instance_ids: Vec<u64> = spans
        .iter()
        .filter(|s| s.0 == "solve_instance")
        .map(|s| {
            assert_eq!(s.2, root, "worker span must parent to the serve frame root");
            s.1
        })
        .collect();
    assert_eq!(instance_ids.len(), 4, "one worker span per tuple");
    let solver_spans = spans
        .iter()
        .filter(|s| s.0 == "solve_mip" && instance_ids.contains(&s.2))
        .count();
    assert_eq!(solver_spans, 4, "solver spans nest under the worker spans");

    // The flight recorder kept a postmortem for the (slow) batch frame.
    let flight = c.roundtrip(
        &format!(r#"{{"type":"dump_flight","request":{request}}}"#),
        "flight_ok",
    );
    assert_eq!(
        flight.get("source").and_then(Json::as_str),
        Some("postmortem")
    );
    assert!(flight.get("frame_us").and_then(Json::as_u64).is_some());
    let records = flight.get("records").and_then(Json::as_array).unwrap();
    assert!(!records.is_empty(), "postmortem must carry flight records");
    assert!(records
        .iter()
        .all(|r| r.get("request").and_then(Json::as_u64) == Some(request)));
    // A full live dump also answers.
    let live = c.roundtrip(r#"{"type":"dump_flight"}"#, "flight_ok");
    assert_eq!(live.get("source").and_then(Json::as_str), Some("live"));

    // stats: bounded span page plus a cursor that pages forward.
    let stats = c.roundtrip(r#"{"type":"stats"}"#, "stats_ok");
    let page = stats.get("spans").and_then(Json::as_array).unwrap();
    assert!(page.len() <= 64, "span page is bounded");
    let cursor = stats
        .get("spans_cursor")
        .and_then(Json::as_u64)
        .expect("stats carries a spans cursor");
    let stats2 = c.roundtrip(
        &format!(r#"{{"type":"stats","since":{cursor}}}"#),
        "stats_ok",
    );
    for s in stats2.get("spans").and_then(Json::as_array).unwrap() {
        assert!(s.get("seq").and_then(Json::as_u64).unwrap() >= cursor);
    }
    // A cursor from the future is a typed error, not a hang or a panic.
    c.send(&format!(r#"{{"type":"stats","since":{}}}"#, u64::MAX));
    assert_error(&c.recv(), "bad_field");

    // Per-tenant counters: this connection touched session "big" once.
    let tenants = stats.get("tenants").expect("tenants object");
    let big = tenants.get("big").expect("tenant big present");
    assert_eq!(big.get("conns").and_then(Json::as_u64), Some(1));
    assert_eq!(big.get("loads").and_then(Json::as_u64), Some(1));
    assert!(big.get("solves").and_then(Json::as_u64).unwrap() >= 4);
    assert!(stats.get("postmortems").and_then(Json::as_u64).unwrap() >= 1);

    // Prometheus text export: counters and sketch quantiles render.
    let prom = c.roundtrip(r#"{"type":"metrics_text"}"#, "metrics_text_ok");
    assert_eq!(
        prom.get("content_type").and_then(Json::as_str),
        Some("text/plain; version=0.0.4")
    );
    let body = prom.get("body").and_then(Json::as_str).unwrap();
    assert!(body.contains("soc_serve_frames_in"), "counter exported");
    assert!(
        body.contains("soc_serve_solve_us_ilp{quantile=\"0.99\"}"),
        "per-algo sketch quantiles exported:\n{body}"
    );

    drop(c);
    server.stop();
}

#[test]
fn trace_stats_and_flight_views_agree_under_concurrent_solves() {
    let _serial = serial();
    let server = TestServer::start(ServerConfig {
        threads: 2,
        ..ServerConfig::default()
    });
    let mut c = server.connect();
    c.hello();
    c.roundtrip(
        &format!(r#"{{"type":"load","session":"views","data":"{FIG1}"}}"#),
        "load_ok",
    );

    // Several clients solve at once; each solve frame is one request.
    let clients: Vec<_> = (0..4)
        .map(|_| {
            let handle = server.handle.clone();
            std::thread::spawn(move || {
                let mut c = Client::connect(&handle);
                c.hello();
                (0..6)
                    .map(|_| {
                        let r = c.roundtrip(
                            r#"{"type":"solve","session":"views","tuple":"110111","m":3,"algo":"ilp"}"#,
                            "solve_ok",
                        );
                        assert_eq!(u64_of(&r, "satisfied"), 3);
                        u64_of(&r, "request")
                    })
                    .collect::<Vec<u64>>()
            })
        })
        .collect();
    let requests: Vec<u64> = clients
        .into_iter()
        .flat_map(|t| t.join().expect("client thread"))
        .collect();
    assert_eq!(requests.len(), 24);

    // trace: every request is one complete tree (see trace_tree), with
    // solve_instance, run on a solver worker, directly under the root.
    let mut traced: HashMap<u64, BTreeSet<u64>> = HashMap::new();
    for &request in &requests {
        let (spans, root) = trace_tree(&mut c, request);
        let instances: Vec<&SpanRow> = spans.iter().filter(|s| s.0 == "solve_instance").collect();
        assert_eq!(instances.len(), 1, "request {request}: {spans:?}");
        assert_eq!(instances[0].2, root);
        traced.insert(request, spans.iter().map(|s| s.1).collect());
    }

    // stats: paging from since 0 yields strictly increasing seqs with no
    // repeats, and the pages cover every traced span.
    let mut cursor = 0;
    let mut last_seq = None;
    let mut paged: BTreeSet<u64> = BTreeSet::new();
    let mut pages = 0;
    loop {
        pages += 1;
        let stats = c.roundtrip(
            &format!(r#"{{"type":"stats","since":{cursor}}}"#),
            "stats_ok",
        );
        let page = stats.get("spans").and_then(Json::as_array).unwrap();
        for s in page {
            let seq = u64_of(s, "seq");
            assert!(
                last_seq.is_none_or(|l| seq > l),
                "seq {seq} after {last_seq:?}"
            );
            last_seq = Some(seq);
            paged.insert(u64_of(s, "id"));
        }
        cursor = u64_of(&stats, "spans_cursor");
        // Each stats frame adds its own root span, so a short page
        // means the pages have caught up with the ring.
        if page.len() < 64 {
            break;
        }
    }
    assert!(pages >= 2, "the cursor must carry across pages");
    for (request, ids) in &traced {
        assert!(
            ids.is_subset(&paged),
            "request {request} missing from stats pages"
        );
    }

    // dump_flight: the same spans as trace, in the wire's span shape.
    for (&request, ids) in &traced {
        let flight = c.roundtrip(
            &format!(r#"{{"type":"dump_flight","request":{request}}}"#),
            "flight_ok",
        );
        assert_eq!(flight.get("source").and_then(Json::as_str), Some("live"));
        let records = flight.get("records").and_then(Json::as_array).unwrap();
        let dumped: BTreeSet<u64> = records
            .iter()
            .map(|r| {
                assert_eq!(r.get("kind").and_then(Json::as_str), Some("span"));
                assert_eq!(u64_of(r, "detail"), 0);
                assert_eq!(u64_of(r, "request"), request);
                u64_of(r, "id")
            })
            .collect();
        assert_eq!(&dumped, ids, "request {request}");
    }

    // Distributions are sketch summaries, in stats and in metrics_text.
    let stats = c.roundtrip(r#"{"type":"stats"}"#, "stats_ok");
    let lp = stats
        .get("metrics")
        .and_then(|m| m.get("solver.lp_us"))
        .expect("an ilp solve records solver.lp_us");
    // Exactly the sketch summary: no bucket-bound quantiles beside it.
    let Json::Obj(fields) = lp else {
        panic!("solver.lp_us is not an object: {lp:?}");
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        ["count", "sum", "max", "mean", "p50", "p90", "p99", "p999"],
        "{lp:?}"
    );
    let prom = c.roundtrip(r#"{"type":"metrics_text"}"#, "metrics_text_ok");
    let body = prom.get("body").and_then(Json::as_str).unwrap();
    assert!(body.contains("# TYPE soc_solver_lp_us summary"), "{body}");

    drop(c);
    server.stop();
}

/// Sends a projected exact solve and checks its answer against `log`:
/// `satisfied` is the retained set's objective on `log` and the optimum.
/// Returns `satisfied` and the request's span names.
fn projected_solve_on(
    c: &mut Client,
    log: &soc_data::QueryLog,
    tuple: &str,
    m: usize,
) -> (usize, Vec<String>) {
    let reply = c.roundtrip(
        &format!(
            r#"{{"type":"solve","session":"s","tuple":"{tuple}","m":{m},"algo":"brute","project":true}}"#
        ),
        "solve_ok",
    );
    let satisfied = u64_of(&reply, "satisfied") as usize;
    let retained = reply.get("retained").and_then(Json::as_str).unwrap();
    let retained = soc_data::Tuple::from_bitstring(retained).unwrap();
    assert_eq!(satisfied, log.satisfied_count(&retained), "{reply:?}");
    let t = soc_data::Tuple::from_bitstring(tuple).unwrap();
    let optimum = soc_core::BruteForce.solve(&soc_core::SocInstance::new(log, &t, m));
    assert_eq!(satisfied, optimum.satisfied, "{reply:?}");
    let (spans, _) = trace_tree(c, u64_of(&reply, "request"));
    (satisfied, spans.into_iter().map(|s| s.0).collect())
}

#[test]
fn projected_solves_follow_ingest_and_reload() {
    let _serial = serial();
    let server = TestServer::start(ServerConfig::default());
    let mut c = server.connect();
    c.hello();
    // Log texts below are JSON-escaped, as sent in `data`.
    let parse = |data: &str| soc_data::io::parse_query_log(&data.replace("\\n", "\n")).unwrap();

    // Fig 1 and t = 110111, m = 2: each pair keeps one of the four
    // contained queries. The first projected solve scans the log, the
    // second derives the distinct view.
    c.roundtrip(
        &format!(r#"{{"type":"load","session":"s","data":"{FIG1}"}}"#),
        "load_ok",
    );
    let fig1 = parse(FIG1);
    let (satisfied, spans) = projected_solve_on(&mut c, &fig1, "110111", 2);
    assert_eq!(satisfied, 1);
    assert!(!spans.iter().any(|n| n == "log_dedup"), "{spans:?}");
    let (satisfied, spans) = projected_solve_on(&mut c, &fig1, "110111", 2);
    assert_eq!(satisfied, 1);
    assert!(spans.iter().any(|n| n == "log_dedup"), "{spans:?}");

    // Five more {3,5} queries change the answer to {3,5} with 6. The
    // ingest carries the view forward, so the next solve derives none.
    let ingest = "5x 000101\\n";
    c.roundtrip(
        &format!(r#"{{"type":"ingest","session":"s","data":"{ingest}"}}"#),
        "ingest_ok",
    );
    let merged = fig1.append(&parse(ingest));
    let (satisfied, spans) = projected_solve_on(&mut c, &merged, "110111", 2);
    assert_eq!(satisfied, 6);
    assert!(!spans.iter().any(|n| n == "log_dedup"), "{spans:?}");

    // Loading a different log replaces the session, view and all.
    let other = "1100\\n1100\\n0011\\n0111\\n";
    c.roundtrip(
        &format!(r#"{{"type":"load","session":"s","data":"{other}"}}"#),
        "load_ok",
    );
    let other = parse(other);
    for derives in [false, true] {
        let (satisfied, spans) = projected_solve_on(&mut c, &other, "1111", 2);
        assert_eq!(satisfied, 2);
        assert_eq!(spans.iter().any(|n| n == "log_dedup"), derives, "{spans:?}");
    }

    drop(c);
    server.stop();
}

#[test]
fn idle_connections_are_reaped() {
    let _serial = serial();
    let server = TestServer::start(ServerConfig {
        idle_timeout: Duration::from_millis(300),
        ..ServerConfig::default()
    });
    let mut c = server.connect();
    c.hello();
    // Go quiet and wait for the server to hang up.
    let reply = c.recv(); // blocks until the idle reaper speaks
    assert_error(&reply, "idle_timeout");
    assert_eq!(c.read_to_eof(), "");
    server.stop();
}

/// Counts live server/pool threads by name. Linux-only (procfs).
#[cfg(target_os = "linux")]
fn soc_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .filter(|entry| {
            let Ok(entry) = entry else { return false };
            let comm = std::fs::read_to_string(entry.path().join("comm")).unwrap_or_default();
            comm.starts_with("soc-serve") || comm.starts_with("soc-pool-svc")
        })
        .count()
}

#[cfg(target_os = "linux")]
#[test]
fn full_lifecycle_leaks_no_threads() {
    let _serial = serial();
    assert_eq!(soc_threads(), 0, "stale server threads before the test");

    let server = TestServer::start(ServerConfig::default());
    let mut c = server.connect();
    c.hello();
    c.roundtrip(
        &format!(r#"{{"type":"load","session":"s","data":"{FIG1}"}}"#),
        "load_ok",
    );
    c.roundtrip(
        r#"{"type":"solve","session":"s","tuple":"110111","m":3}"#,
        "solve_ok",
    );
    assert!(soc_threads() > 0, "workers and conn threads are live");
    c.roundtrip(r#"{"type":"shutdown"}"#, "shutdown_ok");
    drop(c);
    server.stop();

    // serve() joins everything before returning, so the count is
    // immediately zero — no sleep, no retries.
    assert_eq!(soc_threads(), 0, "server leaked threads");
}
