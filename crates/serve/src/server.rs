//! The TCP server: accept loop, admission control, per-connection
//! protocol state machine, and graceful shutdown.
//!
//! Threading model: one OS thread per admitted connection (bounded by
//! `max_conns`) plus a shared [`soc_pool::Service`] of solver workers.
//! Connection threads never solve; they parse frames, validate, and
//! submit jobs, so a slow solve cannot stall another client's protocol
//! handling beyond worker availability.
//!
//! Shutdown ordering (any of: a `shutdown` frame, [`ServerHandle::
//! shutdown`], accept-loop error):
//!
//! 1. the shutdown flag flips and a self-connection pokes `accept()`;
//! 2. the accept loop stops admitting and turns new arrivals away;
//! 3. connection threads notice the flag at their next poll tick, send
//!    a final `shutting_down` error frame, and exit — but only after
//!    finishing the request in flight (solves already dispatched still
//!    stream their results);
//! 4. the accept loop joins every connection thread;
//! 5. the solver service drains (queue runs dry, workers join).
//!
//! Step 5 after step 4 means no connection thread can be blocked on a
//! solve the pool will never run.

use std::collections::HashSet;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use soc_core::{SocAlgorithm, SocInstance};
use soc_data::{QueryLog, Tuple};
use soc_obs::{counter, sketch, MetricValue, TraceCtx};
use soc_pool::Service;

use crate::json::{self, Json};
use crate::proto::{
    error_frame, parse_frame, reply_frame, Algo, ErrorCode, ProtoError, Request, SolveParams,
    PROTOCOL_VERSION,
};
use crate::sessions::SessionStore;
use crate::telemetry::{FlightStore, TenantStats, STATS_SPANS_MAX};

/// How often a blocked connection read wakes up to check the shutdown
/// flag and the idle clock.
const POLL_TICK: Duration = Duration::from_millis(100);

/// Server tunables. `Default` suits tests: ephemeral port, loopback.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind host.
    pub host: String,
    /// Bind port; 0 picks an ephemeral port.
    pub port: u16,
    /// Solver worker threads. Defaults to the host's available
    /// parallelism; set explicitly (or pass `--threads` to `soc serve`)
    /// to override.
    pub threads: usize,
    /// Connections served concurrently; arrivals beyond this get a
    /// `busy` error frame and are closed.
    pub max_conns: usize,
    /// Close connections idle longer than this.
    pub idle_timeout: Duration,
    /// Abort a write blocked longer than this (stalled client).
    pub write_timeout: Duration,
    /// Longest accepted request line, in bytes.
    pub max_line_bytes: usize,
    /// Most sessions the tenant table admits.
    pub max_sessions: usize,
    /// Frames slower than this capture a flight-recorder postmortem
    /// (`None` disables capture; `0` captures every frame).
    pub slow_ms: Option<u64>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            host: "127.0.0.1".to_string(),
            port: 0,
            threads: std::thread::available_parallelism().map_or(2, std::num::NonZero::get),
            max_conns: 32,
            idle_timeout: Duration::from_secs(300),
            write_timeout: Duration::from_secs(10),
            max_line_bytes: 4 << 20,
            max_sessions: 64,
            slow_ms: None,
        }
    }
}

/// Counters reported when [`Server::serve`] returns.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeReport {
    /// Connections admitted and served.
    pub conns_accepted: u64,
    /// Connections turned away at the admission limit.
    pub conns_rejected: u64,
    /// Frames processed (including ones answered with errors).
    pub requests: u64,
}

/// State shared between the accept loop, connection threads, and
/// [`ServerHandle`]s.
struct Shared {
    shutdown: AtomicBool,
    addr: SocketAddr,
    sessions: SessionStore,
    active_conns: AtomicUsize,
    conns_accepted: AtomicU64,
    conns_rejected: AtomicU64,
    requests: AtomicU64,
    tenants: TenantStats,
    flight: FlightStore,
}

impl Shared {
    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Flips the flag and pokes the (blocking) accept call with a
    /// throwaway self-connection so the loop observes it promptly.
    fn begin_shutdown(&self) {
        if !self.shutdown.swap(true, Ordering::SeqCst) {
            let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
        }
    }
}

/// A cloneable remote control for a bound server; lets another thread
/// (or a signal handler) stop [`Server::serve`].
#[derive(Clone)]
pub struct ServerHandle {
    shared: Arc<Shared>,
}

impl ServerHandle {
    /// The bound address (useful with ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Begins graceful shutdown; idempotent.
    pub fn shutdown(&self) {
        self.shared.begin_shutdown();
    }

    /// Whether shutdown has begun.
    pub fn is_shutting_down(&self) -> bool {
        self.shared.shutting_down()
    }
}

/// A bound, not-yet-serving server.
pub struct Server {
    listener: TcpListener,
    cfg: ServerConfig,
    shared: Arc<Shared>,
}

impl Server {
    /// Binds the listener and initializes observability. No connection
    /// is accepted until [`Server::serve`] runs.
    pub fn bind(cfg: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind((cfg.host.as_str(), cfg.port))?;
        let addr = listener.local_addr()?;
        // Metrics plus the flight ring: every served span is stored once,
        // in the ring that `stats`, `trace` and `dump_flight` read.
        // Tracing stays off so nothing accumulates in the drain-once
        // collector, which no server frame reads.
        soc_obs::enable_metrics();
        soc_obs::enable_flight();
        let shared = Arc::new(Shared {
            shutdown: AtomicBool::new(false),
            addr,
            sessions: SessionStore::new(cfg.max_sessions),
            active_conns: AtomicUsize::new(0),
            conns_accepted: AtomicU64::new(0),
            conns_rejected: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            tenants: TenantStats::new(),
            flight: FlightStore::new(),
        });
        Ok(Server {
            listener,
            cfg,
            shared,
        })
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// A remote control usable from other threads.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Runs the accept loop until shutdown, then drains and joins
    /// everything (see the module docs for the ordering).
    pub fn serve(self) -> io::Result<ServeReport> {
        let service = Arc::new(Service::new(self.cfg.threads));
        let mut conn_threads: Vec<JoinHandle<()>> = Vec::new();

        for incoming in self.listener.incoming() {
            if self.shared.shutting_down() {
                break;
            }
            let stream = match incoming {
                Ok(s) => s,
                // Transient per-connection failures (e.g. the peer reset
                // between accept and here) should not kill the server.
                Err(e) if e.kind() == io::ErrorKind::ConnectionAborted => continue,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    self.shared.begin_shutdown();
                    let _ = e;
                    break;
                }
            };
            conn_threads.retain(|h| !h.is_finished());

            if self.shared.active_conns.load(Ordering::SeqCst) >= self.cfg.max_conns {
                self.shared.conns_rejected.fetch_add(1, Ordering::Relaxed);
                counter!("serve.conns_rejected").inc();
                reject_over_capacity(stream, self.cfg.write_timeout);
                continue;
            }

            self.shared.active_conns.fetch_add(1, Ordering::SeqCst);
            self.shared.conns_accepted.fetch_add(1, Ordering::Relaxed);
            counter!("serve.conns_accepted").inc();
            let shared = Arc::clone(&self.shared);
            let service = Arc::clone(&service);
            let cfg = self.cfg.clone();
            let handle = std::thread::Builder::new()
                .name("soc-serve-conn".to_string())
                .spawn(move || {
                    let _guard = ConnGuard(&shared.active_conns);
                    let conn = Connection {
                        shared: &shared,
                        service: &service,
                        cfg: &cfg,
                    };
                    conn.run(stream);
                })
                .expect("spawn connection thread");
            conn_threads.push(handle);
        }

        // Shutdown: no new work can arrive. Join connections first —
        // the pool is still alive, so their in-flight solves finish.
        for handle in conn_threads {
            let _ = handle.join();
        }
        // All submitters are gone; drain the (now static) queue.
        match Arc::try_unwrap(service) {
            Ok(service) => service.shutdown_drain(),
            // Unreachable in practice (every clone lived in a joined
            // thread), but the abort path in Drop is a safe fallback.
            Err(service) => drop(service),
        }

        Ok(ServeReport {
            conns_accepted: self.shared.conns_accepted.load(Ordering::Relaxed),
            conns_rejected: self.shared.conns_rejected.load(Ordering::Relaxed),
            requests: self.shared.requests.load(Ordering::Relaxed),
        })
    }
}

/// Decrements the live-connection count when a connection thread exits,
/// however it exits.
struct ConnGuard<'a>(&'a AtomicUsize);

impl Drop for ConnGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

fn reject_over_capacity(mut stream: TcpStream, write_timeout: Duration) {
    let _ = stream.set_write_timeout(Some(write_timeout));
    let err = ProtoError::new(ErrorCode::Busy, "connection limit reached, try again later");
    let _ = stream.write_all(error_frame(None, &err).as_bytes());
}

/// What `poll_line` observed.
enum ReadEvent {
    /// A complete line (without the trailing newline).
    Line(Vec<u8>),
    /// The read timed out — caller should check shutdown/idle clocks.
    Tick,
    /// Peer closed the connection.
    Eof,
    /// The line limit was exceeded before a newline arrived.
    TooLong,
}

/// Incremental newline-delimited framing over a read-timeout socket.
///
/// `scanned` marks how much of `buf` is known to hold no newline, so
/// each byte is searched once however finely the peer trickles a line:
/// framing costs time linear in the bytes received.
struct LineReader<R> {
    stream: R,
    buf: Vec<u8>,
    scanned: usize,
    max_line: usize,
}

impl<R: Read> LineReader<R> {
    fn new(stream: R, max_line: usize) -> Self {
        Self {
            stream,
            buf: Vec::new(),
            scanned: 0,
            max_line,
        }
    }

    fn poll_line(&mut self) -> io::Result<ReadEvent> {
        loop {
            if let Some(i) = self.buf[self.scanned..].iter().position(|&b| b == b'\n') {
                let mut line: Vec<u8> = self.buf.drain(..=self.scanned + i).collect();
                self.scanned = 0;
                line.pop(); // the newline
                if line.last() == Some(&b'\r') {
                    line.pop(); // tolerate CRLF (telnet-style clients)
                }
                return Ok(ReadEvent::Line(line));
            }
            self.scanned = self.buf.len();
            if self.buf.len() > self.max_line {
                return Ok(ReadEvent::TooLong);
            }
            let mut chunk = [0u8; 4096];
            match self.stream.read(&mut chunk) {
                Ok(0) => return Ok(ReadEvent::Eof),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(ReadEvent::Tick),
                Err(e) if e.kind() == io::ErrorKind::TimedOut => return Ok(ReadEvent::Tick),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }
}

/// Whether the connection loop continues after a frame.
enum Flow {
    Continue,
    Close,
}

/// One worker-solved instance: index, retained bitstring, objective.
/// `None` payload marks a solve skipped due to cancellation.
type SolveOutcome = (usize, Option<(String, usize)>);

struct Connection<'a> {
    shared: &'a Shared,
    service: &'a Service,
    cfg: &'a ServerConfig,
}

impl Connection<'_> {
    fn run(&self, stream: TcpStream) {
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(POLL_TICK));
        let _ = stream.set_write_timeout(Some(self.cfg.write_timeout));
        let Ok(read_half) = stream.try_clone() else {
            return;
        };
        let mut reader = LineReader::new(read_half, self.cfg.max_line_bytes);
        let mut writer = stream;
        let mut idle = Duration::ZERO;
        let mut hello_done = false;
        // Sessions this connection has touched — each tenant counts a
        // given connection at most once.
        let mut seen_sessions: HashSet<String> = HashSet::new();

        loop {
            match reader.poll_line() {
                Ok(ReadEvent::Line(line)) => {
                    idle = Duration::ZERO;
                    self.shared.requests.fetch_add(1, Ordering::Relaxed);
                    counter!("serve.frames_in").inc();
                    match self.handle_line(&line, &mut writer, &mut hello_done, &mut seen_sessions)
                    {
                        Ok(Flow::Continue) => {}
                        Ok(Flow::Close) | Err(_) => break,
                    }
                }
                Ok(ReadEvent::Tick) => {
                    if self.shared.shutting_down() {
                        let err =
                            ProtoError::new(ErrorCode::ShuttingDown, "server is shutting down");
                        let _ = send(&mut writer, &error_frame(None, &err));
                        break;
                    }
                    idle += POLL_TICK;
                    if idle >= self.cfg.idle_timeout {
                        let err = ProtoError::new(ErrorCode::IdleTimeout, "connection idle");
                        let _ = send(&mut writer, &error_frame(None, &err));
                        break;
                    }
                }
                Ok(ReadEvent::Eof) => break,
                Ok(ReadEvent::TooLong) => {
                    // Framing is lost; one last typed error, then close.
                    let err = ProtoError::new(
                        ErrorCode::LineTooLong,
                        format!("request line exceeds {} bytes", self.cfg.max_line_bytes),
                    );
                    let _ = send(&mut writer, &error_frame(None, &err));
                    break;
                }
                Err(_) => break,
            }
        }
    }

    fn handle_line(
        &self,
        line: &[u8],
        writer: &mut TcpStream,
        hello_done: &mut bool,
        seen_sessions: &mut HashSet<String>,
    ) -> io::Result<Flow> {
        let Ok(text) = std::str::from_utf8(line) else {
            let err = ProtoError::new(ErrorCode::Parse, "request line is not valid UTF-8");
            send(writer, &error_frame(None, &err))?;
            return Ok(Flow::Continue);
        };
        let frame = parse_frame(text);
        let id = frame.id;
        let request = match frame.body {
            Ok(r) => r,
            Err(e) => {
                counter!("serve.errors").inc();
                send(writer, &error_frame(id.as_ref(), &e))?;
                return Ok(Flow::Continue);
            }
        };

        // Everything except hello/ping requires a completed handshake.
        if !*hello_done && !matches!(request, Request::Hello { .. } | Request::Ping) {
            let err = ProtoError::new(ErrorCode::NeedHello, "send hello before other requests");
            counter!("serve.errors").inc();
            send(writer, &error_frame(id.as_ref(), &err))?;
            return Ok(Flow::Continue);
        }

        // Tenant attribution: the first frame on this connection that
        // names a session counts one connection for that tenant.
        if let Some(session) = session_of(&request) {
            if seen_sessions.insert(session.to_string()) {
                self.shared.tenants.conn(session);
            }
        }

        // Every valid frame runs under a freshly minted request id with
        // a root span: spans opened anywhere downstream — including on
        // pool workers and inside the solver — stitch into one tree.
        let request_id = soc_obs::next_request_id();
        let started = Instant::now();
        let flow = {
            let _ctx = soc_obs::ctx_guard(Some(TraceCtx {
                request: request_id,
                parent: 0,
            }));
            let _root = soc_obs::span("serve_frame");
            self.dispatch(request, id.as_ref(), writer, hello_done, request_id)
        };
        // The root span closed, so the whole request tree is in the ring.
        if let Some(slow_ms) = self.cfg.slow_ms {
            let frame_us = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
            if frame_us >= slow_ms.saturating_mul(1000) {
                counter!("serve.slow_frames").inc();
                self.shared.flight.capture(request_id, frame_us);
            }
        }
        flow
    }

    /// Routes one parsed request. Runs inside the frame's root span and
    /// trace context, so every span it (or its pool jobs) opens carries
    /// `request_id`.
    fn dispatch(
        &self,
        request: Request,
        id: Option<&Json>,
        writer: &mut TcpStream,
        hello_done: &mut bool,
        request_id: u64,
    ) -> io::Result<Flow> {
        match request {
            Request::Hello { version } => {
                if version != PROTOCOL_VERSION {
                    let err = ProtoError::new(
                        ErrorCode::UnsupportedVersion,
                        format!(
                            "server speaks version {PROTOCOL_VERSION}, client asked for {version}"
                        ),
                    );
                    counter!("serve.errors").inc();
                    send(writer, &error_frame(id, &err))?;
                    return Ok(Flow::Continue);
                }
                *hello_done = true;
                send(
                    writer,
                    &reply_frame(
                        "hello_ok",
                        id,
                        vec![
                            ("version", json::nu(PROTOCOL_VERSION)),
                            ("server", json::s("soc-serve")),
                        ],
                    ),
                )?;
            }
            Request::Ping => {
                send(writer, &reply_frame("pong", id, vec![]))?;
            }
            Request::Load { session, data } => {
                self.reply_mutation(writer, id, "load_ok", &session, || {
                    self.shared.sessions.load(&session, &data)
                })?;
            }
            Request::Ingest { session, data } => {
                self.reply_mutation(writer, id, "ingest_ok", &session, || {
                    self.shared.sessions.ingest(&session, &data)
                })?;
            }
            Request::Solve { params, tuple } => {
                self.handle_solve(writer, id, params, tuple, request_id)?;
            }
            Request::SolveBatch { params, tuples } => {
                self.handle_solve_batch(writer, id, params, tuples, request_id)?;
            }
            Request::Stats { since } => match stats_frame(self.shared, id, since) {
                Ok(frame) => send(writer, &frame)?,
                Err(e) => {
                    counter!("serve.errors").inc();
                    send(writer, &error_frame(id, &e))?;
                }
            },
            Request::Trace { request } => {
                send(writer, &trace_frame(id, request))?;
            }
            Request::DumpFlight { request } => {
                send(writer, &flight_frame(self.shared, id, request))?;
            }
            Request::MetricsText => {
                send(
                    writer,
                    &reply_frame(
                        "metrics_text_ok",
                        id,
                        vec![
                            ("content_type", json::s("text/plain; version=0.0.4")),
                            ("body", json::s(soc_obs::metrics_prometheus())),
                        ],
                    ),
                )?;
            }
            Request::Shutdown => {
                send(writer, &reply_frame("shutdown_ok", id, vec![]))?;
                self.shared.begin_shutdown();
                return Ok(Flow::Close);
            }
        }
        Ok(Flow::Continue)
    }

    fn reply_mutation(
        &self,
        writer: &mut TcpStream,
        id: Option<&Json>,
        ok_type: &str,
        session: &str,
        op: impl FnOnce() -> Result<crate::sessions::SessionInfo, ProtoError>,
    ) -> io::Result<()> {
        match op() {
            Ok(info) => {
                self.shared.tenants.load(session);
                send(
                    writer,
                    &reply_frame(
                        ok_type,
                        id,
                        vec![
                            ("session", json::s(session)),
                            ("queries", json::nu(info.queries as u64)),
                            ("total_weight", json::nu(info.total_weight as u64)),
                            ("attrs", json::nu(info.attrs as u64)),
                        ],
                    ),
                )
            }
            Err(e) => {
                counter!("serve.errors").inc();
                self.shared.tenants.error(session);
                send(writer, &error_frame(id, &e))
            }
        }
    }

    /// Validates a solve request and pins the session log; shared by the
    /// single and batch paths.
    fn prepare(
        &self,
        params: &SolveParams,
        bits: &str,
    ) -> Result<(Arc<QueryLog>, Tuple), ProtoError> {
        let log = self.shared.sessions.get(&params.session)?;
        let tuple = Tuple::from_bitstring(bits).ok_or_else(|| {
            ProtoError::new(ErrorCode::BadField, format!("invalid tuple {bits:?}"))
        })?;
        if tuple.universe() != log.num_attrs() {
            return Err(ProtoError::new(
                ErrorCode::BadField,
                format!(
                    "tuple width {} does not match session width {}",
                    tuple.universe(),
                    log.num_attrs()
                ),
            ));
        }
        // Parse-time checks cannot see the session, so the upper bound
        // on the sketch cluster count lands here.
        if let Some(k) = params.clusters {
            if k > log.len() {
                return Err(ProtoError::new(
                    ErrorCode::BadField,
                    format!(
                        "clusters {k} exceeds the {} queries in session {:?}",
                        log.len(),
                        params.session
                    ),
                ));
            }
        }
        Ok((log, tuple))
    }

    fn handle_solve(
        &self,
        writer: &mut TcpStream,
        id: Option<&Json>,
        params: SolveParams,
        tuple: String,
        request_id: u64,
    ) -> io::Result<()> {
        let (log, tuple) = match self.prepare(&params, &tuple) {
            Ok(p) => p,
            Err(e) => {
                counter!("serve.errors").inc();
                self.shared.tenants.error(&params.session);
                return send(writer, &error_frame(id, &e));
            }
        };
        let (tx, rx) = mpsc::channel::<SolveOutcome>();
        let algo = params.algo;
        let m = params.m;
        let project = params.project;
        let clusters = params.clusters;
        let job = move || {
            let outcome = run_solve(&log, &tuple, m, algo, project, clusters);
            let _ = tx.send((0, Some(outcome)));
        };
        if self.service.submit(job).is_err() {
            let err = ProtoError::new(ErrorCode::ShuttingDown, "solver pool is shutting down");
            counter!("serve.errors").inc();
            return send(writer, &error_frame(id, &err));
        }
        // The pool stays alive for as long as this thread does, so this
        // recv can only fail if the job panicked (sender dropped unsent).
        match rx.recv() {
            Ok((_, Some((retained, satisfied)))) => {
                counter!("serve.solves").inc();
                self.shared.tenants.solve(&params.session);
                send(
                    writer,
                    &reply_frame(
                        "solve_ok",
                        id,
                        vec![
                            ("retained", json::s(retained)),
                            ("satisfied", json::nu(satisfied as u64)),
                            ("algo", json::s(algo.as_str())),
                            ("request", json::nu(request_id)),
                        ],
                    ),
                )
            }
            Ok((_, None)) | Err(_) => {
                let err = ProtoError::new(ErrorCode::Internal, "solver failed on this instance");
                counter!("serve.errors").inc();
                self.shared.tenants.error(&params.session);
                send(writer, &error_frame(id, &err))
            }
        }
    }

    fn handle_solve_batch(
        &self,
        writer: &mut TcpStream,
        id: Option<&Json>,
        params: SolveParams,
        tuples: Vec<String>,
        request_id: u64,
    ) -> io::Result<()> {
        // Validate every tuple before dispatching any work: a batch
        // either starts whole or not at all.
        let mut prepared = Vec::with_capacity(tuples.len());
        for (i, bits) in tuples.iter().enumerate() {
            match self.prepare(&params, bits) {
                Ok(p) => prepared.push(p),
                Err(mut e) => {
                    e.message = format!("tuples[{i}]: {}", e.message);
                    counter!("serve.errors").inc();
                    self.shared.tenants.error(&params.session);
                    return send(writer, &error_frame(id, &e));
                }
            }
        }

        let cancelled = Arc::new(AtomicBool::new(false));
        let (tx, rx) = mpsc::channel::<SolveOutcome>();
        let total = prepared.len();
        let mut dispatched = 0usize;
        for (i, (log, tuple)) in prepared.into_iter().enumerate() {
            let tx = tx.clone();
            let cancelled = Arc::clone(&cancelled);
            let algo = params.algo;
            let m = params.m;
            let project = params.project;
            let clusters = params.clusters;
            let job = move || {
                if cancelled.load(Ordering::Relaxed) {
                    let _ = tx.send((i, None));
                    return;
                }
                let outcome = run_solve(&log, &tuple, m, algo, project, clusters);
                let _ = tx.send((i, Some(outcome)));
            };
            if self.service.submit(job).is_err() {
                break; // pool shutting down; report the shortfall below
            }
            dispatched += 1;
        }
        drop(tx);

        // Stream results in completion order. A dead client cancels the
        // not-yet-started remainder but we still drain the channel so
        // worker sends never block (they cannot anyway — unbounded
        // channel — but draining keeps the accounting exact).
        let mut delivered = 0usize;
        let mut client_gone = false;
        for _ in 0..dispatched {
            let Ok((index, outcome)) = rx.recv() else {
                break; // a job panicked and dropped its sender
            };
            let Some((retained, satisfied)) = outcome else {
                continue; // cancelled after client_gone; nothing to report
            };
            counter!("serve.solves").inc();
            self.shared.tenants.solve(&params.session);
            if client_gone {
                continue;
            }
            let frame = reply_frame(
                "solve_result",
                id,
                vec![
                    ("index", json::nu(index as u64)),
                    ("retained", json::s(retained)),
                    ("satisfied", json::nu(satisfied as u64)),
                ],
            );
            if send(writer, &frame).is_err() {
                client_gone = true;
                cancelled.store(true, Ordering::Relaxed);
                counter!("serve.batch_client_disconnects").inc();
            } else {
                delivered += 1;
            }
        }

        if client_gone {
            // Surface the half-written batch as an I/O error so the
            // connection loop closes; the results channel is drained.
            return Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "client disconnected mid-batch",
            ));
        }
        if dispatched < total {
            let err = ProtoError::new(
                ErrorCode::ShuttingDown,
                format!(
                    "pool rejected {} of {} instances",
                    total - dispatched,
                    total
                ),
            );
            counter!("serve.errors").inc();
            self.shared.tenants.error(&params.session);
            return send(writer, &error_frame(id, &err));
        }
        send(
            writer,
            &reply_frame(
                "solve_batch_done",
                id,
                vec![
                    ("count", json::nu(total as u64)),
                    ("delivered", json::nu(delivered as u64)),
                    ("request", json::nu(request_id)),
                ],
            ),
        )
    }
}

/// The session a request addresses, if any.
fn session_of(request: &Request) -> Option<&str> {
    match request {
        Request::Load { session, .. } | Request::Ingest { session, .. } => Some(session),
        Request::Solve { params, .. } | Request::SolveBatch { params, .. } => Some(&params.session),
        _ => None,
    }
}

/// Records `us` into the per-algorithm solve-latency sketch. One match
/// arm per algorithm because `sketch!` interns per call site.
fn record_solve_us(algo: Algo, us: u64) {
    match algo {
        Algo::Brute => sketch!("serve.solve_us.brute").record(us),
        Algo::Ilp => sketch!("serve.solve_us.ilp").record(us),
        Algo::Mfi => sketch!("serve.solve_us.mfi").record(us),
        Algo::MfiDet => sketch!("serve.solve_us.mfi-det").record(us),
        Algo::Attr => sketch!("serve.solve_us.attr").record(us),
        Algo::Cumul => sketch!("serve.solve_us.cumul").record(us),
        Algo::Queries => sketch!("serve.solve_us.queries").record(us),
        Algo::Local => sketch!("serve.solve_us.local").record(us),
        Algo::Sketch => sketch!("serve.solve_us.sketch").record(us),
    }
}

/// Runs one solve; executes on a pool worker under the submitting
/// frame's trace context, so this span (and the solver spans below it)
/// carries the frame's request id.
fn run_solve(
    log: &QueryLog,
    tuple: &Tuple,
    m: usize,
    algo: crate::proto::Algo,
    project: bool,
    clusters: Option<usize>,
) -> (String, usize) {
    let _span = soc_obs::span("solve_instance");
    let t0 = soc_obs::metrics_then_now();
    let instance = SocInstance::new(log, tuple, m);
    // The sketch solver is sized here rather than in `Algo::build`
    // because the derived cluster count depends on the session log.
    let boxed: Box<dyn SocAlgorithm> = match algo {
        crate::proto::Algo::Sketch => Box::new(soc_core::SketchSolver::new(
            clusters.unwrap_or_else(|| soc_core::default_clusters(log.len())),
        )),
        other => other.build(),
    };
    let algo_ref: &dyn SocAlgorithm = &*boxed;
    // `project` composes with sketch but is redundant there — the sketch
    // already solves on the per-tuple projection internally.
    let solution = if project {
        soc_core::Projected(algo_ref).solve(&instance)
    } else {
        algo_ref.solve(&instance)
    };
    if let Some(t0) = t0 {
        record_solve_us(algo, soc_obs::clock::elapsed_us(t0));
    }
    (solution.retained.to_bitstring(), solution.satisfied)
}

fn send(writer: &mut TcpStream, frame: &str) -> io::Result<()> {
    counter!("serve.frames_out").inc();
    writer.write_all(frame.as_bytes())
}

/// One span as a JSON object (shared by `stats` and `trace` replies).
fn span_json(r: &soc_obs::SpanRecord) -> Json {
    json::obj([
        ("name", json::s(r.name)),
        ("id", json::nu(r.id)),
        ("parent", json::nu(r.parent)),
        ("request", json::nu(r.request)),
        ("thread", json::nu(r.thread)),
        ("start_ns", json::nu(r.start_ns)),
        ("dur_ns", json::nu(r.dur_ns)),
    ])
}

/// Renders the `stats_ok` frame: live registry snapshot, a bounded
/// page of recent spans addressed by the `since` cursor, per-tenant
/// counters, and server-level gauges.
fn stats_frame(
    shared: &Shared,
    id: Option<&Json>,
    since: Option<u64>,
) -> Result<String, ProtoError> {
    let since = since.unwrap_or(0);
    let (page, cursor) = soc_obs::flight::page(since, STATS_SPANS_MAX).map_err(|next| {
        ProtoError::new(
            ErrorCode::BadField,
            format!("since {since} is beyond the span cursor {next}"),
        )
    })?;
    let snapshot = soc_obs::registry().snapshot();
    let metrics: Vec<(String, Json)> = snapshot
        .rows
        .iter()
        .map(|row| {
            let value = match &row.value {
                MetricValue::Counter(v) => json::nu(*v),
                MetricValue::Gauge(v) => Json::Num(*v as f64),
                MetricValue::Float(v) => Json::Num(*v),
                MetricValue::Sketch(s) => json::obj([
                    ("count", json::nu(s.count)),
                    ("sum", json::nu(s.sum)),
                    ("max", json::nu(s.max)),
                    ("mean", Json::Num(s.mean())),
                    ("p50", Json::Num(s.quantile(0.5))),
                    ("p90", Json::Num(s.quantile(0.9))),
                    ("p99", Json::Num(s.quantile(0.99))),
                    ("p999", Json::Num(s.quantile(0.999))),
                ]),
            };
            (row.name.clone(), value)
        })
        .collect();

    let spans: Vec<Json> = page
        .iter()
        .map(|s| {
            let Json::Obj(mut fields) = span_json(&s.span) else {
                unreachable!("span_json returns an object");
            };
            fields.insert(0, ("seq".to_string(), json::nu(s.seq)));
            Json::Obj(fields)
        })
        .collect();

    let tenants: Vec<(String, Json)> = shared
        .tenants
        .snapshot()
        .into_iter()
        .map(|(name, c)| {
            (
                name,
                json::obj([
                    ("conns", json::nu(c.conns)),
                    ("loads", json::nu(c.loads)),
                    ("solves", json::nu(c.solves)),
                    ("errors", json::nu(c.errors)),
                ]),
            )
        })
        .collect();

    Ok(reply_frame(
        "stats_ok",
        id,
        vec![
            ("metrics", Json::Obj(metrics)),
            ("spans", Json::Arr(spans)),
            ("spans_cursor", json::nu(cursor)),
            ("tenants", Json::Obj(tenants)),
            ("postmortems", json::nu(shared.flight.len() as u64)),
            ("sessions", json::nu(shared.sessions.len() as u64)),
            (
                "active_conns",
                json::nu(shared.active_conns.load(Ordering::SeqCst) as u64),
            ),
        ],
    ))
}

/// Renders the `trace_ok` frame: every retained span of one request,
/// oldest first — the stitched cross-thread tree.
fn trace_frame(id: Option<&Json>, request: u64) -> String {
    let records = soc_obs::flight::for_request(request);
    let spans: Vec<Json> = records.iter().map(span_json).collect();
    reply_frame(
        "trace_ok",
        id,
        vec![
            ("request", json::nu(request)),
            ("count", json::nu(spans.len() as u64)),
            ("spans", Json::Arr(spans)),
        ],
    )
}

/// Most flight records one `flight_ok` frame carries.
const FLIGHT_DUMP_MAX: usize = 1024;

/// Renders the `flight_ok` frame: a flight-recorder dump, either the
/// whole live ring or one request's spans (postmortem-pinned when a
/// slow-frame capture exists). Every record is a span, so `kind` is
/// always `"span"` and `detail` always 0.
fn flight_frame(shared: &Shared, id: Option<&Json>, request: Option<u64>) -> String {
    let (mut records, source, frame_us) = shared.flight.dump(request);
    let total = records.len();
    if total > FLIGHT_DUMP_MAX {
        records.drain(..total - FLIGHT_DUMP_MAX); // keep the newest
    }
    let rows: Vec<Json> = records
        .iter()
        .map(|r| {
            json::obj([
                ("name", json::s(r.name)),
                ("kind", json::s("span")),
                ("id", json::nu(r.id)),
                ("parent", json::nu(r.parent)),
                ("request", json::nu(r.request)),
                ("thread", json::nu(r.thread)),
                ("start_ns", json::nu(r.start_ns)),
                ("dur_ns", json::nu(r.dur_ns)),
                ("detail", json::nu(0)),
            ])
        })
        .collect();
    let mut fields = vec![
        ("source", json::s(source)),
        ("count", json::nu(rows.len() as u64)),
        ("truncated", json::nu((total - rows.len()) as u64)),
    ];
    if let Some(r) = request {
        fields.push(("request", json::nu(r)));
    }
    if let Some(us) = frame_us {
        fields.push(("frame_us", json::nu(us)));
    }
    fields.push(("records", Json::Arr(rows)));
    reply_frame("flight_ok", id, fields)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serves `data` in `piece`-byte reads, then EOF. Fails any read
    /// made after `budget` has elapsed, so quadratic framing fails fast
    /// instead of hanging the suite.
    struct Trickle {
        data: Vec<u8>,
        pos: usize,
        piece: usize,
        started: Instant,
        budget: Duration,
    }

    impl Read for Trickle {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            if self.started.elapsed() > self.budget {
                return Err(io::Error::other("framing exceeded its time budget"));
            }
            let n = self.piece.min(out.len()).min(self.data.len() - self.pos);
            out[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    fn line(event: ReadEvent) -> Vec<u8> {
        match event {
            ReadEvent::Line(l) => l,
            ReadEvent::Tick => panic!("unexpected tick"),
            ReadEvent::Eof => panic!("unexpected eof"),
            ReadEvent::TooLong => panic!("unexpected too-long"),
        }
    }

    #[test]
    fn trickled_long_line_frames_in_linear_time() {
        // A line just under the limit, trickled 64 bytes per read, then
        // a CRLF and two pipelined lines. Rescanning the whole buffer on
        // every read costs ~2^16 scans of up to 4 MiB here — minutes —
        // while one pass over the bytes takes milliseconds.
        let max_line = 4 << 20;
        let big = vec![b'x'; max_line - 8];
        let mut data = big.clone();
        data.extend_from_slice(b"\r\n{\"a\":1}\nlast\r\n");
        let mut reader = LineReader::new(
            Trickle {
                data,
                pos: 0,
                piece: 64,
                started: Instant::now(),
                budget: Duration::from_secs(5),
            },
            max_line,
        );
        assert_eq!(line(reader.poll_line().unwrap()), big);
        assert_eq!(line(reader.poll_line().unwrap()), b"{\"a\":1}");
        assert_eq!(line(reader.poll_line().unwrap()), b"last");
        assert!(matches!(reader.poll_line().unwrap(), ReadEvent::Eof));
    }

    #[test]
    fn trickled_oversized_line_is_too_long() {
        // Memory stays bounded: past the limit the reader stops reading.
        let mut reader = LineReader::new(
            Trickle {
                data: vec![b'x'; 1 << 20],
                pos: 0,
                piece: 100,
                started: Instant::now(),
                budget: Duration::from_secs(5),
            },
            4096,
        );
        assert!(matches!(reader.poll_line().unwrap(), ReadEvent::TooLong));
        assert!(reader.buf.len() <= 4096 + 100);
    }
}
