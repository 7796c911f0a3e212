//! The loopback client: spawns `soc serve`, loads the session, and
//! drives the timed phase over at most two connections on at most two
//! threads (the calling thread plus one).

use std::collections::VecDeque;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use soc_serve::json::{self, Json};

use crate::workload::{Inputs, Kind, BATCH, HELLO, INGEST_PER_S, LOG_ROWS};

/// Longest a closed-loop request may wait for its reply before the run
/// counts it as never answered.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);
/// Untimed requests per connection before the timed phase: the first
/// full-log solve builds the session's index.
const WARMUP_SOLVES: usize = 20;
const WARMUP_BATCHES: usize = 2;

/// A `soc serve --threads 2` child process, killed and reaped on drop.
pub struct ServerProc {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
}

impl ServerProc {
    /// Spawns the server on an ephemeral loopback port and waits for its
    /// `listening on` announcement.
    pub fn spawn(soc: &Path) -> io::Result<ServerProc> {
        let mut child = Command::new(soc)
            .args([
                "serve",
                "--threads",
                "2",
                "--port",
                "0",
                "--host",
                "127.0.0.1",
            ])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        stdout.read_line(&mut line)?;
        let addr = line.trim().rsplit(' ').next().and_then(|a| a.parse().ok());
        match addr {
            Some(addr) => Ok(ServerProc {
                child,
                _stdout: stdout,
                addr,
            }),
            None => {
                let _ = child.kill();
                let _ = child.wait();
                Err(io::Error::other(format!(
                    "server did not announce its address: {line:?}"
                )))
            }
        }
    }

    /// The child's peak resident set (`VmHWM`), in MiB.
    pub fn peak_rss_mb(&self) -> io::Result<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| io::Error::other("no VmHWM in /proc status"))
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One newline-framed client connection.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    scanned: usize,
}

impl Conn {
    /// Connects and completes the `hello` handshake.
    pub fn open(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let mut conn = Conn {
            stream,
            buf: Vec::new(),
            scanned: 0,
        };
        conn.send(HELLO)?;
        let reply = conn.recv()?;
        if reply_type(&reply) != "hello_ok" {
            return Err(io::Error::other(format!("hello refused: {reply}")));
        }
        Ok(conn)
    }

    /// Writes one frame (which ends in a newline).
    pub fn send(&mut self, frame: &str) -> io::Result<()> {
        self.stream.write_all(frame.as_bytes())
    }

    /// The next reply line, waiting at most [`REPLY_TIMEOUT`].
    pub fn recv(&mut self) -> io::Result<String> {
        self.recv_until(Instant::now() + REPLY_TIMEOUT)?
            .ok_or_else(|| io::Error::new(io::ErrorKind::TimedOut, "no reply"))
    }

    /// The next reply line, or `None` once `deadline` passes first.
    pub fn recv_until(&mut self, deadline: Instant) -> io::Result<Option<String>> {
        loop {
            if let Some(pos) = self.buf[self.scanned..].iter().position(|&b| b == b'\n') {
                let end = self.scanned + pos;
                let line = String::from_utf8_lossy(&self.buf[..end]).into_owned();
                self.buf.drain(..=end);
                self.scanned = 0;
                return Ok(Some(line));
            }
            self.scanned = self.buf.len();
            let now = Instant::now();
            if now >= deadline || !wait_readable(&self.stream, deadline - now)? {
                return Ok(None);
            }
            let mut chunk = [0u8; 16384];
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "server closed",
                    ))
                }
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: u64,
        timeout: *const Timespec,
        sigmask: *const std::ffi::c_void,
    ) -> i32;
}

/// Waits until `stream` is readable or `timeout` passes. `ppoll` sleeps
/// on a high-resolution timer; a socket read timeout would round up to
/// scheduler ticks and make the ingest pacer send milliseconds late.
fn wait_readable(stream: &TcpStream, timeout: Duration) -> io::Result<bool> {
    let mut fd = PollFd {
        fd: stream.as_raw_fd(),
        events: 0x001, // POLLIN
        revents: 0,
    };
    let ts = Timespec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `fd` and `ts` are valid for the call, and one descriptor
    // is passed; a null signal mask leaves the mask unchanged.
    let n = unsafe { ppoll(&mut fd, 1, &ts, std::ptr::null()) };
    match n {
        n if n > 0 => Ok(true),
        0 => Ok(false),
        _ => {
            let e = io::Error::last_os_error();
            if e.kind() == io::ErrorKind::Interrupted {
                Ok(false)
            } else {
                Err(e)
            }
        }
    }
}

/// The `type` field of a reply line (empty if it does not parse).
pub fn reply_type(line: &str) -> String {
    json::parse(line)
        .ok()
        .and_then(|v| v.get("type").and_then(Json::as_str).map(str::to_string))
        .unwrap_or_default()
}

/// A loaded server ready for the timed phase.
pub struct Setup {
    pub server: ServerProc,
    pub conn: Conn,
    /// Server spawn to `load_ok`, in seconds.
    pub setup_s: f64,
    /// The `load` frame alone, send to `load_ok`, in milliseconds.
    pub load_ms: f64,
}

/// Spawns a server and loads the session log into it.
pub fn setup(soc: &Path, inputs: &Inputs, load_frame: &str) -> io::Result<Setup> {
    let t0 = Instant::now();
    let server = ServerProc::spawn(soc)?;
    let mut conn = Conn::open(server.addr)?;
    let t_load = Instant::now();
    conn.send(load_frame)?;
    let reply = conn.recv()?;
    let done = Instant::now();
    let queries = json::parse(&reply)
        .ok()
        .filter(|v| v.get("type").and_then(Json::as_str) == Some("load_ok"))
        .and_then(|v| v.get("queries").and_then(Json::as_u64));
    if queries != Some(inputs.mirror.len() as u64) {
        return Err(io::Error::other(format!(
            "load answered {}",
            reply.chars().take(200).collect::<String>()
        )));
    }
    Ok(Setup {
        server,
        conn,
        setup_s: (done - t0).as_secs_f64(),
        load_ms: (done - t_load).as_secs_f64() * 1e3,
    })
}

/// One `solve` frame and its answer.
pub struct SolveRec {
    pub tuple: String,
    /// `(retained, satisfied)` when the reply was `solve_ok`.
    pub answer: Option<(String, u64)>,
    /// The raw reply when it was not a well-formed `solve_ok`.
    pub bad_reply: Option<String>,
    pub latency_ms: f64,
    /// Ingests acknowledged before the send (`ingest_mix`).
    pub acked_before: usize,
    /// Ingests sent before the reply arrived (`ingest_mix`).
    pub sent_before_reply: usize,
    pub timed: bool,
}

/// One `ingest` frame, timed from its due time.
pub struct IngestRec {
    pub latency_ms: f64,
    /// How late the pacer sent it.
    pub late_ms: f64,
    pub ok: bool,
}

/// One `solve_batch` frame and its per-tuple answers.
pub struct BatchRec {
    pub batch: usize,
    pub answers: Vec<Option<(String, u64)>>,
    pub bad_reply: Option<String>,
    pub latency_ms: f64,
    pub timed: bool,
}

/// What the timed phase observed.
#[derive(Default)]
pub struct Timed {
    pub solves: Vec<SolveRec>,
    pub ingests: Vec<IngestRec>,
    pub batches: Vec<BatchRec>,
    /// Frames never answered because their connection failed.
    pub lost: usize,
    /// Connection-level failures, for the report.
    pub errors: Vec<String>,
    /// Seconds from the start of the timed phase to its last reply.
    pub window_s: f64,
}

/// Ingest counters shared between the pacer and the solve loop, from
/// which each solve's admissible log versions are bracketed.
#[derive(Default)]
struct Versions {
    sent: AtomicUsize,
    acked: AtomicUsize,
}

/// Runs the timed phase of `inputs.kind` for `seconds` against the
/// server at `addr`, using `conn` as the first connection. `batch_exact`
/// starts at place `first_batch` of its batch sequence.
pub fn run_timed(
    inputs: &Inputs,
    addr: SocketAddr,
    conn: Conn,
    seconds: f64,
    first_batch: usize,
) -> Timed {
    if inputs.kind == Kind::BatchExact {
        return batch_loop(inputs, conn, seconds, first_batch);
    }
    let second = match Conn::open(addr) {
        Ok(c) => c,
        Err(e) => {
            let mut timed = Timed::default();
            timed.fail(1, format!("second connection: {e}"));
            return timed;
        }
    };
    let barrier = Barrier::new(2);
    let versions = Versions::default();
    let ingesting = inputs.kind == Kind::IngestMix;
    std::thread::scope(|s| {
        let other = s.spawn(|| {
            if ingesting {
                pace_ingests(inputs, second, &barrier, seconds, &versions)
            } else {
                solve_loop(inputs, 1, second, &barrier, seconds, None)
            }
        });
        let mut timed = solve_loop(
            inputs,
            0,
            conn,
            &barrier,
            seconds,
            ingesting.then_some(&versions),
        );
        timed.absorb(other.join().expect("client thread panicked"));
        timed
    })
}

impl Timed {
    /// Adds another connection's observations to this one's.
    fn absorb(&mut self, other: Timed) {
        self.solves.extend(other.solves);
        self.ingests.extend(other.ingests);
        self.batches.extend(other.batches);
        self.lost += other.lost;
        self.errors.extend(other.errors);
        self.window_s = self.window_s.max(other.window_s);
    }

    /// Records a connection failure that left `frames` frames unanswered.
    fn fail(&mut self, frames: usize, error: String) {
        self.lost += frames;
        self.errors.push(error);
    }
}

/// Closed loop: back-to-back `solve` frames of fresh tuples until the
/// timed phase ends.
fn solve_loop(
    inputs: &Inputs,
    conn_no: u64,
    mut conn: Conn,
    barrier: &Barrier,
    seconds: f64,
    versions: Option<&Versions>,
) -> Timed {
    let mut next_tuple = inputs.tuple_stream(conn_no);
    let mut out = Timed::default();
    let mut one = |conn: &mut Conn, id: u64, timed: bool| -> io::Result<SolveRec> {
        let tuple = next_tuple();
        let frame = inputs.solve_frame(id, &tuple);
        let acked_before = versions.map_or(0, |v| v.acked.load(Ordering::SeqCst));
        let t0 = Instant::now();
        conn.send(&frame)?;
        let reply = conn.recv()?;
        let latency_ms = t0.elapsed().as_secs_f64() * 1e3;
        let sent_before_reply = versions.map_or(0, |v| v.sent.load(Ordering::SeqCst));
        let answer = json::parse(&reply)
            .ok()
            .and_then(|v| answer_of(&v, "solve_ok"));
        Ok(SolveRec {
            tuple,
            bad_reply: answer.is_none().then_some(reply),
            answer,
            latency_ms,
            acked_before,
            sent_before_reply,
            timed,
        })
    };
    let mut id = 0u64;
    let mut warm = Ok(());
    for _ in 0..WARMUP_SOLVES {
        match one(&mut conn, id, false) {
            Ok(r) => out.solves.push(r),
            Err(e) => {
                warm = Err(e);
                break;
            }
        }
        id += 1;
    }
    barrier.wait();
    if let Err(e) = warm {
        out.fail(1, format!("warm-up solve: {e}"));
        return out;
    }
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    while Instant::now() < deadline {
        match one(&mut conn, id, true) {
            Ok(r) => out.solves.push(r),
            Err(e) => {
                out.fail(1, format!("solve: {e}"));
                break;
            }
        }
        id += 1;
    }
    out.window_s = start.elapsed().as_secs_f64();
    out
}

/// Open loop on one thread: one-row `ingest` frames sent on a fixed
/// 50-per-second schedule whatever the replies do; each is timed from
/// its due time. Replies are read while waiting for the next due time.
fn pace_ingests(
    inputs: &Inputs,
    mut conn: Conn,
    barrier: &Barrier,
    seconds: f64,
    versions: &Versions,
) -> Timed {
    barrier.wait();
    let interval = Duration::from_secs(1) / INGEST_PER_S as u32;
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut out = Timed::default();
    // (row index, due time, lateness) of ingests awaiting their reply.
    let mut waiting: VecDeque<(usize, Instant, f64)> = VecDeque::new();
    let mut k = 0usize;
    let mut on_reply = |line: String, waiting: &mut VecDeque<(usize, Instant, f64)>| {
        let now = Instant::now();
        let Some((row, due, late_ms)) = waiting.pop_front() else {
            return;
        };
        let queries = json::parse(&line)
            .ok()
            .filter(|v| v.get("type").and_then(Json::as_str) == Some("ingest_ok"))
            .and_then(|v| v.get("queries").and_then(Json::as_u64));
        let ok = queries == Some((LOG_ROWS + row + 1) as u64);
        if ok {
            versions.acked.fetch_add(1, Ordering::SeqCst);
        }
        out.ingests.push(IngestRec {
            latency_ms: (now - due).as_secs_f64() * 1e3,
            late_ms,
            ok,
        });
    };
    let result: io::Result<()> = (|| {
        loop {
            let due = start + interval * k as u32;
            if due >= deadline || k >= inputs.ingest_rows.len() {
                break;
            }
            let now = Instant::now();
            if now >= due {
                versions.sent.fetch_add(1, Ordering::SeqCst);
                conn.send(&inputs.ingest_frame(k))?;
                waiting.push_back((k, due, (now - due).as_secs_f64() * 1e3));
                k += 1;
                continue;
            }
            if let Some(line) = conn.recv_until(due)? {
                on_reply(line, &mut waiting);
            }
        }
        while !waiting.is_empty() {
            let line = conn.recv()?;
            on_reply(line, &mut waiting);
        }
        Ok(())
    })();
    if let Err(e) = result {
        out.fail(waiting.len().max(1), format!("ingest: {e}"));
    }
    out.window_s = start.elapsed().as_secs_f64();
    out
}

/// Closed loop on one connection: `solve_batch` frames cycling through
/// the fixed batch sequence from place `first`; each is timed to its
/// `solve_batch_done`.
fn batch_loop(inputs: &Inputs, mut conn: Conn, seconds: f64, first: usize) -> Timed {
    let mut out = Timed::default();
    let one = |conn: &mut Conn, seq: usize, timed: bool| -> io::Result<BatchRec> {
        let batch = seq % inputs.batches.len();
        let frame = inputs.batch_frame(seq as u64, &inputs.batches[batch]);
        let t0 = Instant::now();
        conn.send(&frame)?;
        let mut answers = vec![None; BATCH];
        let mut bad_reply = None;
        loop {
            let line = conn.recv()?;
            let value = json::parse(&line).ok();
            let ty = value
                .as_ref()
                .and_then(|v| v.get("type"))
                .and_then(Json::as_str);
            if ty == Some("solve_batch_done") {
                break;
            }
            let index = value
                .as_ref()
                .and_then(|v| v.get("index"))
                .and_then(Json::as_u64)
                .and_then(|i| usize::try_from(i).ok());
            let answer = value.as_ref().and_then(|v| answer_of(v, "solve_result"));
            match (index, answer) {
                (Some(i), Some(a)) if i < BATCH && answers[i].is_none() => answers[i] = Some(a),
                _ if ty == Some("solve_result") => bad_reply = Some(line),
                _ => {
                    bad_reply = Some(line);
                    break;
                }
            }
        }
        Ok(BatchRec {
            batch,
            answers,
            bad_reply,
            latency_ms: t0.elapsed().as_secs_f64() * 1e3,
            timed,
        })
    };
    let mut seq = first;
    for _ in 0..WARMUP_BATCHES {
        match one(&mut conn, seq, false) {
            Ok(r) => out.batches.push(r),
            Err(e) => {
                out.fail(1, format!("warm-up batch: {e}"));
                return out;
            }
        }
        seq += 1;
    }
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    while Instant::now() < deadline {
        match one(&mut conn, seq, true) {
            Ok(r) => out.batches.push(r),
            Err(e) => {
                out.fail(1, format!("batch: {e}"));
                break;
            }
        }
        seq += 1;
    }
    out.window_s = start.elapsed().as_secs_f64();
    out
}

/// `(retained, satisfied)` from a parsed reply of type `ty`.
fn answer_of(v: &Json, ty: &str) -> Option<(String, u64)> {
    if v.get("type").and_then(Json::as_str) != Some(ty) {
        return None;
    }
    let retained = v.get("retained")?.as_str()?.to_string();
    let satisfied = v.get("satisfied")?.as_u64()?;
    Some((retained, satisfied))
}
