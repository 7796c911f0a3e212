//! The traced run: an in-process replay of a workload's seeded request
//! sequence with the server's structure — two "connection" threads, one
//! [`SessionStore`] and one [`soc_pool::Service`] of two workers —
//! calling the same public functions `soc serve` calls, in the same
//! order.
//!
//! Spans are `soc-obs` spans. A traced replay turns `soc-obs` tracing
//! and metrics on, runs every frame under its own request context (as
//! the server does), and wraps each public call in a span; the pool
//! carries the context into its jobs. The program's own spans
//! (`index_build`, `solve_mip`) and solver counters land in the same
//! collector, so index builds and branch-and-bound work are read from
//! the program rather than counted by the replay. An untraced replay
//! turns every `soc-obs` subsystem off.

use std::collections::HashMap;
use std::path::Path;
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use soc_core::SocInstance;
use soc_data::{io, QueryLog, Tuple};
use soc_obs::{SpanRecord, TraceCtx};
use soc_pool::Service;
use soc_serve::json;
use soc_serve::proto::{parse_frame, reply_frame};
use soc_serve::{Request, SessionStore, SolveParams};

use crate::stats::{median, quantile};
use crate::workload::{Inputs, Kind, INGEST_PER_S};

/// The frame types a workload sends.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FrameKind {
    Load,
    Solve,
    Ingest,
    Batch,
}

impl FrameKind {
    pub fn name(self) -> &'static str {
        match self {
            FrameKind::Load => "load",
            FrameKind::Solve => "solve",
            FrameKind::Ingest => "ingest",
            FrameKind::Batch => "solve_batch",
        }
    }

    /// The closed-loop request frame of a workload.
    pub fn primary(kind: Kind) -> FrameKind {
        match kind {
            Kind::SolveProjected | Kind::IngestMix => FrameKind::Solve,
            Kind::BatchExact => FrameKind::Batch,
        }
    }
}

/// Median latency in ms per `(frame kind, key)`, where the key tells
/// apart frames whose cost differs by design: the batch's place in the
/// fixed batch sequence, and 0 for every other frame.
pub type Latencies = HashMap<(FrameKind, usize), f64>;

/// One replayed frame: its kind and key, request id and in-process total.
struct FrameRec {
    kind: FrameKind,
    key: usize,
    request: u64,
    total_us: f64,
}

/// What traced pool jobs record besides spans.
#[derive(Default)]
struct JobLog {
    /// `Service::submit` to job start, in microseconds.
    queue_wait_us: Vec<f64>,
    /// Queries kept ÷ queries scanned, per projection.
    kept_frac: Vec<f64>,
}

/// The pool-job body of one solve: the server's `run_solve`, with the
/// projection and the solve it feeds in spans of their own.
fn solve_job(
    log: &QueryLog,
    tuple: &Tuple,
    p: &SolveParams,
    jobs: &Mutex<JobLog>,
) -> (String, usize) {
    let instance = SocInstance::new(log, tuple, p.m);
    let algo = p.algo.build();
    let solution = if p.project {
        // `Projected(algo).solve(&instance)`, split at its two calls.
        let reduced = {
            let _s = soc_obs::span("data.project");
            instance.reduced()
        };
        if soc_obs::tracing_enabled() {
            let kept = reduced.log().total_weight() as f64 / log.total_weight() as f64;
            jobs.lock().expect("job log poisoned").kept_frac.push(kept);
        }
        let _s = soc_obs::span("core.solve");
        reduced.solve_with(&*algo, &instance)
    } else {
        let _s = soc_obs::span("core.solve");
        algo.solve(&instance)
    };
    (solution.retained.to_bitstring(), solution.satisfied)
}

/// The replayed server.
struct Replayer<'a> {
    inputs: &'a Inputs,
    store: SessionStore,
    service: Service,
    jobs: Arc<Mutex<JobLog>>,
    frames: Mutex<Vec<FrameRec>>,
    parse_log_ms: Mutex<Vec<f64>>,
    rows_before_ingest: Mutex<Vec<f64>>,
}

type Outcome = (usize, String, usize);

impl Replayer<'_> {
    /// Handles one frame the way the server's connection thread does:
    /// a fresh request id, a context guard and a root span around the
    /// parse, the layer calls and the reply rendering.
    fn frame(&self, text: &str, kind: FrameKind, key: usize) {
        let request = soc_obs::next_request_id();
        let t0 = Instant::now();
        {
            let _ctx = soc_obs::ctx_guard(Some(TraceCtx { request, parent: 0 }));
            let _root = soc_obs::span("serve_frame");
            self.dispatch(text, request);
        }
        self.frames
            .lock()
            .expect("frame log poisoned")
            .push(FrameRec {
                kind,
                key,
                request,
                total_us: t0.elapsed().as_secs_f64() * 1e6,
            });
    }

    fn dispatch(&self, text: &str, request_id: u64) {
        let frame = {
            let _s = soc_obs::span("serve.parse_frame");
            parse_frame(text)
        };
        let id = frame.id;
        let render = |ty: &str, fields| {
            let _s = soc_obs::span("serve.render");
            reply_frame(ty, id.as_ref(), fields)
        };
        match frame.body.expect("replayed frames are well formed") {
            Request::Load { session, data } => {
                let info = {
                    let _s = soc_obs::span("sessions.load");
                    self.store.load(&session, &data).expect("load")
                };
                render("load_ok", mutation_fields(&session, info));
            }
            Request::Ingest { session, data } => {
                let info = {
                    let _s = soc_obs::span("sessions.ingest");
                    self.store.ingest(&session, &data).expect("ingest")
                };
                self.rows_before_ingest
                    .lock()
                    .expect("ingest log poisoned")
                    .push((info.queries - 1) as f64);
                render("ingest_ok", mutation_fields(&session, info));
            }
            Request::Solve { params, tuple } => {
                let (log, t) = self.prepare(&params, &tuple);
                let (tx, rx) = mpsc::channel();
                self.submit(log, t, params.clone(), 0, tx);
                let (_, retained, satisfied) = rx.recv().expect("solve job ran");
                render(
                    "solve_ok",
                    vec![
                        ("retained", json::s(retained)),
                        ("satisfied", json::nu(satisfied as u64)),
                        ("algo", json::s(params.algo.as_str())),
                        ("request", json::nu(request_id)),
                    ],
                );
            }
            Request::SolveBatch { params, tuples } => {
                let prepared: Vec<_> = tuples
                    .iter()
                    .map(|bits| self.prepare(&params, bits))
                    .collect();
                let total = prepared.len();
                let (tx, rx) = mpsc::channel();
                for (i, (log, t)) in prepared.into_iter().enumerate() {
                    self.submit(log, t, params.clone(), i, tx.clone());
                }
                drop(tx);
                for _ in 0..total {
                    let (index, retained, satisfied) = rx.recv().expect("batch job ran");
                    render(
                        "solve_result",
                        vec![
                            ("index", json::nu(index as u64)),
                            ("retained", json::s(retained)),
                            ("satisfied", json::nu(satisfied as u64)),
                        ],
                    );
                }
                render(
                    "solve_batch_done",
                    vec![
                        ("count", json::nu(total as u64)),
                        ("delivered", json::nu(total as u64)),
                        ("request", json::nu(request_id)),
                    ],
                );
            }
            other => unreachable!("the replay never sends {other:?}"),
        }
    }

    /// The server's `prepare`: pin the session log, parse the tuple.
    fn prepare(&self, p: &SolveParams, bits: &str) -> (Arc<QueryLog>, Tuple) {
        let log = {
            let _s = soc_obs::span("sessions.get");
            self.store.get(&p.session).expect("session exists")
        };
        (log, Tuple::from_bitstring(bits).expect("generated tuple"))
    }

    /// Submits one solve job; `Service::submit` carries the frame's
    /// trace context into it.
    fn submit(
        &self,
        log: Arc<QueryLog>,
        tuple: Tuple,
        params: SolveParams,
        index: usize,
        tx: mpsc::Sender<Outcome>,
    ) {
        let jobs = Arc::clone(&self.jobs);
        let submitted = soc_obs::tracing_enabled().then(Instant::now);
        let job = move || {
            if let Some(t) = submitted {
                let wait_us = t.elapsed().as_secs_f64() * 1e6;
                jobs.lock()
                    .expect("job log poisoned")
                    .queue_wait_us
                    .push(wait_us);
            }
            let (retained, satisfied) = {
                let _s = soc_obs::span("pool.run");
                solve_job(&log, &tuple, &params, &jobs)
            };
            let _ = tx.send((index, retained, satisfied));
        };
        if self.service.submit(job).is_err() {
            panic!("replay pool rejected a job");
        }
    }

    /// `load` replayed `n` times; `io::parse_query_log` is timed by a
    /// separate call on the same text because `SessionStore::load` makes
    /// it internally.
    fn loads(&self, n: usize) {
        let text = self.inputs.load_frame();
        for _ in 0..n {
            self.frame(&text, FrameKind::Load, 0);
            let t0 = Instant::now();
            let parsed = io::parse_query_log(&self.inputs.log_text).expect("log parses");
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            drop(parsed);
            self.parse_log_ms
                .lock()
                .expect("parse timings poisoned")
                .push(ms);
        }
    }

    /// The request threads, run for `secs`; `batch_exact` also runs at
    /// least one whole cycle of its batch sequence.
    fn requests(&self, secs: f64) {
        let inputs = self.inputs;
        let deadline = Instant::now() + Duration::from_secs_f64(secs);
        let solve_loop = |conn: u64| {
            let mut next = inputs.tuple_stream(conn);
            let mut id = 0u64;
            while Instant::now() < deadline {
                self.frame(&inputs.solve_frame(id, &next()), FrameKind::Solve, 0);
                id += 1;
            }
        };
        match inputs.kind {
            Kind::SolveProjected => std::thread::scope(|s| {
                s.spawn(|| solve_loop(1));
                solve_loop(0);
            }),
            Kind::IngestMix => std::thread::scope(|s| {
                s.spawn(|| {
                    let interval = Duration::from_secs(1) / INGEST_PER_S as u32;
                    let start = Instant::now();
                    for k in 0..inputs.ingest_rows.len() {
                        let due = start + interval * k as u32;
                        if due >= deadline {
                            break;
                        }
                        if let Some(wait) = due.checked_duration_since(Instant::now()) {
                            std::thread::sleep(wait);
                        }
                        self.frame(&inputs.ingest_frame(k), FrameKind::Ingest, 0);
                    }
                });
                solve_loop(0);
            }),
            Kind::BatchExact => {
                let cycle = inputs.batches.len();
                let mut seq = 0usize;
                while seq < cycle || Instant::now() < deadline {
                    let key = seq % cycle;
                    let frame = inputs.batch_frame(seq as u64, &inputs.batches[key]);
                    self.frame(&frame, FrameKind::Batch, key);
                    seq += 1;
                }
            }
        }
    }
}

fn mutation_fields(session: &str, info: soc_serve::SessionInfo) -> Vec<(&'static str, json::Json)> {
    vec![
        ("session", json::s(session)),
        ("queries", json::nu(info.queries as u64)),
        ("total_weight", json::nu(info.total_weight as u64)),
        ("attrs", json::nu(info.attrs as u64)),
    ]
}

/// What one replay recorded.
pub struct ReplayRun {
    spans: Vec<SpanRecord>,
    frames: Vec<FrameRec>,
    parse_log_ms: Vec<f64>,
    rows_before_ingest: Vec<f64>,
    jobs: JobLog,
    /// `solver.nodes` and `solver.lp_pivots` as the solver counted them.
    nodes: u64,
    lp_pivots: u64,
}

impl ReplayRun {
    /// Adds another untraced replay's frames to this one's.
    pub fn absorb(&mut self, other: ReplayRun) {
        self.frames.extend(other.frames);
        self.parse_log_ms.extend(other.parse_log_ms);
    }

    /// Median in-process total of frames of `kind`, in microseconds.
    fn frame_median_us(&self, kind: FrameKind) -> f64 {
        let xs: Vec<f64> = self
            .frames
            .iter()
            .filter(|f| f.kind == kind)
            .map(|f| f.total_us)
            .collect();
        median(&xs)
    }

    /// The replay's own [`Latencies`].
    fn latencies(&self) -> Latencies {
        let mut by: HashMap<(FrameKind, usize), Vec<f64>> = HashMap::new();
        for f in &self.frames {
            by.entry((f.kind, f.key))
                .or_default()
                .push(f.total_us / 1e3);
        }
        by.into_iter().map(|(k, xs)| (k, median(&xs))).collect()
    }

    /// Writes the spans as JSON lines.
    pub fn write_spans(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, soc_obs::spans_to_json_lines(&self.spans))
    }
}

/// Replays `loads` loads and then `secs` of request traffic, with
/// `soc-obs` tracing and metrics on or every subsystem off.
pub fn replay(inputs: &Inputs, loads: usize, secs: f64, trace: bool) -> ReplayRun {
    if trace {
        soc_obs::drain_spans();
        soc_obs::reset_metrics();
        soc_obs::enable_tracing();
        soc_obs::enable_metrics();
    } else {
        soc_obs::disable_all();
    }
    let r = Replayer {
        inputs,
        store: SessionStore::new(4),
        service: Service::new(2),
        jobs: Arc::new(Mutex::new(JobLog::default())),
        frames: Mutex::new(Vec::new()),
        parse_log_ms: Mutex::new(Vec::new()),
        rows_before_ingest: Mutex::new(Vec::new()),
    };
    r.loads(loads);
    r.requests(secs);
    let Replayer {
        service,
        jobs,
        frames,
        parse_log_ms,
        rows_before_ingest,
        ..
    } = r;
    // Joining the workers flushes their span buffers to the collector.
    service.shutdown_drain();
    soc_obs::disable_all();
    let counter = |name| soc_obs::registry().counter(name).value();
    ReplayRun {
        spans: if trace {
            soc_obs::drain_spans()
        } else {
            Vec::new()
        },
        frames: frames.into_inner().expect("frame log poisoned"),
        parse_log_ms: parse_log_ms.into_inner().expect("parse timings poisoned"),
        rows_before_ingest: rows_before_ingest
            .into_inner()
            .expect("ingest log poisoned"),
        jobs: Arc::try_unwrap(jobs)
            .unwrap_or_else(|_| panic!("jobs outlived the pool"))
            .into_inner()
            .expect("job log poisoned"),
        nodes: if trace { counter("solver.nodes") } else { 0 },
        lp_pivots: if trace {
            counter("solver.lp_pivots")
        } else {
            0
        },
    }
}

/// Client-side median minus in-process median, in ms, for frames of
/// `kind`: the median over the keys both sides saw of the per-key
/// difference. `None` when no key was seen by both.
pub fn residual_ms(e2e: &Latencies, probe: &ReplayRun, kind: FrameKind) -> Option<f64> {
    let inproc = probe.latencies();
    let diffs: Vec<f64> = e2e
        .iter()
        .filter(|((k, _), _)| *k == kind)
        .filter_map(|(key, ms)| inproc.get(key).map(|p| ms - p))
        .collect();
    (!diffs.is_empty()).then(|| median(&diffs))
}

/// What the timed run contributes to the per-layer figures.
pub struct E2e {
    /// Client-side median per frame type, in ms.
    pub medians_ms: HashMap<FrameKind, f64>,
    /// Per frame type, the per-round residuals (see [`residual_ms`]).
    pub residuals_ms: HashMap<FrameKind, Vec<f64>>,
    /// p99 lateness of the ingest pacer, in ms (0 for closed loops).
    pub pace_late_p99_ms: f64,
}

impl E2e {
    /// Median of the per-round residuals of `kind` and their spread
    /// (third minus first quartile).
    fn residual(&self, kind: FrameKind) -> (f64, f64) {
        let xs = self.residuals_ms.get(&kind).map_or(&[][..], Vec::as_slice);
        (median(xs), quantile(xs, 0.75) - quantile(xs, 0.25))
    }
}

/// The per-layer result of a traced run.
pub struct Layers {
    /// `(name, unit, value)` for every per-layer metric.
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    /// Human-readable attribution table.
    pub report: Vec<String>,
}

/// Self time of every span: its duration minus the part of it that its
/// children cover.
fn self_times(spans: &[SpanRecord]) -> Vec<u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.start_ns + s.dur_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let end_ns = s.start_ns + s.dur_ns;
            let mut kids = children.get(&s.id).cloned().unwrap_or_default();
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur_ns.saturating_sub(covered)
        })
        .collect()
}

/// Durations (us) of the `SessionStore::get` calls that overlap an
/// ingest on the other thread.
fn gets_beside_ingest(run: &ReplayRun) -> Vec<f64> {
    let mut ingests: Vec<(u64, u64)> = run
        .spans
        .iter()
        .filter(|s| s.name == "sessions.ingest")
        .map(|s| (s.start_ns, s.start_ns + s.dur_ns))
        .collect();
    ingests.sort_unstable();
    run.spans
        .iter()
        .filter(|s| s.name == "sessions.get")
        .filter(|g| {
            // The last ingest starting before the get ends.
            let i = ingests.partition_point(|&(a, _)| a < g.start_ns + g.dur_ns);
            i > 0 && ingests[i - 1].1 > g.start_ns
        })
        .map(|g| g.dur_ns as f64 / 1e3)
        .collect()
}

/// Span layers of the attribution table, the program's own spans
/// (`index_build`, `solve_mip`) among them.
const LAYERS: [&str; 13] = [
    "serve.parse_frame",
    "sessions.load",
    "sessions.ingest",
    "sessions.get",
    "pool.run",
    "data.project",
    "index_build",
    "core.solve",
    "solve_mip",
    "serve.render",
    "serve_frame",
    // Listed so the table names them; neither is a span.
    "pool.queue",
    "serve.io_residual",
];

/// Computes the per-layer metrics from the traced (`on`) and untraced
/// (`off`) replays and the timed run.
pub fn layers(inputs: &Inputs, on: &ReplayRun, off: &ReplayRun, e2e: &E2e) -> Layers {
    let primary = FrameKind::primary(inputs.kind);
    let kinds: HashMap<u64, FrameKind> = on.frames.iter().map(|f| (f.request, f.kind)).collect();
    let kind_of = &kinds;
    let selfs = self_times(&on.spans);

    // Spans `name` in frames of `kind` (any kind if None).
    let spans = move |name: &'static str, kind: Option<FrameKind>| {
        on.spans.iter().filter(move |s| {
            s.name == name && kind.is_none_or(|k| kind_of.get(&s.request) == Some(&k))
        })
    };
    let durs = move |name, kind| -> Vec<f64> {
        spans(name, kind).map(|s| s.dur_ns as f64 / 1e3).collect()
    };
    // Per frame of `kind`: self time (us) summed by layer name.
    let mut per_frame: HashMap<FrameKind, HashMap<u64, HashMap<&'static str, f64>>> =
        HashMap::new();
    for (s, &self_ns) in on.spans.iter().zip(&selfs) {
        let Some(&k) = kind_of.get(&s.request) else {
            continue;
        };
        *per_frame
            .entry(k)
            .or_default()
            .entry(s.request)
            .or_default()
            .entry(s.name)
            .or_default() += self_ns as f64 / 1e3;
    }
    let e2e_ms = |k: FrameKind| e2e.medians_ms.get(&k).copied().unwrap_or(0.0);
    // Median over frames of `kind` of layer `name`'s self time, in us.
    let self_median = |kind: FrameKind, name: &str| -> f64 {
        let xs: Vec<f64> = per_frame
            .get(&kind)
            .map(|m| {
                m.values()
                    .map(|l| l.get(name).copied().unwrap_or(0.0))
                    .collect()
            })
            .unwrap_or_default();
        median(&xs)
    };
    let share = |kind: FrameKind, name: &str| -> f64 {
        let e = e2e_ms(kind);
        if e > 0.0 {
            self_median(kind, name) / 1e3 / e
        } else {
            0.0
        }
    };
    let per = |num: f64, den: usize| if den == 0 { 0.0 } else { num / den as f64 };
    let med = move |name, kind| median(&durs(name, kind));
    let on_total = on.frame_median_us(primary);
    let off_total = off.frame_median_us(primary);
    // Index builds and solves of the request frames, from the spans.
    let solves = spans("core.solve", Some(primary)).count();
    let builds = durs("index_build", Some(primary));

    let metrics = vec![
        (
            "serve.parse_frame_us.load",
            "us",
            med("serve.parse_frame", Some(FrameKind::Load)),
        ),
        (
            "serve.parse_frame_us.request",
            "us",
            med("serve.parse_frame", Some(primary)),
        ),
        ("serve.render_us", "us", med("serve.render", Some(primary))),
        (
            "serve.io_residual_ms.load",
            "ms",
            e2e.residual(FrameKind::Load).0,
        ),
        (
            "serve.io_residual_ms.request",
            "ms",
            e2e.residual(primary).0,
        ),
        ("sessions.load_ms", "ms", med("sessions.load", None) / 1e3),
        ("data.parse_log_ms", "ms", median(&on.parse_log_ms)),
        ("data.project_share", "frac", share(primary, "data.project")),
        (
            "data.project_kept_frac",
            "ratio",
            median(&on.jobs.kept_frac),
        ),
        ("data.index_build_us", "us", median(&builds)),
        (
            "data.index_builds_per_solve",
            "count",
            per(builds.len() as f64, solves),
        ),
        ("pool.queue_wait_us", "us", median(&on.jobs.queue_wait_us)),
        ("pool.run_us", "us", med("pool.run", None)),
        ("core.solve_us", "us", med("core.solve", None)),
        ("solver.nodes", "count", per(on.nodes as f64, solves)),
        (
            "solver.lp_pivots",
            "count",
            per(on.lp_pivots as f64, solves),
        ),
        (
            "bench.trace_overhead_frac",
            "ratio",
            if off_total > 0.0 {
                on_total / off_total - 1.0
            } else {
                0.0
            },
        ),
    ];

    let mut report = vec![format!(
        "traced replay: {} frames traced, {} untraced; {} spans",
        on.frames.len(),
        off.frames.len(),
        on.spans.len()
    )];
    let mut kinds = vec![FrameKind::Load, primary];
    if inputs.kind == Kind::IngestMix {
        kinds.push(FrameKind::Ingest);
    }
    let row = |name: &str, us: f64, e: f64| {
        format!(
            "    {:<34} {:>9.1} us {:>9.1}%",
            name,
            us,
            if e > 0.0 { 100.0 * us / 1e3 / e } else { 0.0 }
        )
    };
    for k in kinds {
        let e = e2e_ms(k);
        report.push(format!(
            "  {} frames: e2e median {:.3} ms, in-process {:.3} ms untraced / {:.3} ms traced",
            k.name(),
            e,
            off.frame_median_us(k) / 1e3,
            on.frame_median_us(k) / 1e3
        ));
        report.push(format!(
            "    {:<34} {:>12} {:>10}",
            "layer (self time)", "median", "of e2e"
        ));
        for name in LAYERS {
            let us = match name {
                "pool.queue" if k == primary => median(&on.jobs.queue_wait_us),
                "serve.io_residual" => e2e.residual(k).0 * 1e3,
                _ => self_median(k, name),
            };
            if us != 0.0 {
                report.push(row(name, us, e));
            }
        }
        let (r, spread) = e2e.residual(k);
        if r.abs() < spread {
            report.push(format!(
                "    (serve.io_residual unresolved: its rounds spread {:.1} us)",
                spread * 1e3
            ));
        }
        if k == FrameKind::Batch {
            report.push(
                "    (job layers are summed over the batch's parallel jobs, so they can exceed 100%)"
                    .to_string(),
            );
        }
    }
    report.push(format!(
        "  absolute: data.parse_log_ms {:.3}, data.project_us {:.1}, sessions.ingest_ms {:.3}, serve.parse_frame_us.ingest {:.1}, serve.io_residual_ms.ingest {:.3}, bench.pace_late_ms {:.3}",
        median(&on.parse_log_ms),
        med("data.project", None),
        med("sessions.ingest", None) / 1e3,
        med("serve.parse_frame", Some(FrameKind::Ingest)),
        e2e.residual(FrameKind::Ingest).0,
        e2e.pace_late_p99_ms,
    ));
    if inputs.kind == Kind::IngestMix {
        // Not in the JSON: `ingest_mix` is not a gated workload.
        report.push(format!(
            "  ingest: sessions.get_wait_us {:.1}, sessions.ingest_share {:.3}, sessions.rows_copied_per_ingest {:.0}, bench.pace_late_frac {:.3}",
            median(&gets_beside_ingest(on)),
            share(FrameKind::Ingest, "sessions.ingest"),
            median(&on.rows_before_ingest),
            e2e.pace_late_p99_ms * INGEST_PER_S as f64 / 1e3,
        ));
    }
    report.push(format!("  core.solve algo: {}", inputs.kind.algo()));
    Layers { metrics, report }
}
