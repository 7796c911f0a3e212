//! End-to-end benchmark of `soc serve`.
//!
//! ```text
//! perfbench --workload solve_projected|ingest_mix|batch_exact --seed N
//!           --seconds S --trace 0|1 --soc PATH [--out-dir DIR]
//! ```
//!
//! With `--trace 0` it runs the workload against the real server in
//! rounds — each round a fresh server process, loaded and then driven
//! for its share of `--seconds` — times every frame from the client
//! side, checks every answer against its own mirror of the session log,
//! and prints the end-to-end metrics as medians over the rounds. With `--trace 1` it
//! does the same and then replays the workload in-process with spans
//! on and off, printing the per-layer metrics instead. The last line of
//! standard output is one JSON object; see `README.md` beside this
//! crate's manifest.

mod check;
mod client;
mod host;
mod replay;
mod stats;
mod workload;

use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::process::ExitCode;

use check::Verdict;
use replay::{E2e, FrameKind, Latencies};
use stats::{median, quantile};
use workload::{Inputs, Kind, BATCH, BATCH_SEQ};

/// Server processes per run. Each is set up, loaded and driven for an
/// equal share of the run; every end-to-end metric is the median over
/// them, because process-to-process variation (heap layout, page
/// placement) and second-scale host noise move a single process's
/// figures by up to a fifth.
const ROUNDS: usize = 10;
/// A run whose ingest pacer sends more than one 20 ms pacing interval
/// late at p99 is invalid: it fell behind the schedule it names, so its
/// numbers are withheld.
const PACE_LATE_LIMIT_MS: f64 = 20.0;
/// Seconds of untraced in-process replay after each traced-run round,
/// from which that round's `serve.io_residual_ms` is taken.
const PROBE_S: f64 = 0.5;
/// Loads each traced-run replay makes (the load metrics are their medians).
const REPLAY_LOADS: usize = 3;

const USAGE: &str = "usage: perfbench --workload solve_projected|ingest_mix|batch_exact \
--seed N --seconds S --trace 0|1 --soc PATH [--out-dir DIR]";

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    soc: PathBuf,
    out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut flags: HashMap<String, String> = HashMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        flags.insert(flag, value);
    }
    let get = |k: &str| flags.get(k).ok_or(format!("missing {k}"));
    let kind = Kind::parse(get("--workload")?).ok_or("unknown workload")?;
    let seed = get("--seed")?
        .parse()
        .map_err(|_| "--seed must be an integer")?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|_| "--seconds must be a number")?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        _ => return Err("--trace must be 0 or 1".into()),
    };
    let known = [
        "--workload",
        "--seed",
        "--seconds",
        "--trace",
        "--soc",
        "--out-dir",
    ];
    if let Some(k) = flags.keys().find(|k| !known.contains(&k.as_str())) {
        return Err(format!("unknown flag {k}"));
    }
    Ok(Args {
        kind,
        seed,
        seconds,
        trace,
        soc: PathBuf::from(get("--soc")?),
        out_dir: PathBuf::from(
            flags
                .get("--out-dir")
                .map_or(".bench_build/perfbench", String::as_str),
        ),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// One metric line of the report: name, value, unit, note.
fn line(name: &str, value: f64, unit: &str, note: &str) {
    println!("{name:<22} {value:>12.4} {unit:<6} {note}");
}

/// What one server process measured.
#[derive(Clone)]
struct Round {
    setup_s: f64,
    load_ms: f64,
    solve_ms: Vec<f64>,
    ingest_ms: Vec<f64>,
    late_ms: Vec<f64>,
    /// Latencies of the timed, answered batches by their place in the
    /// fixed batch sequence.
    batch_ms: BTreeMap<usize, Vec<f64>>,
    /// Time of each whole cycle of the batch sequence the round drove:
    /// the summed latencies of consecutive, disjoint runs of
    /// `BATCH_SEQ` timed batches.
    cycle_ms: Vec<f64>,
    batches: usize,
    window_s: f64,
    peak_rss_mb: f64,
    /// Median time of one host reference pass around the round.
    ref_ms: f64,
    /// Client-side minus in-process median per frame type, from an
    /// in-process replay right after the round (traced runs only).
    residuals_ms: HashMap<FrameKind, f64>,
}

impl Round {
    /// Sets up a fresh server, drives it for `seconds`, and checks its
    /// answers into `verdict`. `batch_exact` picks up its batch cycle at
    /// `next_batch` and leaves it where the round stopped, so the rounds
    /// of a run walk the cycle in turn.
    fn run(
        args: &Args,
        inputs: &Inputs,
        load_frame: &str,
        seconds: f64,
        next_batch: &mut usize,
        verdict: &mut Verdict,
        reference: &host::Reference,
    ) -> Result<Round, String> {
        let mut ref_passes = reference.passes();
        let s = client::setup(&args.soc, inputs, load_frame)
            .map_err(|e| format!("set-up failed: {e}"))?;
        let timed = client::run_timed(inputs, s.server.addr, s.conn, seconds, *next_batch);
        if let Some(last) = timed.batches.last() {
            *next_batch = last.batch + 1;
        }
        let peak_rss_mb = s
            .server
            .peak_rss_mb()
            .map_err(|e| format!("peak RSS: {e}"))?;
        drop(s.server);
        ref_passes.extend(reference.passes());
        verdict.absorb(check::check(inputs, &timed));
        let solve_ms: Vec<f64> = timed
            .solves
            .iter()
            .filter(|s| s.timed && s.answer.is_some())
            .map(|s| s.latency_ms)
            .collect();
        let ingest_ms: Vec<f64> = timed.ingests.iter().map(|i| i.latency_ms).collect();
        let answered: Vec<&client::BatchRec> = timed
            .batches
            .iter()
            .filter(|b| b.timed && b.bad_reply.is_none())
            .collect();
        let mut batch_ms: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
        for b in &answered {
            batch_ms.entry(b.batch).or_default().push(b.latency_ms);
        }
        let cycle_ms = answered
            .chunks_exact(BATCH_SEQ)
            .map(|c| c.iter().map(|b| b.latency_ms).sum())
            .collect();
        let mut residuals_ms = HashMap::new();
        if args.trace {
            let mut lat: Latencies = batch_medians([&batch_ms])
                .into_iter()
                .map(|(b, ms)| ((FrameKind::Batch, b), ms))
                .collect();
            lat.insert((FrameKind::Load, 0), s.load_ms);
            for (kind, xs) in [
                (FrameKind::Solve, &solve_ms),
                (FrameKind::Ingest, &ingest_ms),
            ] {
                if !xs.is_empty() {
                    lat.insert((kind, 0), median(xs));
                }
            }
            let probe = replay::replay(inputs, 1, PROBE_S, false);
            for kind in [
                FrameKind::Load,
                FrameKind::Solve,
                FrameKind::Ingest,
                FrameKind::Batch,
            ] {
                if let Some(r) = replay::residual_ms(&lat, &probe, kind) {
                    residuals_ms.insert(kind, r);
                }
            }
        }
        Ok(Round {
            setup_s: s.setup_s,
            load_ms: s.load_ms,
            solve_ms,
            ingest_ms,
            late_ms: timed.ingests.iter().map(|i| i.late_ms).collect(),
            batches: answered.len(),
            cycle_ms,
            batch_ms,
            window_s: timed.window_s.max(1e-9),
            peak_rss_mb,
            ref_ms: median(&ref_passes),
            residuals_ms,
        })
    }

    /// This round as it would read on a host where one reference pass
    /// takes [`host::NOMINAL_MS`]: every latency and the timed window
    /// (so every rate) scaled by `NOMINAL_MS / ref_ms`. Pacer lateness
    /// stays in real time: validity is about the schedule kept.
    fn at_reference_speed(&self) -> Round {
        let k = host::NOMINAL_MS / self.ref_ms;
        let scale = |xs: &Vec<f64>| xs.iter().map(|x| x * k).collect();
        Round {
            setup_s: self.setup_s * k,
            load_ms: self.load_ms * k,
            solve_ms: scale(&self.solve_ms),
            ingest_ms: scale(&self.ingest_ms),
            cycle_ms: scale(&self.cycle_ms),
            batch_ms: self
                .batch_ms
                .iter()
                .map(|(&b, xs)| (b, scale(xs)))
                .collect(),
            window_s: self.window_s * k,
            ..self.clone()
        }
    }

    fn solve_per_s(&self) -> f64 {
        self.solve_ms.len() as f64 / self.window_s
    }

    fn batch_tuples_per_s(&self) -> f64 {
        (self.batches * BATCH) as f64 / self.window_s
    }
}

/// The median latency of each distinct batch of the fixed sequence over
/// the given rounds' batch latencies. Batch quantiles are taken over
/// these medians, so they weigh every batch once, whichever part of the
/// cycle a round repeated.
fn batch_medians<'a>(
    rounds: impl IntoIterator<Item = &'a BTreeMap<usize, Vec<f64>>>,
) -> BTreeMap<usize, f64> {
    let mut all: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for r in rounds {
        for (&b, xs) in r {
            all.entry(b).or_default().extend(xs);
        }
    }
    all.into_iter().map(|(b, xs)| (b, median(&xs))).collect()
}

/// The median over rounds of a per-round figure.
fn across_rounds(rounds: &[Round], f: &dyn Fn(&Round) -> f64) -> f64 {
    median(&rounds.iter().map(f).collect::<Vec<f64>>())
}

/// `batch_exact`'s tuples per second over its median whole cycle of the
/// batch sequence: every cycle holds the same batches, so cycles differ
/// only in how fast they ran, and the median leaves out the cycles a
/// host stall slowed. A run too short for one whole cycle in
/// any round falls back to the rate pooled over its rounds.
fn batch_tuples_per_s(rounds: &[Round]) -> f64 {
    let cycles: Vec<f64> = rounds.iter().flat_map(|r| r.cycle_ms.clone()).collect();
    if cycles.is_empty() {
        return (rounds.iter().map(|r| r.batches).sum::<usize>() * BATCH) as f64
            / rounds.iter().map(|r| r.window_s).sum::<f64>();
    }
    (BATCH_SEQ * BATCH) as f64 / (median(&cycles) / 1e3)
}

/// The gated `setup_s`, `p50_ms`, `tail_ms` and `per_s` of a run.
fn slots(kind: Kind, rounds: &[Round]) -> [f64; 4] {
    let setup_s = across_rounds(rounds, &|r| r.setup_s);
    match kind {
        Kind::SolveProjected => [
            setup_s,
            across_rounds(rounds, &|r| median(&r.solve_ms)),
            across_rounds(rounds, &|r| quantile(&r.solve_ms, 0.9)),
            across_rounds(rounds, &Round::solve_per_s),
        ],
        Kind::IngestMix => [
            setup_s,
            across_rounds(rounds, &|r| median(&r.ingest_ms)),
            across_rounds(rounds, &|r| quantile(&r.ingest_ms, 0.9)),
            across_rounds(rounds, &Round::solve_per_s),
        ],
        Kind::BatchExact => {
            let ms: Vec<f64> = batch_medians(rounds.iter().map(|r| &r.batch_ms))
                .into_values()
                .collect();
            [
                setup_s,
                median(&ms),
                quantile(&ms, 0.9),
                batch_tuples_per_s(rounds),
            ]
        }
    }
}

/// Runs one benchmark invocation; `Ok(false)` means it ran but failed a
/// check or was invalid.
fn run(args: &Args) -> Result<bool, String> {
    let inputs = Inputs::generate(args.kind, args.seed);
    let load_frame = inputs.load_frame();
    println!(
        "perfbench workload={} seed={} seconds={} trace={} log_rows={} load_frame_bytes={} rounds={ROUNDS}",
        args.kind.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        inputs.mirror.len(),
        load_frame.len()
    );

    let mut verdict = Verdict::default();
    let mut next_batch = 0;
    let reference = host::Reference::new();
    let measured = (0..ROUNDS)
        .map(|_| {
            Round::run(
                args,
                &inputs,
                &load_frame,
                args.seconds / ROUNDS as f64,
                &mut next_batch,
                &mut verdict,
                &reference,
            )
        })
        .collect::<Result<Vec<Round>, String>>()?;
    // Every timing below is at the reference host speed; `measured`
    // keeps the raw figures for the traced run and the report.
    let rounds: Vec<Round> = measured.iter().map(Round::at_reference_speed).collect();
    let across = |f: &dyn Fn(&Round) -> f64| across_rounds(&rounds, f);
    let pooled = |f: &dyn Fn(&Round) -> &Vec<f64>| rounds.iter().map(|r| f(r).len()).sum::<usize>();
    let note = |n: usize| format!("median of {ROUNDS} rounds; n={n}");
    let refs: Vec<String> = measured
        .iter()
        .map(|r| format!("{:.3}", r.ref_ms))
        .collect();
    line(
        "host.ref_ms",
        across(&|r| r.ref_ms),
        "ms",
        &format!("reference pass by round: {}", refs.join(" ")),
    );
    println!(
        "timings below are at the reference speed: each round's times scaled by {} ms / its host.ref_ms",
        host::NOMINAL_MS
    );

    let [setup_s, p50_ms, tail_ms, per_s] = slots(args.kind, &rounds);
    let per_round: Vec<String> = rounds.iter().map(|r| format!("{:.4}", r.setup_s)).collect();
    line(
        "setup_s",
        setup_s,
        "s",
        &format!("median of {ROUNDS}: {}", per_round.join(" ")),
    );
    let load_ms = across(&|r| r.load_ms);
    line(
        "load_ms",
        load_ms,
        "ms",
        "the load frame alone, send to load_ok",
    );
    let solve_p50 = across(&|r| median(&r.solve_ms));
    let solve_p90 = across(&|r| quantile(&r.solve_ms, 0.9));
    let solve_per_s = across(&Round::solve_per_s);
    let ingest_p50 = across(&|r| median(&r.ingest_ms));
    let ingest_p90 = across(&|r| quantile(&r.ingest_ms, 0.9));
    let batch_ms: Vec<f64> = batch_medians(rounds.iter().map(|r| &r.batch_ms))
        .into_values()
        .collect();
    let batch_p50 = median(&batch_ms);
    let batch_p90 = quantile(&batch_ms, 0.9);
    let batch_tuples_per_s = batch_tuples_per_s(&rounds);
    let peak_rss_mb = across(&|r| r.peak_rss_mb);
    let late_ms: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.late_ms.iter().copied())
        .collect();
    let pace_late_p99_ms = quantile(&late_ms, 0.99);

    let raw = slots(args.kind, &measured);
    println!(
        "as measured: setup_s {:.4} s, p50_ms {:.4} ms, tail_ms {:.4} ms, per_s {:.2} 1/s",
        raw[0], raw[1], raw[2], raw[3]
    );
    let by_round: Vec<String> = rounds
        .iter()
        .map(|r| match args.kind {
            Kind::SolveProjected => format!("{:.3}/{:.1}", median(&r.solve_ms), r.solve_per_s()),
            Kind::IngestMix => format!("{:.3}/{:.1}", median(&r.ingest_ms), r.solve_per_s()),
            Kind::BatchExact => format!(
                "{:.3}/{:.1}",
                median(
                    &batch_medians([&r.batch_ms])
                        .into_values()
                        .collect::<Vec<_>>()
                ),
                r.batch_tuples_per_s()
            ),
        })
        .collect();
    println!("p50_ms/per_s by round: {}", by_round.join(" "));
    let n_solve = pooled(&|r| &r.solve_ms);
    if n_solve > 0 {
        line("solve_p50_ms", solve_p50, "ms", &note(n_solve));
        line("solve_p90_ms", solve_p90, "ms", &note(n_solve));
        line(
            "solve_p99_ms",
            across(&|r| quantile(&r.solve_ms, 0.99)),
            "ms",
            &note(n_solve),
        );
        line("solve_per_s", solve_per_s, "1/s", &note(n_solve));
    }
    if args.kind == Kind::IngestMix {
        let n = pooled(&|r| &r.ingest_ms);
        line("ingest_p50_ms", ingest_p50, "ms", &note(n));
        line("ingest_p90_ms", ingest_p90, "ms", &note(n));
        let all: Vec<f64> = rounds
            .iter()
            .flat_map(|r| r.ingest_ms.iter().copied())
            .collect();
        line(
            "ingest_p99_ms",
            quantile(&all, 0.99),
            "ms",
            &format!("pooled over rounds; n={n}"),
        );
        let max_late = late_ms.iter().copied().fold(0.0, f64::max);
        line(
            "bench.pace_late_ms",
            pace_late_p99_ms,
            "ms",
            &format!(
                "p99; p50 {:.3} ms, max {max_late:.3} ms; limit {PACE_LATE_LIMIT_MS} ms",
                median(&late_ms)
            ),
        );
    }
    if args.kind == Kind::BatchExact {
        let n: usize = rounds.iter().map(|r| r.batches).sum();
        let over = format!("over the {} batches' medians; n={n}", batch_ms.len());
        line("batch_p50_ms", batch_p50, "ms", &over);
        line("batch_p90_ms", batch_p90, "ms", &over);
        line(
            "batch_tuples_per_s",
            batch_tuples_per_s,
            "1/s",
            &match rounds.iter().map(|r| r.cycle_ms.len()).sum::<usize>() {
                0 => format!("pooled over rounds: no round ran a whole cycle; n={n}"),
                c => format!("over the median of {c} whole cycles; n={n}"),
            },
        );
    }
    line(
        "failed_frac",
        verdict.failed_frac(),
        "ratio",
        &format!("{} of {} frames", verdict.failed, verdict.attempted),
    );
    line(
        "peak_rss_mb",
        peak_rss_mb,
        "MiB",
        "server VmHWM, median of rounds",
    );
    for note in &verdict.notes {
        println!("FAILED: {note}");
    }
    if args.kind == Kind::IngestMix && pace_late_p99_ms > PACE_LATE_LIMIT_MS {
        println!(
            "INVALID: the ingest pacer ran {pace_late_p99_ms:.3} ms behind schedule at p99 \
             (limit {PACE_LATE_LIMIT_MS} ms); no metrics reported"
        );
        return Ok(false);
    }

    let metrics: Vec<(&str, &str, f64)> = if args.trace {
        // Untraced, traced, untraced: the two untraced halves bracket
        // the traced replay, so drift over the run cancels in the
        // tracing-overhead ratio.
        let secs = (args.seconds / 2.0).max(1.0);
        let mut off = replay::replay(&inputs, REPLAY_LOADS, secs / 2.0, false);
        let on = replay::replay(&inputs, REPLAY_LOADS, secs, true);
        off.absorb(replay::replay(&inputs, REPLAY_LOADS, secs / 2.0, false));
        let path = args
            .out_dir
            .join(format!("spans-{}-{}.jsonl", args.kind.name(), args.seed));
        on.write_spans(&path)
            .map_err(|e| format!("writing spans: {e}"))?;
        println!("spans written to {}", path.display());
        // Attribution compares like with like: the in-process replay
        // runs at the host's actual speed, so the e2e side is raw.
        let raw_batch_ms: Vec<f64> = batch_medians(measured.iter().map(|r| &r.batch_ms))
            .into_values()
            .collect();
        let e2e = E2e {
            medians_ms: HashMap::from([
                (FrameKind::Load, across_rounds(&measured, &|r| r.load_ms)),
                (
                    FrameKind::Solve,
                    across_rounds(&measured, &|r| median(&r.solve_ms)),
                ),
                (
                    FrameKind::Ingest,
                    across_rounds(&measured, &|r| median(&r.ingest_ms)),
                ),
                (FrameKind::Batch, median(&raw_batch_ms)),
            ]),
            residuals_ms: [
                FrameKind::Load,
                FrameKind::Solve,
                FrameKind::Ingest,
                FrameKind::Batch,
            ]
            .into_iter()
            .map(|k| {
                let xs = measured
                    .iter()
                    .filter_map(|r| r.residuals_ms.get(&k).copied());
                (k, xs.collect())
            })
            .collect(),
            pace_late_p99_ms,
        };
        let layers = replay::layers(&inputs, &on, &off, &e2e);
        for l in &layers.report {
            println!("{l}");
        }
        for (name, unit, value) in &layers.metrics {
            line(name, *value, unit, "");
        }
        layers.metrics
    } else {
        vec![
            ("setup_s", "s", setup_s),
            ("p50_ms", "ms", p50_ms),
            ("tail_ms", "ms", tail_ms),
            ("per_s", "1/s", per_s),
            ("peak_rss_mb", "MiB", peak_rss_mb),
        ]
    };

    let correct = verdict.failed == 0;
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        verdict.attempted.max(1),
        verdict.failed,
        body.join(", ")
    );
    Ok(correct)
}
