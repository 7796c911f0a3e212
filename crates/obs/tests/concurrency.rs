//! Concurrency contract of the metrics layer: hammer one counter and
//! one sketch from scoped worker threads and assert *exact* totals
//! after the scope joins — the registry's "flush" is the join's
//! happens-before edge (see the soc-obs module docs), so sharded
//! relaxed increments must still sum to the true count.
//!
//! This lives in an integration test (own process), so enabling the
//! process-global metrics flag cannot interfere with other test
//! binaries.

use std::sync::{Mutex, MutexGuard, OnceLock};

/// Computes `f(i)` for every `i in 0..tasks` on `threads` scoped threads
/// (task `i` runs on thread `i % threads`) and returns the results in
/// index order. The scope's join happens before this returns.
fn map_on_threads<T: Send>(threads: usize, tasks: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let mut out: Vec<(usize, T)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|j| {
                let f = &f;
                scope.spawn(move || {
                    (j..tasks)
                        .step_by(threads)
                        .map(|i| (i, f(i)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("worker panicked"))
            .collect()
    });
    out.sort_by_key(|&(i, _)| i);
    out.into_iter().map(|(_, v)| v).collect()
}

/// Metric tests reset the process-global registry; serialize them so a
/// reset in one cannot wipe another's counts mid-hammer.
fn metrics_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[test]
fn thread_hammer_totals_are_exact() {
    let _serial = metrics_lock();
    soc_obs::enable_metrics();
    let c = soc_obs::counter!("test.conc.hammer_counter");
    let h = soc_obs::sketch!("test.conc.hammer_dist");

    const TASKS: usize = 512;
    const OPS_PER_TASK: usize = 1_000;
    for threads in [1, 4, 13] {
        soc_obs::reset_metrics();
        let out = map_on_threads(threads, TASKS, |i| {
            for k in 0..OPS_PER_TASK {
                c.inc();
                // Values spread over many sketch buckets, deterministically.
                h.record(((i * OPS_PER_TASK + k) % 4096) as u64);
            }
            i
        });
        assert_eq!(out.len(), TASKS);

        // The scope joined its workers inside map_on_threads, so every
        // increment is visible: totals are exact, not approximate.
        assert_eq!(
            c.value(),
            (TASKS * OPS_PER_TASK) as u64,
            "threads={threads}"
        );
        let snap = h.snapshot();
        assert_eq!(
            snap.count,
            (TASKS * OPS_PER_TASK) as u64,
            "threads={threads}"
        );
        let expected_sum: u64 = (0..TASKS * OPS_PER_TASK).map(|v| (v % 4096) as u64).sum();
        assert_eq!(snap.sum, expected_sum, "threads={threads}");
        assert_eq!(snap.max, 4095);
        assert_eq!(snap.zero, (TASKS * OPS_PER_TASK / 4096) as u64);
        assert_eq!(
            snap.zero + snap.buckets.iter().map(|&(_, c)| c).sum::<u64>(),
            snap.count
        );
    }
    soc_obs::disable_metrics();
}

/// Deterministic hammer values ≥ 1 spanning six decades, so the sketch
/// exercises many buckets and relative error is well-defined.
fn hammer_value(i: usize, k: usize, ops: usize) -> u64 {
    1 + ((i * ops + k) as u64).wrapping_mul(2_654_435_761) % 1_000_000
}

/// Exact rank-`⌈q·n⌉` sample — the rank convention the sketch estimates.
fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

#[test]
fn sketch_hammer_is_exact_monotone_and_bounded() {
    let _serial = metrics_lock();
    soc_obs::enable_metrics();
    let sk = soc_obs::sketch!("test.conc.hammer_sketch");

    const TASKS: usize = 256;
    const OPS: usize = 500;
    let mut sorted: Vec<u64> = (0..TASKS)
        .flat_map(|i| (0..OPS).map(move |k| hammer_value(i, k, OPS)))
        .collect();
    sorted.sort_unstable();
    let expected_sum: u64 = sorted.iter().sum();

    for threads in [1, 4, 13] {
        soc_obs::reset_metrics();
        map_on_threads(threads, TASKS, |i| {
            for k in 0..OPS {
                sk.record(hammer_value(i, k, OPS));
            }
        });
        let snap = sk.snapshot();

        // Counts and sums are exact despite sharded relaxed recording:
        // the scope join is the happens-before edge.
        assert_eq!(snap.count, (TASKS * OPS) as u64, "threads={threads}");
        assert_eq!(snap.sum, expected_sum, "threads={threads}");
        assert_eq!(snap.max, *sorted.last().unwrap(), "threads={threads}");

        // Quantile estimates are monotone in q …
        let qs: Vec<f64> = (0..=100).map(|i| f64::from(i) / 100.0).collect();
        for w in qs.windows(2) {
            assert!(
                snap.quantile(w[0]) <= snap.quantile(w[1]),
                "threads={threads}: quantile not monotone at q={}",
                w[1]
            );
        }
        // … and every estimate honors the γ relative-error bound.
        let bound = soc_obs::SketchSnapshot::error_bound() + 1e-12;
        for &q in &[0.01, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let exact = exact_quantile(&sorted, q) as f64;
            let est = snap.quantile(q);
            assert!(
                (est - exact).abs() / exact <= bound,
                "threads={threads} q={q}: est {est} vs exact {exact} breaks the bound"
            );
        }
    }
    soc_obs::disable_metrics();
}

#[test]
fn sketch_merge_across_shards_matches_single_sketch() {
    let _serial = metrics_lock();
    soc_obs::enable_metrics();
    soc_obs::reset_metrics();

    // Eight independently interned sketches stand in for per-shard (or
    // per-process) sketches; a ninth records the union stream.
    const NAMES: [&str; 8] = [
        "test.conc.merge_sketch_0",
        "test.conc.merge_sketch_1",
        "test.conc.merge_sketch_2",
        "test.conc.merge_sketch_3",
        "test.conc.merge_sketch_4",
        "test.conc.merge_sketch_5",
        "test.conc.merge_sketch_6",
        "test.conc.merge_sketch_7",
    ];
    const TASKS: usize = 128;
    const OPS: usize = 400;
    let reference = soc_obs::registry().sketch("test.conc.merge_sketch_all");

    // Each task hammers the shard sketch it hashes to *and* the
    // reference, concurrently, from eight worker threads.
    map_on_threads(8, TASKS, |i| {
        let part = soc_obs::registry().sketch(NAMES[i % NAMES.len()]);
        for k in 0..OPS {
            let v = hammer_value(i, k, OPS);
            part.record(v);
            reference.record(v);
        }
    });

    let mut merged = soc_obs::SketchSnapshot::empty();
    for name in NAMES {
        merged.merge(&soc_obs::registry().sketch(name).snapshot());
    }
    let want = reference.snapshot();

    // Merging partial snapshots is exact: identical to one sketch that
    // saw the whole stream, bucket for bucket.
    assert_eq!(merged.count, want.count);
    assert_eq!(merged.zero, want.zero);
    assert_eq!(merged.sum, want.sum);
    assert_eq!(merged.max, want.max);
    assert_eq!(merged.buckets, want.buckets);
    assert_eq!(merged.count, (TASKS * OPS) as u64);
    soc_obs::disable_metrics();
}

#[test]
fn thread_span_flush_collects_every_worker_span() {
    soc_obs::enable_tracing();
    let _ = soc_obs::drain_spans();

    const TASKS: usize = 64;
    let out = map_on_threads(4, TASKS, |i| {
        let _s = soc_obs::span!("conc_task");
        i * 3
    });
    assert_eq!(out, (0..TASKS).map(|i| i * 3).collect::<Vec<_>>());

    // Workers are scoped threads: their TLS destructors ran before
    // map_on_threads returned, so every span has been flushed.
    let spans = soc_obs::drain_spans();
    soc_obs::disable_tracing();
    let tasks = spans.iter().filter(|s| s.name == "conc_task").count();
    assert_eq!(tasks, TASKS);
    assert!(spans.iter().all(|s| s.name != "conc_task" || s.parent == 0));
}
