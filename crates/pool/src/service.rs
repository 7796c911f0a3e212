//! A persistent worker service with an explicit, deadlock-free shutdown
//! path.
//!
//! A long-running server needs workers that outlive any single request
//! and a teardown that is safe to run **while tasks are still queued**.
//! [`Service`] provides both:
//!
//! - [`Service::submit`] enqueues a boxed task; workers drain the queue
//!   in FIFO order. Submissions after shutdown begins are rejected with
//!   a typed error instead of being silently dropped.
//! - [`Service::shutdown_drain`] finishes every queued and running task,
//!   then joins all workers.
//! - `Drop` is the *abort* path: it signals shutdown, **rejects** all
//!   still-queued tasks (their destructors run, so oneshot-style
//!   completions can observe cancellation), waits for running tasks to
//!   finish, and joins every worker. It never deadlocks, no matter how
//!   many tasks are queued, because workers re-check the shutdown mode
//!   every time the queue goes empty and the queue is emptied before the
//!   join.
//! - A panicking task does not kill its worker: the panic is caught,
//!   counted (`pool.service.task_panics`), and the worker returns to the
//!   queue. A server must survive a poisoned request.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use soc_obs::{counter, gauge};

/// A queued unit of work.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// A job plus the trace context captured at submit time, so the worker
/// executes it under the submitter's request identity (spans stitch
/// across the submit boundary).
struct QueuedJob {
    job: Job,
    ctx: Option<soc_obs::TraceCtx>,
}

/// Error returned by [`Service::submit`] once shutdown has begun. The
/// rejected job is handed back so the caller can run it inline or
/// complete its callbacks with an error.
pub struct Rejected(pub Job);

impl std::fmt::Debug for Rejected {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Rejected(<job>)")
    }
}

impl std::fmt::Display for Rejected {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("service is shutting down; job rejected")
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Mode {
    /// Accepting and executing.
    Running,
    /// No new submissions; queued tasks still execute.
    Draining,
    /// No new submissions; the queue has been cleared.
    Aborting,
}

struct State {
    queue: VecDeque<QueuedJob>,
    mode: Mode,
    /// Tasks currently executing on a worker (claimed, not yet finished).
    running: usize,
}

struct Shared {
    state: Mutex<State>,
    /// Signals workers: a job arrived or the mode changed.
    work: Condvar,
    /// Signals waiters: the service went idle (empty queue, none running).
    idle: Condvar,
}

impl Shared {
    /// True when no task is queued or executing.
    fn is_idle(state: &State) -> bool {
        state.queue.is_empty() && state.running == 0
    }
}

/// A fixed-size set of long-lived worker threads executing submitted
/// tasks FIFO, with drain and abort shutdown paths (see the module
/// docs). Cloning is not supported; share a `Service` via `Arc`.
pub struct Service {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl Service {
    /// Spawns `threads` worker threads.
    ///
    /// # Panics
    /// Panics if `threads == 0`.
    pub fn new(threads: usize) -> Self {
        assert!(threads > 0, "need at least one worker thread");
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                mode: Mode::Running,
                running: 0,
            }),
            work: Condvar::new(),
            idle: Condvar::new(),
        });
        let workers = (0..threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("soc-pool-svc-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn service worker")
            })
            .collect();
        Self { shared, workers }
    }

    /// The worker count.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Enqueues `job` for execution on some worker. Fails once shutdown
    /// has begun, returning the job untouched.
    pub fn submit(&self, job: impl FnOnce() + Send + 'static) -> Result<(), Rejected> {
        let mut state = self.shared.state.lock().expect("service state poisoned");
        if state.mode != Mode::Running {
            drop(state);
            counter!("pool.service.rejected").inc();
            return Err(Rejected(Box::new(job)));
        }
        state.queue.push_back(QueuedJob {
            job: Box::new(job),
            ctx: soc_obs::current_ctx(),
        });
        gauge!("pool.service.queue_depth").set(state.queue.len() as i64);
        drop(state);
        self.shared.work.notify_one();
        Ok(())
    }

    /// Blocks until the queue is empty and no task is executing. New
    /// submissions may race in afterwards; this is a quiescence point,
    /// not a barrier.
    pub fn wait_idle(&self) {
        let state = self.shared.state.lock().expect("service state poisoned");
        let _unused = self
            .shared
            .idle
            .wait_while(state, |s| !Shared::is_idle(s))
            .expect("service state poisoned");
    }

    /// Graceful shutdown: stops accepting, finishes every queued and
    /// running task, joins all workers. Consumes the service.
    pub fn shutdown_drain(mut self) {
        self.begin(Mode::Draining);
        self.join_workers();
        // Drop now finds an already-terminated service and does nothing.
    }

    /// Flips the mode, wakes every worker, and (for aborts) clears the
    /// queue. Queued jobs are dropped *outside* the lock: a job's
    /// destructor may itself take locks or signal completions.
    fn begin(&self, mode: Mode) {
        let dropped = {
            let mut state = self.shared.state.lock().expect("service state poisoned");
            state.mode = mode;
            let dropped: Vec<QueuedJob> = if mode == Mode::Aborting {
                state.queue.drain(..).collect()
            } else {
                Vec::new()
            };
            gauge!("pool.service.queue_depth").set(state.queue.len() as i64);
            dropped
        };
        self.shared.work.notify_all();
        counter!("pool.service.dropped").add(dropped.len() as u64);
        drop(dropped);
    }

    fn join_workers(&mut self) {
        for handle in self.workers.drain(..) {
            // Worker bodies catch task panics, so join only fails if the
            // service machinery itself panicked — propagate that.
            if let Err(payload) = handle.join() {
                std::panic::resume_unwind(payload);
            }
        }
    }
}

impl Drop for Service {
    /// The abort path: reject queued tasks, finish the running ones,
    /// join every worker. Safe to run with an arbitrarily deep queue.
    fn drop(&mut self) {
        if self.workers.is_empty() {
            return; // already shut down via shutdown_drain
        }
        self.begin(Mode::Aborting);
        self.join_workers();
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let state = shared.state.lock().expect("service state poisoned");
            let mut state = shared
                .work
                .wait_while(state, |s| s.queue.is_empty() && s.mode == Mode::Running)
                .expect("service state poisoned");
            match state.queue.pop_front() {
                Some(job) => {
                    state.running += 1;
                    gauge!("pool.service.queue_depth").set(state.queue.len() as i64);
                    job
                }
                // Empty queue and a non-Running mode: terminate. Under
                // Draining this is only reached once every queued task
                // has been claimed; claimed tasks finish below.
                None => return,
            }
        };
        let outcome = {
            let _ctx = soc_obs::ctx_guard(job.ctx);
            catch_unwind(AssertUnwindSafe(job.job))
        };
        counter!("pool.service.executed").inc();
        if outcome.is_err() {
            counter!("pool.service.task_panics").inc();
        }
        let mut state = shared.state.lock().expect("service state poisoned");
        state.running -= 1;
        if Shared::is_idle(&state) {
            shared.idle.notify_all();
        }
        drop(state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;
    use std::time::Duration;

    #[test]
    fn executes_submitted_tasks() {
        let service = Service::new(4);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..100 {
            let counter = Arc::clone(&counter);
            service
                .submit(move || {
                    counter.fetch_add(1, Ordering::SeqCst);
                })
                .unwrap();
        }
        service.shutdown_drain();
        assert_eq!(counter.load(Ordering::SeqCst), 100);
    }

    #[test]
    fn wait_idle_sees_all_work_done() {
        let service = Service::new(2);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..32 {
            let counter = Arc::clone(&counter);
            service
                .submit(move || {
                    std::thread::sleep(Duration::from_millis(1));
                    counter.fetch_add(1, Ordering::SeqCst);
                })
                .unwrap();
        }
        service.wait_idle();
        assert_eq!(counter.load(Ordering::SeqCst), 32);
    }

    /// Tracks how many queued jobs were dropped unexecuted: the closure
    /// owns the guard, so dropping the un-run closure fires it.
    struct DropGuard(Arc<AtomicUsize>);
    impl Drop for DropGuard {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn drop_under_load_rejects_queue_and_joins_without_deadlock() {
        // The PR 5 regression test: tear the service down while the
        // queue is deep and tasks are mid-execution. Every job must be
        // accounted for (executed or dropped), and the teardown must
        // finish promptly — a deadlocked join would hang this test.
        let executed = Arc::new(AtomicUsize::new(0));
        let destroyed = Arc::new(AtomicUsize::new(0));
        const JOBS: usize = 200;

        let service = Service::new(2);
        let (started_tx, started_rx) = mpsc::channel();
        for i in 0..JOBS {
            let executed = Arc::clone(&executed);
            let guard = DropGuard(Arc::clone(&destroyed));
            let started = (i == 0).then(|| started_tx.clone());
            service
                .submit(move || {
                    let _guard = guard;
                    if let Some(tx) = started {
                        let _ = tx.send(());
                    }
                    std::thread::sleep(Duration::from_millis(2));
                    executed.fetch_add(1, Ordering::SeqCst);
                })
                .unwrap();
        }
        // Make sure at least one task is genuinely mid-execution when
        // the teardown starts.
        started_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("first task never started");

        // Run the drop on a helper thread and watchdog it: deadlock in
        // Drop must fail the test, not hang the suite.
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            drop(service);
            tx.send(()).unwrap();
        });
        rx.recv_timeout(Duration::from_secs(30))
            .expect("Service::drop deadlocked under load");

        let done = executed.load(Ordering::SeqCst);
        let gone = destroyed.load(Ordering::SeqCst);
        assert_eq!(gone, JOBS, "every job executed or rejected, none leaked");
        assert!(
            done < JOBS,
            "drop-under-load should cancel part of the queue"
        );
        assert!(done >= 1, "in-flight tasks finish, they are not aborted");
    }

    #[test]
    fn submit_after_shutdown_is_rejected() {
        let service = Service::new(1);
        // Reach into the shutdown path without consuming the service:
        // begin draining, then submit.
        service.begin(Mode::Draining);
        let hit = Arc::new(AtomicUsize::new(0));
        let hit2 = Arc::clone(&hit);
        let err = service
            .submit(move || {
                hit2.fetch_add(1, Ordering::SeqCst);
            })
            .unwrap_err();
        // The job comes back intact and can still be run inline.
        (err.0)();
        assert_eq!(hit.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn shutdown_drain_finishes_queued_tasks() {
        let service = Service::new(1);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..50 {
            let counter = Arc::clone(&counter);
            service
                .submit(move || {
                    counter.fetch_add(1, Ordering::SeqCst);
                })
                .unwrap();
        }
        service.shutdown_drain();
        assert_eq!(
            counter.load(Ordering::SeqCst),
            50,
            "drain runs the queue dry"
        );
    }

    #[test]
    fn panicking_task_does_not_kill_workers() {
        let service = Service::new(1);
        service.submit(|| panic!("poisoned request")).unwrap();
        let counter = Arc::new(AtomicUsize::new(0));
        let c = Arc::clone(&counter);
        service
            .submit(move || {
                c.fetch_add(1, Ordering::SeqCst);
            })
            .unwrap();
        service.shutdown_drain();
        assert_eq!(counter.load(Ordering::SeqCst), 1);
    }

    #[test]
    #[should_panic(expected = "worker thread")]
    fn zero_threads_panics() {
        let _ = Service::new(0);
    }

    #[test]
    fn jobs_run_under_the_submitters_trace_ctx() {
        soc_obs::enable_tracing();
        let req = soc_obs::next_request_id();
        let service = Service::new(2);
        {
            let _ctx = soc_obs::ctx_guard(Some(soc_obs::TraceCtx {
                request: req,
                parent: 77,
            }));
            for _ in 0..8 {
                service
                    .submit(|| {
                        let _s = soc_obs::span!("svc_ctx_job");
                    })
                    .unwrap();
            }
        }
        service.shutdown_drain();
        let spans = soc_obs::drain_spans();
        let mine: Vec<_> = spans
            .iter()
            .filter(|s| s.name == "svc_ctx_job" && s.request == req)
            .collect();
        assert_eq!(mine.len(), 8, "all jobs carry the submit-time request id");
        assert!(mine.iter().all(|s| s.parent == 77));
        // Workers are long-lived: the ctx must not leak past the job.
        // (A later submit without ctx must record request 0.)
        let service = Service::new(1);
        service
            .submit(|| {
                let _s = soc_obs::span!("svc_noctx_job");
            })
            .unwrap();
        service.shutdown_drain();
        let spans = soc_obs::drain_spans();
        let later = spans.iter().find(|s| s.name == "svc_noctx_job").unwrap();
        assert_eq!(later.request, 0);
        assert_eq!(later.parent, 0);
        soc_obs::disable_tracing();
    }
}
