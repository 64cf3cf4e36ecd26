//! Pool-bounded execution — one of the workspace's two approved homes
//! for OS threads.
//!
//! Every headline number in this reproduction rests on the virtual-clock
//! simulator being a bit-reproducible oracle, so real threads are
//! quarantined: the `no-raw-spawn` rule in `cachegen-analyze` bans
//! `thread::spawn`/`thread::scope` everywhere outside this module and
//! the serving crate's thread backend (`serving::threads`, which feeds
//! its decode fan-out back through *this* module's [`PoolHandle`]).
//! Workers here never touch simulator state — they only drain a queue of
//! independent, order-tagged jobs whose results are merged
//! deterministically (the first failure *by job index* wins, matching
//! what a serial loop would report; a worker panic is re-raised with the
//! losing job's index, never silently swallowed).
//!
//! Two executors live here:
//!
//! * [`run_pooled`] — scoped, borrowing workers for one batch of jobs
//!   (the codec decode hot path).
//! * [`PoolHandle`] — a persistent bounded-capacity pool that outlives
//!   any one batch, for callers that submit many batches over a run (the
//!   OS-thread serving backend shares one handle across its shards, so
//!   decode fan-out never spawns per request).

use parking_lot::Mutex;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex, PoisonError};

use cachegen_telemetry::Recorder;

/// Worker count for a pooled run: one per available core, never more
/// than there are work items (no oversubscription on small machines, no
/// single-thread underutilization for short job lists).
pub fn bounded_workers(jobs: usize) -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .clamp(1, jobs.max(1))
}

/// Pool geometry of one pooled run, reported to a telemetry observer
/// *before* any worker picks up a job.
///
/// Deliberately only what is decided up front (job count, worker
/// count): per-worker job tallies depend on OS scheduling and would
/// break the byte-deterministic exports the telemetry layer guarantees.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PoolShape {
    /// Jobs submitted to the queue.
    pub jobs: usize,
    /// Workers the pool will run them on (1 = inline, no spawn).
    pub workers: usize,
}

impl PoolShape {
    /// Publishes this shape under the `cachegen.codec.pool.*` namespace:
    /// `workers` and `queue_depth` gauges plus a `jobs_per_worker`
    /// histogram sample. Both execution backends report through this one
    /// method, so their registries carry identical pool metric names
    /// regardless of which executor ([`run_pooled`] or [`PoolHandle`])
    /// did the work.
    pub fn report(&self, recorder: &Recorder) {
        if recorder.is_enabled() && self.jobs > 0 {
            recorder.gauge("cachegen.codec.pool.workers", self.workers as f64);
            recorder.gauge("cachegen.codec.pool.queue_depth", self.jobs as f64);
            recorder.observe(
                "cachegen.codec.pool.jobs_per_worker",
                self.jobs as f64 / self.workers.max(1) as f64,
            );
        }
    }
}

/// How one indexed job failed.
enum Failure<E> {
    /// The job returned `Err`.
    Error(E),
    /// The job panicked; the payload rendered to text.
    Panicked(String),
}

/// Renders a panic payload for re-raising with job context. Payloads
/// are almost always `&str` or `String` (from `panic!`/`assert!`);
/// anything else is reported as opaque rather than lost.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(payload) => match payload.downcast::<&'static str>() {
            Ok(s) => (*s).to_string(),
            Err(_) => "opaque panic payload".to_string(),
        },
    }
}

/// Records `failure` for `idx` if it is the lowest-indexed failure seen.
fn record_failure<E>(slot: &Mutex<Option<(usize, Failure<E>)>>, idx: usize, failure: Failure<E>) {
    let mut slot = slot.lock();
    if slot.as_ref().is_none_or(|(i, _)| idx < *i) {
        *slot = Some((idx, failure));
    }
}

/// Resolves a finished run: clean, the lowest-indexed error, or a
/// re-raise of the lowest-indexed worker panic *with its job index and
/// message* — a parallel run must never report less than the serial
/// loop would.
fn resolve<E>(failure: Option<(usize, Failure<E>)>) -> Result<(), E> {
    match failure {
        None => Ok(()),
        Some((_, Failure::Error(e))) => Err(e),
        Some((idx, Failure::Panicked(msg))) => {
            panic!("pooled job {idx} panicked: {msg}")
        }
    }
}

/// Runs `jobs` to completion on a bounded pool of scoped workers.
///
/// Workers pull `(index, job)` pairs in submission order from a shared
/// queue. The first failing job aborts the rest of the queue, and the
/// error reported is the one the lowest-indexed failing job produced —
/// independent of thread interleaving, so the parallel path reports the
/// same error the serial path would. A job that *panics* counts as a
/// failure at its index too: the panic is caught and re-raised on the
/// caller's thread as `pooled job <idx> panicked: <message>`, instead of
/// surfacing as a bare scope abort. With zero or one job no thread is
/// spawned.
pub fn run_pooled<T, E, F>(jobs: Vec<T>, run: F) -> Result<(), E>
where
    T: Send,
    E: Send,
    F: Fn(usize, T) -> Result<(), E> + Sync,
{
    run_pooled_observed(jobs, run, |_| {})
}

/// [`run_pooled`] with a pool-occupancy observer: `observe` receives the
/// [`PoolShape`] on the caller's thread before any work starts, so the
/// codec hot path can count worker occupancy without taking a lock in
/// the workers themselves.
pub fn run_pooled_observed<T, E, F>(
    jobs: Vec<T>,
    run: F,
    observe: impl FnOnce(PoolShape),
) -> Result<(), E>
where
    T: Send,
    E: Send,
    F: Fn(usize, T) -> Result<(), E> + Sync,
{
    let workers = bounded_workers(jobs.len());
    run_pooled_shaped(jobs, workers, run, observe)
}

/// [`run_pooled_observed`] with the worker count chosen by the caller —
/// the testable core. A pool of one worker (or zero/one jobs) runs the
/// whole queue inline on the caller's thread: spawning a scope plus a
/// mutex-guarded queue just to replay the serial loop on another thread
/// made `decode_parallel` *slower* than `decode` on single-core runners
/// (4.40 ms vs 4.36 ms in the PR-8 `BENCH_codec.json`).
fn run_pooled_shaped<T, E, F>(
    jobs: Vec<T>,
    workers: usize,
    run: F,
    observe: impl FnOnce(PoolShape),
) -> Result<(), E>
where
    T: Send,
    E: Send,
    F: Fn(usize, T) -> Result<(), E> + Sync,
{
    if jobs.len() <= 1 || workers <= 1 {
        observe(PoolShape {
            jobs: jobs.len(),
            workers: 1,
        });
        for (idx, job) in jobs.into_iter().enumerate() {
            // Same failure surface as the pooled path: errors in index
            // order (trivially — the loop stops at the first), panics
            // re-raised with the job's index, machine-independent.
            match catch_unwind(AssertUnwindSafe(|| run(idx, job))) {
                Ok(result) => result?,
                Err(payload) => {
                    panic!("pooled job {idx} panicked: {}", panic_message(payload))
                }
            }
        }
        return Ok(());
    }
    observe(PoolShape {
        jobs: jobs.len(),
        workers,
    });
    let queue = Mutex::new(jobs.into_iter().enumerate());
    let failure = Mutex::new(None::<(usize, Failure<E>)>);
    let failed = AtomicBool::new(false);
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                // Once any job fails the run is doomed; don't pay for
                // the remaining queue.
                if failed.load(Ordering::Relaxed) {
                    break;
                }
                let next = queue.lock().next();
                let Some((idx, job)) = next else { break };
                match catch_unwind(AssertUnwindSafe(|| run(idx, job))) {
                    Ok(Ok(())) => {}
                    Ok(Err(e)) => {
                        failed.store(true, Ordering::Relaxed);
                        record_failure(&failure, idx, Failure::Error(e));
                    }
                    Err(payload) => {
                        failed.store(true, Ordering::Relaxed);
                        record_failure(&failure, idx, Failure::Panicked(panic_message(payload)));
                    }
                }
            });
        }
    });
    resolve(failure.into_inner())
}

/// Infallible convenience wrapper around [`run_pooled`] for jobs that
/// cannot fail (e.g. concurrency smoke tests hammering a shared
/// structure).
pub fn for_each_pooled<T, F>(jobs: Vec<T>, run: F)
where
    T: Send,
    F: Fn(usize, T) + Sync,
{
    let result = run_pooled(jobs, |idx, job| {
        run(idx, job);
        Ok::<(), std::convert::Infallible>(())
    });
    match result {
        Ok(()) => {}
        Err(e) => match e {},
    }
}

/// How one [`PoolHandle::run_batch`] job failed (ordered, deterministic:
/// always the lowest-indexed failure of the batch).
#[derive(Debug, PartialEq, Eq)]
pub enum PoolError<E> {
    /// The job at `index` returned an error.
    Job {
        /// Submission index within the batch.
        index: usize,
        /// The job's error.
        error: E,
    },
    /// The job at `index` panicked on a pool worker.
    Panic {
        /// Submission index within the batch.
        index: usize,
        /// The panic payload rendered to text.
        message: String,
    },
}

impl<E> PoolError<E> {
    fn index(&self) -> usize {
        match self {
            PoolError::Job { index, .. } | PoolError::Panic { index, .. } => *index,
        }
    }
}

impl<E: std::fmt::Display> std::fmt::Display for PoolError<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PoolError::Job { index, error } => write!(f, "pool job {index} failed: {error}"),
            PoolError::Panic { index, message } => {
                write!(f, "pool job {index} panicked: {message}")
            }
        }
    }
}

/// An owned task on the persistent pool's queue.
type Task = Box<dyn FnOnce() + Send + 'static>;

/// A fallible owned job submitted to [`PoolHandle::run_batch`].
pub type PoolJob<E> = Box<dyn FnOnce() -> Result<(), E> + Send + 'static>;

/// Queue state behind the pool's mutex.
struct PoolQueue {
    tasks: VecDeque<Task>,
    shutdown: bool,
}

/// State shared between the handle and its workers.
struct PoolShared {
    queue: StdMutex<PoolQueue>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
}

/// Locks the pool queue, poisoned or not: tasks are unwind-caught, but a
/// poisoned mutex from an unrelated panic must not wedge the pool.
fn qlock(shared: &PoolShared) -> std::sync::MutexGuard<'_, PoolQueue> {
    shared.queue.lock().unwrap_or_else(PoisonError::into_inner)
}

fn worker_loop(shared: &PoolShared) {
    loop {
        let task = {
            let mut q = qlock(shared);
            loop {
                if let Some(task) = q.tasks.pop_front() {
                    shared.not_full.notify_one();
                    break Some(task);
                }
                if q.shutdown {
                    break None;
                }
                q = shared
                    .not_empty
                    .wait(q)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        match task {
            Some(task) => task(),
            None => return,
        }
    }
}

/// Completion latch of one batch: counts jobs down and keeps the
/// lowest-indexed failure.
struct BatchState<E> {
    inner: StdMutex<(usize, Option<PoolError<E>>)>,
    done: Condvar,
}

impl<E> BatchState<E> {
    fn new(jobs: usize) -> Self {
        BatchState {
            inner: StdMutex::new((jobs, None)),
            done: Condvar::new(),
        }
    }

    fn finish(&self, failure: Option<PoolError<E>>) {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(f) = failure {
            if inner.1.as_ref().is_none_or(|cur| f.index() < cur.index()) {
                inner.1 = Some(f);
            }
        }
        inner.0 -= 1;
        if inner.0 == 0 {
            self.done.notify_all();
        }
    }

    fn wait(&self) -> Result<(), PoolError<E>> {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        while inner.0 > 0 {
            inner = self
                .done
                .wait(inner)
                .unwrap_or_else(PoisonError::into_inner);
        }
        match inner.1.take() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

/// A persistent bounded-capacity worker pool: the shared executor the
/// OS-thread serving backend borrows for decode fan-out, so shards never
/// spawn per request.
///
/// `capacity` bounds the task queue; a submitter whose batch would
/// overflow it blocks until workers drain the backlog — backpressure,
/// not unbounded memory. Batches from concurrent submitters interleave
/// on the queue but complete independently: [`run_batch`](PoolHandle::run_batch)
/// returns when *its* jobs are done, with the
/// lowest-indexed failure (error or panic, carrying the panic message)
/// if any. Do not submit from a pool worker itself: a full queue would
/// then deadlock.
///
/// Dropping the handle drains queued tasks, then joins every worker.
pub struct PoolHandle {
    shared: Arc<PoolShared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl PoolHandle {
    /// A pool of `workers` OS threads with a task queue bounded at
    /// `capacity` (both at least 1).
    pub fn new(workers: usize, capacity: usize) -> Self {
        assert!(workers >= 1, "need at least one pool worker");
        assert!(capacity >= 1, "need a positive queue capacity");
        let shared = Arc::new(PoolShared {
            queue: StdMutex::new(PoolQueue {
                tasks: VecDeque::new(),
                shutdown: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity,
        });
        let workers = (0..workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        PoolHandle { shared, workers }
    }

    /// Worker thread count.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Task queue capacity (the backpressure bound).
    pub fn capacity(&self) -> usize {
        self.shared.capacity
    }

    /// Tasks currently queued (racy by nature; for gauges, not control
    /// flow).
    pub fn queue_depth(&self) -> usize {
        qlock(&self.shared).tasks.len()
    }

    /// Enqueues one task, blocking while the queue is full.
    fn submit(&self, task: Task) {
        let mut q = qlock(&self.shared);
        while q.tasks.len() >= self.shared.capacity {
            q = self
                .shared
                .not_full
                .wait(q)
                .unwrap_or_else(PoisonError::into_inner);
        }
        q.tasks.push_back(task);
        self.shared.not_empty.notify_one();
    }

    /// Runs a batch of owned jobs on the pool and blocks until all of
    /// them finished. `observe` receives the batch's [`PoolShape`]
    /// before any job is queued (wire it to
    /// [`PoolShape::report`] for the `cachegen.codec.pool.*` gauges).
    /// Returns the lowest-indexed failure — an error or a caught worker
    /// panic with its message — matching [`run_pooled`]'s deterministic
    /// merge rule.
    pub fn run_batch<E: Send + 'static>(
        &self,
        jobs: Vec<PoolJob<E>>,
        observe: impl FnOnce(PoolShape),
    ) -> Result<(), PoolError<E>> {
        observe(PoolShape {
            jobs: jobs.len(),
            workers: self.workers.len(),
        });
        if jobs.is_empty() {
            return Ok(());
        }
        let batch = Arc::new(BatchState::<E>::new(jobs.len()));
        for (index, job) in jobs.into_iter().enumerate() {
            let batch = Arc::clone(&batch);
            self.submit(Box::new(move || {
                let failure = match catch_unwind(AssertUnwindSafe(job)) {
                    Ok(Ok(())) => None,
                    Ok(Err(error)) => Some(PoolError::Job { index, error }),
                    Err(payload) => Some(PoolError::Panic {
                        index,
                        message: panic_message(payload),
                    }),
                };
                batch.finish(failure);
            }));
        }
        batch.wait()
    }
}

impl Drop for PoolHandle {
    fn drop(&mut self) {
        qlock(&self.shared).shutdown = true;
        self.shared.not_empty.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn runs_every_job() {
        let hits = AtomicUsize::new(0);
        let sum = AtomicUsize::new(0);
        for_each_pooled((0..100usize).collect(), |idx, job| {
            assert_eq!(idx, job);
            hits.fetch_add(1, Ordering::Relaxed);
            sum.fetch_add(job, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 100);
        assert_eq!(sum.load(Ordering::Relaxed), 99 * 100 / 2);
    }

    #[test]
    fn reports_lowest_index_error() {
        // Jobs 3 and 7 fail; whichever thread finishes first, the
        // reported error must be job 3's (the serial answer).
        for _ in 0..20 {
            let result = run_pooled((0..32usize).collect(), |_, job| {
                if job == 3 || job == 7 {
                    Err(job)
                } else {
                    Ok(())
                }
            });
            assert_eq!(result, Err(3));
        }
    }

    #[test]
    #[should_panic(expected = "pooled job 5 panicked: decode blew up on job 5")]
    fn worker_panic_surfaces_with_job_context() {
        let _ = run_pooled((0..32usize).collect(), |_, job| {
            if job == 5 {
                panic!("decode blew up on job {job}");
            }
            Ok::<(), usize>(())
        });
    }

    #[test]
    fn lowest_index_wins_across_error_and_panic() {
        // Job 2 errors, job 9 panics: the error at the lower index must
        // win deterministically — no panic escapes.
        for _ in 0..10 {
            let result = run_pooled((0..32usize).collect(), |_, job| {
                if job == 9 {
                    panic!("higher-index panic must lose to the job-2 error");
                }
                if job == 2 {
                    return Err(job);
                }
                Ok(())
            });
            assert_eq!(result, Err(2));
        }
    }

    #[test]
    fn empty_and_single_job_run_inline() {
        assert_eq!(run_pooled(Vec::<usize>::new(), |_, _| Err(0usize)), Ok(()));
        let seen = AtomicUsize::new(0);
        for_each_pooled(vec![42usize], |idx, job| {
            assert_eq!((idx, job), (0, 42));
            seen.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(seen.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn observer_sees_shape_before_work() {
        let mut shape = None;
        let ran = AtomicUsize::new(0);
        let result = run_pooled_observed(
            (0..8usize).collect(),
            |_, _| {
                ran.fetch_add(1, Ordering::Relaxed);
                Ok::<(), usize>(())
            },
            |s| shape = Some(s),
        );
        assert_eq!(result, Ok(()));
        assert_eq!(ran.load(Ordering::Relaxed), 8);
        let shape = shape.expect("observer must fire");
        assert_eq!(shape.jobs, 8);
        assert_eq!(shape.workers, bounded_workers(8));

        let mut inline = None;
        let _ = run_pooled_observed(
            vec![1usize],
            |_, _| Ok::<(), usize>(()),
            |s| inline = Some(s),
        );
        assert_eq!(
            inline,
            Some(PoolShape {
                jobs: 1,
                workers: 1
            })
        );
    }

    #[test]
    fn shape_report_publishes_pool_namespace() {
        let r = Recorder::new();
        PoolShape {
            jobs: 12,
            workers: 3,
        }
        .report(&r);
        let snap = r.registry_snapshot();
        assert_eq!(snap.gauge_value("cachegen.codec.pool.workers"), Some(3.0));
        assert_eq!(
            snap.gauge_value("cachegen.codec.pool.queue_depth"),
            Some(12.0)
        );
        let h = snap
            .histogram("cachegen.codec.pool.jobs_per_worker")
            .expect("histogram recorded");
        assert_eq!(h.count(), 1);
        // An empty shape reports nothing (no zero-job noise in exports).
        let quiet = Recorder::new();
        PoolShape {
            jobs: 0,
            workers: 1,
        }
        .report(&quiet);
        assert_eq!(quiet.registry_snapshot().gauges().count(), 0);
    }

    #[test]
    fn one_worker_pool_runs_inline() {
        // Regression (PR-8 bench): with `pool_workers == 1`,
        // `decode_parallel` paid for a thread scope plus a mutex queue
        // only to replay the serial loop, landing slower than `decode`.
        // A one-worker shape must short-circuit: every job runs on the
        // caller's thread, and the observed shape says one worker.
        let caller = std::thread::current().id();
        let on_caller = AtomicUsize::new(0);
        let mut shape = None;
        let result = run_pooled_shaped(
            (0..8usize).collect(),
            1,
            |idx, job| {
                assert_eq!(idx, job);
                if std::thread::current().id() == caller {
                    on_caller.fetch_add(1, Ordering::Relaxed);
                }
                Ok::<(), usize>(())
            },
            |s| shape = Some(s),
        );
        assert_eq!(result, Ok(()));
        assert_eq!(
            on_caller.load(Ordering::Relaxed),
            8,
            "a one-worker pool must not move jobs off the caller's thread"
        );
        assert_eq!(
            shape,
            Some(PoolShape {
                jobs: 8,
                workers: 1
            })
        );
        // The serial merge rule is preserved: lowest-indexed error wins
        // (trivially, since the inline loop stops at the first failure).
        let result = run_pooled_shaped(
            (0..8usize).collect(),
            1,
            |_, job| if job >= 3 { Err(job) } else { Ok(()) },
            |_| {},
        );
        assert_eq!(result, Err(3));
    }

    #[test]
    fn worker_bound_is_sane() {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        assert_eq!(bounded_workers(0), 1);
        assert_eq!(bounded_workers(1), 1);
        assert!(bounded_workers(3) <= 3);
        assert!(bounded_workers(10_000) <= cores);
        assert!(bounded_workers(10_000) >= 1);
    }

    #[test]
    fn pool_handle_runs_batches_and_reports_shape() {
        let pool = PoolHandle::new(2, 4);
        assert_eq!(pool.workers(), 2);
        assert_eq!(pool.capacity(), 4);
        let hits = Arc::new(AtomicUsize::new(0));
        // A batch far larger than the queue capacity must still complete
        // (submitters block on the backpressure bound, workers drain).
        let jobs: Vec<PoolJob<String>> = (0..64)
            .map(|_| {
                let hits = Arc::clone(&hits);
                Box::new(move || {
                    hits.fetch_add(1, Ordering::Relaxed);
                    Ok(())
                }) as PoolJob<String>
            })
            .collect();
        let mut shape = None;
        pool.run_batch(jobs, |s| shape = Some(s))
            .expect("batch must succeed");
        assert_eq!(hits.load(Ordering::Relaxed), 64);
        assert_eq!(
            shape,
            Some(PoolShape {
                jobs: 64,
                workers: 2
            })
        );
        // An empty batch is a no-op that still observes its shape.
        let empty: Vec<PoolJob<String>> = Vec::new();
        assert_eq!(pool.run_batch(empty, |_| {}), Ok(()));
    }

    #[test]
    fn pool_handle_reports_lowest_failure_with_panic_context() {
        let pool = PoolHandle::new(3, 8);
        let jobs: Vec<PoolJob<usize>> = (0..16usize)
            .map(|i| {
                Box::new(move || {
                    if i == 11 {
                        panic!("job {i} hit a poisoned chunk");
                    }
                    if i == 4 {
                        return Err(i);
                    }
                    Ok(())
                }) as PoolJob<usize>
            })
            .collect();
        // Error at 4 beats panic at 11 — lowest index wins across kinds.
        assert_eq!(
            pool.run_batch(jobs, |_| {}),
            Err(PoolError::Job { index: 4, error: 4 })
        );
        // A lone panic is caught and surfaced with its index and text;
        // the pool survives to run the next batch.
        let jobs: Vec<PoolJob<usize>> = (0..4)
            .map(|i| {
                Box::new(move || {
                    if i == 2 {
                        panic!("boom {i}");
                    }
                    Ok(())
                }) as PoolJob<usize>
            })
            .collect();
        let err = pool.run_batch(jobs, |_| {}).expect_err("panic must fail");
        assert_eq!(
            err,
            PoolError::Panic {
                index: 2,
                message: "boom 2".to_string()
            }
        );
        assert_eq!(err.to_string(), "pool job 2 panicked: boom 2");
        let ok: Vec<PoolJob<usize>> = vec![Box::new(|| Ok(()))];
        assert_eq!(pool.run_batch(ok, |_| {}), Ok(()));
    }

    #[test]
    fn pool_handle_serves_concurrent_submitters() {
        // Two scoped submitters share one pool; each batch completes
        // independently with its own result.
        let pool = PoolHandle::new(2, 2);
        let count = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|s| {
            for _ in 0..2 {
                let pool = &pool;
                let count = Arc::clone(&count);
                s.spawn(move || {
                    let jobs: Vec<PoolJob<String>> = (0..32)
                        .map(|_| {
                            let count = Arc::clone(&count);
                            Box::new(move || {
                                count.fetch_add(1, Ordering::Relaxed);
                                Ok(())
                            }) as PoolJob<String>
                        })
                        .collect();
                    pool.run_batch(jobs, |_| {}).expect("batch must succeed");
                });
            }
        });
        assert_eq!(count.load(Ordering::Relaxed), 64);
    }
}
