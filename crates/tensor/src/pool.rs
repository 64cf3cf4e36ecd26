//! Pool-bounded execution — the one module in the workspace that spawns
//! OS threads.
//!
//! Every headline number in this reproduction rests on the virtual-clock
//! simulator being a bit-reproducible oracle, so real threads are
//! quarantined: the `no-raw-spawn` rule in `cachegen-analyze` bans
//! spawning or scoping threads everywhere outside this module and the
//! serving crate's thread backend (`serving::threads`, which only opens
//! the scope its shard [`Pool`]s live in). Workers here never touch
//! simulator state — they only drain a queue of independent tasks, and
//! a batch of order-tagged jobs is merged deterministically (the first
//! failure *by job index* wins, matching what a serial loop would
//! report; a panic is reported with the losing job's index, never
//! silently swallowed).
//!
//! One executor lives here: [`Pool`], a bounded task queue drained by
//! workers spawned into the caller's [`std::thread::scope`], so tasks
//! borrow instead of owning. [`run_pooled`] — the one batch entry point,
//! under the sim transformer's prefill phases, the codec's pooled decode,
//! the OS-thread serving backend's chunk loads and [`for_each_pooled`] —
//! opens a scope for one batch of jobs and drains it on the calling
//! thread beside the workers it spawns. The serving backend keeps one
//! [`Pool`] per shard alive for a whole run, so batch dispatch does not
//! spawn.
//!
//! The module is `std`-only and sits at the bottom of the crate graph,
//! so every crate above it — the transformer included — runs on the same
//! executor. Reporting a [`PoolShape`] to telemetry is the codec's
//! (`cachegen_codec::pool`, which re-exports this module's items).

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::Scope;

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

/// Runs `jobs` to completion on `workers` workers (see
/// [`bounded_workers`] for the default count): the calling thread and
/// `workers − 1` scoped threads.
///
/// Workers pull `(index, job)` pairs in submission order off the shared
/// batch. The caller drains beside the threads it spawned instead of
/// sleeping until they finish, so a run costs one spawn fewer and starts
/// on a core that is already awake: on a 2-vCPU host that made 64- and
/// 200-token prefills ~16% and ~11% faster than `workers` spawned
/// threads with an idle caller.
///
/// The first failing job aborts the rest of the queue, and the
/// error reported is the one the lowest-indexed failing job produced —
/// independent of thread interleaving, so the parallel path reports the
/// same error the serial path would. A job that *panics* counts as a
/// failure at its index too: the panic is caught and re-raised on the
/// caller's thread as `pooled job <idx> panicked: <message>`, instead of
/// surfacing as a bare scope abort. `observe` receives the [`PoolShape`]
/// on the caller's thread before any work starts, so the codec hot path
/// can count worker occupancy without taking a lock in the workers
/// themselves.
///
/// A pool of one worker (or zero/one jobs) runs the whole queue inline
/// on the caller's thread: spawning a scope plus a mutex-guarded queue
/// just to replay the serial loop on another thread made pooled decode
/// *slower* than serial decode on single-core runners (4.40 ms vs
/// 4.36 ms in the PR-8 `BENCH_codec.json`).
pub fn run_pooled<T, E, F>(
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
    let helpers = workers.min(jobs.len()) - 1;
    let batch = Batch::new(jobs);
    std::thread::scope(|s| {
        for _ in 0..helpers {
            s.spawn(|| batch.drain(&run));
        }
        batch.drain(&run);
    });
    // A parallel run must never report less than the serial loop would:
    // the lowest-indexed error, or the lowest-indexed panic re-raised
    // *with its job index and message*.
    match batch.failure() {
        None => Ok(()),
        Some(PoolError::Job { error, .. }) => Err(error),
        Some(PoolError::Panic { index, message }) => {
            panic!("pooled job {index} panicked: {message}")
        }
    }
}

/// Infallible convenience wrapper around [`run_pooled`] for jobs that
/// cannot fail (e.g. concurrency smoke tests hammering a shared
/// structure).
pub fn for_each_pooled<T, F>(jobs: Vec<T>, run: F)
where
    T: Send,
    F: Fn(usize, T) + Sync,
{
    let workers = bounded_workers(jobs.len());
    let run = |idx, job| {
        run(idx, job);
        Ok::<(), std::convert::Infallible>(())
    };
    let result = run_pooled(jobs, workers, run, |_| {});
    match result {
        Ok(()) => {}
        Err(e) => match e {},
    }
}

/// How the lowest-indexed failing job of a [`run_pooled`] batch failed:
/// it returned `error`, or it panicked with `message`.
enum PoolError<E> {
    Job { index: usize, error: E },
    Panic { index: usize, message: String },
}

impl<E> PoolError<E> {
    fn index(&self) -> usize {
        match self {
            PoolError::Job { index, .. } | PoolError::Panic { index, .. } => *index,
        }
    }
}

/// A task on a pool's queue; it may borrow anything that outlives the
/// scope the pool's workers were spawned into.
type Task<'scope> = Box<dyn FnOnce() + Send + 'scope>;

/// Queue state behind the pool's mutex.
struct PoolQueue<'scope> {
    tasks: VecDeque<Task<'scope>>,
    shutdown: bool,
}

/// State shared between the pool's owner and its workers.
struct PoolShared<'scope> {
    queue: Mutex<PoolQueue<'scope>>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
}

/// Locks pool state, poisoned or not: tasks run outside every lock and
/// each update under one is a single step, so a poisoned mutex from an
/// unrelated panic must not wedge the pool.
fn relock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Drains the queue until shutdown. A panicking task must not take its
/// worker down with it — a submitter blocked on a full queue whose
/// workers died would never wake — so every task is unwind-caught, the
/// worker keeps draining, and the first payload is re-raised once the
/// queue is shut down: the scope's owner then fails exactly as it would
/// for any panicked scoped thread.
fn worker_loop(shared: &PoolShared<'_>) {
    let mut first_panic = None;
    loop {
        let task = shared
            .not_empty
            .wait_while(relock(&shared.queue), |q| q.tasks.is_empty() && !q.shutdown)
            .unwrap_or_else(PoisonError::into_inner)
            .tasks
            .pop_front();
        // Empty after the wait means shut down *and* drained.
        let Some(task) = task else { break };
        shared.not_full.notify_one();
        if let Err(payload) = catch_unwind(AssertUnwindSafe(task)) {
            first_panic.get_or_insert(payload);
        }
    }
    if let Some(payload) = first_panic {
        resume_unwind(payload);
    }
}

/// One [`run_pooled`] batch: the jobs not yet started, in index order,
/// and the lowest-indexed failure so far.
struct Batch<T, E> {
    inner: Mutex<BatchInner<T, E>>,
}

struct BatchInner<T, E> {
    jobs: std::iter::Enumerate<std::vec::IntoIter<T>>,
    failure: Option<PoolError<E>>,
}

impl<T, E> Batch<T, E> {
    fn new(jobs: Vec<T>) -> Self {
        Batch {
            inner: Mutex::new(BatchInner {
                jobs: jobs.into_iter().enumerate(),
                failure: None,
            }),
        }
    }

    /// One drainer: runs `run` on jobs off the front of the batch until
    /// none is left or one has failed. Jobs start in index order, so a
    /// recorded failure sits below every job not yet started — they are
    /// skipped, as the serial loop's `?` would skip them — while jobs
    /// already running may still fail lower and take the report.
    fn drain(&self, run: &impl Fn(usize, T) -> Result<(), E>) {
        loop {
            let next = {
                let mut inner = relock(&self.inner);
                match inner.failure {
                    Some(_) => None,
                    None => inner.jobs.next(),
                }
            };
            let Some((index, job)) = next else { break };
            let failure = match catch_unwind(AssertUnwindSafe(|| run(index, job))) {
                Ok(Ok(())) => continue,
                Ok(Err(error)) => PoolError::Job { index, error },
                Err(payload) => PoolError::Panic {
                    index,
                    message: panic_message(payload),
                },
            };
            let mut inner = relock(&self.inner);
            if inner.failure.as_ref().is_none_or(|f| index < f.index()) {
                inner.failure = Some(failure);
            }
        }
    }

    /// The lowest-indexed failure, once every drainer has returned.
    fn failure(self) -> Option<PoolError<E>> {
        let inner = self.inner.into_inner();
        inner.unwrap_or_else(PoisonError::into_inner).failure
    }
}

/// A bounded-capacity worker pool spawned into a caller's
/// [`std::thread::scope`] — the workspace's one executor.
///
/// `capacity` bounds the task queue; a submitter that would overflow it
/// blocks until workers drain the backlog — backpressure, not unbounded
/// memory. A task may submit into a *different* pool, or fan a batch out
/// with [`run_pooled`]; do not submit from a pool's worker into the same
/// pool: a full queue would then deadlock.
///
/// Dropping the pool shuts the queue down: workers drain what is queued,
/// then exit, and the scope joins them. A raw [`submit`](Pool::submit)
/// task that panicked fails that join, hence the scope's owner.
pub struct Pool<'scope> {
    shared: Arc<PoolShared<'scope>>,
}

impl<'scope> Pool<'scope> {
    /// Spawns `workers` threads into `scope`, fed by a task queue bounded
    /// at `capacity` (both at least 1).
    pub fn spawn_in(scope: &'scope Scope<'scope, '_>, workers: usize, capacity: usize) -> Self {
        assert!(workers >= 1, "need at least one pool worker");
        assert!(capacity >= 1, "need a positive queue capacity");
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(PoolQueue {
                tasks: VecDeque::new(),
                shutdown: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity,
        });
        for _ in 0..workers {
            let shared = Arc::clone(&shared);
            scope.spawn(move || worker_loop(&shared));
        }
        Pool { shared }
    }

    /// Enqueues one task, blocking while the queue is full.
    pub fn submit(&self, task: impl FnOnce() + Send + 'scope) {
        let capacity = self.shared.capacity;
        let mut q = self
            .shared
            .not_full
            .wait_while(relock(&self.shared.queue), |q| q.tasks.len() >= capacity)
            .unwrap_or_else(PoisonError::into_inner);
        q.tasks.push_back(Box::new(task));
        self.shared.not_empty.notify_one();
    }
}

impl Drop for Pool<'_> {
    fn drop(&mut self) {
        relock(&self.shared.queue).shutdown = true;
        self.shared.not_empty.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::Barrier;

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
            let fail_3_and_7 = |_, job| {
                if job == 3 || job == 7 {
                    Err(job)
                } else {
                    Ok(())
                }
            };
            let result = run_pooled(
                (0..32usize).collect(),
                bounded_workers(32),
                fail_3_and_7,
                |_| {},
            );
            assert_eq!(result, Err(3));
        }
    }

    #[test]
    #[should_panic(expected = "pooled job 5 panicked: decode blew up on job 5")]
    fn worker_panic_surfaces_with_job_context() {
        let panic_on_5 = |_, job| {
            if job == 5 {
                panic!("decode blew up on job {job}");
            }
            Ok::<(), usize>(())
        };
        let _ = run_pooled(
            (0..32usize).collect(),
            bounded_workers(32),
            panic_on_5,
            |_| {},
        );
    }

    #[test]
    fn lowest_index_wins_across_error_and_panic() {
        // Job 2 errors, job 9 panics: the error at the lower index must
        // win deterministically — no panic escapes.
        for _ in 0..10 {
            let err_2_panic_9 = |_, job| {
                if job == 9 {
                    panic!("higher-index panic must lose to the job-2 error");
                }
                if job == 2 {
                    return Err(job);
                }
                Ok(())
            };
            let result = run_pooled(
                (0..32usize).collect(),
                bounded_workers(32),
                err_2_panic_9,
                |_| {},
            );
            assert_eq!(result, Err(2));
        }
    }

    #[test]
    fn empty_and_single_job_run_inline() {
        assert_eq!(
            run_pooled(Vec::<usize>::new(), 1, |_, _| Err(0usize), |_| {}),
            Ok(())
        );
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
        let result = run_pooled(
            (0..8usize).collect(),
            bounded_workers(8),
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
        let _ = run_pooled(
            vec![1usize],
            bounded_workers(1),
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
    fn the_caller_is_one_of_the_workers() {
        // Whichever thread gets which job, no more than `workers - 1`
        // threads other than the caller run any: the caller drains too.
        // Each job sleeps, so every thread that exists gets some.
        let caller = std::thread::current().id();
        for workers in [2, 3] {
            let others = Mutex::new(Vec::new());
            let note_thread = |_, _| {
                std::thread::sleep(std::time::Duration::from_micros(200));
                let id = std::thread::current().id();
                let mut others = relock(&others);
                if id != caller && !others.contains(&id) {
                    others.push(id);
                }
                Ok::<(), usize>(())
            };
            let result = run_pooled((0..32usize).collect(), workers, note_thread, |_| {});
            assert_eq!(result, Ok(()));
            assert!(relock(&others).len() < workers, "{workers} workers");
        }
    }

    #[test]
    fn one_worker_pool_runs_inline() {
        // Regression (PR-8 bench): with `pool_workers == 1`,
        // pooled decode paid for a thread scope plus a mutex queue only
        // to replay the serial loop, landing slower than serial decode.
        // A one-worker shape must short-circuit: every job runs on the
        // caller's thread, and the observed shape says one worker.
        let caller = std::thread::current().id();
        let on_caller = AtomicUsize::new(0);
        let mut shape = None;
        let result = run_pooled(
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
        let result = run_pooled(
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The one merge rule, for any mix of outcomes on any worker
        /// count: the batch reports exactly the lowest failing index (its
        /// error, or its panic re-raised with the index), every job below
        /// it ran once, and nothing ran twice.
        #[test]
        fn run_pooled_reports_exactly_the_lowest_failure(
            outcomes in proptest::collection::vec(0u8..8, 0..24),
            workers_pick in 0usize..3,
        ) {
            const ERR: u8 = 6;
            const PANIC: u8 = 7;
            let n = outcomes.len();
            let workers = [1, 2, 4][workers_pick];
            let ran: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            let mut shape = None;
            let result = catch_unwind(AssertUnwindSafe(|| {
                let job = |i: usize, _| {
                    ran[i].fetch_add(1, Ordering::Relaxed);
                    match outcomes[i] {
                        ERR => Err(i),
                        PANIC => panic!("job {i} blew up"),
                        _ => Ok(()),
                    }
                };
                run_pooled(vec![(); n], workers, job, |s| shape = Some(s))
            }))
            .map_err(panic_message);
            let workers = if n <= 1 { 1 } else { workers };
            prop_assert_eq!(shape, Some(PoolShape { jobs: n, workers }));
            let runs: Vec<usize> = ran.iter().map(|r| r.load(Ordering::Relaxed)).collect();
            prop_assert!(runs.iter().all(|&r| r <= 1), "a job ran twice: {runs:?}");
            let first = outcomes.iter().position(|&o| o >= ERR);
            let want = match first {
                None => Ok(Ok(())),
                Some(index) if outcomes[index] == ERR => Ok(Err(index)),
                Some(index) => Err(format!("pooled job {index} panicked: job {index} blew up")),
            };
            prop_assert_eq!(result, want);
            let below = first.unwrap_or(n);
            prop_assert!(runs[..below].iter().all(|&r| r == 1), "skipped below {below}: {runs:?}");
        }
    }

    #[test]
    fn full_queue_blocks_the_submitter() {
        let queue_depth = |pool: &Pool<'_>| relock(&pool.shared.queue).tasks.len();
        // One worker held inside task 0, capacity 1: task 1 fills the
        // queue and the submit of task 2 cannot return until the worker
        // is released — the bound holds the whole time.
        let gate = Barrier::new(2);
        let started = AtomicBool::new(false);
        let submitted = AtomicBool::new(false);
        let order = Mutex::new(Vec::new());
        std::thread::scope(|outer| {
            let pool = Pool::spawn_in(outer, 1, 1);
            pool.submit(|| {
                started.store(true, Ordering::SeqCst);
                gate.wait();
                relock(&order).push(0);
            });
            std::thread::scope(|inner| {
                inner.spawn(|| {
                    pool.submit(|| relock(&order).push(1));
                    pool.submit(|| relock(&order).push(2));
                    submitted.store(true, Ordering::SeqCst);
                });
                while !started.load(Ordering::SeqCst) || queue_depth(&pool) < 1 {
                    std::thread::yield_now();
                }
                for _ in 0..2_000 {
                    assert!(queue_depth(&pool) <= 1, "queue grew past its capacity");
                    assert!(
                        !submitted.load(Ordering::SeqCst),
                        "submit returned while the queue was full"
                    );
                    std::thread::yield_now();
                }
                gate.wait();
            });
            assert!(submitted.load(Ordering::SeqCst));
        });
        assert_eq!(*relock(&order), vec![0, 1, 2]);
    }

    #[test]
    fn shard_pool_tasks_run_concurrent_pooled_batches() {
        // The serving shape: tasks on two shard pools each fan a batch out
        // with `run_pooled`, concurrently; each batch completes on its own.
        let count = AtomicUsize::new(0);
        let batches_ok = AtomicUsize::new(0);
        std::thread::scope(|s| {
            let shards = [Pool::spawn_in(s, 1, 1), Pool::spawn_in(s, 2, 1)];
            for task in 0..6 {
                let (count, batches_ok) = (&count, &batches_ok);
                shards[task % 2].submit(move || {
                    let job = |_, _| {
                        count.fetch_add(1, Ordering::Relaxed);
                        Ok::<(), String>(())
                    };
                    if run_pooled(vec![(); 8], 2, job, |_| {}).is_ok() {
                        batches_ok.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });
        assert_eq!(batches_ok.load(Ordering::Relaxed), 6);
        assert_eq!(count.load(Ordering::Relaxed), 48);
    }

    #[test]
    fn drop_drains_queued_tasks() {
        // Shutdown is flagged while the only worker is still held inside
        // the first task: everything queued behind it must still run.
        let gate = Barrier::new(2);
        let ran = AtomicUsize::new(0);
        std::thread::scope(|s| {
            let pool = Pool::spawn_in(s, 1, 8);
            pool.submit(|| {
                gate.wait();
            });
            for _ in 0..5 {
                pool.submit(|| {
                    ran.fetch_add(1, Ordering::Relaxed);
                });
            }
            drop(pool);
            gate.wait();
        });
        assert_eq!(ran.load(Ordering::Relaxed), 5);
    }

    #[test]
    fn panicking_task_fails_the_owner_without_wedging_submitters() {
        // One worker, capacity 1: had the panic killed the worker, the
        // later submits would block forever on a queue nobody drains.
        let ran = AtomicUsize::new(0);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            std::thread::scope(|s| {
                let pool = Pool::spawn_in(s, 1, 1);
                pool.submit(|| panic!("raw task blew up"));
                for _ in 0..3 {
                    pool.submit(|| {
                        ran.fetch_add(1, Ordering::Relaxed);
                    });
                }
            })
        }));
        assert!(outcome.is_err(), "the task's panic must reach the owner");
        assert_eq!(ran.load(Ordering::Relaxed), 3);
    }
}
