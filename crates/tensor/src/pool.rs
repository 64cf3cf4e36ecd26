//! Pool-bounded execution — the one module in the workspace that spawns
//! OS threads.
//!
//! Every headline number in this reproduction rests on the virtual-clock
//! simulator being a bit-reproducible oracle, so real threads are
//! quarantined: the `no-raw-spawn` rule in `cachegen-analyze` bans
//! spawning or scoping threads everywhere outside this module. Workers
//! here never touch simulator state — they only drain independent work
//! items, and a batch of order-tagged jobs is merged deterministically
//! (the first failure *by job index* wins, matching what a serial loop
//! would report; a panic is reported with the losing job's index, never
//! silently swallowed).
//!
//! Two functions, each opening one [`std::thread::scope`] so work borrows
//! instead of owning:
//!
//! * [`run_pooled`] runs one batch of jobs and drains it on the calling
//!   thread beside the workers it spawns — under the sim transformer's
//!   prefill phases, the codec's pooled decode and the OS-thread serving
//!   backend's chunk loads.
//! * [`run_queued`] feeds a stream of items into bounded queues — std's
//!   [`sync_channel`], each drained by its own workers for the whole
//!   stream — so dispatching an item does not spawn. The serving backend
//!   runs its shard queues on it.
//!
//! The module is `std`-only and sits at the bottom of the crate graph,
//! so every crate above it — the transformer included — runs on the same
//! executor. Reporting a [`PoolShape`] to telemetry is the codec's
//! (`cachegen_codec::pool`, which re-exports this module's items).

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc::{sync_channel, Receiver};
use std::sync::{Mutex, MutexGuard, PoisonError};

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

/// Feeds `items`, `(queue, item)` pairs in order, into `queues` bounded
/// queues and runs each as `run(queue, item)` on one of that queue's
/// `workers` threads; returns once every item has run.
///
/// Each queue is std's [`sync_channel`] of `capacity` items: feeding a
/// full queue blocks the caller until a worker takes one — backpressure,
/// not unbounded memory. A queue's items start in feed order, and an
/// item may fan a batch out with [`run_pooled`]. The end of `items` is
/// the shutdown: the workers drain what is queued, then exit.
///
/// A panicking `run` does not take its worker down (a feed blocked on a
/// queue whose workers died would never wake): the worker keeps
/// draining and re-raises its first panic once its queue has closed, so
/// the call panics after every other item has run.
pub fn run_queued<T, F>(
    queues: usize,
    workers: usize,
    capacity: usize,
    items: impl IntoIterator<Item = (usize, T)>,
    run: F,
) where
    T: Send,
    F: Fn(usize, T) + Sync,
{
    assert!(workers >= 1, "need at least one worker per queue");
    assert!(capacity >= 1, "need a positive queue capacity");
    let (senders, receivers): (Vec<_>, Vec<_>) = (0..queues)
        .map(|_| {
            let (tx, rx) = sync_channel::<T>(capacity);
            (tx, Mutex::new(rx))
        })
        .unzip();
    let run = &run;
    std::thread::scope(|s| {
        for (queue, rx) in receivers.iter().enumerate() {
            for _ in 0..workers {
                s.spawn(move || drain_queue(queue, rx, run));
            }
        }
        for (queue, item) in items {
            // The receivers outlive the scope, so a send cannot fail.
            let _ = senders[queue].send(item);
        }
        // Closing the channels ends the workers' loops; the scope cannot
        // join them before.
        drop(senders);
    });
}

/// One [`run_queued`] worker: runs `queue`'s items until the channel is
/// empty and closed, then re-raises the first panic it caught.
fn drain_queue<T>(queue: usize, rx: &Mutex<Receiver<T>>, run: &impl Fn(usize, T)) {
    let mut first_panic = None;
    loop {
        // The guard drops at the end of this statement: held across
        // `run`, it would run the queue's workers one at a time.
        let next = relock(rx).recv();
        let Ok(item) = next else { break };
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| run(queue, item))) {
            first_panic.get_or_insert(payload);
        }
    }
    if let Some(payload) = first_panic {
        resume_unwind(payload);
    }
}

/// Locks executor state, poisoned or not: work runs outside every lock
/// and each update under one is a single step, so a poisoned mutex from
/// an unrelated panic must not wedge a drainer.
fn relock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
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
        let count = |idx, job| {
            assert_eq!(idx, job);
            hits.fetch_add(1, Ordering::Relaxed);
            sum.fetch_add(job, Ordering::Relaxed);
            Ok::<(), usize>(())
        };
        assert_eq!(run_pooled((0..100).collect(), 4, count, |_| {}), Ok(()));
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
        let once = |idx, job| {
            assert_eq!((idx, job), (0, 42));
            seen.fetch_add(1, Ordering::Relaxed);
            Ok::<(), usize>(())
        };
        assert_eq!(run_pooled(vec![42usize], 4, once, |_| {}), Ok(()));
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
        // One worker held inside item 0, capacity 1: item 1 fills the
        // queue, and the feed, once it has produced item 2, cannot
        // advance until the worker is released.
        let fed = AtomicUsize::new(0);
        let order = Mutex::new(Vec::new());
        let items = (0..4usize).map(|i| {
            fed.store(i + 1, Ordering::SeqCst);
            (0, i)
        });
        run_queued(1, 1, 1, items, |_, i| {
            if i == 0 {
                while fed.load(Ordering::SeqCst) < 3 {
                    std::thread::yield_now();
                }
                for _ in 0..2_000 {
                    let fed = fed.load(Ordering::SeqCst);
                    assert_eq!(fed, 3, "the feed advanced past a full queue");
                    std::thread::yield_now();
                }
            }
            relock(&order).push(i);
        });
        assert_eq!(*relock(&order), vec![0, 1, 2, 3]);
    }

    #[test]
    fn shard_pool_tasks_run_concurrent_pooled_batches() {
        // The serving shape: items on two queues each fan a batch out with
        // `run_pooled`. The first item of each queue waits for the other's
        // at a barrier, so the two queues' batches run at the same time.
        let both = Barrier::new(2);
        let count = AtomicUsize::new(0);
        let batches_ok = AtomicUsize::new(0);
        run_queued(2, 2, 1, (0..6).map(|item| (item % 2, item)), |_, item| {
            if item < 2 {
                both.wait();
            }
            let job = |_, _| {
                count.fetch_add(1, Ordering::Relaxed);
                Ok::<(), String>(())
            };
            if run_pooled(vec![(); 8], 2, job, |_| {}).is_ok() {
                batches_ok.fetch_add(1, Ordering::Relaxed);
            }
        });
        assert_eq!(batches_ok.load(Ordering::Relaxed), 6);
        assert_eq!(count.load(Ordering::Relaxed), 48);
    }

    #[test]
    fn a_queues_workers_run_its_items_at_once() {
        // Two workers, two items on one queue, each waiting until both have
        // started: a worker that held the queue's lock across `run` would
        // leave the second item queued until the wait gave up.
        let started = AtomicUsize::new(0);
        run_queued(1, 2, 2, [(0, ()), (0, ())], |_, ()| {
            started.fetch_add(1, Ordering::SeqCst);
            let mut spins = 0u32;
            while started.load(Ordering::SeqCst) < 2 {
                spins += 1;
                assert!(spins < 5_000_000, "the queue's second worker never started");
                std::thread::yield_now();
            }
        });
    }

    #[test]
    fn drop_drains_queued_tasks() {
        // The feed ends while the only worker is still held inside item 0:
        // everything queued behind it must still run.
        let fed_all = AtomicBool::new(false);
        let ran = AtomicUsize::new(0);
        let end_of_feed = std::iter::from_fn(|| {
            fed_all.store(true, Ordering::SeqCst);
            None
        });
        let items = (0..6).map(|i| (0, i)).chain(end_of_feed);
        run_queued(1, 1, 8, items, |_, i| {
            if i == 0 {
                while !fed_all.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
            } else {
                ran.fetch_add(1, Ordering::Relaxed);
            }
        });
        assert_eq!(ran.load(Ordering::Relaxed), 5);
    }

    #[test]
    fn panicking_task_fails_the_owner_without_wedging_submitters() {
        // One worker, capacity 1: had the panic killed the worker, the
        // feed would block forever on a queue nobody drains.
        let ran = AtomicUsize::new(0);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            run_queued(1, 1, 1, (0..4).map(|i| (0, i)), |_, i| {
                if i == 0 {
                    panic!("queued item blew up");
                }
                ran.fetch_add(1, Ordering::Relaxed);
            })
        }));
        assert!(outcome.is_err(), "the item's panic must reach the caller");
        assert_eq!(ran.load(Ordering::Relaxed), 3);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Any queue count, worker count, capacity and assignment: every
        /// item runs exactly once, on a worker of its own queue, and a
        /// one-worker queue runs its items in feed order.
        #[test]
        fn run_queued_runs_each_item_once_on_its_queue(
            queues_pick in 0usize..3,
            workers_pick in 0usize..3,
            capacity in 1usize..3,
            picks in proptest::collection::vec(0usize..6, 0..24),
        ) {
            let queues = queues_pick + 1;
            let workers = [1, 2, 4][workers_pick];
            let assigned: Vec<usize> = picks.iter().map(|p| p % queues).collect();
            // Per queue: (item, thread) in the order the items started.
            let logs: Vec<_> = (0..queues).map(|_| Mutex::new(Vec::new())).collect();
            let items = assigned.iter().copied().enumerate().map(|(i, q)| (q, i));
            run_queued(queues, workers, capacity, items, |queue, item| {
                relock(&logs[queue]).push((item, std::thread::current().id()));
            });
            // Each thread that ran an item, with the queue it ran it for.
            let mut owners = Vec::new();
            for (queue, log) in logs.iter().enumerate() {
                let log = relock(log);
                let mut ran: Vec<usize> = log.iter().map(|&(item, _)| item).collect();
                if workers > 1 {
                    ran.sort_unstable();
                }
                let fed: Vec<usize> =
                    (0..assigned.len()).filter(|&i| assigned[i] == queue).collect();
                prop_assert_eq!(ran, fed, "queue {}", queue);
                for &(_, thread) in log.iter() {
                    match owners.iter().find(|&&(t, _)| t == thread) {
                        Some(&(_, owner)) => prop_assert_eq!(owner, queue, "two queues' items"),
                        None => owners.push((thread, queue)),
                    }
                }
                prop_assert!(owners.iter().filter(|&&(_, q)| q == queue).count() <= workers);
            }
        }
    }
}
