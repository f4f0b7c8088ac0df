//! The exploration worker pool.
//!
//! [`WorkerPool`] fans a deterministically-ordered batch of exploration
//! tasks out over its executors. Each task is executed by
//! [`execute_task`], which launches a private `mpsim` engine — executors
//! never share runtime state, so N concurrent runs are as isolated as N
//! sequential ones (and running them concurrently doubles as a stress
//! test of that isolation).
//!
//! Determinism contract: the *content* of every result depends only on its
//! task (policy + fault plan), never on which executor ran it or when, and
//! results are returned **in task order**. The explorer forms batches and
//! absorbs results sequentially, so `jobs = N` observes the exact state
//! transitions of `jobs = 1` — the property the parallel-determinism
//! regression tests pin down.

use crate::runner::{execute_task, ProgramSource, RunResult};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::Scope;
use tracedbg_mpsim::SchedPolicy;
use tracedbg_trace::schedule::Fault;

/// One unit of exploration work: a scheduling policy plus a fault plan.
pub struct RunTask {
    pub policy: SchedPolicy,
    pub faults: Vec<Fault>,
}

/// Per-executor share of the work: `(tasks executed, busy nanoseconds)`,
/// indexed by executor. Pure timing telemetry — which executor ran which
/// task is scheduler-dependent, so nothing event-deterministic may derive
/// from it (results themselves are returned in task order regardless).
pub type WorkerLoad = Vec<(u64, u64)>;

/// Tasks a pool with worker threads executes between two absorb phases
/// ([`WorkerPool::window`]). Big enough that handing a window to the
/// workers costs nothing next to running it (8 was 40 % slower at
/// `--jobs 2`), small enough that one window of [`RunResult`]s — a trace
/// and a decision log each, ≈ 19 KB on a 16-rank workload — stays a few
/// megabytes whatever the run budget is. A pool without worker threads
/// hands nothing over, so its window is one task.
pub const WINDOW: usize = 256;

/// The one execute-and-absorb loop behind the systematic search, the
/// random walk and the `localize` reference harvest.
///
/// `tasks` is pulled one window ([`WorkerPool::window`]) at a time and
/// the window runs on `pool`; every result of it is handed to `absorb` —
/// by value, in task order, with its task and the task's index in
/// `tasks` — before the next window is pulled. What `absorb` does not
/// keep is dropped there, so no more than one window of tasks and one of
/// results is ever alive.
pub fn run_windowed(
    pool: &WorkerPool,
    tasks: impl IntoIterator<Item = RunTask>,
    mut absorb: impl FnMut(usize, &RunTask, RunResult),
) {
    let mut rest = tasks.into_iter();
    let mut base = 0;
    loop {
        let window: Arc<Vec<RunTask>> = Arc::new(rest.by_ref().take(pool.window()).collect());
        if window.is_empty() {
            return;
        }
        let results = pool.run(Arc::clone(&window));
        for (i, (task, res)) in window.iter().zip(results).enumerate() {
            absorb(base + i, task, res);
        }
        base += window.len();
    }
}

/// One batch in flight on a [`WorkerPool`].
struct Batch {
    tasks: Arc<Vec<RunTask>>,
    cursor: AtomicUsize,
    /// Per task: its result, or the panic that ended it.
    slots: Vec<Mutex<Option<std::thread::Result<RunResult>>>>,
}

struct PoolState {
    batch: Option<Arc<Batch>>,
    /// Bumped per batch so a worker never re-drains one it finished.
    epoch: u64,
    /// Tasks of the current batch not yet completed.
    open: usize,
    shutdown: bool,
}

struct PoolShared<'a> {
    source: &'a ProgramSource,
    state: Mutex<PoolState>,
    work_cv: Condvar,
    done_cv: Condvar,
    /// Per-executor (tasks, busy ns) over every batch so far; index 0 is
    /// the calling thread.
    loads: Vec<Mutex<(u64, u64)>>,
}

impl PoolShared<'_> {
    /// Pull tasks off the batch cursor until it runs dry, executing each
    /// and parking the result in its slot.
    fn drain(&self, batch: &Batch, executor: usize) {
        let n = batch.tasks.len();
        loop {
            let i = batch.cursor.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                return;
            }
            let t0 = std::time::Instant::now();
            // A task that unwinds (a factory `assert!`, an engine bug) is
            // accounted like any other, or `open` would never reach 0 and
            // `run` would wait forever; `run` re-raises it on its caller.
            let res = catch_unwind(AssertUnwindSafe(|| {
                execute_task(self.source, &batch.tasks[i])
            }));
            {
                let mut l = self.loads[executor]
                    .lock()
                    .unwrap_or_else(|e| e.into_inner());
                l.0 += 1;
                l.1 += t0.elapsed().as_nanos() as u64;
            }
            *batch.slots[i].lock().unwrap_or_else(|e| e.into_inner()) = Some(res);
            let mut g = self.state.lock().unwrap_or_else(|e| e.into_inner());
            g.open -= 1;
            if g.open == 0 {
                self.done_cv.notify_all();
            }
        }
    }
}

/// The exploration worker pool — the one type that fans a batch out.
///
/// An exploration is *many* small batches (each window of the systematic
/// search or of the random walk is one), so workers are spawned once, on
/// the caller's [`Scope`], and parked on a condvar between batches, and
/// the **calling thread participates as executor 0**: a batch costs one
/// `notify_all`, not N spawns. A pool of one executor spawns no thread
/// at all — `jobs = 1`, or any `jobs` on a single-core box, is the
/// caller draining the cursor inline, one task per window.
pub struct WorkerPool<'scope> {
    shared: Arc<PoolShared<'scope>>,
    /// Worker threads actually spawned (the calling thread not counted).
    threads: usize,
}

impl<'scope> WorkerPool<'scope> {
    /// A pool with `jobs` executors (`0` = one per available core): the
    /// calling thread plus up to `jobs - 1` worker threads parked on
    /// `scope`. Threads beyond the machine's available parallelism are
    /// never spawned — engine runs are CPU bound, so oversubscribing
    /// cores buys nothing but context switches (and is how `jobs = N`
    /// used to lose to `jobs = 1` on small boxes). Load accounting still
    /// reports `jobs` rows; the unspawned executors simply stay at zero.
    pub fn new(
        scope: &'scope Scope<'scope, '_>,
        jobs: usize,
        source: &'scope ProgramSource,
    ) -> Self {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let jobs = if jobs == 0 { cores } else { jobs };
        let shared = Arc::new(PoolShared {
            source,
            state: Mutex::new(PoolState {
                batch: None,
                epoch: 0,
                open: 0,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            loads: (0..jobs).map(|_| Mutex::new((0, 0))).collect(),
        });
        let threads = jobs.min(cores) - 1;
        for executor in 1..=threads {
            let shared = Arc::clone(&shared);
            scope.spawn(move || {
                let mut seen = 0u64;
                loop {
                    let batch = {
                        let mut g = shared.state.lock().unwrap_or_else(|e| e.into_inner());
                        loop {
                            if g.shutdown {
                                return;
                            }
                            if g.epoch != seen {
                                if let Some(b) = &g.batch {
                                    seen = g.epoch;
                                    break Arc::clone(b);
                                }
                            }
                            g = shared.work_cv.wait(g).unwrap_or_else(|e| e.into_inner());
                        }
                    };
                    shared.drain(&batch, executor);
                }
            });
        }
        WorkerPool { shared, threads }
    }

    /// Number of executors (calling thread included; never 0).
    pub fn jobs(&self) -> usize {
        self.shared.loads.len()
    }

    /// Tasks to run between two absorb phases: [`WINDOW`] when worker
    /// threads share the work, one when the calling thread is the only
    /// executor — it has nothing to hand over, so a longer window would
    /// only keep more results alive.
    pub fn window(&self) -> usize {
        if self.threads == 0 {
            1
        } else {
            WINDOW
        }
    }

    /// Per-executor load summed over every batch run so far.
    pub fn load(&self) -> WorkerLoad {
        self.shared
            .loads
            .iter()
            .map(|m| *m.lock().unwrap_or_else(|e| e.into_inner()))
            .collect()
    }

    /// Execute every task and return the results in task order. The
    /// caller drains alongside the workers and returns only when every
    /// slot is filled; if a task panicked, the first such panic in task
    /// order is re-raised here, with the pool idle and reusable.
    pub fn run(&self, tasks: Arc<Vec<RunTask>>) -> Vec<RunResult> {
        let n = tasks.len();
        let batch = Arc::new(Batch {
            tasks,
            cursor: AtomicUsize::new(0),
            slots: (0..n).map(|_| Mutex::new(None)).collect(),
        });
        {
            let mut g = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
            g.batch = Some(Arc::clone(&batch));
            g.epoch += 1;
            g.open = n;
            self.shared.work_cv.notify_all();
        }
        self.shared.drain(&batch, 0);
        let mut g = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
        while g.open > 0 {
            g = self
                .shared
                .done_cv
                .wait(g)
                .unwrap_or_else(|e| e.into_inner());
        }
        g.batch = None;
        drop(g);
        batch
            .slots
            .iter()
            .map(|m| {
                m.lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .take()
                    .expect("open == 0 means every slot is filled")
                    .unwrap_or_else(|panic| resume_unwind(panic))
            })
            .collect()
    }
}

impl Drop for WorkerPool<'_> {
    /// Release the parked workers; the scope they were spawned on joins
    /// them.
    fn drop(&mut self) {
        let mut g = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
        g.shutdown = true;
        self.shared.work_cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tracedbg_workloads::script;

    fn pingpong_source() -> ProgramSource {
        let pingpong = script::parse(
            "fn main
               if rank == 0
                 send 1 tag 1 1
                 recv from 1 tag 2 into r
               else
                 recv from 0 tag 1 into x
                 send 0 tag 2 2
               end
             end",
        )
        .expect("pingpong script");
        Box::new(move || script::programs(&pingpong, 2, "pool.sdl"))
    }

    fn seeded(seeds: std::ops::Range<u64>) -> Vec<RunTask> {
        seeds
            .map(|i| RunTask {
                policy: SchedPolicy::Seeded(i),
                faults: Vec::new(),
            })
            .collect()
    }

    /// The reference every pool result is compared with: a plain loop.
    fn scratch(source: &ProgramSource, tasks: &[RunTask]) -> Vec<RunResult> {
        tasks.iter().map(|t| execute_task(source, t)).collect()
    }

    /// One batch on a fresh pool of `jobs` executors.
    fn run_on(jobs: usize, source: &ProgramSource, tasks: Vec<RunTask>) -> Vec<RunResult> {
        std::thread::scope(|scope| WorkerPool::new(scope, jobs, source).run(Arc::new(tasks)))
    }

    fn assert_same_runs(a: &[RunResult], b: &[RunResult]) {
        assert_eq!(a.len(), b.len());
        for (a, b) in a.iter().zip(b) {
            assert_eq!(a.digest, b.digest, "same task, same trace digest");
            assert_eq!(a.class, b.class);
            assert_eq!(a.decisions, b.decisions);
        }
    }

    #[test]
    fn parallel_batch_matches_sequential_order_and_content() {
        let source = pingpong_source();
        let seq = scratch(&source, &seeded(0..16));
        assert_same_runs(&seq, &run_on(4, &source, seeded(0..16)));
    }

    #[test]
    fn oversized_job_count_is_clamped() {
        let source = pingpong_source();
        let out = run_on(64, &source, seeded(0..1));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].class, crate::runner::CLASS_COMPLETED);
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let source = pingpong_source();
        assert!(run_on(8, &source, Vec::new()).is_empty());
    }

    #[test]
    fn one_executor_pool_runs_inline_in_task_order() {
        // jobs = 1 is the caller draining the cursor: every factory call
        // comes from the calling thread, one per task, in task order.
        let pingpong = pingpong_source();
        let calls = Arc::new(Mutex::new(Vec::new()));
        let log = Arc::clone(&calls);
        let source: ProgramSource = Box::new(move || {
            log.lock().unwrap().push(std::thread::current().id());
            pingpong()
        });
        let seq = scratch(&source, &seeded(0..9));
        calls.lock().unwrap().clear();
        std::thread::scope(|scope| {
            let pool = WorkerPool::new(scope, 1, &source);
            assert_eq!(pool.jobs(), 1);
            assert_same_runs(&seq, &pool.run(Arc::new(seeded(0..9))));
            assert_eq!(pool.load().len(), 1);
            assert_eq!(pool.load()[0].0, 9);
        });
        let calls = calls.lock().unwrap();
        assert_eq!(calls.len(), 9);
        assert!(calls.iter().all(|&id| id == std::thread::current().id()));
    }

    #[test]
    fn zero_jobs_means_one_executor_per_core() {
        let source = pingpong_source();
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        std::thread::scope(|scope| {
            assert_eq!(WorkerPool::new(scope, 0, &source).jobs(), cores);
        });
    }

    #[test]
    fn the_window_follows_the_spawned_threads() {
        // One task per window where the caller is the only executor;
        // `WINDOW` wherever a worker thread was actually spawned.
        let source = pingpong_source();
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let threaded = if cores > 1 { WINDOW } else { 1 };
        std::thread::scope(|scope| {
            assert_eq!(WorkerPool::new(scope, 1, &source).window(), 1);
            assert_eq!(WorkerPool::new(scope, 4, &source).window(), threaded);
            assert_eq!(WorkerPool::new(scope, 0, &source).window(), threaded);
        });
    }

    #[test]
    fn persistent_pool_matches_sequential_across_batches() {
        // The pool is the reuse-across-batches path: three consecutive
        // batches on one pool must match the sequential results, in
        // order, and account for every task exactly once.
        let source = pingpong_source();
        std::thread::scope(|scope| {
            let pool = WorkerPool::new(scope, 3, &source);
            assert_eq!(pool.jobs(), 3);
            for round in 0..3u64 {
                let seeds = round * 100..round * 100 + 11;
                let seq = scratch(&source, &seeded(seeds.clone()));
                assert_same_runs(&seq, &pool.run(Arc::new(seeded(seeds))));
                let load = pool.load();
                assert_eq!(load.len(), 3, "one load row per executor");
                assert_eq!(load.iter().map(|(t, _)| t).sum::<u64>(), 11 * (round + 1));
            }
        });
    }

    #[test]
    fn pool_drop_joins_idle_workers() {
        let source = pingpong_source();
        // Never ran a batch: drop must still release the workers instead
        // of leaving the scope waiting on them forever.
        std::thread::scope(|scope| drop(WorkerPool::new(scope, 4, &source)));
    }

    #[test]
    fn worker_load_accounts_for_every_task() {
        let source = pingpong_source();
        for jobs in [1, 3] {
            std::thread::scope(|scope| {
                let pool = WorkerPool::new(scope, jobs, &source);
                assert_eq!(pool.run(Arc::new(seeded(0..10))).len(), 10);
                let load = pool.load();
                assert_eq!(load.len(), jobs);
                assert_eq!(load.iter().map(|(t, _)| t).sum::<u64>(), 10);
            });
        }
    }

    #[test]
    fn panicking_task_is_reraised_on_the_caller_not_hung() {
        // The 5th factory call panics. Every other task still completes
        // and is accounted, the batch goes quiescent, and the panic
        // surfaces from `run`; leaving the scope then proves the workers
        // were released.
        for jobs in [1, 3] {
            let pingpong = pingpong_source();
            let calls = AtomicUsize::new(0);
            let source: ProgramSource = Box::new(move || {
                if calls.fetch_add(1, Ordering::Relaxed) == 4 {
                    panic!("factory boom");
                }
                pingpong()
            });
            let caught = catch_unwind(AssertUnwindSafe(|| {
                std::thread::scope(|scope| {
                    let pool = WorkerPool::new(scope, jobs, &source);
                    let raised =
                        catch_unwind(AssertUnwindSafe(|| pool.run(Arc::new(seeded(0..12)))));
                    assert_eq!(pool.load().iter().map(|(t, _)| t).sum::<u64>(), 12);
                    // The pool survives the panic and runs the next batch.
                    assert_eq!(pool.run(Arc::new(seeded(0..3))).len(), 3);
                    resume_unwind(raised.err().expect("the batch must panic"));
                })
            }));
            let payload = caught.expect_err("the panic must reach the caller");
            assert_eq!(payload.downcast_ref::<&str>(), Some(&"factory boom"));
        }
    }

    #[test]
    fn metered_tasks_report_metrics_without_changing_content() {
        let source = pingpong_source();
        let task = || RunTask {
            policy: SchedPolicy::RoundRobin,
            faults: Vec::new(),
        };
        let plain = run_on(1, &source, vec![task()]);
        let metered = run_on(1, &source, vec![task()]);
        let m = tracedbg_mpsim::metrics::of_run(metered[0].log().iter(), &metered[0].decisions, 2);
        assert_eq!(m.total_msgs(), 2, "pingpong sends two messages");
        assert_eq!(metered[0].digest, plain[0].digest, "telemetry is passive");
        assert_eq!(metered[0].decisions, plain[0].decisions);
    }
}
