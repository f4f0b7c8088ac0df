//! The exploration worker pool.
//!
//! [`run_batch`] fans a deterministically-ordered batch of exploration
//! tasks out over worker threads. Each task is executed by [`execute`],
//! which launches a private `mpsim` engine — workers never share runtime
//! state, so N concurrent runs are as isolated as N sequential ones (and
//! running them concurrently doubles as a stress test of that isolation).
//!
//! Determinism contract: the *content* of every result depends only on its
//! task (policy + fault plan), never on which worker ran it or when, and
//! results are returned **in task order**. The explorer forms batches and
//! absorbs results sequentially, so `jobs = N` observes the exact state
//! transitions of `jobs = 1` — the property the parallel-determinism
//! regression tests pin down.

use crate::runner::{execute_task, ProgramSource, RunResult};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use tracedbg_mpsim::{EngineCheckpoint, SchedPolicy};
use tracedbg_trace::schedule::Fault;

/// One unit of exploration work: a scheduling policy plus a fault plan,
/// optionally participating in prefix-checkpoint sharing.
pub struct RunTask {
    pub policy: SchedPolicy,
    pub faults: Vec<Fault>,
    /// Producer role: checkpoint the engine when its decision log reaches
    /// this depth and deposit it in the batch's [`PrefixCache`] under
    /// `prefix_key`. `None` for ordinary runs.
    pub snapshot_at: Option<usize>,
    /// The shared-prefix identity of this task (hash of all decisions but
    /// the last). Consumers (`snapshot_at: None`) fork from the cached
    /// checkpoint when one is present instead of re-executing the prefix.
    pub prefix_key: Option<u64>,
    /// Collect engine telemetry for this run. Metered consumers run from
    /// scratch instead of forking (see [`execute_task`]), keeping
    /// event-derived counters independent of cache state and job count.
    pub metrics: bool,
}

impl RunTask {
    /// A plain run: no checkpoint production or consumption, no telemetry.
    pub fn plain(policy: SchedPolicy, faults: Vec<Fault>) -> Self {
        RunTask {
            policy,
            faults,
            snapshot_at: None,
            prefix_key: None,
            metrics: false,
        }
    }
}

/// Shared-prefix checkpoint store for one exploration.
///
/// Systematic search enqueues sibling schedules that differ only in their
/// final decision; one sibling per group runs as the *producer*
/// (checkpointing at the shared-prefix depth) and the rest *fork* from the
/// restored checkpoint, re-executing only their divergent suffix. The
/// cache is shared across batches and workers; entries are immutable once
/// inserted, so a consumer either sees a fully-built checkpoint or falls
/// back to a from-scratch run — either way the result content is
/// identical (the restore determinism contract), keeping `jobs = N`
/// findings equal to `jobs = 1`.
pub struct PrefixCache {
    entries: Mutex<HashMap<u64, Arc<EngineCheckpoint>>>,
    cap: usize,
    hits: AtomicUsize,
}

impl PrefixCache {
    pub fn new() -> Self {
        Self::with_capacity(64)
    }

    pub fn with_capacity(cap: usize) -> Self {
        PrefixCache {
            entries: Mutex::new(HashMap::new()),
            cap: cap.max(1),
            hits: AtomicUsize::new(0),
        }
    }

    pub fn get(&self, key: u64) -> Option<Arc<EngineCheckpoint>> {
        let hit = self
            .entries
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(&key)
            .cloned();
        if hit.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    pub fn contains(&self, key: u64) -> bool {
        self.entries
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .contains_key(&key)
    }

    /// Insert unless the cache is full (bounded memory: checkpoints hold
    /// whole decision logs and traces). First insertion wins; re-inserting under a live
    /// key is a no-op.
    pub fn insert(&self, key: u64, cp: EngineCheckpoint) {
        let mut e = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        if e.len() < self.cap {
            e.entry(key).or_insert_with(|| Arc::new(cp));
        }
    }

    pub fn len(&self) -> usize {
        self.entries.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Consumer forks served from the cache so far.
    pub fn hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }
}

impl Default for PrefixCache {
    fn default() -> Self {
        Self::new()
    }
}

/// Per-worker share of one batch: `(tasks executed, busy nanoseconds)`,
/// indexed by worker. Pure timing telemetry — which worker ran which task
/// is scheduler-dependent, so nothing event-deterministic may derive from
/// it (results themselves are returned in task order regardless).
pub type WorkerLoad = Vec<(u64, u64)>;

/// Execute every task and return the results in task order.
///
/// With `jobs <= 1` (or a single task) this degenerates to a plain
/// sequential loop; otherwise `min(jobs, tasks.len())` workers pull tasks
/// from a shared cursor and park each result in its task's slot.
pub fn run_batch(
    source: &ProgramSource,
    tasks: &[RunTask],
    jobs: usize,
    cache: &PrefixCache,
) -> Vec<RunResult> {
    run_batch_traced(source, tasks, jobs, cache).0
}

/// [`run_batch`] plus per-worker load accounting (the sequential path
/// reports all work under worker 0).
pub fn run_batch_traced(
    source: &ProgramSource,
    tasks: &[RunTask],
    jobs: usize,
    cache: &PrefixCache,
) -> (Vec<RunResult>, WorkerLoad) {
    let n = tasks.len();
    if n == 0 {
        return (Vec::new(), Vec::new());
    }
    let jobs = jobs.clamp(1, n);
    if jobs == 1 {
        let t0 = std::time::Instant::now();
        let results = tasks
            .iter()
            .map(|t| execute_task(source, t, cache))
            .collect();
        let load = vec![(n as u64, t0.elapsed().as_nanos() as u64)];
        return (results, load);
    }
    // Never oversubscribe: workers beyond the machine's cores only add
    // context switches to CPU-bound engine runs. Load accounting keeps
    // `jobs` rows; the unspawned workers simply report zero.
    let threads = jobs.min(
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1),
    );
    if threads == 1 {
        let t0 = std::time::Instant::now();
        let results = tasks
            .iter()
            .map(|t| execute_task(source, t, cache))
            .collect();
        let mut load = vec![(0, 0); jobs];
        load[0] = (n as u64, t0.elapsed().as_nanos() as u64);
        return (results, load);
    }
    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<RunResult>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let mut load: Vec<(u64, u64)> = vec![(0, 0); jobs];
    std::thread::scope(|scope| {
        for my_load in load.iter_mut().take(threads) {
            let cursor = &cursor;
            let slots = &slots;
            scope.spawn(move || loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let t0 = std::time::Instant::now();
                let res = execute_task(source, &tasks[i], cache);
                my_load.0 += 1;
                my_load.1 += t0.elapsed().as_nanos() as u64;
                *slots[i].lock().unwrap_or_else(|e| e.into_inner()) = Some(res);
            });
        }
    });
    let results = slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .unwrap_or_else(|e| e.into_inner())
                .expect("every slot is filled before the scope ends")
        })
        .collect();
    (results, load)
}

/// Tasks executed between two absorb phases. Big enough that dispatching
/// a window costs nothing next to running it (8 was 40 % slower at
/// `--jobs 2`), small enough that one window of [`RunResult`]s — a trace
/// and a decision log each, ≈ 19 KB on a 16-rank workload — stays a few
/// megabytes whatever the run budget is.
pub const WINDOW: usize = 256;

/// The one execute-and-absorb loop behind the systematic search, the
/// random walk and the `localize` reference harvest.
///
/// `tasks` run in windows of [`WINDOW`]: `run` executes one window and
/// returns its results in task order, then every result is handed to
/// `absorb` — by value, in task order, with its task and the task's index
/// in `tasks` — before the next window is dispatched. What `absorb` does
/// not keep is dropped there, so no more than one window of results is
/// ever alive. `ctx` is threaded through both callbacks so they can share
/// one `&mut` (the explorer runs windows on its own pool and absorbs into
/// its own state).
pub fn run_windowed<C>(
    ctx: &mut C,
    tasks: Vec<RunTask>,
    mut run: impl FnMut(&mut C, &Arc<Vec<RunTask>>) -> Vec<RunResult>,
    mut absorb: impl FnMut(&mut C, usize, &RunTask, RunResult),
) {
    let mut rest = tasks.into_iter();
    let mut base = 0;
    loop {
        let window: Arc<Vec<RunTask>> = Arc::new(rest.by_ref().take(WINDOW).collect());
        if window.is_empty() {
            return;
        }
        let results = run(ctx, &window);
        assert_eq!(results.len(), window.len(), "one result per task");
        for (i, (task, res)) in window.iter().zip(results).enumerate() {
            absorb(ctx, base + i, task, res);
        }
        base += window.len();
    }
}

// ---------------------------------------------------------------------------
// Persistent worker pool
// ---------------------------------------------------------------------------

/// One batch in flight on a [`WorkerPool`].
struct Batch {
    tasks: Arc<Vec<RunTask>>,
    cursor: AtomicUsize,
    slots: Vec<Mutex<Option<RunResult>>>,
    /// Per-executor (tasks, busy ns); index 0 is the calling thread.
    loads: Vec<Mutex<(u64, u64)>>,
}

struct PoolState {
    batch: Option<Arc<Batch>>,
    /// Bumped per batch so a worker never re-drains one it finished.
    epoch: u64,
    /// Tasks of the current batch not yet completed.
    open: usize,
    shutdown: bool,
}

struct PoolShared {
    source: Arc<ProgramSource>,
    cache: Arc<PrefixCache>,
    state: Mutex<PoolState>,
    work_cv: Condvar,
    done_cv: Condvar,
}

impl PoolShared {
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
            let res = execute_task(&self.source, &batch.tasks[i], &self.cache);
            {
                let mut l = batch.loads[executor]
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

/// A persistent exploration worker pool.
///
/// The old shape — `std::thread::scope` per batch — respawned every
/// worker thread for every batch, and an exploration is *many* small
/// batches (each systematic wave and each random-walk chunk is one).
/// That fixed per-batch thread cost is exactly what made `jobs = N`
/// lose to `jobs = 1` on small workloads. Here workers are spawned
/// once and parked on a condvar between batches, and the **calling
/// thread participates as executor 0**, so a batch costs one
/// `notify_all` instead of N spawns — and on a single-core box the
/// caller simply drains the cursor inline while the parked workers
/// stay out of the way.
///
/// The determinism contract of [`run_batch`] is unchanged: result
/// content depends only on the task, and results come back in task
/// order.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    jobs: usize,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl WorkerPool {
    /// A pool with `jobs` executors: the calling thread plus up to
    /// `jobs - 1` parked worker threads. Threads beyond the machine's
    /// available parallelism are never spawned — engine runs are CPU
    /// bound, so oversubscribing cores buys nothing but context
    /// switches (and is how `jobs = N` used to lose to `jobs = 1` on
    /// small boxes). Load accounting still reports `jobs` rows; the
    /// unspawned executors simply stay at zero.
    pub fn new(jobs: usize, source: Arc<ProgramSource>, cache: Arc<PrefixCache>) -> Self {
        let jobs = jobs.max(1);
        let spawn = (jobs - 1).min(
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .saturating_sub(1),
        );
        let shared = Arc::new(PoolShared {
            source,
            cache,
            state: Mutex::new(PoolState {
                batch: None,
                epoch: 0,
                open: 0,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
        });
        let workers = (1..=spawn)
            .map(|executor| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || {
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
                })
            })
            .collect();
        WorkerPool {
            shared,
            jobs,
            workers,
        }
    }

    /// Number of executors (calling thread included).
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Execute every task and return the results in task order, plus
    /// per-executor load. The caller drains alongside the workers and
    /// returns only when every slot is filled.
    pub fn run(&self, tasks: Arc<Vec<RunTask>>) -> (Vec<RunResult>, WorkerLoad) {
        let n = tasks.len();
        if n == 0 {
            return (Vec::new(), Vec::new());
        }
        let batch = Arc::new(Batch {
            tasks,
            cursor: AtomicUsize::new(0),
            slots: (0..n).map(|_| Mutex::new(None)).collect(),
            loads: (0..self.jobs).map(|_| Mutex::new((0, 0))).collect(),
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
        let results = batch
            .slots
            .iter()
            .map(|m| {
                m.lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .take()
                    .expect("open == 0 means every slot is filled")
            })
            .collect();
        let load = batch
            .loads
            .iter()
            .map(|m| *m.lock().unwrap_or_else(|e| e.into_inner()))
            .collect();
        (results, load)
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut g = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
            g.shutdown = true;
            self.shared.work_cv.notify_all();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
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

    #[test]
    fn parallel_batch_matches_sequential_order_and_content() {
        let source = pingpong_source();
        let tasks: Vec<RunTask> = (0..16)
            .map(|i| RunTask::plain(SchedPolicy::Seeded(i), Vec::new()))
            .collect();
        let cache = PrefixCache::new();
        let seq = run_batch(&source, &tasks, 1, &cache);
        let par = run_batch(&source, &tasks, 4, &cache);
        assert_eq!(seq.len(), par.len());
        for (a, b) in seq.iter().zip(&par) {
            assert_eq!(a.digest, b.digest, "same task, same trace digest");
            assert_eq!(a.class, b.class);
            assert_eq!(a.decisions, b.decisions);
        }
    }

    #[test]
    fn oversized_job_count_is_clamped() {
        let source = pingpong_source();
        let tasks = vec![RunTask::plain(SchedPolicy::RoundRobin, Vec::new())];
        let out = run_batch(&source, &tasks, 64, &PrefixCache::new());
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].class, crate::runner::CLASS_COMPLETED);
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let source = pingpong_source();
        assert!(run_batch(&source, &[], 8, &PrefixCache::new()).is_empty());
    }

    #[test]
    fn producer_then_consumer_forks_match_scratch_runs() {
        // Record a schedule, then replay it as a sibling group: the
        // producer checkpoints the shared prefix, the consumer forks from
        // it, and both match the from-scratch execution exactly.
        let source = pingpong_source();
        let base = crate::runner::execute(&source, SchedPolicy::RoundRobin, &[]);
        let script = base.decisions.clone();
        assert!(script.len() >= 2, "need a prefix to share");
        let shared = script.len() - 1;
        let key = 0xfeed_beefu64;
        let cache = PrefixCache::new();
        let tasks = vec![
            RunTask {
                policy: SchedPolicy::Scripted(script.clone()),
                faults: Vec::new(),
                snapshot_at: Some(shared),
                prefix_key: Some(key),
                metrics: false,
            },
            RunTask {
                policy: SchedPolicy::Scripted(script.clone()),
                faults: Vec::new(),
                snapshot_at: None,
                prefix_key: Some(key),
                metrics: false,
            },
        ];
        let out = run_batch(&source, &tasks, 1, &cache);
        assert_eq!(cache.len(), 1, "producer deposited the prefix");
        assert_eq!(cache.hits(), 1, "consumer forked from it");
        for r in &out {
            assert_eq!(r.class, base.class);
            assert_eq!(r.digest, base.digest, "forked run must match scratch");
            assert_eq!(r.decisions, base.decisions);
        }
    }

    #[test]
    fn persistent_pool_matches_sequential_across_batches() {
        // The pool is the reuse-across-batches path: three consecutive
        // batches on one pool must match the sequential results, in
        // order, and account for every task exactly once.
        let source = Arc::new(pingpong_source());
        let cache = Arc::new(PrefixCache::new());
        let pool = WorkerPool::new(3, Arc::clone(&source), Arc::clone(&cache));
        assert_eq!(pool.jobs(), 3);
        for round in 0..3u64 {
            let tasks: Vec<RunTask> = (0..11)
                .map(|i| RunTask::plain(SchedPolicy::Seeded(round * 100 + i), Vec::new()))
                .collect();
            let seq = run_batch(&source, &tasks, 1, &cache);
            let (par, load) = pool.run(Arc::new(tasks));
            assert_eq!(par.len(), seq.len());
            for (a, b) in seq.iter().zip(&par) {
                assert_eq!(a.digest, b.digest);
                assert_eq!(a.class, b.class);
                assert_eq!(a.decisions, b.decisions);
            }
            assert_eq!(load.len(), 3, "one load row per executor");
            assert_eq!(load.iter().map(|(t, _)| t).sum::<u64>(), 11);
        }
    }

    #[test]
    fn pool_drop_joins_idle_workers() {
        let source = Arc::new(pingpong_source());
        let cache = Arc::new(PrefixCache::new());
        let pool = WorkerPool::new(4, source, cache);
        // Never ran a batch: drop must still shut the workers down
        // promptly instead of leaving them parked forever.
        drop(pool);
    }

    #[test]
    fn worker_load_accounts_for_every_task() {
        let source = pingpong_source();
        let tasks: Vec<RunTask> = (0..10)
            .map(|i| RunTask::plain(SchedPolicy::Seeded(i), Vec::new()))
            .collect();
        let cache = PrefixCache::new();
        let (seq, seq_load) = run_batch_traced(&source, &tasks, 1, &cache);
        assert_eq!(seq.len(), 10);
        assert_eq!(seq_load.len(), 1, "sequential path is one worker");
        assert_eq!(seq_load[0].0, 10);
        let (par, par_load) = run_batch_traced(&source, &tasks, 3, &cache);
        assert_eq!(par.len(), 10);
        assert_eq!(par_load.len(), 3);
        assert_eq!(par_load.iter().map(|(t, _)| t).sum::<u64>(), 10);
    }

    #[test]
    fn metered_tasks_report_metrics_without_changing_content() {
        let source = pingpong_source();
        let plain = run_batch(
            &source,
            &[RunTask::plain(SchedPolicy::RoundRobin, Vec::new())],
            1,
            &PrefixCache::new(),
        );
        let mut metered_task = RunTask::plain(SchedPolicy::RoundRobin, Vec::new());
        metered_task.metrics = true;
        let metered = run_batch(&source, &[metered_task], 1, &PrefixCache::new());
        assert!(plain[0].metrics.is_none());
        assert!(plain[0].flight.is_empty());
        let m = metered[0]
            .metrics
            .as_ref()
            .expect("metered run has metrics");
        assert_eq!(m.total_msgs(), 2, "pingpong sends two messages");
        assert!(!metered[0].flight.is_empty());
        assert_eq!(metered[0].digest, plain[0].digest, "telemetry is passive");
        assert_eq!(metered[0].decisions, plain[0].decisions);
    }

    #[test]
    fn metered_consumer_skips_fork_but_matches_forked_content() {
        // Same producer/consumer setup as above, but the consumer is
        // metered: it must NOT fork (metrics cover whole runs only) and
        // still produce identical run content.
        let source = pingpong_source();
        let base = crate::runner::execute(&source, SchedPolicy::RoundRobin, &[]);
        let script = base.decisions.clone();
        let shared = script.len() - 1;
        let key = 0xabcdu64;
        let cache = PrefixCache::new();
        let producer = RunTask {
            policy: SchedPolicy::Scripted(script.clone()),
            faults: Vec::new(),
            snapshot_at: Some(shared),
            prefix_key: Some(key),
            metrics: true,
        };
        let consumer = RunTask {
            policy: SchedPolicy::Scripted(script.clone()),
            faults: Vec::new(),
            snapshot_at: None,
            prefix_key: Some(key),
            metrics: true,
        };
        let out = run_batch(&source, &[producer, consumer], 1, &cache);
        assert_eq!(cache.len(), 1, "producer still deposits");
        assert_eq!(cache.hits(), 0, "metered consumer ran from scratch");
        for r in &out {
            assert_eq!(r.digest, base.digest);
            let m = r.metrics.as_ref().expect("both runs metered");
            assert_eq!(m.turns, out[0].metrics.as_ref().unwrap().turns);
        }
    }
}
