//! The exploration strategies, finding pipeline, and report.

use crate::flight;
use crate::oracle::{self, Violation};
use crate::pool::{run_windowed, RunTask, WorkerPool};
use crate::runner::{
    self, execute, execute_task, ProgramSource, RunResult, CLASS_COMPLETED, CLASS_DEADLOCK,
    CLASS_DIVERGENCE, CLASS_PANIC,
};
use crate::shrink::ddmin;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::Serialize;
use std::collections::{BTreeMap, HashSet, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tracedbg_analysis::IndependenceFacts;
use tracedbg_mpsim::metrics::of_run;
use tracedbg_mpsim::{Engine, EngineCheckpoint, EngineMetrics, SchedPolicy};
use tracedbg_obs::{
    ClassCount, EventMetrics, ExploreEvent, MetricsReport, TimingMetrics, WorkerStat,
};
use tracedbg_trace::schedule::{Decision, DecisionPoint, Fault, ReadySets, ScheduleArtifact};
use tracedbg_trace::{ChunkLog, Rank};

/// Which part of the schedule space to search.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Strategy {
    /// Seeded random walks (optionally with generated faults).
    Random,
    /// Bounded-preemption DFS over recorded decision points.
    Systematic,
    /// Systematic first, random walk with the remaining budget.
    Both,
}

impl Strategy {
    pub fn as_str(&self) -> &'static str {
        match self {
            Strategy::Random => "random",
            Strategy::Systematic => "systematic",
            Strategy::Both => "both",
        }
    }
}

/// Exploration parameters.
#[derive(Clone, Debug)]
pub struct ExploreConfig {
    /// Workload spec recorded into artifacts (the CLI's workload name).
    pub workload: String,
    /// Base seed: run seeds and generated faults derive from it.
    pub seed: u64,
    /// Total exploration run budget (shrink/confirm runs not included).
    pub runs: usize,
    /// Max decision-point substitutions along one systematic path.
    pub preemptions: usize,
    /// Generate fault plans on part of the random walk.
    pub inject_faults: bool,
    pub strategy: Strategy,
    /// Max predicate evaluations while shrinking one failure.
    pub shrink_budget: usize,
    /// Worker threads for exploration runs (`0` = available parallelism).
    /// Findings are identical for every value at a fixed seed — batches
    /// are formed and absorbed in deterministic order regardless of which
    /// worker executes which run.
    pub jobs: usize,
    /// Collect engine + explorer telemetry
    /// ([`Explorer::explore_traced`] then returns a [`MetricsReport`]).
    /// Event-derived counters are byte-identical across `jobs` at a fixed
    /// seed.
    pub metrics: bool,
    /// Print a throttled progress heartbeat to stderr while exploring.
    pub progress: bool,
    /// Statically proven commutativity facts (from `tracedbg-analysis`).
    /// When present, the systematic search keeps Godefroid-style sleep
    /// sets and skips enqueueing alternatives that only permute
    /// independent decisions. `None` degrades to the full search.
    pub independence: Option<IndependenceFacts>,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig {
            workload: String::new(),
            seed: 0,
            runs: 64,
            preemptions: 2,
            inject_faults: false,
            strategy: Strategy::Both,
            shrink_budget: 128,
            jobs: 1,
            metrics: false,
            progress: false,
            independence: None,
        }
    }
}

/// One confirmed failure with its minimized, replayable schedule.
#[derive(Clone, Debug, Serialize)]
pub struct Finding {
    /// Failure class (`deadlock`, `panic`, `lint`, `divergence`).
    pub class: String,
    pub detail: String,
    /// Which exploration run exposed it (1-based).
    pub found_on_run: usize,
    /// Strategy that found it.
    pub strategy: String,
    /// Decision count before/after shrinking.
    pub decisions_recorded: usize,
    pub decisions_shrunk: usize,
    /// Did a final scripted re-execution reproduce the class with a
    /// stable trace digest?
    pub confirmed: bool,
    pub artifact: ScheduleArtifact,
}

/// The full result of one exploration.
#[derive(Serialize)]
pub struct ExploreReport {
    pub workload: String,
    pub procs: usize,
    pub seed: u64,
    pub strategy: String,
    /// Worker threads used (resolved: never 0).
    pub jobs: usize,
    /// Exploration runs executed (budget consumption).
    pub runs_executed: usize,
    /// Extra runs spent on shrinking and confirming findings.
    pub aux_runs: usize,
    /// Schedules skipped as equivalent to one already seen.
    pub pruned: usize,
    /// Branch points (real choices) in the deterministic baseline run.
    pub baseline_branches: usize,
    /// Systematic alternatives skipped by sleep sets (DPOR). Deterministic
    /// for a fixed seed at every `jobs` count.
    pub sleep_skipped: u64,
    /// Independent rank pairs proven by the static analysis (0 without
    /// independence facts).
    pub independence_pairs: u64,
    pub findings: Vec<Finding>,
}

impl ExploreReport {
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("report serialization cannot fail")
    }

    /// Human-readable summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "explored {} (procs={} seed={} strategy={} jobs={}): {} runs, {} aux, {} pruned, {} baseline branch point(s)\n",
            self.workload,
            self.procs,
            self.seed,
            self.strategy,
            self.jobs,
            self.runs_executed,
            self.aux_runs,
            self.pruned,
            self.baseline_branches,
        ));
        if self.independence_pairs > 0 {
            out.push_str(&format!(
                "sleep sets: {} independent rank pair(s), {} alternative(s) skipped\n",
                self.independence_pairs, self.sleep_skipped,
            ));
        }
        if self.findings.is_empty() {
            out.push_str("no violations found\n");
        }
        for f in &self.findings {
            out.push_str(&format!(
                "[{}] run {} ({}): {}\n    schedule: {} -> {} decision(s), {} fault(s){}\n",
                f.class,
                f.found_on_run,
                f.strategy,
                f.detail,
                f.decisions_recorded,
                f.decisions_shrunk,
                f.artifact.faults.len(),
                if f.confirmed {
                    ", confirmed"
                } else {
                    ", UNCONFIRMED"
                },
            ));
        }
        out
    }
}

/// The exploration engine.
pub struct Explorer {
    cfg: ExploreConfig,
    source: Arc<ProgramSource>,
    procs: usize,
    runs_executed: usize,
    aux_runs: usize,
    pruned: usize,
    digests: HashSet<u64>,
    findings: Vec<Finding>,
    classes_found: HashSet<String>,
    /// Alternatives skipped because they were asleep (sleep-set DPOR).
    sleep_skipped: u64,
    /// Telemetry accumulator (`cfg.metrics`).
    obs: Option<Box<ObsAcc>>,
    /// `(decisions restored, decisions)` over the systematic runs: the
    /// share of their work that forking saved.
    #[cfg(test)]
    restored: (u64, u64),
    /// Every script the systematic search dequeued, in order.
    #[cfg(test)]
    dequeued: Vec<Vec<Decision>>,
    /// Last `--progress` heartbeat.
    last_progress: Instant,
}

/// Everything the explorer accumulates for a [`MetricsReport`]. The event
/// half (engine counters, oracle counts) is fed exclusively from the
/// deterministic absorb order; the timing half is the pool's worker load.
struct ObsAcc {
    /// The metrics of every budgeted run (shrink/confirm aux runs are not
    /// counted), merged.
    engine: EngineMetrics,
    /// Oracle verdicts per class, every trigger (not just first-per-class
    /// findings).
    oracle_triggers: BTreeMap<String, u64>,
}

impl ObsAcc {
    fn new(procs: usize) -> Box<Self> {
        Box::new(ObsAcc {
            engine: EngineMetrics::new(procs),
            oracle_triggers: BTreeMap::new(),
        })
    }
}

/// The systematic search's queue: one [`Expansion`] per absorbed run that
/// may still branch, in absorb order. It hands out the runs' untaken
/// alternatives front to back — the order a queue holding one entry per
/// alternative would dequeue them in — and builds an alternative's script
/// only when it is dequeued, so the frontier costs one decision log per
/// absorbed run, not an entry per alternative (of which at most `runs`
/// are ever dequeued). A `Turn` point's alternatives are rebuilt from the
/// log's ready-set deltas by walking it forward ([`ReadySets`]).
///
/// An entry forks its parent run: each alternative's entry carries the
/// run's checkpoint at (or a few decisions before) the branch point, so
/// its run executes only what follows. The checkpoints come from the
/// front run executed once more, one engine run on from branch point to
/// branch point ([`FrontRun`]).
///
/// No script is dequeued twice, so none is looked up among those run. An
/// entry's script is a run's decisions before a branch point at or past
/// the end of that run's own script, then an alternative untaken there.
/// Past its script a run schedules round-robin (systematic runs carry no
/// faults), so two runs that share a prefix choose alike after it. By
/// induction on the absorb order, two entries' scripts differ at the
/// shorter one's branch point or before.
struct Frontier {
    runs: VecDeque<Expansion>,
    /// Only the front run's cursor moves.
    front: FrontRun,
    /// Reused by the skip count in [`Frontier::push`].
    scratch: Vec<Decision>,
    skip_walk: ReadySets,
}

/// One absorbed run's untaken alternatives, walked by a cursor.
struct Expansion {
    /// The run's decisions with their alternatives, moved out of its
    /// [`RunResult`].
    points: ChunkLog<DecisionPoint>,
    /// Substitutions along the run's path; its alternatives add one.
    depth: usize,
    /// Cursor: the point to visit next and the index of its next
    /// alternative.
    point: usize,
    alt: usize,
    /// Decisions asleep at `point` (empty without facts).
    asleep: Vec<Decision>,
    /// `point`'s chosen decision and the alternatives of it handed out so
    /// far (kept only with facts: they are what a child's sleep set
    /// inherits).
    explored: Vec<Decision>,
}

/// The front [`Expansion`]'s run, executed once more as its cursor moves:
/// one engine, launched when the cursor is first [`CHECKPOINT_GAP`]
/// decisions in and run on to each later branch point that needs a
/// checkpoint ([`tracedbg_mpsim::Engine::run_to_snapshot`]).
struct FrontRun {
    /// The run's ready sets, rebuilt from its first point as far as the
    /// cursor has gone.
    ready: ReadySets,
    engine: Option<Engine>,
    /// The latest checkpoint the engine took; `None` until the cursor is
    /// [`CHECKPOINT_GAP`] decisions in.
    held: Option<Arc<EngineCheckpoint>>,
}

/// A dequeued alternative: replay a run up to a branch point, then take
/// the alternative (the last decision of `script`).
struct FrontierEntry {
    script: Vec<Decision>,
    /// Substitutions along the path, this one included.
    depth: usize,
    /// Decisions asleep at the end of the prefix (empty without facts).
    sleep: Vec<Decision>,
    /// The parent run's checkpoint at or shortly before the branch
    /// point, which the entry's run forks instead of replaying the whole
    /// prefix (`None`: a branch point near launch, the run launches).
    from: Option<Arc<EngineCheckpoint>>,
}

/// A front run is executed on to a branch point and checkpointed there
/// only when its last checkpoint (or its launch) is at least this many
/// decisions behind; an entry nearer forks that one (or launches) and
/// replays the gap from its script. A checkpoint costs a snapshot and
/// the copies of the ranks the engine moves after it, so replaying a few
/// decisions is cheaper for the two or three siblings that share a branch
/// point; 8 read faster still on the hunts and the small searches, but
/// forked only 25 % and 34 % of their decisions (4: 28 % and 41 %;
/// EXPERIMENTS.md §14). More than 2: the engine stops up to two decisions
/// past a checkpoint, and must not be past the next.
const CHECKPOINT_GAP: usize = 4;

/// What the search remembers of a dequeued entry while its run executes.
struct Dequeued {
    prefix_len: usize,
    depth: usize,
    sleep: Vec<Decision>,
}

impl Frontier {
    fn new(n_ranks: usize) -> Self {
        Frontier {
            runs: VecDeque::new(),
            front: FrontRun {
                ready: ReadySets::new(n_ranks),
                engine: None,
                held: None,
            },
            scratch: Vec::new(),
            skip_walk: ReadySets::new(n_ranks),
        }
    }

    /// Enqueue the alternatives of a run whose path made `depth`
    /// substitutions: every untaken alternative at each branch point at
    /// index >= `from`, replayed prefix + alternative. `entry_sleep` is
    /// the sleep set the run's own entry carried. Returns how many
    /// alternatives sleep sets skip — counted here, when the run is
    /// enqueued, so the count covers alternatives the budget never
    /// reaches, by a walk that allocates nothing once `scratch` has grown.
    ///
    /// With independence facts, this is where the DPOR reduction lives
    /// (sleep sets plus a source-set-style skip, adapted to the
    /// breadth-first prefix queue).
    ///
    /// *Source-set skip*: an alternative independent of the point's chosen
    /// decision is not enqueued at all. Nothing dependent with it executes
    /// here, so it stays enabled and is offered again at the first later
    /// point whose chosen decision depends on it (a rank's own next
    /// decision is always dependent); substituting it earlier only
    /// commutes it across an independent segment, which yields a
    /// Mazurkiewicz-equivalent run the digest pruner would discard after
    /// paying for the execution.
    ///
    /// *Sleep sets* (Godefroid-style): a decision is *asleep* when an
    /// already-enqueued sibling subtree covers every behavior reachable
    /// through it. Each enqueued alternative inherits the sleeping
    /// decisions it is independent of, plus its earlier siblings;
    /// executing a dependent decision wakes a sleeper.
    ///
    /// Both skips count into `sleep_skipped`. Without facts every sleep
    /// set is empty, no alternative is provably independent, and this
    /// reduces exactly to the full search.
    fn push(
        &mut self,
        points: ChunkLog<DecisionPoint>,
        from: usize,
        depth: usize,
        entry_sleep: Vec<Decision>,
        facts: Option<&IndependenceFacts>,
    ) -> u64 {
        let mut skipped = 0;
        if let Some(f) = facts {
            let asleep = &mut self.scratch;
            asleep.clear();
            asleep.extend_from_slice(&entry_sleep);
            let walk = &mut self.skip_walk;
            walk.reset();
            for (i, p) in points.iter().enumerate().skip(from) {
                walk.advance_through(&points, i);
                if p.is_branch() {
                    skipped += walk
                        .alternatives(p)
                        .filter(|alt| {
                            *alt != p.chosen
                                && (f.independent(alt, &p.chosen) || asleep.contains(alt))
                        })
                        .count() as u64;
                }
                asleep.retain(|u| f.independent(u, &p.chosen));
            }
        }
        self.runs.push_back(Expansion {
            points,
            depth,
            point: from,
            alt: 0,
            asleep: entry_sleep,
            explored: Vec::new(),
        });
        skipped
    }

    /// The next alternative in FIFO order, or `None` once every enqueued
    /// run is exhausted. The front run's checkpoints are taken executing
    /// it from `source`.
    fn pop(
        &mut self,
        facts: Option<&IndependenceFacts>,
        source: &ProgramSource,
    ) -> Option<FrontierEntry> {
        loop {
            let run = self.runs.front_mut()?;
            if let Some(entry) = run.next(facts, &mut self.front, source) {
                return Some(entry);
            }
            self.runs.pop_front();
            self.front.reset();
        }
    }
}

impl FrontRun {
    /// Forget the run: the next front run starts from its first point.
    fn reset(&mut self) {
        self.ready.reset();
        (self.engine, self.held) = (None, None);
    }

    /// The checkpoint an entry branching after the first `k` of the run's
    /// `points` forks: the held one (or none: a launch) while it is fewer
    /// than [`CHECKPOINT_GAP`] decisions behind; else the engine's at `k`,
    /// held instead. The engine follows the run's own decisions as its
    /// script, so the scheduler's cursor at a checkpoint is its decision
    /// count, as in a launch of the script of any entry branching at or
    /// after it.
    fn checkpoint(
        &mut self,
        points: &ChunkLog<DecisionPoint>,
        k: usize,
        source: &ProgramSource,
    ) -> Option<Arc<EngineCheckpoint>> {
        let at = self.held.as_ref().map_or(0, |cp| cp.decision_len());
        if k >= at + CHECKPOINT_GAP {
            let engine = self.engine.get_or_insert_with(|| {
                let task = RunTask {
                    policy: SchedPolicy::Scripted(points.iter().map(|p| p.chosen).collect()),
                    faults: Vec::new(),
                    from: None,
                };
                runner::engine(source, &task)
            });
            let cp = engine
                .run_to_snapshot(k)
                .expect("a run reaches its own branch points");
            self.held = Some(Arc::new(cp));
        }
        self.held.clone()
    }
}

impl Expansion {
    /// Advance the cursor to the next alternative [`Frontier::push`] did
    /// not count as skipped, and build its entry. `front` has walked this
    /// run's points up to the cursor.
    fn next(
        &mut self,
        facts: Option<&IndependenceFacts>,
        front: &mut FrontRun,
        source: &ProgramSource,
    ) -> Option<FrontierEntry> {
        while let Some(p) = self.points.get(self.point) {
            front.ready.advance_through(&self.points, self.point);
            if p.is_branch() {
                if self.alt == 0 && facts.is_some() {
                    self.explored.clear();
                    self.explored.push(p.chosen);
                }
                let untaken =
                    (front.ready.alternatives(p).enumerate().skip(self.alt)).find(|(_, alt)| {
                        *alt != p.chosen
                            && !facts.is_some_and(|f| f.independent(alt, &p.chosen))
                            && !self.asleep.contains(alt)
                    });
                if let Some((k, alt)) = untaken {
                    self.alt = k + 1;
                    let sleep = match facts {
                        Some(f) => {
                            let sleep = self
                                .asleep
                                .iter()
                                .chain(self.explored.iter())
                                .filter(|u| f.independent(u, &alt))
                                .copied()
                                .collect();
                            self.explored.push(alt);
                            sleep
                        }
                        None => Vec::new(),
                    };
                    let mut script = Vec::with_capacity(self.point + 1);
                    script.extend(self.points.iter().take(self.point).map(|p| p.chosen));
                    script.push(alt);
                    return Some(FrontierEntry {
                        script,
                        depth: self.depth + 1,
                        sleep,
                        from: front.checkpoint(&self.points, self.point, source),
                    });
                }
            }
            if !self.asleep.is_empty() {
                match facts {
                    Some(f) => self.asleep.retain(|u| f.independent(u, &p.chosen)),
                    None => self.asleep.clear(),
                }
            }
            self.point += 1;
            self.alt = 0;
        }
        None
    }
}

/// SplitMix64's output function: a seed for run `i` of a search at
/// `seed` is `splitmix64(seed + i)`.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl Explorer {
    pub fn new(cfg: ExploreConfig, source: ProgramSource) -> Self {
        let procs = source().len();
        let obs = cfg.metrics.then(|| ObsAcc::new(procs));
        Explorer {
            cfg,
            source: Arc::new(source),
            procs,
            runs_executed: 0,
            aux_runs: 0,
            pruned: 0,
            digests: HashSet::new(),
            findings: Vec::new(),
            classes_found: HashSet::new(),
            sleep_skipped: 0,
            obs,
            #[cfg(test)]
            restored: (0, 0),
            #[cfg(test)]
            dequeued: Vec::new(),
            last_progress: Instant::now(),
        }
    }

    /// Run the exploration to completion and report.
    pub fn explore(self) -> ExploreReport {
        self.explore_traced().0
    }

    /// [`Explorer::explore`], additionally returning a [`MetricsReport`]
    /// when the config opted into telemetry (`cfg.metrics`). The
    /// [`ExploreReport`] is identical either way.
    pub fn explore_traced(self) -> (ExploreReport, Option<MetricsReport>) {
        let source = Arc::clone(&self.source);
        std::thread::scope(|scope| {
            let pool = WorkerPool::new(scope, self.cfg.jobs, &source);
            self.explore_on(&pool)
        })
    }

    fn explore_on(mut self, pool: &WorkerPool) -> (ExploreReport, Option<MetricsReport>) {
        let started = Instant::now();
        // Failing runs are the point here; keep their panics off stderr.
        tracedbg_mpsim::set_quiet_panics(true);
        // Deterministic baseline: the root of systematic search, and the
        // subject of the replay-conformance oracle.
        let base = self.run_and_check(SchedPolicy::RoundRobin, &[], "baseline");
        let baseline_branches = base.points.iter().filter(|p| p.is_branch()).count();
        self.conformance_check(&base);
        match self.cfg.strategy {
            Strategy::Systematic | Strategy::Both => self.systematic(pool, base),
            Strategy::Random => {}
        }
        match self.cfg.strategy {
            Strategy::Random | Strategy::Both => self.random_walk(pool),
            Strategy::Systematic => {}
        }
        tracedbg_mpsim::set_quiet_panics(false);
        let metrics = self
            .obs
            .take()
            .map(|acc| self.metrics_report(*acc, pool, started.elapsed()));
        let report = ExploreReport {
            workload: self.cfg.workload,
            procs: self.procs,
            seed: self.cfg.seed,
            strategy: self.cfg.strategy.as_str().to_string(),
            jobs: pool.jobs(),
            runs_executed: self.runs_executed,
            aux_runs: self.aux_runs,
            pruned: self.pruned,
            baseline_branches,
            sleep_skipped: self.sleep_skipped,
            independence_pairs: self
                .cfg
                .independence
                .as_ref()
                .map(|f| f.pair_count())
                .unwrap_or(0),
            findings: self.findings,
        };
        (report, metrics)
    }

    /// Assemble the [`MetricsReport`] from the accumulator. The `event`
    /// section is built purely from absorb-order state; everything
    /// wall-clock-shaped goes in `timing`.
    fn metrics_report(&self, acc: ObsAcc, pool: &WorkerPool, elapsed: Duration) -> MetricsReport {
        let event = EventMetrics {
            runs: self.runs_executed as u64,
            engine: acc.engine,
            explore: Some(ExploreEvent {
                runs_executed: self.runs_executed as u64,
                aux_runs: self.aux_runs as u64,
                digest_pruned: self.pruned as u64,
                runs_skipped_by_sleep_sets: self.sleep_skipped,
                independence_pairs: self
                    .cfg
                    .independence
                    .as_ref()
                    .map(|f| f.pair_count())
                    .unwrap_or(0),
                // BTreeMap iteration = sorted by class name.
                oracle_triggers: acc
                    .oracle_triggers
                    .into_iter()
                    .map(|(class, count)| ClassCount { class, count })
                    .collect(),
            }),
        };
        let wall_ms = (elapsed.as_millis() as u64).max(1);
        let timing = TimingMetrics {
            wall_ms,
            walks_per_sec: self.runs_executed as u64 * 1000 / wall_ms,
            workers: pool
                .load()
                .into_iter()
                .enumerate()
                .map(|(w, (tasks, busy_ns))| {
                    let busy_ms = busy_ns / 1_000_000;
                    WorkerStat {
                        worker: w as u64,
                        tasks,
                        busy_ms,
                        util_pct: (busy_ms * 100 / wall_ms).min(100),
                    }
                })
                .collect(),
            // Snapshots, checkpoints and commands are a debug session's.
            ..Default::default()
        };
        MetricsReport::new(
            "explore",
            &self.cfg.workload,
            self.procs as u64,
            self.cfg.seed,
            pool.jobs() as u64,
            event,
            timing,
        )
    }

    /// Execute one exploration run and feed it to the oracles.
    fn run_and_check(
        &mut self,
        policy: SchedPolicy,
        faults: &[Fault],
        strategy: &'static str,
    ) -> RunResult {
        let task = RunTask {
            policy,
            faults: faults.to_vec(),
            from: None,
        };
        let res = execute_task(&self.source, &task);
        self.absorb(&res, faults, strategy);
        res
    }

    /// Account one finished run and feed it to the oracles. Every run —
    /// sequential or from a parallel batch — passes through here in
    /// deterministic task order, which is what keeps `jobs=N` findings
    /// identical to `jobs=1`. Telemetry event counters are derived from
    /// the run's trace and decisions in the same place, inheriting the
    /// same invariance.
    fn absorb(&mut self, res: &RunResult, faults: &[Fault], strategy: &'static str) {
        self.runs_executed += 1;
        if let Some(obs) = self.obs.as_mut() {
            let m = of_run(res.log().iter(), &res.decisions, self.procs);
            obs.engine.merge(&m);
        }
        if self.digests.insert(res.digest) {
            if let Some(v) = oracle::check(res) {
                if let Some(obs) = self.obs.as_mut() {
                    *obs.oracle_triggers.entry(v.class.to_string()).or_default() += 1;
                }
                self.handle_violation(res, faults, v, strategy);
            }
        } else {
            self.pruned += 1;
        }
        self.heartbeat();
    }

    /// Throttled `--progress` heartbeat on stderr (≥500 ms apart, so even
    /// tight exploration loops cost one `Instant` read per run).
    fn heartbeat(&mut self) {
        if !self.cfg.progress || self.last_progress.elapsed() < Duration::from_millis(500) {
            return;
        }
        self.last_progress = Instant::now();
        eprintln!(
            "explore: {}/{} runs, {} pruned, {} finding(s)",
            self.runs_executed,
            self.cfg.runs,
            self.pruned,
            self.findings.len()
        );
    }

    /// Replay-conformance oracle: re-executing the baseline's own decision
    /// sequence as a script must regenerate the identical trace. A
    /// mismatch is a bug in the record/replay machinery itself.
    fn conformance_check(&mut self, base: &RunResult) {
        if base.class != CLASS_COMPLETED {
            return;
        }
        self.aux_runs += 1;
        let rerun = execute(
            &self.source,
            SchedPolicy::Scripted(base.decisions.clone()),
            &[],
        );
        if rerun.digest != base.digest || rerun.diverged {
            let mut artifact =
                ScheduleArtifact::new(self.cfg.workload.clone(), self.procs, self.cfg.seed);
            artifact.decisions = base.decisions.clone();
            artifact.failure = Some(CLASS_DIVERGENCE.to_string());
            self.findings.push(Finding {
                class: CLASS_DIVERGENCE.to_string(),
                detail: format!(
                    "scripted re-execution of the baseline diverged (diverged={}, digest {:#x} vs {:#x})",
                    rerun.diverged, rerun.digest, base.digest
                ),
                found_on_run: self.runs_executed,
                strategy: "baseline".to_string(),
                decisions_recorded: base.decisions.len(),
                decisions_shrunk: base.decisions.len(),
                confirmed: false,
                artifact,
            });
        }
    }

    /// Bounded-preemption search, breadth-first: every 1-preemption
    /// schedule runs before any 2-preemption schedule. Each queue entry is
    /// a schedule prefix that replays an observed run up to a branch point
    /// and substitutes one alternative; `depth` counts substitutions along
    /// the path. Breadth order matters — races live at early branch
    /// points, and depth-first order would burn the whole run budget
    /// permuting the (usually equivalent) tail of the schedule.
    ///
    /// Parallel shape: the loop dequeues one window ([`WorkerPool::window`])
    /// of entries — the budget accounted at dequeue time, exactly where a
    /// one-run-at-a-time loop would — then runs it
    /// and absorbs it in task order ([`run_windowed`]): oracles, digest
    /// pruning and queue extensions happen in task order, so extensions of
    /// item `k` enqueue before extensions of item `k+1`, and a run's trace
    /// is dropped as soon as it is absorbed. Extensions always go to the
    /// back of the FIFO, behind every entry still queued, so the dequeue
    /// order and the absorb order are those of one run at a time, wherever
    /// the windows are cut — which is what makes the window size invisible
    /// in the report.
    fn systematic(&mut self, pool: &WorkerPool, base: RunResult) {
        let window = pool.window();
        let mut frontier = Frontier::new(self.procs);
        self.sleep_skipped += frontier.push(
            base.points,
            0,
            0,
            Vec::new(),
            self.cfg.independence.as_ref(),
        );
        let mut tasks = Vec::with_capacity(window);
        let mut batch: Vec<Dequeued> = Vec::with_capacity(window);
        loop {
            batch.clear();
            while tasks.len() < window && self.runs_executed + tasks.len() < self.cfg.runs {
                let Some(entry) = frontier.pop(self.cfg.independence.as_ref(), &self.source) else {
                    break;
                };
                #[cfg(test)]
                self.dequeued.push(entry.script.clone());
                batch.push(Dequeued {
                    prefix_len: entry.script.len(),
                    depth: entry.depth,
                    sleep: entry.sleep,
                });
                tasks.push(RunTask {
                    policy: SchedPolicy::Scripted(entry.script),
                    faults: Vec::new(),
                    from: entry.from,
                });
            }
            if tasks.is_empty() {
                break;
            }
            run_windowed(pool, tasks.drain(..), |i, _task, res| {
                #[cfg(test)]
                {
                    self.restored.0 += res.restored as u64;
                    self.restored.1 += res.decisions.len() as u64;
                }
                self.absorb(&res, &[], "systematic");
                // Only branch on decisions *after* the substitution:
                // earlier alternatives are someone else's subtree (the
                // sleep-set-style part of the reduction).
                let from = &mut batch[i];
                if from.depth < self.cfg.preemptions && !res.diverged {
                    self.sleep_skipped += frontier.push(
                        res.points,
                        from.prefix_len,
                        from.depth,
                        std::mem::take(&mut from.sleep),
                        self.cfg.independence.as_ref(),
                    );
                }
            });
        }
    }

    /// Seeded random walks until the budget runs out.
    ///
    /// Each walk's scheduling seed and fault plan derive purely from the
    /// base seed and the walk index — a private ChaCha8 stream per run, so
    /// the task sequence is the same however many workers execute it. Like
    /// the systematic search it builds one window of tasks at a time, and
    /// each result is absorbed and dropped before the next window is built.
    fn random_walk(&mut self, pool: &WorkerPool) {
        let remaining = self.cfg.runs.saturating_sub(self.runs_executed) as u64;
        let (base_seed, procs) = (self.cfg.seed, self.procs);
        let inject_faults = self.cfg.inject_faults;
        let tasks = (1..=remaining).map(move |i| {
            let seed = splitmix64(base_seed.wrapping_add(i));
            let faults = if inject_faults && i.is_multiple_of(2) {
                let mut rng = ChaCha8Rng::seed_from_u64(splitmix64(seed));
                Self::gen_faults(procs, &mut rng)
            } else {
                Vec::new()
            };
            RunTask {
                policy: SchedPolicy::Seeded(seed),
                faults,
                from: None,
            }
        });
        run_windowed(pool, tasks, |_, task, res| {
            self.absorb(&res, &task.faults, "random")
        });
    }

    /// A small random fault plan over `procs` ranks: delays dominate (they
    /// stay within MPI legality), with occasional crash/hang injections.
    fn gen_faults(procs: usize, rng: &mut ChaCha8Rng) -> Vec<Fault> {
        let n = 1 + rng.gen_range(0..2);
        (0..n)
            .map(|_| {
                let rank = Rank(rng.gen_range(0..procs) as u32);
                match rng.gen_range(0..4) {
                    0 | 1 => {
                        let mut dst = rng.gen_range(0..procs);
                        if dst == rank.ix() {
                            dst = (dst + 1) % procs;
                        }
                        Fault::Delay {
                            src: rank,
                            dst: Rank(dst as u32),
                            nth: rng.gen_range(0..3) as u64,
                            extra_ns: 1_000_000 * (1 + rng.gen_range(0..100)) as u64,
                        }
                    }
                    2 => Fault::Crash {
                        rank,
                        after_ops: rng.gen_range(0..4) as u64,
                    },
                    _ => Fault::Hang {
                        rank,
                        after_ops: rng.gen_range(0..4) as u64,
                    },
                }
            })
            .collect()
    }

    /// Shrink, minimize faults, confirm, and record one violation.
    fn handle_violation(
        &mut self,
        res: &RunResult,
        faults: &[Fault],
        v: Violation,
        strategy: &'static str,
    ) {
        let class = v.class.to_string();
        // One finding per class keeps reports and artifact sets small; the
        // first exposure is also the cheapest to shrink.
        if !self.classes_found.insert(class.clone()) {
            return;
        }
        let recorded = res.decisions.len();
        let mut aux = 0usize;
        let reproduces = |decisions: &[Decision], faults: &[Fault], aux: &mut usize| -> bool {
            *aux += 1;
            let rerun = execute(
                &self.source,
                SchedPolicy::Scripted(decisions.to_vec()),
                faults,
            );
            rerun.class == class
        };
        // Delta-debug the decision sequence (fault plan held fixed).
        let shrunk = ddmin(res.decisions.clone(), self.cfg.shrink_budget, |d| {
            reproduces(d, faults, &mut aux)
        });
        // Then drop faults that are not needed to reproduce.
        let mut kept: Vec<Fault> = faults.to_vec();
        let mut fi = 0;
        while fi < kept.len() {
            let mut without = kept.clone();
            without.remove(fi);
            if reproduces(&shrunk, &without, &mut aux) {
                kept = without;
            } else {
                fi += 1;
            }
        }
        // Confirm: two scripted re-executions agree with each other and
        // with the failure class.
        let c1 = execute(&self.source, SchedPolicy::Scripted(shrunk.clone()), &kept);
        let c2 = execute(&self.source, SchedPolicy::Scripted(shrunk.clone()), &kept);
        aux += 2;
        let confirmed = c1.class == class && c2.class == class && c1.digest == c2.digest;
        self.aux_runs += aux;

        let mut artifact =
            ScheduleArtifact::new(self.cfg.workload.clone(), self.procs, self.cfg.seed);
        artifact.faults = kept;
        artifact.decisions = shrunk;
        artifact.failure = Some(class.clone());
        // A deadlock or panic carries the last engine decisions before the
        // failure, rendered from the first confirm run.
        if c1.class == class && (class == CLASS_DEADLOCK || class == CLASS_PANIC) {
            artifact.flight = Some(flight::render(&c1, &artifact.faults));
        }
        self.findings.push(Finding {
            class,
            detail: v.detail,
            found_on_run: self.runs_executed,
            strategy: strategy.to_string(),
            decisions_recorded: recorded,
            decisions_shrunk: artifact.decisions.len(),
            confirmed,
            artifact,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tracedbg_workloads::planted::{planted_wildcard_factory, PlantedConfig};
    use tracedbg_workloads::racy::{wildcard_race_factory, RacyConfig};
    use tracedbg_workloads::script::programs;
    use tracedbg_workloads::scripts::builtin;

    /// One alternative as the search sees it: `(cut, alt, depth, sleep)`.
    type Alt = (usize, Decision, usize, Vec<Decision>);

    /// The eager frontier the lazy one replaced, kept as its reference:
    /// for every branch point at index >= `from`, enqueue each untaken
    /// alternative at once, counting sleep-set skips as it goes.
    #[allow(clippy::too_many_arguments)]
    fn push_extensions(
        n_ranks: usize,
        points: &ChunkLog<DecisionPoint>,
        from: usize,
        depth: usize,
        entry_sleep: &[Decision],
        facts: Option<&IndependenceFacts>,
        sleep_skipped: &mut u64,
        queue: &mut VecDeque<Alt>,
    ) {
        let mut asleep: Vec<Decision> = entry_sleep.to_vec();
        let mut ready = ReadySets::new(n_ranks);
        for (i, p) in points.iter().enumerate().skip(from) {
            ready.advance_through(points, i);
            if p.is_branch() {
                let mut explored: Vec<Decision> = vec![p.chosen];
                for alt in ready.alternatives(p) {
                    if alt == p.chosen {
                        continue;
                    }
                    if facts.is_some_and(|f| f.independent(&alt, &p.chosen)) {
                        *sleep_skipped += 1;
                        continue;
                    }
                    if asleep.contains(&alt) {
                        *sleep_skipped += 1;
                        continue;
                    }
                    let child_sleep: Vec<Decision> = match facts {
                        Some(f) => asleep
                            .iter()
                            .chain(explored.iter())
                            .filter(|u| f.independent(u, &alt))
                            .copied()
                            .collect(),
                        None => Vec::new(),
                    };
                    queue.push_back((i, alt, depth + 1, child_sleep));
                    explored.push(alt);
                }
            }
            if !asleep.is_empty() {
                match facts {
                    Some(f) => asleep.retain(|u| f.independent(u, &p.chosen)),
                    None => asleep.clear(),
                }
            }
        }
    }

    /// Drive the eager and the lazy frontier in lockstep through a
    /// two-preemption breadth-first search of `source` (no budget, no
    /// pruning), executing each of the first `limit` dequeued
    /// alternatives once and extending both queues with its run. Every
    /// dequeued alternative and the final skip counts must agree, and
    /// every lazy entry must carry a checkpoint fewer than
    /// [`CHECKPOINT_GAP`] decisions before its branch point (the runs
    /// here fork it). Returns how many were compared, the largest
    /// depth and the largest sleep set seen, and the skip count.
    fn lockstep(
        source: &ProgramSource,
        facts: Option<&IndependenceFacts>,
        limit: usize,
    ) -> (usize, usize, usize, u64) {
        let base = execute(source, SchedPolicy::RoundRobin, &[]);
        let n_ranks = source().len();
        let (mut eager, mut eager_skipped) = (VecDeque::new(), 0);
        push_extensions(
            n_ranks,
            &base.points,
            0,
            0,
            &[],
            facts,
            &mut eager_skipped,
            &mut eager,
        );
        let mut lazy = Frontier::new(n_ranks);
        let mut lazy_skipped = lazy.push(base.points, 0, 0, Vec::new(), facts);
        let (mut compared, mut deepest, mut widest) = (0, 0, 0);
        while compared < limit {
            let want = eager.pop_front();
            let got = lazy.pop(facts, source);
            let Some((cut, alt, depth, sleep)) = want else {
                assert!(got.is_none(), "the lazy frontier outlived the eager one");
                break;
            };
            let got = got.expect("the lazy frontier ran dry first");
            assert_eq!(got.script.len(), cut + 1, "entry {compared}: cut");
            assert_eq!(got.script[cut], alt, "entry {compared}: alternative");
            assert_eq!(got.depth, depth, "entry {compared}: depth");
            assert_eq!(got.sleep, sleep, "entry {compared}: sleep set");
            let at = got.from.as_ref().map_or(0, |cp| cp.decision_len());
            let near = at <= cut && cut < at + CHECKPOINT_GAP;
            assert!(
                near,
                "entry {compared}: checkpoint at {at}, branch at {cut}"
            );
            assert!(got.from.is_some() || cut < CHECKPOINT_GAP);
            compared += 1;
            deepest = deepest.max(depth);
            widest = widest.max(sleep.len());
            if depth < 2 {
                let task = RunTask {
                    policy: SchedPolicy::Scripted(got.script),
                    faults: Vec::new(),
                    from: got.from,
                };
                let res = execute_task(source, &task);
                if !res.diverged {
                    push_extensions(
                        n_ranks,
                        &res.points,
                        cut + 1,
                        depth,
                        &sleep,
                        facts,
                        &mut eager_skipped,
                        &mut eager,
                    );
                    lazy_skipped += lazy.push(res.points, cut + 1, depth, got.sleep, facts);
                }
            }
        }
        assert_eq!(lazy_skipped, eager_skipped, "sleep-set skips");
        (compared, deepest, widest, lazy_skipped)
    }

    /// [`lockstep`] over a script with the facts `--dpor` derives for it.
    fn sdl_lockstep(
        script: &tracedbg_workloads::script::Script,
        nprocs: usize,
        file: &str,
    ) -> (usize, usize, usize, u64) {
        let facts = tracedbg_analysis::analyze(script, nprocs, file).independence;
        assert!(facts.pair_count() > 0, "{file}: independent ranks");
        let (script, file) = (script.clone(), file.to_string());
        let source: ProgramSource = Box::new(move || programs(&script, nprocs, &file));
        lockstep(&source, Some(&facts), 2000)
    }

    #[test]
    fn the_lazy_frontier_dequeues_what_the_eager_one_did() {
        let racy: ProgramSource = Box::new(wildcard_race_factory(RacyConfig {
            nprocs: 5,
            ..Default::default()
        }));
        let (n, deepest, _, _) = lockstep(&racy, None, 2000);
        assert!(n > 100 && deepest == 2, "racy-wildcard: {n} entries");

        let planted: ProgramSource = Box::new(planted_wildcard_factory(PlantedConfig {
            nprocs: 16,
            ..Default::default()
        }));
        let (n, deepest, _, _) = lockstep(&planted, None, 1500);
        assert!(n == 1500 && deepest == 2, "planted-wildcard: {n} entries");

        // The sleep-set path: the pairs program with its independence
        // facts skips every cross-pair alternative at its point (the
        // source-set skip) and so never forms a non-empty sleep set; a
        // star, whose leaves all talk to rank 0 and never to each other,
        // does — a second leaf enqueued at a point sleeps on the first.
        let b = builtin("pairs").expect("built-in script");
        let (n, deepest, _, skipped) = sdl_lockstep(&b.parse(), 6, &b.file());
        assert!(n > 100 && deepest == 2, "sdl:pairs: {n} entries");
        assert!(skipped > 0, "sdl:pairs: source-set skips");
        let star = tracedbg_workloads::script::parse(
            "fn main
               if rank == 0
                 recv from 1 tag 1 into v
                 recv from 2 tag 1 into v
                 recv from 3 tag 1 into v
               else
                 send 0 tag 1 rank
               end
             end",
        )
        .expect("star script");
        let (n, deepest, widest, skipped) = sdl_lockstep(&star, 4, "star.sdl");
        assert!(n > 20 && deepest == 2, "star: {n} entries");
        assert!(
            widest > 0 && skipped > 0,
            "sleep sets were kept and skipped"
        );
    }

    /// The systematic search of `runs` runs of `source` at seed 7, on
    /// one executor, after its baseline, as `explore` runs it.
    fn search(source: ProgramSource, facts: Option<IndependenceFacts>, runs: usize) -> Explorer {
        let cfg = ExploreConfig {
            runs,
            seed: 7,
            strategy: Strategy::Systematic,
            independence: facts,
            ..Default::default()
        };
        tracedbg_mpsim::set_quiet_panics(true);
        let mut explorer = Explorer::new(cfg, source);
        let source = Arc::clone(&explorer.source);
        std::thread::scope(|scope| {
            let pool = WorkerPool::new(scope, 1, &source);
            let base = explorer.run_and_check(SchedPolicy::RoundRobin, &[], "baseline");
            explorer.systematic(&pool, base);
        });
        assert!(explorer.runs_executed >= 4000, "the search went deep");
        explorer
    }

    /// The hunts' searches: 4000 runs of the planted race, and the racy
    /// script's 4790 with its `--dpor` facts (where its systematic search
    /// ends, under a budget of 6000).
    fn hunts() -> [(&'static str, Explorer); 2] {
        let planted = Box::new(planted_wildcard_factory(PlantedConfig {
            nprocs: 16,
            ..Default::default()
        }));
        let b = builtin("racy-wildcard").expect("built-in script");
        let (script, file) = (b.parse(), b.file());
        let facts = tracedbg_analysis::analyze(&script, 8, &file).independence;
        let sdl: ProgramSource = Box::new(move || programs(&script, 8, &file));
        [
            ("planted-wildcard", search(planted, None, 4000)),
            ("sdl:racy-wildcard", search(sdl, Some(facts), 6000)),
        ]
    }

    /// Forking is the systematic search's path: over the hunts' searches a
    /// large share of the decisions the runs log is a restored prefix, not
    /// executed again: 0.280 and 0.408 (0.305 and 0.457 if every branch
    /// point were checkpointed; 0 when every entry launches fresh).
    #[test]
    fn systematic_runs_restore_their_prefix() {
        for ((name, explorer), floor) in hunts().into_iter().zip([0.25, 0.40]) {
            let (restored, decisions) = explorer.restored;
            let share = restored as f64 / decisions as f64;
            assert!(share >= floor, "{name}: {share:.3} of decisions restored");
        }
    }

    /// The search needs no lookup of the scripts it ran ([`Frontier`]):
    /// over the hunts' searches no script is dequeued twice.
    #[test]
    fn no_script_is_dequeued_twice() {
        for (name, explorer) in hunts() {
            let mut seen = HashSet::new();
            for (i, script) in explorer.dequeued.iter().enumerate() {
                assert!(seen.insert(script), "{name}: entry {i} repeats a script");
            }
            assert!(seen.len() >= 3999, "{name}: {} scripts", seen.len());
        }
    }
}
