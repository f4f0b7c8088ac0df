//! One explored run: engine execution → compact result.

use crate::pool::RunTask;
use std::sync::OnceLock;
use tracedbg_instrument::RecorderConfig;
use tracedbg_mpsim::{Engine, EngineConfig, FaultPlan, RunOutcome, SchedPolicy};
use tracedbg_trace::schedule::{Decision, DecisionPoint, Fault};
use tracedbg_trace::{run_digest, ChunkLog, Rank, SiteTable, TraceRecord, TraceStore};

/// Recreates the target program for each run (the explorer executes it
/// many times).
pub use tracedbg_mpsim::ProgramFactory as ProgramSource;

/// The engine's outcome classes, plus the two only an oracle can assign.
pub use tracedbg_mpsim::{CLASS_COMPLETED, CLASS_DEADLOCK, CLASS_PANIC, CLASS_STOPPED};
pub const CLASS_LINT: &str = "lint";
pub const CLASS_DIVERGENCE: &str = "divergence";

/// Everything the explorer keeps from one run.
///
/// The run's trace stays the engine's log, in the order it was recorded;
/// its canonical [`TraceStore`] is built the first time [`RunResult::store`]
/// is asked for. Most explored runs are digest-pruned and never ask.
pub struct RunResult {
    /// Outcome class (`CLASS_*`).
    pub class: &'static str,
    /// Human-readable outcome detail.
    pub detail: String,
    /// The decisions the run actually made.
    pub decisions: Vec<Decision>,
    /// Decisions with their alternatives — the branch structure.
    pub points: Vec<DecisionPoint>,
    /// [`run_digest`] of the run's trace, for equivalence pruning.
    pub digest: u64,
    /// Did a scripted policy fail to apply at some point?
    pub diverged: bool,
    /// The ranks an injected fault silenced.
    pub faulted: Vec<Rank>,
    /// The rank whose panic ended the run, if one did.
    pub panicked: Option<Rank>,
    /// The decisions the run took over from its checkpoint instead of
    /// making them (0 for a launched run): the witness that forks save
    /// work, in no report.
    #[cfg(test)]
    pub(crate) restored: usize,
    /// The run's records in arrival order: each rank's in marker order.
    log: ChunkLog<TraceRecord>,
    sites: SiteTable,
    n_ranks: usize,
    store: OnceLock<TraceStore>,
}

impl RunResult {
    /// The run's records as it recorded them: each rank's in its program
    /// (marker) order, the ranks interleaved as they ran.
    pub fn log(&self) -> &ChunkLog<TraceRecord> {
        &self.log
    }

    /// The ranks the run was launched with.
    pub fn n_ranks(&self) -> usize {
        self.n_ranks
    }

    /// The run's trace in canonical order (for trace-level oracles),
    /// gathered from the log on first use.
    pub fn store(&self) -> &TraceStore {
        self.store
            .get_or_init(|| TraceStore::from_log(&self.log, self.sites.clone(), self.n_ranks))
    }
}

/// Execute the program once under `policy` + `faults` and summarize.
pub fn execute(source: &ProgramSource, policy: SchedPolicy, faults: &[Fault]) -> RunResult {
    execute_task(
        source,
        &RunTask {
            policy,
            faults: faults.to_vec(),
            from: None,
        },
    )
}

/// The engine a task runs on: its checkpoint forked, or a launch. The
/// explorer's front run is launched here too, so the recorder and fault
/// plan its checkpoints hand their forks are a launched run's.
pub fn engine(source: &ProgramSource, task: &RunTask) -> Engine {
    match (&task.from, &task.policy) {
        (Some(cp), SchedPolicy::Scripted(script)) => Engine::fork(cp, script),
        (Some(_), policy) => panic!("a fork follows a script, not {policy:?}"),
        (None, policy) => Engine::launch(
            EngineConfig {
                policy: policy.clone(),
                recorder: RecorderConfig::full(),
                faults: FaultPlan::new(task.faults.clone()),
                ..Default::default()
            },
            source(),
        ),
    }
}

/// Execute one [`RunTask`] — the one way the explorer, its shrinker and
/// `localize` run a schedule. A task with a checkpoint forks it
/// ([`Engine::fork`]): the run starts at the decision the checkpoint was
/// taken before and follows its scripted policy from there, and the
/// result is the one a launch of the task without the checkpoint gives.
/// Any other task launches a private engine from scratch.
pub fn execute_task(source: &ProgramSource, task: &RunTask) -> RunResult {
    let mut engine = engine(source, task);
    let outcome = engine.run();
    let diverged = engine.schedule_diverged();
    let faulted = engine.faulted().into_iter().map(|(rank, _)| rank).collect();
    let panicked = match outcome {
        RunOutcome::Panicked { rank, .. } => Some(rank),
        _ => None,
    };
    let (sites, n_ranks) = (engine.sites().clone(), engine.n_ranks());
    // The engine is done: take its logs, don't copy them.
    let (log, points) = engine.into_log_and_decisions();
    let decisions = points.iter().map(|p| p.chosen).collect();
    RunResult {
        class: outcome.class(),
        detail: outcome.detail(),
        decisions,
        points,
        digest: run_digest(log.iter(), n_ranks),
        diverged,
        faulted,
        panicked,
        #[cfg(test)]
        restored: task.from.as_ref().map_or(0, |cp| cp.decision_len()),
        log,
        sites,
        n_ranks,
        store: OnceLock::new(),
    }
}
