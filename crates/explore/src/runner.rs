//! One explored run: engine execution → compact result.

use crate::pool::RunTask;
use tracedbg_instrument::RecorderConfig;
use tracedbg_mpsim::{Engine, EngineConfig, EngineMetrics, FaultPlan, RunOutcome, SchedPolicy};
use tracedbg_trace::schedule::{Decision, DecisionPoint, Fault};
use tracedbg_trace::{trace_digest, Rank, TraceStore};

/// Recreates the target program for each run (the explorer executes it
/// many times).
pub use tracedbg_mpsim::ProgramFactory as ProgramSource;

/// The engine's outcome classes, plus the two only an oracle can assign.
pub use tracedbg_mpsim::{CLASS_COMPLETED, CLASS_DEADLOCK, CLASS_PANIC, CLASS_STOPPED};
pub const CLASS_LINT: &str = "lint";
pub const CLASS_DIVERGENCE: &str = "divergence";

/// Everything the explorer keeps from one run.
pub struct RunResult {
    /// Outcome class (`CLASS_*`).
    pub class: &'static str,
    /// Human-readable outcome detail.
    pub detail: String,
    /// The decisions the run actually made.
    pub decisions: Vec<Decision>,
    /// Decisions with their alternatives — the branch structure.
    pub points: Vec<DecisionPoint>,
    /// Stable digest of the run's trace, for equivalence pruning.
    pub digest: u64,
    /// The run's trace (for trace-level oracles).
    pub store: TraceStore,
    /// Did a scripted policy fail to apply at some point?
    pub diverged: bool,
    /// The ranks an injected fault silenced.
    pub faulted: Vec<Rank>,
    /// The rank whose panic ended the run, if one did.
    pub panicked: Option<Rank>,
    /// Engine telemetry, when the run was metered (`RunTask::metrics`).
    pub metrics: Option<Box<EngineMetrics>>,
}

/// Execute the program once under `policy` + `faults` and summarize.
pub fn execute(source: &ProgramSource, policy: SchedPolicy, faults: &[Fault]) -> RunResult {
    execute_task(
        source,
        &RunTask {
            policy,
            faults: faults.to_vec(),
            metrics: false,
        },
    )
}

/// Execute one [`RunTask`] on a private engine launched from scratch —
/// the one way the explorer, its shrinker and `localize` run a schedule.
pub fn execute_task(source: &ProgramSource, task: &RunTask) -> RunResult {
    let mut engine = Engine::launch(
        EngineConfig {
            policy: task.policy.clone(),
            recorder: RecorderConfig::full(),
            faults: FaultPlan::new(task.faults.clone()),
            metrics: task.metrics,
            ..Default::default()
        },
        source(),
    );
    let outcome = engine.run();
    let diverged = engine.schedule_diverged();
    let faulted = engine.faulted().into_iter().map(|(rank, _)| rank).collect();
    let panicked = match outcome {
        RunOutcome::Panicked { rank, .. } => Some(rank),
        _ => None,
    };
    let metrics = engine.take_metrics().map(Box::new);
    // The engine is done: take its trace and decision log, don't copy them.
    let (store, points) = engine.into_trace_and_decisions();
    let decisions = points.iter().map(|p| p.chosen).collect();
    let digest = trace_digest(store.records());
    RunResult {
        class: outcome.class(),
        detail: outcome.detail(),
        decisions,
        points,
        digest,
        store,
        diverged,
        faulted,
        panicked,
        metrics,
    }
}
