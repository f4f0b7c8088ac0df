//! One explored run: engine execution → compact result.

use crate::pool::RunTask;
use tracedbg_instrument::RecorderConfig;
use tracedbg_mpsim::{Engine, EngineConfig, EngineMetrics, FaultPlan, SchedPolicy};
use tracedbg_obs::FlightRecorder;
use tracedbg_trace::schedule::{Decision, DecisionPoint, Fault};
use tracedbg_trace::{trace_digest, TraceStore};

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
    /// Whether the deadlock (if any) was a genuine circular wait.
    pub cyclic: bool,
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
    /// Did any injected fault actually silence a process?
    pub fault_fired: bool,
    /// Engine telemetry, when the run was metered (`RunTask::metrics`).
    pub metrics: Option<Box<EngineMetrics>>,
    /// Flight recorder of the run's last decisions, unrendered
    /// ([`FlightRecorder::dump`]); present when the run was metered.
    pub flight: Option<FlightRecorder>,
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
    let fault_fired = !engine.faulted().is_empty();
    let (metrics, flight) = engine
        .take_telemetry()
        .map(|(metrics, flight)| (Box::new(metrics), flight))
        .unzip();
    // The engine is done: take its trace and decision log, don't copy them.
    let (store, points) = engine.into_trace_and_decisions();
    let decisions = points.iter().map(|p| p.chosen).collect();
    let digest = trace_digest(store.records());
    RunResult {
        class: outcome.class(),
        detail: outcome.detail(),
        cyclic: outcome.is_cyclic(),
        decisions,
        points,
        digest,
        store,
        diverged,
        fault_fired,
        metrics,
        flight,
    }
}
