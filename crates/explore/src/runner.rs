//! One explored run: engine execution → compact result.

use crate::pool::{PrefixCache, RunTask};
use tracedbg_instrument::RecorderConfig;
use tracedbg_mpsim::{Engine, EngineConfig, EngineMetrics, FaultPlan, RunOutcome, SchedPolicy};
use tracedbg_trace::schedule::{Decision, DecisionPoint, Fault, ScheduleArtifact};
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
    /// Flight-recorder dump of the run's last decisions; empty unless the
    /// run was metered.
    pub flight: Vec<String>,
    /// Wall-clock nanoseconds the engine spent snapshotting (metered runs
    /// only; timing, so never part of the event-determinism contract).
    pub snapshot_ns: u64,
}

/// Execute the program once under `policy` + `faults` and summarize.
pub fn execute(source: &ProgramSource, policy: SchedPolicy, faults: &[Fault]) -> RunResult {
    execute_metered(source, policy, faults, false)
}

/// [`execute`], optionally with engine telemetry enabled.
pub fn execute_metered(
    source: &ProgramSource,
    policy: SchedPolicy,
    faults: &[Fault],
    metrics: bool,
) -> RunResult {
    let mut engine = Engine::launch(
        EngineConfig {
            policy,
            recorder: RecorderConfig::full(),
            faults: FaultPlan::new(faults.to_vec()),
            metrics,
            ..Default::default()
        },
        source(),
    );
    let outcome = engine.run();
    finish(engine, outcome, None)
}

/// Re-execute a schedule artifact — its decisions and its faults.
pub fn execute_artifact(
    source: &ProgramSource,
    artifact: &ScheduleArtifact,
    metrics: bool,
) -> RunResult {
    let script = EngineConfig::for_artifact(artifact).policy;
    execute_metered(source, script, &artifact.faults, metrics)
}

/// Execute one [`RunTask`], honoring its prefix-checkpoint role.
///
/// * Producer (`snapshot_at: Some(k)`): runs with checkpointing enabled,
///   snapshots at decision depth `k`, and deposits the checkpoint in the
///   cache under `prefix_key` (unless the script diverged — a diverged
///   prefix is not the state its siblings expect).
/// * Consumer (`prefix_key: Some`, no `snapshot_at`): if the shared prefix
///   is cached, restores it and re-executes only the divergent suffix of
///   its script; otherwise falls back to a from-scratch run. Both paths
///   produce byte-identical results (the restore determinism contract).
/// * Plain task: equivalent to [`execute`].
///
/// Metered tasks (`task.metrics`) never fork from a cached prefix: a
/// forked engine only observes its own suffix, so its per-run counters
/// would depend on whether a checkpoint happened to be cached — breaking
/// the jobs-invariance contract for event metrics. Such tasks run from
/// scratch (the producer path keeps its checkpoint role: a from-scratch
/// run observes every event).
pub fn execute_task(source: &ProgramSource, task: &RunTask, cache: &PrefixCache) -> RunResult {
    if let Some(k) = task.snapshot_at {
        let mut engine = Engine::launch(
            EngineConfig {
                policy: task.policy.clone(),
                recorder: RecorderConfig::full(),
                faults: FaultPlan::new(task.faults.clone()),
                checkpoints: true,
                metrics: task.metrics,
                ..Default::default()
            },
            source(),
        );
        engine.set_snapshot_at(k);
        let outcome = engine.run();
        return finish(engine, outcome, task.prefix_key.map(|key| (key, cache)));
    }
    if !task.metrics {
        if let (SchedPolicy::Scripted(script), Some(key), true) =
            (&task.policy, task.prefix_key, task.faults.is_empty())
        {
            if let Some(cp) = cache.get(key) {
                if cp.decision_len() <= script.len() {
                    let mut engine = Engine::restore(&cp, source());
                    engine.set_script(script.clone(), cp.decision_len());
                    let outcome = engine.run();
                    return finish(engine, outcome, None);
                }
            }
        }
    }
    execute_metered(source, task.policy.clone(), &task.faults, task.metrics)
}

/// Summarize a finished engine; as a producer, deposit the pending
/// snapshot (taken mid-run) into the prefix cache first.
fn finish(
    mut engine: Engine,
    outcome: RunOutcome,
    deposit: Option<(u64, &PrefixCache)>,
) -> RunResult {
    let diverged = engine.schedule_diverged();
    let fault_fired = !engine.faulted().is_empty();
    if let Some((key, cache)) = deposit {
        if !diverged {
            if let Some(cp) = engine.take_pending_snapshot() {
                cache.insert(key, cp);
            }
        }
    }
    let flight = if engine.metrics_enabled() {
        engine.flight_dump()
    } else {
        Vec::new()
    };
    let snapshot_ns = engine.snapshot_ns();
    let metrics = engine.take_metrics().map(Box::new);
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
        snapshot_ns,
    }
}
