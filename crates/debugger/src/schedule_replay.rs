//! Schedule-driven replay: re-execute an explorer artifact.
//!
//! `tracedbg explore` saves failures as [`ScheduleArtifact`]s — the fault
//! plan plus the full scheduling decision sequence of the failing run.
//! [`replay_schedule`] turns one back into a live execution: it builds a
//! [`Session`] whose scheduler follows the script and whose engine injects
//! the recorded faults, runs it to its outcome, and classifies what
//! happened. Because every source of nondeterminism is pinned, the outcome
//! is a pure function of the artifact — the debugger's §4.2 replay
//! guarantee extended from wildcard matches to whole schedules.

use crate::session::{ProgramFactory, Session, SessionConfig, SessionStatus};
use tracedbg_mpsim::{Engine, EngineConfig, FaultPlan, RecorderConfig, RunOutcome, SchedPolicy};
use tracedbg_trace::schedule::ScheduleArtifact;
use tracedbg_trace::TraceStore;

/// Outcome classes an artifact can reproduce. `failure_class` strings in
/// artifacts use these names.
pub const CLASS_COMPLETED: &str = "completed";
pub const CLASS_DEADLOCK: &str = "deadlock";
pub const CLASS_PANIC: &str = "panic";
pub const CLASS_STOPPED: &str = "stopped";

/// The result of replaying one schedule artifact.
pub struct ScheduleReplay {
    /// The session, stopped at the artifact's outcome; callers can inspect
    /// it further (traces, deadlock reports, undo, …).
    pub session: Session,
    /// Outcome class of the replayed run (one of the `CLASS_*` strings).
    pub class: String,
    /// Human-readable outcome detail (deadlock cycle, panic message, …).
    pub detail: String,
    /// Did the scripted scheduler apply every decision as recorded? A
    /// diverged replay still runs to an outcome, but it no longer
    /// reproduces the artifact's execution.
    pub diverged: bool,
}

impl ScheduleReplay {
    /// The replayed run's trace.
    pub fn trace(&mut self) -> TraceStore {
        self.session.trace()
    }
}

/// Classify a session status into an artifact failure class.
pub fn classify(status: &SessionStatus) -> (String, String) {
    match status {
        SessionStatus::Completed | SessionStatus::Idle => {
            (CLASS_COMPLETED.into(), "run completed".into())
        }
        SessionStatus::Deadlocked(rep) => {
            let detail = if rep.is_cyclic() {
                format!("cyclic wait: {:?}", rep.cycle)
            } else {
                format!(
                    "stalled: {} process(es) waiting with no cycle",
                    rep.waits.len()
                )
            };
            (CLASS_DEADLOCK.into(), detail)
        }
        SessionStatus::Panicked { rank, message } => {
            (CLASS_PANIC.into(), format!("{rank:?} panicked: {message}"))
        }
        SessionStatus::Stopped { traps, paused } => (
            CLASS_STOPPED.into(),
            format!("{} trap(s), {} paused", traps.len(), paused.len()),
        ),
    }
}

/// Re-execute an artifact's schedule against a freshly-built program.
///
/// The caller resolves the artifact's `workload`/`procs`/`seed` fields to a
/// program factory (the CLI owns workload names; the debugger does not).
pub fn replay_schedule(artifact: &ScheduleArtifact, factory: ProgramFactory) -> ScheduleReplay {
    let cfg = SessionConfig {
        policy: SchedPolicy::Scripted(artifact.decisions.clone()),
        recorder: RecorderConfig::full(),
        faults: FaultPlan::new(artifact.faults.clone()),
        ..Default::default()
    };
    let mut session = Session::launch(cfg, factory);
    session.run();
    let (class, detail) = classify(session.status());
    let diverged = session.engine().schedule_diverged();
    ScheduleReplay {
        session,
        class,
        detail,
        diverged,
    }
}

/// The result of a checkpointed artifact replay: the scripted run was
/// snapshotted mid-schedule, then the suffix was re-executed from the
/// restored snapshot and compared against the straight run.
pub struct CheckpointReplay {
    /// Outcome class of the straight scripted run.
    pub class: String,
    /// Human-readable outcome detail of the straight run.
    pub detail: String,
    /// Outcome class of the restored-and-continued run.
    pub restored_class: String,
    /// How many scheduling decisions the snapshot covered (`None` when the
    /// run ended before reaching the snapshot point; the comparison then
    /// degrades to a straight re-execution).
    pub snapshot_decisions: Option<usize>,
    /// Classes match and the two runs' traces are byte-identical.
    pub reproduced: bool,
}

fn status_of(outcome: RunOutcome) -> SessionStatus {
    match outcome {
        RunOutcome::Completed => SessionStatus::Completed,
        RunOutcome::Deadlock(d) => SessionStatus::Deadlocked(d),
        RunOutcome::Stopped(s) => SessionStatus::Stopped {
            traps: s.traps,
            paused: s.paused,
        },
        RunOutcome::Panicked { rank, message } => SessionStatus::Panicked { rank, message },
    }
}

/// Replay an artifact through a mid-schedule checkpoint.
///
/// Runs the scripted schedule with a snapshot armed at half the decision
/// depth, restores the snapshot into a second engine, runs the suffix, and
/// checks the restored run reproduces the straight run's outcome class and
/// trace byte-for-byte — the determinism contract `--from-checkpoint`
/// verifies from the command line.
pub fn replay_schedule_from_checkpoint(
    artifact: &ScheduleArtifact,
    factory: ProgramFactory,
) -> CheckpointReplay {
    let cfg = EngineConfig {
        policy: SchedPolicy::Scripted(artifact.decisions.clone()),
        recorder: RecorderConfig::full(),
        faults: FaultPlan::new(artifact.faults.clone()),
        checkpoints: true,
        ..Default::default()
    };
    let mut engine = Engine::launch(cfg.clone(), factory());
    engine.set_snapshot_at(artifact.decisions.len() / 2);
    let outcome = engine.run();
    let (class, detail) = classify(&status_of(outcome));
    let straight_digest = engine.digest();
    let straight_trace = engine.collect_trace();
    let (restored_class, snapshot_decisions, reproduced) = match engine.take_pending_snapshot() {
        Some(cp) => {
            let mut restored = Engine::restore(&cp, factory());
            let (rc, _) = classify(&status_of(restored.run()));
            let ok = rc == class
                && restored.digest() == straight_digest
                && restored.collect_trace() == straight_trace;
            (rc, Some(cp.decision_len()), ok)
        }
        None => {
            // The run never reached the snapshot point; fall back to a
            // straight re-execution so the command still checks something.
            let mut rerun = Engine::launch(cfg, factory());
            let (rc, _) = classify(&status_of(rerun.run()));
            let ok = rc == class
                && rerun.digest() == straight_digest
                && rerun.collect_trace() == straight_trace;
            (rc, None, ok)
        }
    };
    CheckpointReplay {
        class,
        detail,
        restored_class,
        snapshot_decisions,
        reproduced,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testprog::*;
    use tracedbg_trace::schedule::Decision;
    use tracedbg_trace::Rank;

    /// P0 takes two wildcard receives and asserts P2 arrived first; the
    /// schedule decides whether that holds.
    fn racy_factory() -> ProgramFactory {
        Box::new(|| {
            let p0 = rank(vec![
                recv_from(1, 7),
                recv(None, None),
                check(|s| assert_eq!(s[1].src, Rank(2), "expected P2 first")),
                recv(None, None),
            ]);
            let sender = |tag| rank(vec![send(0, tag, 1)]);
            vec![p0, sender(7), sender(0), sender(0)]
        })
    }

    #[test]
    fn artifact_schedule_decides_the_outcome() {
        // Record the deterministic run (P2 matches first: completes).
        let mut rec = Session::launch(
            SessionConfig {
                recorder: RecorderConfig::full(),
                ..Default::default()
            },
            racy_factory(),
        );
        assert!(rec.run().is_completed());
        let decisions = rec.engine().schedule_log();

        let mut good = ScheduleArtifact::new("test-racy", 4, 0);
        good.decisions = decisions.clone();
        let replay = replay_schedule(&good, racy_factory());
        assert_eq!(replay.class, CLASS_COMPLETED);
        assert!(!replay.diverged);

        // Flip the branchy wildcard match from P2 to P3: the assertion in
        // P0 must now fire, and the replay must classify it as a panic.
        let mut bad = good.clone();
        let flip = bad
            .decisions
            .iter()
            .position(|d| {
                matches!(
                    d,
                    Decision::Match {
                        dst: Rank(0),
                        src: Rank(2),
                        ..
                    }
                )
            })
            .expect("recorded run matches P2 on the wildcard");
        bad.decisions[flip] = Decision::Match {
            dst: Rank(0),
            src: Rank(3),
            seq: 0,
        };
        // Decisions after the flipped one may not apply verbatim (the
        // execution changes); truncate to the flipped prefix — the
        // round-robin tail completes the schedule.
        bad.decisions.truncate(flip + 1);
        let replay = replay_schedule(&bad, racy_factory());
        assert_eq!(replay.class, CLASS_PANIC);
        assert!(
            replay.detail.contains("expected P2 first"),
            "{}",
            replay.detail
        );
    }

    #[test]
    fn checkpointed_replay_reproduces_completion_and_panic() {
        // Record a completing run, then flip the wildcard to a panicking
        // one (same recipe as above); both must reproduce through a
        // mid-schedule checkpoint.
        let mut rec = Session::launch(
            SessionConfig {
                recorder: RecorderConfig::full(),
                ..Default::default()
            },
            racy_factory(),
        );
        assert!(rec.run().is_completed());
        let mut good = ScheduleArtifact::new("test-racy", 4, 0);
        good.decisions = rec.engine().schedule_log();

        let cr = replay_schedule_from_checkpoint(&good, racy_factory());
        assert_eq!(cr.class, CLASS_COMPLETED);
        assert!(cr.reproduced, "restored run diverged from straight run");
        assert!(cr.snapshot_decisions.is_some());

        let mut bad = good.clone();
        let flip = bad
            .decisions
            .iter()
            .position(|d| {
                matches!(
                    d,
                    Decision::Match {
                        dst: Rank(0),
                        src: Rank(2),
                        ..
                    }
                )
            })
            .unwrap();
        bad.decisions[flip] = Decision::Match {
            dst: Rank(0),
            src: Rank(3),
            seq: 0,
        };
        bad.decisions.truncate(flip + 1);
        let cr = replay_schedule_from_checkpoint(&bad, racy_factory());
        assert_eq!(cr.class, CLASS_PANIC);
        assert_eq!(cr.restored_class, CLASS_PANIC);
        assert!(cr.reproduced);
    }

    #[test]
    fn faults_in_artifact_are_injected() {
        use tracedbg_trace::schedule::Fault;
        let mut a = ScheduleArtifact::new("test-racy", 4, 0);
        // P1 crashes before sending: P0's directed receive starves.
        a.faults.push(Fault::Crash {
            rank: Rank(1),
            after_ops: 0,
        });
        let replay = replay_schedule(&a, racy_factory());
        assert_eq!(replay.class, CLASS_DEADLOCK);
        assert!(replay.detail.contains("no cycle"), "{}", replay.detail);
    }
}
