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

use crate::session::{ProgramFactory, Session, SessionConfig};
use tracedbg_mpsim::{Engine, EngineConfig, RecorderConfig};
use tracedbg_trace::schedule::ScheduleArtifact;
use tracedbg_trace::TraceStore;

/// Outcome classes an artifact can reproduce. `failure_class` strings in
/// artifacts use these names.
pub use tracedbg_mpsim::{CLASS_COMPLETED, CLASS_DEADLOCK, CLASS_PANIC, CLASS_STOPPED};

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

/// Re-execute an artifact's schedule against a freshly-built program.
///
/// The caller resolves the artifact's `workload`/`procs`/`seed` fields to a
/// program factory (the CLI owns workload names; the debugger does not).
pub fn replay_schedule(artifact: &ScheduleArtifact, factory: ProgramFactory) -> ScheduleReplay {
    let cfg = SessionConfig {
        recorder: RecorderConfig::full(),
        ..SessionConfig::for_artifact(artifact)
    };
    let mut session = Session::launch(cfg, factory);
    let (class, detail) = session.run_with(|o| (o.class().to_string(), o.detail()));
    let diverged = session.engine().schedule_diverged();
    ScheduleReplay {
        session,
        class,
        detail,
        diverged,
    }
}

/// The result of a checkpointed artifact replay: the scripted run was
/// snapshotted mid-schedule and run on, then the suffix was re-executed
/// from the restored snapshot and compared against the straight run.
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

/// Replay an artifact through a mid-schedule checkpoint.
///
/// Runs the scripted schedule to half its decision depth, snapshots it
/// there and runs it on; restores the snapshot into a second engine, runs
/// the suffix, and checks the restored run reproduces the straight run's
/// outcome class and trace byte-for-byte — the determinism contract
/// `--from-checkpoint` verifies from the command line.
pub fn replay_schedule_from_checkpoint(
    artifact: &ScheduleArtifact,
    factory: ProgramFactory,
) -> CheckpointReplay {
    let cfg = EngineConfig {
        recorder: RecorderConfig::full(),
        ..EngineConfig::for_artifact(artifact)
    };
    let mut engine = Engine::launch(cfg.clone(), factory());
    // A run that never reached the snapshot point falls back to a straight
    // re-execution, so the command still checks something.
    let (outcome, mut second, snapshot_decisions) =
        match engine.run_to_snapshot(artifact.decisions.len() / 2) {
            Ok(cp) => (
                engine.run(),
                Engine::restore(&cp, Vec::new()),
                Some(cp.decision_len()),
            ),
            Err(outcome) => (outcome, Engine::launch(cfg, factory()), None),
        };
    let (class, detail) = (outcome.class().to_string(), outcome.detail());
    let restored_class = second.run().class().to_string();
    let reproduced = restored_class == class
        && second.digest() == engine.digest()
        && second.collect_trace() == engine.collect_trace();
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

    /// The recorded deterministic run (P2 matches first: completes), and
    /// the same schedule with the branchy wildcard match flipped from P2 to
    /// P3, where the assertion in P0 must fire.
    fn good_and_bad_artifacts() -> (ScheduleArtifact, ScheduleArtifact) {
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
        let mut bad = good.clone();
        let on_p2 = |d: &Decision| {
            matches!(
                d,
                Decision::Match {
                    dst: Rank(0),
                    src: Rank(2),
                    ..
                }
            )
        };
        let flip = bad
            .decisions
            .iter()
            .position(on_p2)
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
        (good, bad)
    }

    #[test]
    fn artifact_schedule_decides_the_outcome() {
        let (good, bad) = good_and_bad_artifacts();
        let replay = replay_schedule(&good, racy_factory());
        assert_eq!(replay.class, CLASS_COMPLETED);
        assert!(!replay.diverged);
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
        // Both outcomes must reproduce through a mid-schedule checkpoint.
        let (good, bad) = good_and_bad_artifacts();
        let cr = replay_schedule_from_checkpoint(&good, racy_factory());
        assert_eq!(cr.class, CLASS_COMPLETED);
        assert!(cr.reproduced, "restored run diverged from straight run");
        assert!(cr.snapshot_decisions.is_some());
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
