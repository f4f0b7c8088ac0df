//! Property tests for the snapshot/restore plane: for arbitrary seeds,
//! snapshot depths, and fault plans, a run that is snapshotted mid-way,
//! restored into a fresh engine, and driven to the end must be
//! byte-identical to the straight run — same outcome, same state digest,
//! same trace records. This is the determinism contract the debugger's
//! O(delta) replay stands on; its other half is that a restored engine
//! may be handed the recorded match log at any depth and follows it as a
//! replay from launch would.

mod common;
#[path = "../../../tests/oracle/faults.rs"]
mod faults;

use common::{
    barrier, compute, fanin_programs, probe, rank, recv, repeat, send, FANIN_NPROCS as NPROCS, P,
};
use faults::faults_on;
use proptest::prelude::*;
use std::sync::Arc;
use tracedbg_mpsim::{
    Engine, EngineConfig, FaultPlan, Rank, RankProgram, RecorderConfig, ReplayLog, SchedPolicy,
};
use tracedbg_trace::schedule::{Alternatives, Decision, DecisionPoint, ReadySets};
use tracedbg_trace::EventKind;

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn restore_then_continue_is_byte_identical(
        seed in 0u64..1024,
        rounds in 1u64..4,
        k in 0usize..24,
        faults in faults_on(NPROCS as u32),
    ) {
        let cfg = || EngineConfig {
            policy: SchedPolicy::Seeded(seed),
            recorder: RecorderConfig::full(),
            faults: FaultPlan::new(faults.clone()),
            ..Default::default()
        };
        // The straight run: the byte-level ground truth.
        let mut straight = Engine::launch(cfg(), fanin_programs(rounds));
        let s_out = format!("{:?}", straight.run());
        let s_digest = straight.digest();
        let s_trace = straight.collect_trace();
        // The same run, halted at decision depth `k` to snapshot and run
        // on (the run may end first — then there is nothing to restore,
        // but the run itself must still be unperturbed).
        let mut snap = Engine::launch(cfg(), fanin_programs(rounds));
        let cp = snap.run_to_snapshot(k).ok();
        let n_out = format!("{:?}", snap.run());
        prop_assert_eq!(&n_out, &s_out, "snapshotting must not perturb the run");
        prop_assert_eq!(snap.digest(), s_digest, "snapshotting run digest");
        if let Some(cp) = cp {
            let mut restored = Engine::restore(&cp, Vec::new());
            let r_out = format!("{:?}", restored.run());
            prop_assert_eq!(&r_out, &s_out, "restored run must end identically");
            prop_assert_eq!(restored.digest(), s_digest, "restored state digest");
            let r_trace = restored.collect_trace();
            prop_assert_eq!(r_trace, s_trace, "restored trace must be byte-identical");
        }
    }

    /// The consuming hand-over of a run that was snapshotted, restored
    /// and continued is the straight run's trace, record for record —
    /// whether or not the checkpoint, which shares the log's first chunk,
    /// is still held (and then it restores to that trace once more).
    #[test]
    fn a_restored_run_hands_over_the_straight_runs_trace(
        seed in 0u64..1024,
        rounds in 1u64..4,
        k in 0usize..24,
        faults in faults_on(NPROCS as u32),
        hold_checkpoint in any::<bool>(),
    ) {
        let cfg = || EngineConfig {
            policy: SchedPolicy::Seeded(seed),
            recorder: RecorderConfig::full(),
            faults: FaultPlan::new(faults.clone()),
            ..Default::default()
        };
        let mut straight = Engine::launch(cfg(), fanin_programs(rounds));
        let _ = straight.run();
        let want = straight.into_trace_store();
        let mut snap = Engine::launch(cfg(), fanin_programs(rounds));
        let cp = snap.run_to_snapshot(k).ok();
        let _ = snap.run();
        // (No early `return` here: a proptest body runs inside the loop
        // over cases, so one would end the test at its first case.)
        let Some(cp) = cp else {
            prop_assert_eq!(snap.into_trace_store().records(), want.records());
            continue;
        };
        let mut restored = Engine::restore(&cp, Vec::new());
        let _ = restored.run();
        let held = hold_checkpoint.then_some(cp);
        prop_assert_eq!(restored.into_trace_store().records(), want.records());
        prop_assert_eq!(snap.into_trace_store().records(), want.records());
        if let Some(cp) = held {
            let mut again = Engine::restore(&cp, Vec::new());
            let _ = again.run();
            prop_assert_eq!(again.into_trace_store().records(), want.records());
        }
    }

    #[test]
    fn restored_engine_follows_a_log_installed_at_any_depth(
        rec_seed in 0u64..1024,
        other_seed in 0u64..1024,
        rounds in 1u64..4,
        k in 0usize..40,
        checkpoint_the_recording in any::<bool>(),
    ) {
        let launch = |seed| {
            let cfg = EngineConfig {
                policy: SchedPolicy::Seeded(seed),
                recorder: RecorderConfig::full(),
                    ..Default::default()
            };
            Engine::launch(cfg, fanin_programs(rounds))
        };
        let mut recording = launch(rec_seed);
        prop_assert!(recording.run().is_completed());
        let log = Arc::new(recording.match_log());
        // The engine to checkpoint is in a state the log is a history of:
        // the recording itself (what a session's first replay restores), or
        // a replay of it under another schedule (what later ones do). The
        // reference is that same engine given the log at launch.
        let (seed, logged) = if checkpoint_the_recording {
            (rec_seed, false)
        } else {
            (other_seed, true)
        };
        let mut reference = launch(seed);
        reference.set_replay(log.clone());
        let want_out = format!("{:?}", reference.run());
        let want_digest = reference.digest();
        let mut snap = launch(seed);
        if logged {
            snap.set_replay(log.clone());
        }
        if let Ok(cp) = snap.run_to_snapshot(k) {
            let mut restored = Engine::restore(&cp, Vec::new());
            restored.set_replay(log.clone());
            prop_assert_eq!(format!("{:?}", restored.run()), want_out);
            prop_assert_eq!(restored.digest(), want_digest);
            prop_assert_eq!(restored.collect_trace(), reference.collect_trace());
        }
    }
}

/// A fan-in over `n` ranks (one or three words of ready set): every
/// worker sends `rounds` messages to rank 0, which takes them by wildcard,
/// then every rank meets in a barrier, which readies them all in one turn.
fn wide_fanin(n: u32, rounds: u64) -> Vec<RankProgram> {
    let collector = vec![
        repeat((n as i64 - 1) * rounds as i64, recv(None, None)),
        barrier(),
        compute(10),
    ];
    let mut progs = vec![rank(collector)];
    for r in 1..n as i64 {
        let mut worker: Vec<P> = (0..rounds as i64)
            .flat_map(|round| [compute(50 + r as u64 % 7), send(0, 0, r * 100 + round)])
            .collect();
        worker.extend([barrier(), compute(10)]);
        progs.push(rank(worker));
    }
    progs
}

/// Every point's alternatives as [`ReadySets`] rebuilds them walking the
/// log forward from point 0; each must contain the chosen decision and be
/// as long as the point says.
fn rebuilt(n: usize, points: &[DecisionPoint]) -> Vec<Vec<Decision>> {
    let mut sets = ReadySets::new(n);
    points
        .iter()
        .enumerate()
        .map(|(i, p)| {
            sets.advance(p);
            let alts: Vec<Decision> = sets.alternatives(p).collect();
            assert!(alts.contains(&p.chosen), "point {i}: {p:?} not in {alts:?}");
            assert_eq!(alts.len(), p.alternatives.len(), "point {i}: stored length");
            alts
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// A `Turn` point stores only the ready set's change since the last
    /// one, so the chain must survive a snapshot: a run snapshotted at any
    /// decision, restored (the checkpoint held or dropped) and continued
    /// rebuilds the straight run's alternatives point for point.
    #[test]
    fn a_restored_run_rebuilds_the_straight_runs_alternatives(
        seed in 0u64..1024,
        width in 0usize..3,
        rounds in 1u64..3,
        per_mille in 0usize..1000,
        hold_checkpoint in any::<bool>(),
    ) {
        let n = [4u32, 70, 130][width];
        let cfg = || EngineConfig {
            policy: SchedPolicy::Seeded(seed),
            ..Default::default()
        };
        let mut straight = Engine::launch(cfg(), wide_fanin(n, rounds));
        prop_assert!(straight.run().is_completed());
        let (_, want) = straight.into_trace_and_decisions();
        let want_alts = rebuilt(n as usize, &want);
        let k = want.len() * per_mille / 1000;
        let mut snap = Engine::launch(cfg(), wide_fanin(n, rounds));
        let cp = snap.run_to_snapshot(k).ok();
        prop_assert!(snap.run().is_completed());
        let (_, got) = snap.into_trace_and_decisions();
        prop_assert_eq!(rebuilt(n as usize, &got), want_alts.clone());
        let Some(cp) = cp else {
            continue;
        };
        let mut restored = Engine::restore(&cp, Vec::new());
        let held = hold_checkpoint.then_some(cp);
        prop_assert!(restored.run().is_completed());
        let (_, got) = restored.into_trace_and_decisions();
        let chosen = |points: &[DecisionPoint]| points.iter().map(|p| p.chosen).collect::<Vec<_>>();
        prop_assert_eq!(chosen(&got), chosen(&want));
        prop_assert_eq!(rebuilt(n as usize, &got), want_alts.clone());
        if let Some(cp) = held {
            let mut again = Engine::restore(&cp, Vec::new());
            prop_assert!(again.run().is_completed());
            let (_, got) = again.into_trace_and_decisions();
            prop_assert_eq!(rebuilt(n as usize, &got), want_alts);
        }
    }
}

/// The first source rank 0 received from, as its probe reported it.
fn first_source(e: &mut Engine) -> i64 {
    let probe = e
        .collect_trace()
        .iter()
        .find(|r| r.kind == EventKind::Probe);
    probe.expect("rank 0 probes").args[0]
}

#[test]
fn a_receive_blocked_at_the_checkpoint_is_pinned_by_a_log_installed_later() {
    // The state the deleted cursor rule was for: round-robin grants P0
    // first, so at decision depth 1 it is blocked in its first wildcard
    // receive and nothing has been sent — a state every log is a history
    // of. Left alone, round-robin delivers P1's message first; the log says
    // P2's.
    let programs = || {
        let p0 = rank(vec![
            recv(None, None),
            recv(None, None),
            probe("first", |s| s[0].src.0 as i64),
        ]);
        vec![p0, rank(vec![send(0, 0, 1)]), rank(vec![send(0, 0, 2)])]
    };
    let matched = |src| {
        let chosen = Decision::Match {
            dst: Rank(0),
            src: Rank(src),
            seq: 0,
        };
        DecisionPoint {
            chosen,
            alternatives: Alternatives::Matches([chosen].into()),
        }
    };
    let log = ReplayLog::from_decisions(3, &[matched(2), matched(1)]);
    let cfg = || EngineConfig::with_recorder(RecorderConfig::full());
    let mut free = Engine::launch(cfg(), programs());
    let cp = free.run_to_snapshot(1).expect("snapshot at depth 1");
    assert!(free.run().is_completed());
    assert_eq!(
        free.decision_points()[0].chosen,
        Decision::Turn { rank: Rank(0) }
    );
    assert_eq!(first_source(&mut free), 1, "the log must matter");
    let mut restored = Engine::restore(&cp, Vec::new());
    restored.set_replay(Arc::new(log.clone()));
    assert!(restored.run().is_completed());
    assert_eq!(first_source(&mut restored), 2);
    let mut from_launch = Engine::launch(cfg(), programs());
    from_launch.set_replay(Arc::new(log));
    assert!(from_launch.run().is_completed());
    assert_eq!(restored.collect_trace(), from_launch.collect_trace());
}
