//! Property tests for the snapshot/restore plane: for arbitrary seeds,
//! snapshot depths, and fault plans, a run that is snapshotted mid-way,
//! restored into a fresh engine, and driven to the end must be
//! byte-identical to the straight run — same outcome, same state digest,
//! same trace records. This is the determinism contract the debugger's
//! O(delta) replay and the explorer's prefix forking both stand on.

mod common;

use common::{fanin_programs, FANIN_NPROCS as NPROCS};
use proptest::prelude::*;
use tracedbg_mpsim::{Engine, EngineConfig, FaultPlan, Rank, RecorderConfig, SchedPolicy};
use tracedbg_trace::schedule::Fault;

/// An optional single-fault plan hitting a worker (never the collector,
/// so runs stay short): crash, hang, or a delivery delay into rank 0.
fn arb_faults() -> impl Strategy<Value = Vec<Fault>> {
    let w = 1u32..NPROCS as u32;
    prop_oneof![
        Just(Vec::new()),
        (w.clone(), 0u64..6).prop_map(|(r, k)| vec![Fault::Crash {
            rank: Rank(r),
            after_ops: k,
        }]),
        (w.clone(), 0u64..6).prop_map(|(r, k)| vec![Fault::Hang {
            rank: Rank(r),
            after_ops: k,
        }]),
        (w, 0u64..4, 1u64..500).prop_map(|(src, nth, extra_ns)| vec![Fault::Delay {
            src: Rank(src),
            dst: Rank(0),
            nth,
            extra_ns,
        }]),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn restore_then_continue_is_byte_identical(
        seed in 0u64..1024,
        rounds in 1u64..4,
        k in 0usize..24,
        faults in arb_faults(),
    ) {
        let cfg = || EngineConfig {
            policy: SchedPolicy::Seeded(seed),
            recorder: RecorderConfig::full(),
            faults: FaultPlan::new(faults.clone()),
            checkpoints: true,
            ..Default::default()
        };
        // The straight run: the byte-level ground truth.
        let mut straight = Engine::launch(cfg(), fanin_programs(rounds));
        let s_out = format!("{:?}", straight.run());
        let s_digest = straight.digest();
        let s_trace = straight.collect_trace();
        // The same run, snapshotting at decision depth `k` (the snapshot
        // may never fire if the run ends first — then there is nothing to
        // restore, but the run itself must still be unperturbed).
        let mut snap = Engine::launch(cfg(), fanin_programs(rounds));
        snap.set_snapshot_at(k);
        let n_out = format!("{:?}", snap.run());
        prop_assert_eq!(&n_out, &s_out, "snapshotting must not perturb the run");
        prop_assert_eq!(snap.digest(), s_digest, "snapshotting run digest");
        if let Some(cp) = snap.take_pending_snapshot() {
            let mut restored = Engine::restore(&cp, Vec::new());
            let r_out = format!("{:?}", restored.run());
            prop_assert_eq!(&r_out, &s_out, "restored run must end identically");
            prop_assert_eq!(restored.digest(), s_digest, "restored state digest");
            let r_trace = restored.collect_trace();
            prop_assert_eq!(r_trace, s_trace, "restored trace must be byte-identical");
        }
    }
}
