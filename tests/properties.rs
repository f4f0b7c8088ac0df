//! Property-based tests over real engine executions.
//!
//! Random deadlock-free communication patterns (see
//! `tracedbg_workloads::random_comm`) are executed on the engine and the
//! paper's invariants are checked on the resulting traces:
//!
//! * every pattern completes, every message matches (no lost messages);
//! * every vertical time slice is a consistent cut (§4.1's stopline
//!   consistency theorem);
//! * happens-before is a strict partial order consistent with the
//!   concurrency-region classification;
//! * replay under a different perturbation seed reproduces the recorded
//!   trace exactly;
//! * trace files round-trip;
//! * dissemination conserves primitive arcs.

use proptest::prelude::*;
use std::sync::Arc;
use tracedbg::causality::{cut_of_time, verify_cut, ConcurrencyRegion, HbIndex};
use tracedbg::lint::{lint_trace, LintConfig};
use tracedbg::prelude::*;
use tracedbg::trace::file::{read_text, write_text, TraceFile};
use tracedbg::tracegraph::TraceGraph;
use tracedbg::workloads::random_comm;

/// The corpus scripts come from the one generator of cases.
#[path = "oracle/cases.rs"]
mod cases;

fn run_pattern(
    seed: u64,
    nprocs: usize,
    n_transfers: usize,
    policy: SchedPolicy,
    replay: Option<tracedbg::mpsim::ReplayLog>,
) -> (TraceStore, tracedbg::mpsim::ReplayLog) {
    let pat = random_comm::generate(seed, nprocs, n_transfers);
    let mut e = Engine::launch(
        EngineConfig {
            policy,
            recorder: RecorderConfig::full(),
            ..Default::default()
        },
        random_comm::programs(&pat, seed),
    );
    if let Some(log) = replay {
        e.set_replay(Arc::new(log));
    }
    let out = e.run();
    assert!(out.is_completed(), "pattern must complete: {out:?}");
    (e.trace_store(), e.match_log())
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        .. ProptestConfig::default()
    })]

    #[test]
    fn patterns_complete_and_match_fully(
        seed in 0u64..10_000,
        nprocs in 2usize..6,
        n in 1usize..40,
    ) {
        let (store, _) = run_pattern(seed, nprocs, n, SchedPolicy::RoundRobin, None);
        let mm = MessageMatching::build(&store);
        prop_assert!(mm.is_clean());
        prop_assert_eq!(mm.matched.len(), n);
    }

    #[test]
    fn vertical_cuts_are_always_consistent(
        seed in 0u64..10_000,
        nprocs in 2usize..6,
        n in 1usize..30,
        slice in 0u64..100,
    ) {
        let (store, _) = run_pattern(seed, nprocs, n, SchedPolicy::RoundRobin, None);
        let mm = MessageMatching::build(&store);
        let (lo, hi) = store.time_bounds();
        let t = lo + (hi - lo) * slice / 100;
        let cut = cut_of_time(&store, t);
        prop_assert!(verify_cut(&store, &mm, &cut).is_empty(),
            "cut {:?} at t={} violated", cut, t);
    }

    #[test]
    fn happens_before_is_a_strict_partial_order(
        seed in 0u64..10_000,
        nprocs in 2usize..5,
        n in 1usize..20,
    ) {
        let (store, _) = run_pattern(seed, nprocs, n, SchedPolicy::RoundRobin, None);
        let mm = MessageMatching::build(&store);
        let hb = HbIndex::build(&store, &mm);
        let ids: Vec<_> = store.ids().collect();
        // Irreflexivity + antisymmetry on sampled pairs; transitivity via
        // a sampled triple.
        for (i, &a) in ids.iter().enumerate().step_by(3) {
            prop_assert!(!hb.happens_before(a, a));
            for &b in ids.iter().skip(i).step_by(5) {
                if hb.happens_before(a, b) {
                    prop_assert!(!hb.happens_before(b, a));
                }
            }
        }
        for &a in ids.iter().step_by(4) {
            for &b in ids.iter().step_by(6) {
                for &c in ids.iter().step_by(7) {
                    if hb.happens_before(a, b) && hb.happens_before(b, c) {
                        prop_assert!(hb.happens_before(a, c));
                    }
                }
            }
        }
    }

    #[test]
    fn concurrency_region_agrees_with_hb(
        seed in 0u64..10_000,
        nprocs in 2usize..5,
        n in 2usize..20,
        pick in 0usize..1000,
    ) {
        let (store, _) = run_pattern(seed, nprocs, n, SchedPolicy::RoundRobin, None);
        let mm = MessageMatching::build(&store);
        let hb = HbIndex::build(&store, &mm);
        let ids: Vec<_> = store.ids().collect();
        let sel = ids[pick % ids.len()];
        let region = ConcurrencyRegion::of(&hb, sel);
        use tracedbg::causality::frontier::Region;
        for &e in &ids {
            if e == sel { continue; }
            match region.classify_event(&store, e) {
                Region::Past => prop_assert!(hb.happens_before(e, sel)),
                Region::Future => prop_assert!(hb.happens_before(sel, e)),
                Region::Concurrent => prop_assert!(hb.concurrent(sel, e)),
            }
        }
    }

    #[test]
    fn replay_reproduces_traces_under_any_seed(
        seed in 0u64..10_000,
        perturb in 0u64..10_000,
        nprocs in 2usize..5,
        n in 1usize..25,
    ) {
        let (s1, log) = run_pattern(seed, nprocs, n, SchedPolicy::Seeded(seed), None);
        let (s2, _) = run_pattern(seed, nprocs, n, SchedPolicy::Seeded(perturb), Some(log));
        let key = |s: &TraceStore| -> Vec<(u32, u64, u64, u64)> {
            s.records().iter().map(|r| (r.rank.0, r.marker, r.t_start, r.t_end)).collect()
        };
        prop_assert_eq!(key(&s1), key(&s2));
    }

    #[test]
    fn trace_files_roundtrip(
        seed in 0u64..10_000,
        nprocs in 2usize..5,
        n in 1usize..20,
    ) {
        let (store, _) = run_pattern(seed, nprocs, n, SchedPolicy::RoundRobin, None);
        let file = TraceFile::new(store.records().to_vec(), store.sites().clone(), store.n_ranks());
        let mut buf = Vec::new();
        write_text(&mut buf, &file).unwrap();
        let back = read_text(std::io::Cursor::new(&buf)).unwrap();
        prop_assert_eq!(back.records, store.records().to_vec());
    }

    #[test]
    fn dissemination_conserves_primitive_arcs(
        seed in 0u64..10_000,
        nprocs in 2usize..5,
        n in 1usize..40,
        limit in 2usize..64,
    ) {
        let (store, _) = run_pattern(seed, nprocs, n, SchedPolicy::RoundRobin, None);
        let full = TraceGraph::build(&store);
        let capped = TraceGraph::build_with_limit(&store, Some(limit));
        prop_assert_eq!(full.n_primitive_arcs(), capped.n_primitive_arcs());
        prop_assert!(capped.n_arcs() <= full.n_arcs());
    }

    /// Correct programs must lint clean: the rule engine may not cry wolf
    /// on any deadlock-free random pattern.
    #[test]
    fn clean_patterns_lint_clean(
        seed in 0u64..10_000,
        nprocs in 2usize..6,
        n in 1usize..30,
    ) {
        let (store, _) = run_pattern(seed, nprocs, n, SchedPolicy::RoundRobin, None);
        let diags = lint_trace(&store, &LintConfig::default());
        prop_assert!(diags.is_empty(), "clean pattern produced diagnostics: {diags:?}");
    }

    #[test]
    fn stopline_replay_lands_exactly(
        seed in 0u64..10_000,
        nprocs in 2usize..5,
        n in 2usize..20,
        slice in 1u64..99,
    ) {
        let pat = random_comm::generate(seed, nprocs, n);
        let factory: ProgramFactory = {
            let pat = pat.clone();
            Box::new(move || random_comm::programs(&pat, seed))
        };
        let mut session = Session::launch(SessionConfig::default(), factory);
        prop_assert!(session.run().is_completed());
        let trace = session.trace();
        let (lo, hi) = trace.time_bounds();
        let t = lo + (hi - lo) * slice / 100;
        let sl = Stopline::vertical(&trace, t);
        session.replay_to(&sl);
        prop_assert_eq!(session.markers(), sl.markers);
        // And the run can always be completed from there.
        prop_assert!(session.continue_all().is_completed());
    }
}

/// The seed workloads (deterministic, known-correct) lint clean.
#[test]
fn seed_workloads_lint_clean() {
    use tracedbg::workloads::{ring, strassen};
    let run = |programs: Vec<tracedbg::mpsim::RankProgram>| -> TraceStore {
        let mut e = Engine::launch(
            EngineConfig {
                recorder: RecorderConfig::full(),
                ..Default::default()
            },
            programs,
        );
        assert!(e.run().is_completed());
        e.trace_store()
    };
    let cfg = LintConfig::default();
    let ring_trace = run(ring::programs(&ring::RingConfig::default()));
    let diags = lint_trace(&ring_trace, &cfg);
    assert!(diags.is_empty(), "ring: {diags:?}");
    let strassen_trace = run(strassen::programs(&strassen::StrassenConfig::figures(
        strassen::Variant::Correct,
    )));
    let diags = lint_trace(&strassen_trace, &cfg);
    assert!(diags.is_empty(), "strassen: {diags:?}");
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        .. ProptestConfig::default()
    })]

    /// MPI ordering guarantees survive arbitrary schedule perturbation:
    /// per (src, dst) pair, sends are sequenced in program order and
    /// receives complete in send order (non-overtaking). On failure
    /// proptest prints the counterexample, including `sched` — the
    /// perturbation seed that broke the ordering.
    #[test]
    fn fifo_and_non_overtaking_hold_under_any_schedule(
        seed in 0u64..10_000,
        sched in 0u64..10_000,
        nprocs in 2usize..6,
        n in 1usize..40,
    ) {
        use std::collections::HashMap;
        let (store, _) = run_pattern(seed, nprocs, n, SchedPolicy::Seeded(sched), None);
        let mut sends: HashMap<(u32, u32), Vec<(u64, u64)>> = HashMap::new();
        let mut recvs: HashMap<(u32, u32), Vec<(u64, u64)>> = HashMap::new();
        for r in store.records() {
            let Some(m) = &r.msg else { continue };
            let lane = (m.src.0, m.dst.0);
            match r.kind {
                // Marker = position in the executing process's own history,
                // so sorting by it recovers program order on that process.
                EventKind::Send => sends.entry(lane).or_default().push((r.marker, m.seq)),
                EventKind::RecvDone => recvs.entry(lane).or_default().push((r.marker, m.seq)),
                _ => {}
            }
        }
        for (pair, mut evs) in sends {
            evs.sort_unstable();
            for w in evs.windows(2) {
                prop_assert!(
                    w[0].1 < w[1].1,
                    "send seq out of order on {pair:?} under perturbation seed {sched}"
                );
            }
        }
        for (pair, mut evs) in recvs {
            evs.sort_unstable();
            for w in evs.windows(2) {
                prop_assert!(
                    w[0].1 < w[1].1,
                    "non-overtaking violated on {pair:?} under perturbation seed {sched}"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Wide-rank snapshot/restore identity under faults (the task-engine
// checkpoint plane at scale).
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 48,
        .. ProptestConfig::default()
    })]

    /// Snapshot a 128-rank butterfly mid-run — under an injected crash,
    /// hang, or message delay — restore it, and run both the original
    /// and the restored engine to the end: outcome, state digest, and
    /// faulted-rank set must be identical. Task frames are cloned on
    /// restore and nothing is re-executed, so any divergence here is a
    /// checkpoint-plane bug, not scheduling noise.
    #[test]
    fn wide_snapshot_restore_is_identical_under_faults(
        fault_sel in 0usize..3,
        fault_rank in 0u32..128,
        after_ops in 0u64..8,
        extra_ns in 1u64..500_000,
        snap_at in 20usize..280,
    ) {
        use tracedbg::mpsim::FaultPlan;
        use tracedbg::trace::schedule::Fault;
        use tracedbg::workloads::wide::{butterfly_programs, ButterflyConfig};

        let cfg = ButterflyConfig { nprocs: 128 };
        let fault = match fault_sel {
            0 => Fault::Crash { rank: Rank(fault_rank), after_ops },
            1 => Fault::Hang { rank: Rank(fault_rank), after_ops },
            _ => Fault::Delay {
                src: Rank(fault_rank),
                // Stage-0 partner: the one channel guaranteed to carry
                // a message.
                dst: Rank(fault_rank ^ 1),
                nth: 0,
                extra_ns,
            },
        };
        let ecfg = EngineConfig {
            recorder: RecorderConfig::markers_only(),
            faults: FaultPlan::new(vec![fault]),
            ..Default::default()
        };
        // Ground truth: the straight faulted run (crash/hang starves the
        // butterfly into deadlock; delay-only runs still complete).
        let mut straight = Engine::launch(ecfg.clone(), butterfly_programs(&cfg));
        let straight_out = straight.run();

        // Same run, snapshotted mid-flight at a decision index.
        let mut snapped = Engine::launch(ecfg, butterfly_programs(&cfg));
        let Ok(cp) = snapped.run_to_snapshot(snap_at) else {
            // The run ended before the snapshot point — nothing to
            // restore in this case.
            continue;
        };
        let mut restored = Engine::restore(&cp, Vec::new());
        let restored_out = restored.run();
        prop_assert_eq!(
            format!("{straight_out:?}"),
            format!("{restored_out:?}"),
            "restored run outcome diverged"
        );
        prop_assert_eq!(restored.digest(), straight.digest(), "state digest diverged");
        prop_assert_eq!(restored.faulted(), straight.faulted(), "faulted set diverged");
    }
}

// ---------------------------------------------------------------------------
// Script-rank snapshot/restore identity: an interpreter frame is indices
// and shared handles into the parsed script, a posted `recv` is a flag,
// and a rank's site cache rides along — all of it must survive a
// checkpoint at any point.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 32,
        .. ProptestConfig::default()
    })]

    /// Run a script under a seeded schedule, then once more per decision
    /// index to a snapshot there — inside loops, inside a callee,
    /// between a `recv` post and its binding, wherever the schedule puts
    /// it — restore the snapshot and run it out: outcome and trace bytes
    /// equal the from-scratch run's.
    #[test]
    fn script_snapshot_restore_is_identical_at_every_decision(
        which in 0usize..64,
        nprocs in 3usize..7,
        sched in 0u64..10_000,
    ) {
        use tracedbg::workloads::script;

        let scripts = cases::corpus();
        prop_assert!(scripts.len() >= 8, "builtins, golden and example scripts found");
        let (file, source) = &scripts[which % scripts.len()];
        let parsed = script::parse(source).expect("script parses");
        let launch = || {
            Engine::launch(
                EngineConfig {
                    policy: SchedPolicy::Seeded(sched),
                    recorder: RecorderConfig::full(),
                    ..Default::default()
                },
                script::programs(&parsed, nprocs, file),
            )
        };
        let finish = |mut e: Engine| {
            let outcome = format!("{:?}", e.run());
            let store = e.trace_store();
            let trace = TraceFile::new(
                store.records().to_vec(),
                store.sites().clone(),
                store.n_ranks(),
            );
            let mut bytes = Vec::new();
            write_text(&mut bytes, &trace).unwrap();
            (outcome, bytes, e.decision_points().len())
        };
        let (outcome, bytes, decisions) = finish(launch());
        for k in 0..decisions {
            let cp = launch()
                .run_to_snapshot(k)
                .expect("the same schedule reaches every decision index again");
            let (restored_outcome, restored_bytes, _) = finish(Engine::restore(&cp, Vec::new()));
            prop_assert_eq!(&restored_outcome, &outcome, "{} restored at {}", file, k);
            prop_assert!(restored_bytes == bytes, "{file}: trace diverged restoring at {k}");
        }
    }
}
