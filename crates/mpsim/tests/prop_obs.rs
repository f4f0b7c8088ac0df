//! Property tests for the telemetry plane: event-derived engine metrics
//! must equal independent recounts from the artifacts the run already
//! emits — the trace (sends, bytes, receive posts) and the schedule log
//! (turns, matches, blocked-in-receive turns). Telemetry is a *view* of
//! the event sequence, never a second source of truth; any divergence is
//! a counting bug.

mod common;
#[path = "../../../tests/oracle/faults.rs"]
mod faults;

use common::{fanin_programs, FANIN_NPROCS as NPROCS};
use faults::faults_on;
use proptest::prelude::*;
use std::collections::BTreeMap;
use tracedbg_mpsim::{Engine, EngineConfig, FaultPlan, RecorderConfig, SchedPolicy};
use tracedbg_trace::schedule::Decision;
use tracedbg_trace::EventKind;

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn metrics_equal_independent_recounts(
        seed in 0u64..1024,
        rounds in 1u64..4,
        faults in faults_on(NPROCS as u32),
    ) {
        let mut engine = Engine::launch(
            EngineConfig {
                policy: SchedPolicy::Seeded(seed),
                recorder: RecorderConfig::full(),
                faults: FaultPlan::new(faults),
                metrics: true,
                ..Default::default()
            },
            fanin_programs(rounds),
        );
        let _ = engine.run();
        let log = engine.schedule_log();
        let m = engine.metrics().expect("metrics were enabled").clone();
        let store = engine.trace_store();

        // --- recount from the trace: sends, bytes, receive posts ---
        let mut msgs = vec![0u64; NPROCS];
        let mut bytes = vec![0u64; NPROCS];
        let mut recvs = vec![0u64; NPROCS];
        let mut channels = BTreeMap::<(usize, u32), (u64, u64)>::new();
        for rec in store.records() {
            match rec.kind {
                EventKind::Send => {
                    let info = rec.msg.as_ref().expect("send records carry MsgInfo");
                    msgs[rec.rank.ix()] += 1;
                    bytes[rec.rank.ix()] += info.bytes as u64;
                    let c = channels.entry((rec.rank.ix(), info.dst.0)).or_default();
                    c.0 += 1;
                    c.1 += info.bytes as u64;
                }
                EventKind::RecvPost => recvs[rec.rank.ix()] += 1,
                _ => {}
            }
        }
        prop_assert_eq!(&m.msgs_sent, &msgs, "per-rank sends vs trace");
        prop_assert_eq!(&m.bytes_sent, &bytes, "per-rank bytes vs trace");
        prop_assert_eq!(&m.recvs, &recvs, "per-rank receive posts vs trace");
        // Every channel's row entry is its recount from the trace, and a
        // row lists its channels in `dst` order with no zero entries.
        let rows: BTreeMap<(usize, u32), (u64, u64)> = m
            .channels()
            .iter()
            .enumerate()
            .flat_map(|(src, row)| row.iter().map(move |&(dst, n, b)| ((src, dst), (n, b))))
            .collect();
        prop_assert_eq!(&rows, &channels, "per-channel messages and bytes vs trace");
        prop_assert_eq!(m.channels().len(), NPROCS);
        for row in m.channels() {
            prop_assert!(row.windows(2).all(|w| w[0].0 < w[1].0), "row not dst-sorted: {:?}", row);
            prop_assert!(row.iter().all(|c| c.1 > 0), "zero entry in {:?}", row);
        }

        // --- recount from the schedule log: turns, matches, blocking ---
        // A rank's wait is the number of turns granted (to anyone) between
        // its last own turn — the one that posted the receive — and the
        // match that released it.
        let mut turns = 0u64;
        let mut matches = 0u64;
        let mut stamp = [0u64; NPROCS];
        let mut blocked = vec![0u64; NPROCS];
        for d in &log {
            match d {
                Decision::Turn { rank } => {
                    turns += 1;
                    stamp[rank.ix()] = turns;
                }
                Decision::Match { dst, .. } => {
                    matches += 1;
                    blocked[dst.ix()] += turns - stamp[dst.ix()];
                }
            }
        }
        prop_assert_eq!(m.turns, turns, "turn count vs schedule log");
        prop_assert_eq!(m.matches, matches, "match count vs schedule log");
        prop_assert_eq!(&m.blocked_turns, &blocked, "blocked turns vs log walk");
        // The match-latency histogram is the same data, bucketed.
        prop_assert_eq!(m.match_latency.count, matches);
        prop_assert_eq!(m.match_latency.sum, blocked.iter().sum::<u64>());
    }
}
