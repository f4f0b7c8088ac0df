//! Communication supervision (§4.4): message races under wildcard
//! receives, nondeterminism control on replay, and deadlock detection.
//!
//! ```sh
//! cargo run --example race_and_deadlock
//! ```

use tracedbg::causality::detect_races;
use tracedbg::prelude::*;
use tracedbg::workloads::master_worker::{self, completion_order, PoolConfig};

fn run_pool(
    policy: SchedPolicy,
    replay: Option<tracedbg::mpsim::ReplayLog>,
) -> (Vec<u32>, tracedbg::mpsim::ReplayLog, TraceStore) {
    let cfg = PoolConfig::default();
    let mut engine = Engine::launch(
        EngineConfig {
            policy,
            recorder: RecorderConfig::full(),
            ..Default::default()
        },
        master_worker::programs(&cfg),
    );
    if let Some(log) = replay {
        engine.set_replay(std::sync::Arc::new(log));
    }
    assert!(engine.run().is_completed());
    let store = engine.trace_store();
    let order = completion_order(&store);
    (order, engine.match_log(), store)
}

fn main() {
    // 1. A master/worker pool with ANY_SOURCE receives is nondeterministic:
    //    different scheduling seeds give different completion orders.
    let (order_a, log, store) = run_pool(SchedPolicy::Seeded(3), None);
    let (order_b, _, _) = run_pool(SchedPolicy::Seeded(17), None);
    println!("completion order, seed 3 : {order_a:?}");
    println!("completion order, seed 17: {order_b:?}");

    // 2. Race detection: every wildcard receive that had alternatives.
    let matching = MessageMatching::build(&store);
    let hb = HbIndex::build(&store, &matching);
    let races = detect_races(&store, &matching, &hb);
    println!(
        "race detection: {} of the wildcard receives had alternative senders",
        races.len()
    );
    assert!(!races.is_empty(), "the pool pattern must race");

    // 3. Nondeterminism control (§4.2): replay under a hostile seed with
    //    the recorded match log — the order is pinned.
    let (order_replay, _, _) = run_pool(SchedPolicy::Seeded(999_999), Some(log));
    println!("replayed order           : {order_replay:?}");
    assert_eq!(order_a, order_replay, "replay must pin the receive order");
    println!("replay reproduced the recorded causality under a different seed.\n");

    // 4. Deadlock detection: a circular receive chain.
    let factory: ProgramFactory = Box::new(|| {
        let node = |wait_on: u32| {
            let site = |v: &tracedbg::mpsim::TaskView<'_>| v.site("cycle.rs", 5, "node");
            RankProgram::task(
                (),
                Prog::seq(vec![
                    Prog::op(move |_, v| TaskOp::Compute {
                        cost_ns: 10_000,
                        site: site(v),
                    }),
                    Prog::op(move |_, v| TaskOp::Recv {
                        src: Some(Rank(wait_on)),
                        tag: Some(Tag(0)),
                        site: site(v),
                    }),
                ]),
            )
        };
        vec![node(1), node(2), node(0)]
    });
    let mut session = Session::launch(SessionConfig::default(), factory);
    let status = session.run();
    println!("cyclic program outcome: {status:?}");
    assert!(status.is_deadlocked());
    let report = HistoryReport::analyze(&session.trace());
    println!("{report}");
    assert_eq!(report.circular_waits.len(), 1);
    assert_eq!(report.circular_waits[0].ranks.len(), 3);
}
