//! Quickstart: trace a small program, look at its history, replay to a
//! stopline.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use tracedbg::mpsim::TaskView;
use tracedbg::prelude::*;

fn main() {
    // 1. Write a message passing program against the simulated runtime.
    //    Three processes: P0 scatters a value, P1/P2 square it and send it
    //    back.
    let factory: ProgramFactory = Box::new(|| {
        let site = |v: &TaskView<'_>| v.site("quickstart.rs", 20, "main");
        let master = Prog::seq(vec![
            Prog::for_range(
                |_, _| (1, 3),
                |w: &mut i64, i| *w = i,
                Prog::op(move |w: &mut i64, v| TaskOp::Send {
                    dst: Rank(*w as u32),
                    tag: Tag(1),
                    payload: Payload::from_i64(*w + 10),
                    site: site(v),
                    mode: SendMode::Buffered,
                }),
            ),
            Prog::for_range(
                |_, _| (0, 2),
                |_, _| {},
                Prog::op_bind(
                    move |_, v| TaskOp::Recv {
                        src: None,
                        tag: Some(Tag(2)),
                        site: site(v),
                    },
                    |_, m, _| {
                        let m = m.message();
                        println!("master got {} from P{}", m.payload.to_i64().unwrap(), m.src);
                    },
                ),
            ),
        ]);
        let site = |v: &TaskView<'_>| v.site("quickstart.rs", 32, "worker");
        let worker = Prog::seq(vec![
            Prog::op_bind(
                move |_, v| TaskOp::Recv {
                    src: Some(Rank(0)),
                    tag: Some(Tag(1)),
                    site: site(v),
                },
                |x: &mut i64, m, _| *x = m.message().payload.to_i64().unwrap(),
            ),
            // simulated work
            Prog::op(move |_, v| TaskOp::Compute {
                cost_ns: 50_000,
                site: site(v),
            }),
            Prog::op(move |x: &mut i64, v| TaskOp::Send {
                dst: Rank(0),
                tag: Tag(2),
                payload: Payload::from_i64(*x * *x),
                site: site(v),
                mode: SendMode::Buffered,
            }),
        ]);
        vec![
            RankProgram::task(0i64, master),
            RankProgram::task(0i64, worker.clone()),
            RankProgram::task(0i64, worker),
        ]
    });

    // 2. Debug it in a session.
    let mut session = Session::launch(SessionConfig::default(), factory);
    assert!(session.run().is_completed());

    // 3. The collected history: stats, analysis, time-space diagram.
    let trace = session.trace();
    println!("\n--- history ({} events) ---", trace.len());
    let report = HistoryReport::analyze(&trace);
    println!("{report}\n");

    let matching = MessageMatching::build(&trace);
    let model = TimelineModel::build(&trace, &matching, false);
    println!("{}", render_ascii(&model, 100));

    // 4. Set a stopline mid-execution and replay to it: every process
    //    stops at a consistent state.
    let (_, t_end) = trace.time_bounds();
    let stopline = Stopline::vertical(&trace, t_end / 2);
    println!(
        "replaying to stopline {} -> markers {:?}",
        stopline.origin, stopline.markers
    );
    assert!(stopline.is_consistent(&trace, &matching));
    let status = session.replay_to(&stopline);
    println!("after replay: {status:?}");
    println!("markers now: {:?}", session.markers());

    // 5. Step one process by one event, then run everything to the end.
    //    (P0 is blocked in a receive at this stopline, so stepping it
    //    would just keep it waiting — step a worker instead.)
    let before = session.markers().get(Rank(1));
    session.step(Rank(1));
    println!("after step of P1: {:?}", session.markers());
    assert_eq!(session.markers().get(Rank(1)), before + 1);
    assert!(session.continue_all().is_completed());
    println!("done.");
}
