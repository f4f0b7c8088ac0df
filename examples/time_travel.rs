//! Frontiers and time travel on the LU wavefront (Figure 8 + §4.2 undo).
//!
//! Select an event in the middle of a wavefront pipeline, compute its
//! past/future frontiers and concurrency region, use the past frontier as
//! a stopline, then demonstrate the parallel undo.
//!
//! ```sh
//! cargo run --example time_travel
//! ```

use tracedbg::causality::ConcurrencyRegion;
use tracedbg::prelude::*;
use tracedbg::workloads::lu::{self, LuConfig};

fn main() {
    let cfg = LuConfig::default();
    let factory: ProgramFactory = Box::new(lu::factory(cfg));
    let mut session = Session::launch(SessionConfig::default(), factory);
    assert!(session.run().is_completed());
    let trace = session.trace();
    let matching = MessageMatching::build(&trace);
    let hb = HbIndex::build(&trace, &matching);

    // Pick the middle stage's receive in the middle sweep.
    let mid_rank = Rank((cfg.nprocs / 2) as u32);
    let recvs: Vec<_> = trace
        .by_rank(mid_rank)
        .iter()
        .copied()
        .filter(|&id| trace.record(id).kind == EventKind::RecvDone)
        .collect();
    let selected = recvs[recvs.len() / 2];
    let rec = trace.record(selected);
    println!(
        "selected event: {:?} marker {} on {:?} at t={}",
        rec.kind, rec.marker, rec.rank, rec.t_end
    );

    // Figure 8: past and future frontiers around the selection.
    let past = Frontier::past_of(&hb, selected);
    let future = Frontier::future_of(&hb, selected);
    let region = ConcurrencyRegion::of(&hb, selected);
    println!(
        "concurrency region: {} events are concurrent with the selection",
        region.concurrent_events(&trace).len()
    );

    let mut model = TimelineModel::build(&trace, &matching, false);
    model.add_mark(&trace, selected, "selection");
    model.add_frontier(&trace, &past, "past frontier");
    model.add_frontier(&trace, &future, "future frontier");
    println!("\n{}", render_ascii(&model, 110));

    // Use the past frontier as a stopline: stop every process right after
    // the last point where it could have affected the selection.
    let stopline = Stopline::past_frontier(&trace, &hb, selected);
    println!("past-frontier stopline: {:?}", stopline.markers);
    assert!(stopline.is_consistent(&trace, &matching));
    session.replay_to(&stopline);
    let at_frontier = session.markers();
    println!("stopped at {at_frontier:?}");

    // Travel forward a little...
    session.step_all();
    session.step_all();
    println!("after two global steps: {:?}", session.markers());

    // ...and undo back.
    assert!(session.undo());
    println!("after undo: {:?}", session.markers());
    assert!(session.undo());
    assert_eq!(session.markers(), at_frontier);
    println!("second undo returned to the frontier stop. time travel works.");
}
