//! Figure 8 — "Past and future frontiers of a time point in a specific
//! processor. The user selected the point indicated by the circle. The
//! timeline display then calculated the region of the computation that is
//! concurrent with that point. The concurrency region is shown between
//! the slanted black lines."
//!
//! Paper workload: a NAS Parallel Benchmark LU trace. Here: the LU-style
//! wavefront pipeline. The harness selects a mid-pipeline event, draws the
//! two frontiers, and property-checks them: everything before the past
//! frontier happens-before the selection, everything after the future
//! frontier happens-after, everything between is concurrent.

use tracedbg_bench::write_artifact;
use tracedbg_causality::{ConcurrencyRegion, Frontier, HbIndex};
use tracedbg_instrument::RecorderConfig;
use tracedbg_mpsim::{Engine, EngineConfig};
use tracedbg_trace::{EventKind, Rank};
use tracedbg_tracegraph::MessageMatching;
use tracedbg_viz::{render_ascii, render_svg, TimelineModel};
use tracedbg_workloads::lu::{self, LuConfig};

fn main() {
    let cfg = LuConfig {
        nprocs: 8,
        sweeps: 5,
        ..Default::default()
    };
    let mut engine = Engine::launch(
        EngineConfig::with_recorder(RecorderConfig::full()),
        lu::programs(&cfg),
    );
    assert!(engine.run().is_completed());
    let store = engine.trace_store();
    let matching = MessageMatching::build(&store);
    let hb = HbIndex::build(&store, &matching);

    // Select a mid-pipeline receive in a middle sweep (the circled point).
    let mid = Rank((cfg.nprocs / 2) as u32);
    let recvs: Vec<_> = store
        .by_rank(mid)
        .iter()
        .copied()
        .filter(|&id| store.record(id).kind == EventKind::RecvDone)
        .collect();
    let selected = recvs[recvs.len() / 2];

    let past = Frontier::past_of(&hb, selected);
    let future = Frontier::future_of(&hb, selected);
    let region = ConcurrencyRegion::of(&hb, selected);

    // Property check over every event in the trace.
    let mut n_past = 0usize;
    let mut n_future = 0usize;
    let mut n_conc = 0usize;
    for id in store.ids() {
        if id == selected {
            continue;
        }
        use tracedbg_causality::frontier::Region;
        match region.classify_event(&store, id) {
            Region::Past => {
                assert!(
                    hb.happens_before(id, selected),
                    "event {id:?} classified past but not hb-before"
                );
                n_past += 1;
            }
            Region::Future => {
                assert!(
                    hb.happens_before(selected, id),
                    "event {id:?} classified future but not hb-after"
                );
                n_future += 1;
            }
            Region::Concurrent => {
                assert!(
                    hb.concurrent(selected, id),
                    "event {id:?} classified concurrent but ordered"
                );
                n_conc += 1;
            }
        }
    }

    let mut model = TimelineModel::build(&store, &matching, false);
    model.add_mark(&store, selected, "selected point");
    model.add_frontier(&store, &past, "past frontier");
    model.add_frontier(&store, &future, "future frontier");
    let svg = render_svg(&model, 1100.0);
    let ascii = render_ascii(&model, 120);

    println!("FIGURE 8 — past/future frontiers on the LU wavefront");
    let rec = store.record(selected);
    println!(
        "selection: {:?} marker {} on {:?}; classification: {n_past} past, {n_conc} concurrent, {n_future} future (all verified against happens-before)",
        rec.kind, rec.marker, rec.rank
    );
    println!("\n{ascii}");
    let p1 = write_artifact("fig8_frontiers.svg", &svg);
    let p2 = write_artifact("fig8_frontiers.txt", &ascii);
    println!("wrote {}\nwrote {}", p1.display(), p2.display());
}
