//! Ablations of the design choices DESIGN.md calls out.
//!
//! 1. **Dissemination** (§4.3): the trace graph's stored arc count with
//!    and without the merge limit, as execution length grows. Claim: the
//!    capped graph's size is (nearly) independent of execution length
//!    while representing every primitive arc.
//! 2. **Checkpointed undo** (§6 future work): wall time of one `undo` in
//!    a debugging [`Session`] that re-executes from process creation
//!    (`checkpoint_every: 0`, the paper's implementation) vs one that
//!    restores the stop's checkpoint (`checkpoint_every: 1`), as a
//!    function of history depth.
//! 3. **Checkpoint backlog**: events re-executed by backward jumps in a
//!    session that has stopped 16 times along the run — distance from the
//!    nearest dominated checkpoint (`CacheLookupStats::restore_distance`)
//!    vs the from-scratch distance.
//!
//! 2 and 3 are measured on the shipping engine: the real `Session` and
//! its backlog of stops over the `ring` workload at growing `rounds`.

use std::time::Instant;
use tracedbg_bench::{write_artifact, TextTable};
use tracedbg_debugger::{Session, SessionConfig, Stopline};
use tracedbg_instrument::RecorderConfig;
use tracedbg_mpsim::{Engine, EngineConfig};
use tracedbg_trace::TraceStore;
use tracedbg_tracegraph::TraceGraph;
use tracedbg_workloads::ring::{self, RingConfig};

fn dissemination_table() -> String {
    let mut table = TextTable::new(&[
        "rounds",
        "events",
        "arcs (unbounded)",
        "arcs (limit 32)",
        "primitive arcs",
    ]);
    for rounds in [8usize, 32, 128, 512] {
        let cfg = RingConfig {
            nprocs: 4,
            rounds,
            hop_cost: 100,
            tag_stride: 0,
        };
        let mut e = Engine::launch(
            EngineConfig::with_recorder(RecorderConfig::full()),
            ring::programs(&cfg),
        );
        assert!(e.run().is_completed());
        let store = e.trace_store();
        let full = TraceGraph::build(&store);
        let capped = TraceGraph::build_with_limit(&store, Some(32));
        assert_eq!(full.n_primitive_arcs(), capped.n_primitive_arcs());
        table.row(&[
            rounds.to_string(),
            store.len().to_string(),
            full.n_arcs().to_string(),
            capped.n_arcs().to_string(),
            capped.n_primitive_arcs().to_string(),
        ]);
    }
    table.render()
}

/// A debugging session over a 4-rank ring of `rounds` rounds.
fn ring_session(rounds: usize, recorder: RecorderConfig, checkpoint_every: usize) -> Session {
    let cfg = RingConfig {
        nprocs: 4,
        rounds,
        hop_cost: 100,
        tag_stride: 0,
    };
    Session::launch(
        SessionConfig {
            recorder,
            checkpoint_every,
            ..Default::default()
        },
        Box::new(ring::factory(cfg)),
    )
}

/// The vertical stopline at `num/den` of the recorded makespan.
fn cut(trace: &TraceStore, num: u64, den: u64) -> Stopline {
    Stopline::vertical(trace, trace.time_bounds().1 * num / den)
}

fn undo_table() -> String {
    let mut table = TextTable::new(&[
        "history depth (events)",
        "recorder",
        "undo by re-execution (µs)",
        "undo by checkpoint restore (µs)",
        "speedup",
    ]);
    for rounds in [64usize, 512, 4096] {
        // Stoplines come from a fully traced run; markers count every
        // event under every recording strategy, so they transfer.
        let mut traced = ring_session(rounds, RecorderConfig::full(), 0);
        assert!(traced.run().is_completed());
        let trace = traced.trace();
        let (half, three_quarters) = (cut(&trace, 1, 2), cut(&trace, 3, 4));
        // Record, stop at 1/2, move on to 3/4, then time the undo back to
        // the 1/2 stop.
        let time_undo = |recorder: RecorderConfig, checkpoint_every: usize| {
            let mut s = ring_session(rounds, recorder, checkpoint_every);
            assert!(s.run().is_completed());
            assert!(s.replay_to(&half).is_stopped());
            assert!(s.replay_to(&three_quarters).is_stopped());
            let t0 = Instant::now();
            assert!(s.undo());
            let elapsed = t0.elapsed().as_secs_f64();
            assert_eq!(s.markers(), half.markers, "undo returns to the 1/2 stop");
            elapsed
        };
        for (label, recorder) in [
            ("markers only", RecorderConfig::markers_only()),
            ("full trace", RecorderConfig::full()),
        ] {
            // Median of five fresh sessions each.
            let median = |checkpoint_every: usize| {
                let mut runs: Vec<f64> = (0..5)
                    .map(|_| time_undo(recorder.clone(), checkpoint_every))
                    .collect();
                runs.sort_by(f64::total_cmp);
                runs[2]
            };
            let (replay, restore) = (median(0), median(1));
            table.row(&[
                trace.len().to_string(),
                label.to_string(),
                format!("{:.1}", replay * 1e6),
                format!("{:.1}", restore * 1e6),
                format!("{:.1}x", replay / restore.max(1e-9)),
            ]);
        }
    }
    table.render()
}

/// How many events does a backward jump re-execute once the session has a
/// backlog of stop checkpoints, against re-executing from process creation?
fn session_jump_table() -> String {
    let mut table = TextTable::new(&[
        "history (events)",
        "jump target",
        "re-executed from scratch",
        "re-executed from checkpoint",
        "fraction of history",
    ]);
    for rounds in [256usize, 2048] {
        let mut s = ring_session(rounds, RecorderConfig::full(), 1);
        assert!(s.run().is_completed());
        let trace = s.trace();
        let total: u64 = s.markers().counts().iter().sum();
        // A session's worth of stops: 16 evenly spaced stoplines, each
        // depositing a checkpoint.
        for i in 1..16 {
            assert!(s.replay_to(&cut(&trace, i, 16)).is_stopped());
        }
        for (label, num, den) in [("30%", 3u64, 10u64), ("55%", 11, 20), ("90%", 9, 10)] {
            let target = cut(&trace, num, den);
            let scratch: u64 = target.markers.counts().iter().sum();
            let before = s.telemetry().cache.restore_distance;
            assert!(s.replay_to(&target).is_stopped());
            let replayed = s.telemetry().cache.restore_distance - before;
            table.row(&[
                total.to_string(),
                label.to_string(),
                scratch.to_string(),
                replayed.to_string(),
                format!("{:.4}", replayed as f64 / total as f64),
            ]);
        }
    }
    table.render()
}

fn main() {
    let d = dissemination_table();
    println!("ABLATION 1 — dissemination bounds the trace graph (§4.3)\n");
    println!("{d}");
    let u = undo_table();
    println!("ABLATION 2 — session undo: re-execution vs checkpoint restore (§6)\n");
    println!("{u}");
    let j = session_jump_table();
    println!("ABLATION 3 — checkpoint backlog: re-executed events per jump\n");
    println!("{j}");
    let report = format!(
        "ABLATION 1 — dissemination\n\n{d}\nABLATION 2 — undo strategies\n\n{u}\n\
         ABLATION 3 — checkpoint backlog jumps\n\n{j}"
    );
    let p = write_artifact("ablations.txt", &report);
    println!("wrote {}", p.display());
}
