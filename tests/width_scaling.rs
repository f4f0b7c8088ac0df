//! Engine cost follows events, not ranks: the per-record cost of a run
//! must not grow with the width of the run.
//!
//! The stencil is the shape where width used to show — almost every rank
//! is ready on almost every turn, so a per-turn scan of all ranks (and a
//! copy of the runnable list into each decision point) made a record 17×
//! dearer at 1024 ranks than at 64. The test prints the whole table
//! EXPERIMENTS.md quotes (`-- --nocapture`) and asserts on the stencil.
//!
//! Release builds only (`scripts/verify.sh` runs it with `--release`): a
//! debug build re-scans every rank after every turn to check the
//! incremental ready set, which is exactly the cost this test rules out.

use std::time::Instant;
use tracedbg::mpsim::{Engine, EngineConfig, RankProgram, RecorderConfig};
use tracedbg::workloads::ring;
use tracedbg::workloads::wide::{self, ButterflyConfig, StencilConfig};

/// Best-of-5 wall nanoseconds per trace record of launch + run.
fn ns_per_record(programs: impl Fn() -> Vec<RankProgram>) -> f64 {
    (0..5)
        .map(|_| {
            let programs = programs();
            let started = Instant::now();
            let mut engine = Engine::launch(
                EngineConfig::with_recorder(RecorderConfig::full()),
                programs,
            );
            assert!(engine.run().is_completed());
            let ns = started.elapsed().as_nanos() as f64;
            ns / engine.collect_trace().len() as f64
        })
        .fold(f64::INFINITY, f64::min)
}

fn stencil(n: usize) -> Vec<RankProgram> {
    let p = (n as f64).sqrt() as usize;
    wide::stencil_programs(&StencilConfig { p, steps: 4 })
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "debug builds re-scan every rank each turn to check the ready set"
)]
fn a_record_costs_the_same_at_1024_ranks_as_at_64() {
    const WIDTHS: [usize; 3] = [64, 256, 1024];
    let row = |name: &str, programs: &dyn Fn(usize) -> Vec<RankProgram>| {
        let cells = WIDTHS.map(|n| ns_per_record(|| programs(n)));
        eprintln!(
            "{name:<10} ns/record at 64/256/1024 ranks: {:.0} / {:.0} / {:.0}",
            cells[0], cells[1], cells[2]
        );
        cells
    };
    row("ring", &|n| ring::programs(&wide::wide_ring_config(n, 1)));
    row("butterfly", &|n| {
        wide::butterfly_programs(&ButterflyConfig { nprocs: n })
    });
    let [narrow, _, wide] = row("stencil", &stencil);
    assert!(
        wide <= 3.0 * narrow,
        "a stencil record costs {wide:.0} ns at 1024 ranks against {narrow:.0} ns at 64"
    );
}
