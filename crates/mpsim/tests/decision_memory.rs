//! What the decision log holds per decision point: a `Turn` point stores
//! how many ranks were ready and the ranks whose ready bit flipped since
//! the previous one, so a point costs the same at 4096 ranks as at 256.
//! A copy of the ready set in every `Turn` point (ranks/64 words: 512 B at
//! 4096 ranks) grows past the bound.
//!
//! Live heap bytes are counted per thread; the engine runs its ranks on
//! the calling thread, so the count is the run's own.

mod common;

use common::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use tracedbg_mpsim::{Engine, EngineConfig, RankProgram};

struct Counting;

thread_local! {
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

fn grow(by: i64) {
    LIVE.with(|l| l.set(l.get() + by));
}

// SAFETY: every request goes to `System` unchanged; the count is a
// const-initialized thread-local `Cell`, which neither allocates nor has
// a destructor.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size() as i64);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        grow(-(layout.size() as i64));
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        grow(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// One halo exchange on a `p × p` grid: every rank sends its rank to its
/// N/S/W/E neighbours, then receives from each of them.
fn stencil(p: u32) -> Vec<RankProgram> {
    (0..p * p)
        .map(|r| {
            let (row, col) = (r / p, r % p);
            let nbrs: Vec<u32> = [
                (row > 0).then(|| r - p),
                (row + 1 < p).then(|| r + p),
                (col > 0).then(|| r - 1),
                (col + 1 < p).then(|| r + 1),
            ]
            .into_iter()
            .flatten()
            .collect();
            let sends = nbrs.iter().map(|&n| send(n, 40, r as i64));
            let recvs = nbrs.iter().map(|&n| recv_from(n, 40));
            rank(sends.chain(recvs).collect())
        })
        .collect()
}

/// Heap bytes the finished run's decision log frees, per point.
fn heap_per_point(p: u32) -> f64 {
    let mut engine = Engine::launch(EngineConfig::default(), stencil(p));
    assert!(engine.run().is_completed());
    let (store, points) = engine.into_trace_and_decisions();
    drop(store);
    let n = points.len();
    let before = LIVE.with(Cell::get);
    drop(points);
    let freed = before - LIVE.with(Cell::get);
    freed as f64 / n as f64
}

#[test]
fn a_decision_point_holds_as_much_at_4096_ranks_as_at_256() {
    let narrow = heap_per_point(16);
    let wide = heap_per_point(64);
    eprintln!("decision log heap per point: {narrow:.1} B at 256 ranks, {wide:.1} B at 4096");
    assert!(
        wide <= narrow + 8.0,
        "a decision point holds {wide:.1} B at 4096 ranks against {narrow:.1} B at 256"
    );
}
