//! What writing a store holds in memory besides the trace it writes: one
//! segment's offset table, one chunk buffer and the zone indexes'
//! postings — less than the `index.tds` the write produces, plus a fixed
//! allowance. A per-event key table, a whole segment's payload or an
//! image of a file grows past the bound at the benchmark's size.
//!
//! Live heap bytes are counted per thread, so the count is the writer's
//! own whatever else the test harness does.

mod common;

use common::scratch_dir;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use tracedbg_mpsim::{Engine, EngineConfig, RecorderConfig};
use tracedbg_store::{ingest_records, StoreOptions};
use tracedbg_workloads::random_comm;

struct Counting;

thread_local! {
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

fn grow(by: i64) {
    let live = LIVE.with(|l| {
        l.set(l.get() + by);
        l.get()
    });
    PEAK.with(|p| p.set(p.get().max(live)));
}

// SAFETY: every request goes to `System` unchanged; the counts are
// const-initialized thread-local `Cell`s, which neither allocate nor have
// destructors.
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

#[test]
fn writing_80k_events_holds_less_than_the_index_it_writes() {
    let pattern = random_comm::generate(3, 8, 16_000);
    let mut engine = Engine::launch(
        EngineConfig::with_recorder(RecorderConfig::full()),
        random_comm::programs(&pattern, 3),
    );
    assert!(engine.run().is_completed());
    let store = engine.trace_store();
    drop(engine);
    assert_eq!(store.len(), 80_016, "the benchmark's deep_random trace");

    let dir = scratch_dir("memory");
    let before = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(before));
    let (records, sites) = (store.records(), store.sites());
    ingest_records(
        records,
        sites,
        store.n_ranks(),
        &dir,
        StoreOptions::default(),
    )
    .unwrap();
    let growth = PEAK.with(Cell::get) - before;

    let index = std::fs::metadata(dir.join("index.tds")).unwrap().len() as i64;
    let bound = index + 512 * 1024;
    eprintln!("peak heap growth {growth} B; index.tds {index} B; bound {bound} B");
    assert!(
        growth <= bound,
        "writing held {growth} B at its peak, more than index.tds ({index} B) + 512 KiB"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
