//! What handing a finished run's trace over holds in memory besides the
//! trace: the records are put in canonical order where the run logged
//! them, with at most 16 bytes of scratch per record and a fixed
//! allowance. A second copy of the records (88 bytes each) grows past the
//! bound at the benchmark's size.
//!
//! Live heap bytes are counted per thread; the engine runs its ranks on
//! the calling thread, so the count is the session's own.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use tracedbg_debugger::{Session, SessionConfig};
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

/// Scratch the hand-over may hold per record (it holds an 8-byte sort
/// key and then a 4-byte index).
const PER_RECORD: i64 = 16;

#[test]
fn handing_over_80k_records_holds_16_bytes_a_record_beside_them() {
    let pattern = random_comm::generate(3, 8, 16_000);
    let mut session = Session::launch(
        SessionConfig::default(),
        Box::new(move || random_comm::programs(&pattern, 3)),
    );
    assert!(session.run().is_completed());

    let before = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(before));
    let store = session.into_trace();
    let growth = PEAK.with(Cell::get) - before;

    let n = store.len() as i64;
    assert_eq!(n, 80_016, "the benchmark's deep_random trace");
    let bound = PER_RECORD * n + 64 * 1024;
    eprintln!("peak heap growth {growth} B over {n} records; bound {bound} B");
    assert!(
        growth <= bound,
        "the hand-over held {growth} B at its peak, more than {PER_RECORD} B x {n} records + 64 KiB"
    );
}
