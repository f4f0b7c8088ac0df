//! What exploring holds in memory besides the program it explores. The
//! systematic frontier keeps one decision log per absorbed run and builds
//! a script only when it dequeues one; a pool without worker threads runs
//! and absorbs one task at a time. An eager frontier (an entry per
//! alternative, 100,225 of them at this size), a drain that builds every
//! script before the first runs, or a window of results alive at
//! `jobs = 1` grows past the bounds below — and so does `localize` if its
//! reference harvest keeps more than one run alive.
//!
//! Live heap bytes are counted per thread; at `jobs = 1` the pool spawns
//! no thread, so the count is the whole exploration's.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use tracedbg_explore::{ExploreConfig, Explorer, ProgramSource};
use tracedbg_localize::{localize, LocalizeConfig, VERDICT_LOCALIZED};
use tracedbg_workloads::planted::{planted_wildcard_factory, PlantedConfig};

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

/// Peak live heap growth of `f` on this thread, in bytes.
fn peak_growth<T>(f: impl FnOnce() -> T) -> (T, i64) {
    let before = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(before));
    let out = f();
    (out, PEAK.with(Cell::get) - before)
}

fn planted16() -> ProgramSource {
    Box::new(planted_wildcard_factory(PlantedConfig {
        nprocs: 16,
        ..Default::default()
    }))
}

/// `tracedbg explore planted-wildcard --procs 16 --runs 4000 --jobs 1`.
fn explore_planted16() -> Explorer {
    let cfg = ExploreConfig {
        workload: "planted-wildcard".to_string(),
        seed: 9,
        runs: 4000,
        jobs: 1,
        ..Default::default()
    };
    Explorer::new(cfg, planted16())
}

const MIB: i64 = 1024 * 1024;

/// One test, so that nothing else runs in this process while it counts:
/// `Explorer::explore` turns quiet panics off when it returns, and a
/// panic message printed while `localize` runs would be counted against
/// it.
#[test]
fn exploring_and_localizing_hold_one_window_of_work() {
    let (report, growth) = peak_growth(|| explore_planted16().explore());
    assert_eq!(report.runs_executed, 4000);
    let bound = 4 * MIB;
    eprintln!("explore: peak heap growth {growth} B; bound {bound} B");
    assert!(
        growth <= bound,
        "exploring 4000 runs held {growth} B at its peak, more than {bound} B"
    );

    let finding = report.findings.iter().find(|f| f.class == "panic");
    let artifact = &finding.expect("planted-wildcard panics").artifact;
    let source = planted16();
    let cfg = LocalizeConfig {
        runs: 2000,
        seed: 0,
        jobs: 1,
    };
    tracedbg_mpsim::set_quiet_panics(true);
    let (localized, growth) = peak_growth(|| localize(&source, artifact, &cfg));
    assert_eq!(localized.verdict, VERDICT_LOCALIZED);
    let bound = 2 * MIB;
    eprintln!("localize: peak heap growth {growth} B; bound {bound} B");
    assert!(
        growth <= bound,
        "localizing against 2000 references held {growth} B at its peak, more than {bound} B"
    );
}
