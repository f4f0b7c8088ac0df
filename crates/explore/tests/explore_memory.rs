//! What exploring holds in memory besides the program it explores. The
//! systematic frontier keeps one decision log per absorbed run and builds
//! a script only when it dequeues one; a pool without worker threads runs
//! and absorbs one task at a time. An eager frontier (an entry per
//! alternative, 100,225 of them at this size), a drain that builds every
//! script before the first runs, or a window of results alive at
//! `jobs = 1` grows past the bounds below — and so does `localize` if its
//! reference harvest keeps more than one run alive.
//!
//! One explored run pays for its turns, not for bookkeeping around them:
//! a script's sites were interned when it was parsed, so running it
//! allocates no string, and `execute_task` keeps the run's log as the
//! engine recorded it, so a run whose trace nobody reads (a digest-pruned
//! one) never builds a `TraceStore`.
//!
//! Live heap bytes and allocation calls are counted per thread; at
//! `jobs = 1` the pool spawns no thread, so the count is the whole
//! exploration's.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use tracedbg_explore::{execute_task, ExploreConfig, Explorer, ProgramSource, RunTask};
use tracedbg_instrument::RecorderConfig;
use tracedbg_localize::{localize, LocalizeConfig, VERDICT_LOCALIZED};
use tracedbg_mpsim::{Engine, EngineConfig, SchedPolicy};
use tracedbg_workloads::planted::{planted_wildcard_factory, PlantedConfig};
use tracedbg_workloads::script;

struct Counting;

thread_local! {
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
    /// Allocation calls, and those of them with byte alignment: a
    /// `String`'s or a `Box<str>`'s.
    static CALLS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

fn grow(by: i64) {
    let live = LIVE.with(|l| {
        l.set(l.get() + by);
        l.get()
    });
    PEAK.with(|p| p.set(p.get().max(live)));
}

fn call(layout: Layout) {
    let text = u64::from(layout.align() == 1);
    CALLS.with(|c| c.set((c.get().0 + 1, c.get().1 + text)));
}

// SAFETY: every request goes to `System` unchanged; the counts are
// const-initialized thread-local `Cell`s, which neither allocate nor have
// destructors.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size() as i64);
        call(layout);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        grow(-(layout.size() as i64));
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        grow(new_size as i64 - layout.size() as i64);
        call(layout);
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

/// Allocation calls `f` makes on this thread: all of them, and those of
/// byte-aligned blocks (text).
fn calls<T>(f: impl FnOnce() -> T) -> (T, (u64, u64)) {
    let before = CALLS.with(Cell::get);
    let out = f();
    let after = CALLS.with(Cell::get);
    (out, (after.0 - before.0, after.1 - before.1))
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

/// A script's sites are interned when it is parsed: after a warm-up run,
/// building its ranks and running them allocates no text. (The script
/// binds no variable: a variable's name is still a `String` per rank.)
/// Interning each rank's sites into each run's table (a `SourceLoc` of two
/// `String`s per site, four allocations with its copy in the index) fails
/// this.
#[test]
fn a_warm_script_run_interns_no_site_text() {
    let src = "\
fn main
  if rank == 0
    compute 10
  else
    trace \"worker\" rank
  end
  call step
  barrier
end
fn step
  compute 5
end
";
    let parsed = script::parse(src).expect("parse");
    // Byte-aligned blocks `Engine::run` allocates (the launch's own
    // `Vec<bool>` is not counted) and the sites the run used.
    let run = || {
        let cfg = EngineConfig::with_recorder(RecorderConfig::full());
        let mut engine = Engine::launch(cfg, script::programs(&parsed, 4, "sites.script"));
        let (outcome, (_, text)) = calls(|| engine.run());
        assert!(outcome.is_completed());
        (engine.sites().len(), text)
    };
    let _warm_up = run();
    let (sites, text) = run();
    assert_eq!(sites, 8);
    assert_eq!(
        text, 0,
        "a warm run of {sites} sites allocated {text} texts"
    );
}

/// A site key is interned by its text: parsing a script that was parsed
/// before interns nothing new, so once its `Script` is dropped the parse
/// has kept no heap. A key told apart by the parse that made it (a file
/// cell per `Script`, a copy of each function name per key) leaks a set
/// per parse and fails this.
#[test]
fn a_second_parse_of_a_script_keeps_no_heap() {
    let src = "\
fn main
  if rank == 0
    send 1 tag 3 rank
  else
    recv from any tag 3 into x
  end
  call step
end
fn step
  compute 5
end
";
    drop(script::parse(src).expect("parse"));
    let before = LIVE.with(Cell::get);
    drop(script::parse(src).expect("parse"));
    let kept = LIVE.with(Cell::get) - before;
    assert_eq!(kept, 0, "a second parse of the same text kept {kept} B");
}

/// `execute_task` costs at most a few allocations more than the engine
/// run it wraps, whatever the trace's length, when nobody reads the run's
/// trace: the digest reads the log where the engine left it, and the
/// canonical store (a lane per rank, a permutation) is built only on
/// demand. Building it for every run (17 more calls on these 16 ranks)
/// fails this.
#[test]
fn an_unread_run_builds_no_trace_store() {
    const EXTRA: u64 = 8;
    let source = planted16();
    // A schedule on which the planted bug does not fire: no panic message
    // is printed (and counted) while it runs.
    let task = RunTask {
        policy: SchedPolicy::Seeded(0),
        faults: Vec::new(),
    };
    let engine_run = || {
        let cfg = EngineConfig {
            policy: task.policy.clone(),
            recorder: RecorderConfig::full(),
            ..Default::default()
        };
        let mut engine = Engine::launch(cfg, source());
        assert!(engine.run().is_completed());
    };
    engine_run();
    let ((), (engine, _)) = calls(engine_run);
    let (res, (explored, _)) = calls(|| execute_task(&source, &task));
    drop(res);
    eprintln!("execute_task: {explored} allocation calls; the engine run alone: {engine}");
    assert!(
        explored <= engine + EXTRA,
        "execute_task made {explored} allocation calls; the engine run alone {engine}"
    );
    // Reading the trace builds the store once.
    let res = execute_task(&source, &task);
    let ((), (first, _)) = calls(|| assert!(!res.store().is_empty()));
    let ((), (again, _)) = calls(|| assert!(!res.store().is_empty()));
    assert!(first > 16, "the store has a lane per rank: {first} calls");
    assert_eq!(again, 0, "a second read builds nothing");
}
