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
//! A forked run allocates only what it keeps: copying a rank out of a
//! checkpoint copies its program (a box and its frame stack), not its
//! call ring or the messages queued for it, and a small message is held
//! inline wherever it goes.
//!
//! Live heap bytes and allocation calls are counted per thread; at
//! `jobs = 1` the pool spawns no thread, so the count is the whole
//! exploration's.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use tracedbg_explore::{execute_task, ExploreConfig, Explorer, ProgramSource, RunTask};
use tracedbg_instrument::RecorderConfig;
use tracedbg_localize::{localize, LocalizeConfig, VERDICT_LOCALIZED};
use tracedbg_mpsim::ops::Reply;
use tracedbg_mpsim::{Engine, EngineConfig, Envelope, Message, Payload, SchedPolicy};
use tracedbg_trace::schedule::Decision;
use tracedbg_trace::{Rank, SiteId, Tag};
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

/// Allocation calls per executed run of the 4000-run search below, at the
/// commit before payloads went inline, the call ring went inline and a
/// fork stopped copying mailboxes, tables and decision prefixes: 594,886
/// calls for 4000 runs in a release build, 594,875 in a debug build.
const CALLS_PER_RUN_BEFORE: f64 = 148.7;

/// One test, so that nothing else runs in this process while it counts:
/// `Explorer::explore` turns quiet panics off when it returns, and a
/// panic message printed while `localize` runs would be counted against
/// it.
///
/// The search makes at most half the allocation calls per run it made
/// before a fork stopped copying what it does not change (64.5 after,
/// in a release build; 55.9 once a rank's frames were inline in its
/// program box).
#[test]
fn exploring_and_localizing_hold_one_window_of_work() {
    let ((report, growth), (made, _)) = calls(|| peak_growth(|| explore_planted16().explore()));
    assert_eq!(report.runs_executed, 4000);
    let per_run = made as f64 / report.runs_executed as f64;
    let bound = CALLS_PER_RUN_BEFORE / 2.0;
    eprintln!("explore: {made} allocation calls, {per_run:.1} per run; bound {bound:.1}");
    assert!(
        per_run <= bound,
        "exploring made {per_run:.1} allocation calls per run, more than {bound:.1}"
    );
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
        from: None,
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

/// What the master of the 16-rank planted search costs to copy out of a
/// checkpoint with `k` reports queued for it. Every worker runs to its
/// end first, so the master then has all 15 reports queued and takes them
/// one match a turn, the only rank left to run. At each rest point the
/// run is checkpointed, the checkpoint restored, the master's next event
/// made a trap, and the allocation calls of the one turn that follows
/// counted (the stop report that ends the run is counted apart and left
/// out). The turn copies the master's rank — its program box, which holds
/// its frames inline, 1 call — and pays what a first turn of a restored
/// engine pays: the list and the block of the state and rank tables it
/// writes (4) and the first entries of the decision and trace logs (2). A
/// frame stack on the heap costs one call more; a copy of the call ring,
/// of the mailbox's queues or of a payload per queued message (an 8-byte
/// report each) grows the count with `k`; either fails this.
#[test]
fn a_rank_copied_out_of_a_checkpoint_allocates_its_program_whatever_is_queued() {
    const RANK_COPY: u64 = 1;
    const FIRST_TURN: u64 = 6;
    let master = Rank(0);
    let source = planted16();
    let workers_first = (1..16)
        .flat_map(|r| [Decision::Turn { rank: Rank(r) }; 2])
        .collect();
    let mut front = Engine::launch(
        EngineConfig {
            policy: SchedPolicy::Scripted(workers_first),
            recorder: RecorderConfig::full(),
            ..Default::default()
        },
        source(),
    );
    let mut seen = std::collections::BTreeMap::new();
    loop {
        // A checkpoint at the rest point the front run stops at: no match
        // is left pending for a restore to deliver.
        let d = front.decision_points().len() + 1;
        if front.run_to_snapshot(d).is_err() {
            break;
        }
        let cp = front.snapshot();
        let mut engine = Engine::restore(&cp, Vec::new());
        let k = engine.undelivered()[master.ix()].1.len();
        engine.set_threshold(master, Some(engine.markers().get(master) + 1));
        let (outcome, (turn_and_stop, _)) = calls(|| engine.run());
        if engine.trapped().is_empty() {
            continue; // the master was not the one to run
        }
        assert!(outcome.is_stopped(), "{outcome:?}");
        // Running on takes no turn and makes the same stop report.
        let (again, (stop, _)) = calls(|| engine.run());
        assert_eq!(format!("{again:?}"), format!("{outcome:?}"));
        seen.insert(k, turn_and_stop - stop);
    }
    eprintln!("allocation calls of the master's first turn, by messages queued: {seen:?}");
    assert!(seen.len() >= 14, "queue lengths reached: {:?}", seen.keys());
    for (&k, &made) in &seen {
        assert!(
            made <= RANK_COPY + FIRST_TURN,
            "copying the master out with {k} messages queued made {made} allocation calls"
        );
    }
}

/// An 8-byte payload — a send of `Payload::from_i64` — lives inline: the
/// envelope a send deposits, a checkpoint's copy of it, the message it
/// is delivered as and the reply that carries it allocate nothing.
#[test]
fn a_small_message_allocates_nothing_where_it_goes() {
    let ((), (made, _)) = calls(|| {
        let env = Envelope {
            src: Rank(1),
            dst: Rank(0),
            tag: Tag(40),
            seq: 3,
            arrival: 10,
            send_marker: 4,
            send_site: SiteId::UNKNOWN,
            synchronous: false,
            payload: Payload::from_i64(-42),
        };
        let copied = env.clone();
        let reply = Reply::RecvDone {
            env: copied,
            t_done: 12,
        };
        let Reply::RecvDone { env: kept, .. } = reply.clone() else {
            unreachable!()
        };
        let message: Message = kept.into();
        assert_eq!(message.payload.to_i64(), Some(-42));
        std::hint::black_box((env, reply, message));
    });
    assert_eq!(made, 0, "a small message made {made} allocation calls");
}
