//! A script is lowered once, when it is parsed; a rank executes the
//! lowered program and does not copy it. A statement the engine never sees
//! (`let`, `if`, a loop turn) allocates nothing once its variables exist,
//! building the ranks costs the same for a short script as for a long one,
//! and building plus running the interpreted 8-rank `racy-wildcard` stays
//! within a fixed count. Recording a probe allocates nothing of its own:
//! its label was interned when the script was parsed.
//!
//! The same budgets for native ranks (`Prog` tables under `TaskInterp`):
//! a factory builds its programs once, so each call of it allocates the
//! list and a program box per rank whatever the programs' length; a loop
//! turn that yields nothing allocates nothing; and one explored run of
//! `planted-wildcard` — what `explore` and `localize` repeat thousands of
//! times per hunt — stays under a fixed count, so the next per-run
//! allocation fails here instead of drifting a benchmark.
//!
//! Allocations are counted per thread, so the tests of this binary may run
//! side by side.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use tracedbg_instrument::RecorderConfig;
use tracedbg_mpsim::task::TaskOp;
use tracedbg_mpsim::{Engine, EngineConfig, Prog, ProgramFactory, RankProgram, SchedPolicy};
use tracedbg_trace::SiteId;
use tracedbg_workloads::planted::{
    planted_orphan_factory, planted_pipeline_factory, planted_wildcard_factory, PlantedConfig,
};
use tracedbg_workloads::racy::{orphan_deadlock_factory, wildcard_race_factory, RacyConfig};
use tracedbg_workloads::wide::{
    butterfly_factory, stencil_factory, ButterflyConfig, StencilConfig,
};
use tracedbg_workloads::{random_comm, script, scripts};

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every request goes to `System` unchanged; the count is a
// const-initialized thread-local `Cell`, which neither allocates nor has a
// destructor.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `Engine::run` makes on `programs`, round robin, with the
/// recorder off.
fn allocs_of_run(programs: Vec<RankProgram>) -> u64 {
    allocs_of_recorded_run(programs, RecorderConfig::off())
}

/// Allocations `Engine::run` makes on `programs`, round robin, recording
/// as `recorder` says.
fn allocs_of_recorded_run(programs: Vec<RankProgram>, recorder: RecorderConfig) -> u64 {
    let mut engine = Engine::launch(EngineConfig::with_recorder(recorder), programs);
    let before = ALLOCS.with(Cell::get);
    let outcome = engine.run();
    let after = ALLOCS.with(Cell::get);
    assert!(outcome.is_completed(), "{outcome:?}");
    after - before
}

fn allocs_of_script(script: &script::Script, nprocs: usize) -> u64 {
    allocs_of_run(script::programs(script, nprocs, "alloc.script"))
}

#[test]
fn a_loop_of_local_statements_allocates_nothing_per_iteration() {
    let allocs = |iterations: u32| {
        let src = format!(
            "fn main\n  let odd = 0\n  loop i 0 {iterations}\n    let sq = i * i\n    \
             if ( i % 2 ) == 1\n      let odd = odd + 1\n    else\n      let even = i\n    end\n  \
             end\n  trace \"odd\" odd\nend\n"
        );
        allocs_of_script(&script::parse(&src).expect("parse"), 1)
    };
    assert_eq!(
        allocs(100),
        allocs(10_000),
        "allocations grew with iterations"
    );
}

/// A probe's label is interned when the script is parsed, so recording a
/// probe allocates nothing of its own: what a recorded loop of probes
/// allocates is the growth of the run's one log, which doubles — about
/// log2(10,000 / 100) ≈ 7 more reallocations for 99 times the probes.
#[test]
fn a_recorded_probe_allocates_nothing_of_its_own() {
    let allocs = |iterations: u32| {
        let src = format!("fn main\n  loop i 0 {iterations}\n    trace \"x\" i\n  end\nend\n");
        let script = script::parse(&src).expect("parse");
        let programs = script::programs(&script, 1, "alloc.script");
        allocs_of_recorded_run(programs, RecorderConfig::full())
    };
    let (few, many) = (allocs(100), allocs(10_000));
    assert!(
        many - few <= 8,
        "{} allocations for 9,900 more probes",
        many - few
    );
}

/// Allocations `script::programs` makes building `nprocs` ranks.
fn allocs_of_programs(script: &script::Script, nprocs: usize) -> (u64, Vec<RankProgram>) {
    let before = ALLOCS.with(Cell::get);
    let ranks = script::programs(script, nprocs, "alloc.script");
    (ALLOCS.with(Cell::get) - before, ranks)
}

/// `parse` lowers the script; `programs`, which every explored run calls,
/// only hands each rank its state, whatever the script's length.
#[test]
fn building_the_ranks_costs_the_same_for_any_script_length() {
    let allocs = |statements: usize| {
        let src = format!("fn main\n{}end\n", "  compute 1\n".repeat(statements));
        allocs_of_programs(&script::parse(&src).expect("parse"), 4).0
    };
    assert_eq!(allocs(2), allocs(200), "programs allocated per statement");
}

#[test]
fn an_interpreted_run_allocates_like_a_native_one() {
    let racy = scripts::builtin("racy-wildcard").expect("built-in script");
    let (built, ranks) = allocs_of_programs(&racy.parse(), 8);
    // Round robin lets worker 1 report first, so the run completes.
    let ran = allocs_of_run(ranks);
    assert!(
        built + ran <= 106,
        "programs allocated {built} times and Engine::run {ran}"
    );
}

/// The factories `explore` and `localize` call once per run build their
/// programs when they are made: a call after the first allocates the list
/// and one program box per rank (a stencil rank also its neighbour list),
/// the same for the pipeline's four programs as for the wildcard's two.
#[test]
fn a_factory_call_builds_no_program() {
    let planted = PlantedConfig {
        nprocs: 8,
        ..Default::default()
    };
    let racy = RacyConfig {
        nprocs: 8,
        ..Default::default()
    };
    let pattern = random_comm::generate(1, 8, 100);
    let factories: [(&str, ProgramFactory, u64); 8] = [
        (
            "planted-wildcard",
            Box::new(planted_wildcard_factory(planted)),
            1,
        ),
        (
            "planted-orphan",
            Box::new(planted_orphan_factory(planted)),
            1,
        ),
        (
            "planted-pipeline",
            Box::new(planted_pipeline_factory(planted)),
            1,
        ),
        ("racy-wildcard", Box::new(wildcard_race_factory(racy)), 1),
        ("racy-deadlock", Box::new(orphan_deadlock_factory(racy)), 1),
        (
            "random",
            Box::new(move || random_comm::programs(&pattern, 1)),
            1,
        ),
        (
            "butterfly",
            Box::new(butterfly_factory(ButterflyConfig { nprocs: 8 })),
            1,
        ),
        (
            "stencil",
            Box::new(stencil_factory(StencilConfig { p: 3, steps: 1 })),
            2,
        ),
    ];
    for (name, factory, per_rank) in factories {
        drop(factory());
        let before = ALLOCS.with(Cell::get);
        let ranks = factory();
        let made = ALLOCS.with(Cell::get) - before;
        let want = 1 + per_rank * ranks.len() as u64;
        assert_eq!(
            made, want,
            "{name}: a call of the factory allocated {made} times"
        );
    }
}

#[test]
fn a_native_loop_turn_that_yields_nothing_allocates_nothing() {
    let allocs = |iterations: i64| {
        let body = Prog::when(
            |_: &i64, _| false,
            Prog::op(|_: &mut i64, _| TaskOp::Compute {
                cost_ns: 1,
                site: SiteId(0),
            }),
        );
        let prog = Prog::for_range(move |_, _| (0, iterations), |s, i| *s = i, body);
        allocs_of_run(vec![RankProgram::task(0i64, prog)])
    };
    assert_eq!(
        allocs(10),
        allocs(10_000),
        "allocations grew with iterations"
    );
}

#[test]
fn one_explored_run_of_planted_wildcard_stays_within_its_allocation_budget() {
    let source = planted_wildcard_factory(PlantedConfig {
        nprocs: 16,
        ..Default::default()
    });
    // A hunt's first run interns the program's probe labels; the runs
    // after it, which this budget is for, find them interned.
    drop(source());
    let before = ALLOCS.with(Cell::get);
    // `explore::runner::execute_task`, minus the digest and the summary,
    // on a schedule where the planted rank does not report first.
    let mut engine = Engine::launch(
        EngineConfig {
            policy: SchedPolicy::Seeded(0),
            recorder: RecorderConfig::full(),
            ..Default::default()
        },
        source(),
    );
    let outcome = engine.run();
    let (store, points) = engine.into_trace_and_decisions();
    let after = ALLOCS.with(Cell::get);
    assert!(outcome.is_completed(), "{outcome:?}");
    assert!(!store.records().is_empty() && !points.is_empty());
    let n = after - before;
    assert!(n <= 200, "one explored run allocated {n} times");
}
