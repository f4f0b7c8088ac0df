//! Engine cost follows events, not ranks: the per-record cost of a run
//! must not grow with the width of the run, and a debugger `step` or
//! `undo` must not grow with the width or the length of the run.
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

use std::cell::RefCell;
use std::time::Instant;
use tracedbg::causality::{detect_races, HbIndex};
use tracedbg::debugger::{HistoryReport, Session, SessionConfig, Stopline};
use tracedbg::mpsim::{Engine, EngineConfig, RankProgram, RecorderConfig};
use tracedbg::trace::{EventKind, MsgInfo, Rank, SiteTable, Tag, TraceRecord, TraceStore};
use tracedbg::tracegraph::{find_intertwined, MessageMatching};
use tracedbg::workloads::master_worker::{self, PoolConfig};
use tracedbg::workloads::ring::{self, RingConfig};
use tracedbg::workloads::wide::{self, ButterflyConfig, StencilConfig};

/// Wall nanoseconds of `f`.
fn timed<T>(f: impl FnOnce() -> T) -> f64 {
    let started = Instant::now();
    std::hint::black_box(f());
    started.elapsed().as_nanos() as f64
}

/// The best of five `sample`s of each cell. The cells take turns inside
/// every round, so a slow spell of the machine hits every size alike
/// instead of the one it happened to be measuring.
fn interleaved_best<C, const N: usize>(
    cells: &[C; N],
    mut sample: impl FnMut(&C) -> f64,
) -> [f64; N] {
    let mut best = [f64::INFINITY; N];
    for _ in 0..5 {
        for (best, cell) in best.iter_mut().zip(cells) {
            *best = best.min(sample(cell));
        }
    }
    best
}

/// Wall nanoseconds per trace record of launch + run.
fn ns_per_record(programs: Vec<RankProgram>) -> f64 {
    let started = Instant::now();
    let mut engine = Engine::launch(
        EngineConfig::with_recorder(RecorderConfig::full()),
        programs,
    );
    assert!(engine.run().is_completed());
    let ns = started.elapsed().as_nanos() as f64;
    ns / engine.collect_trace().len() as f64
}

fn record(programs: Vec<RankProgram>) -> TraceStore {
    let mut engine = Engine::launch(
        EngineConfig::with_recorder(RecorderConfig::full()),
        programs,
    );
    assert!(engine.run().is_completed());
    engine.trace_store()
}

fn stencil(n: usize) -> Vec<RankProgram> {
    let p = (n as f64).sqrt() as usize;
    wide::stencil_factory(StencilConfig { p, steps: 4 })()
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "debug builds re-scan every rank each turn to check the ready set"
)]
fn a_record_costs_the_same_at_1024_ranks_as_at_64() {
    const WIDTHS: [usize; 3] = [64, 256, 1024];
    let row = |name: &str, programs: &dyn Fn(usize) -> Vec<RankProgram>| {
        let cells = interleaved_best(&WIDTHS, |&n| ns_per_record(programs(n)));
        eprintln!(
            "{name:<10} ns/record at 64/256/1024 ranks: {:.0} / {:.0} / {:.0}",
            cells[0], cells[1], cells[2]
        );
        cells
    };
    row("ring", &|n| ring::programs(&wide::wide_ring_config(n, 1)));
    row("butterfly", &|n| {
        wide::butterfly_factory(ButterflyConfig { nprocs: n })()
    });
    let [narrow, _, wide] = row("stencil", &stencil);
    assert!(
        wide <= 3.0 * narrow,
        "a stencil record costs {wide:.0} ns at 1024 ranks against {narrow:.0} ns at 64"
    );
}

/// A launch costs the ranks it creates: while a session's engine kept
/// live metrics with ranks × ranks channel matrices (one in the engine,
/// one for retired incarnations) a 4096-rank launch cost about 30× a
/// 1024-rank one on a 2-CPU VM.
#[test]
#[cfg_attr(debug_assertions, ignore = "timing gate: release builds only")]
fn a_session_launch_grows_with_the_ranks_not_their_square() {
    let cells = interleaved_best(&[1024, 4096], |&n| {
        timed(|| Session::launch(SessionConfig::default(), Box::new(move || stencil(n))))
    });
    eprintln!(
        "launch     us at 1024/4096 ranks: {:.0} / {:.0}",
        cells[0] / 1e3,
        cells[1] / 1e3
    );
    let [narrow, wide] = cells;
    assert!(
        wide <= 6.0 * narrow,
        "a session launch costs {wide:.0} ns at 4096 ranks against {narrow:.0} ns at 1024"
    );
}

/// The median over `pairs` pairs of `sample(true) / sample(false)`, the
/// pairs taken in ABBA order (false then true, then true then false, …),
/// so neither cell is always the one sampled right after the other.
fn paired_median_ratio(pairs: usize, mut sample: impl FnMut(bool) -> f64) -> f64 {
    let mut ratios: Vec<f64> = (0..pairs)
        .map(|i| {
            let first = i % 2 == 1;
            let a = sample(first);
            let b = sample(!first);
            let (off, on) = if first { (b, a) } else { (a, b) };
            on / off
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    let mid = pairs / 2;
    if pairs % 2 == 1 {
        ratios[mid]
    } else {
        (ratios[mid - 1] + ratios[mid]) / 2.0
    }
}

/// Metering a run costs per event: its metrics are derived after it from
/// its trace and decision log in one pass over each, and a run that uses 4
/// channels per rank does not pay for all ranks² of them (1.3–1.4× an
/// unmetered run at 1024 ranks while it did, on a 2-CPU VM).
///
/// The bound is on the median of paired ratios: the best-of-five of each
/// cell, the metered one always sampled right after the unmetered one,
/// read over 1.15 about one run in ten on a 2-CPU VM whose median ratio
/// was 1.08.
#[test]
#[cfg_attr(debug_assertions, ignore = "timing gate: release builds only")]
fn a_metered_run_costs_at_most_15_percent_more_at_1024_ranks() {
    // A sample is four runs back to back: a longer sample averages out
    // short bursts of a shared machine.
    let ratio = paired_median_ratio(20, |metrics| {
        timed(|| {
            for _ in 0..4 {
                let mut engine = Engine::launch(
                    EngineConfig::with_recorder(RecorderConfig::full()),
                    stencil(1024),
                );
                assert!(engine.run().is_completed());
                if metrics {
                    std::hint::black_box(engine.take_metrics());
                }
            }
        }) / 4.0
    });
    eprintln!("metrics    on/off at 1024 ranks, median of 20 ABBA pairs: {ratio:.3}");
    assert!(
        ratio <= 1.15,
        "a metered 1024-rank run costs {ratio:.3}× an unmetered one (median of 20 pairs)"
    );
}

/// The history analysis (matching, happens-before index, race and
/// circular-wait detection) of a trace without wildcard receives asks the
/// happens-before relation nothing, so it must cost per record what it
/// costs on a narrow run — the dense events × ranks index made a stencil
/// record ~40× dearer to analyze at 1024 ranks than at 64.
#[test]
#[cfg_attr(debug_assertions, ignore = "timing gate: release builds only")]
fn analyzing_a_record_costs_the_same_at_1024_ranks_as_at_64() {
    let stores = [64, 256, 1024].map(|n| record(stencil(n)));
    let cells = interleaved_best(&stores, |store| {
        timed(|| HistoryReport::analyze(store).races.len()) / store.len() as f64
    });
    eprintln!(
        "analyze    ns/record at 64/256/1024 ranks: {:.0} / {:.0} / {:.0}",
        cells[0], cells[1], cells[2]
    );
    let [narrow, _, wide] = cells;
    assert!(
        wide <= 3.0 * narrow,
        "analyzing a stencil record costs {wide:.0} ns at 1024 ranks against {narrow:.0} ns at 64"
    );
}

/// Race detection is linear in events on the shape that stresses it: one
/// master completing thousands of wildcard receives, every one of them a
/// race among the workers. Rescanning every send (or re-deriving the
/// receive's causal future) per wildcard receive made this quadratic.
#[test]
#[cfg_attr(debug_assertions, ignore = "timing gate: release builds only")]
fn race_detection_is_linear_in_the_wildcard_receives() {
    let pools = [4000, 8000, 16000].map(|tasks| {
        let store = record(master_worker::programs(&PoolConfig {
            nprocs: 8,
            tasks,
            ..PoolConfig::default()
        }));
        let matching = MessageMatching::build(&store);
        (tasks, store, matching)
    });
    let races = |store: &TraceStore, matching: &MessageMatching| {
        let hb = HbIndex::build(store, matching);
        detect_races(store, matching, &hb).len()
    };
    for (tasks, store, matching) in &pools {
        let n = races(store, matching);
        assert!(n >= tasks / 2, "{n} races over {tasks} tasks");
    }
    let cells = interleaved_best(&pools, |(_, store, matching)| {
        timed(|| races(store, matching))
    });
    eprintln!(
        "races      ns/record at 4000/8000/16000 tasks on 8 ranks: {:.0} / {:.0} / {:.0}",
        cells[0] / pools[0].1.len() as f64,
        cells[1] / pools[1].1.len() as f64,
        cells[2] / pools[2].1.len() as f64
    );
    for pair in cells.windows(2) {
        assert!(
            pair[1] <= 2.5 * pair[0],
            "doubling the tasks took race detection from {:.0} to {:.0} ns",
            pair[0],
            pair[1]
        );
    }
}

/// One channel, rank 0 to rank 1, of `m` messages whose receives complete
/// in swapped pairs — the second of each pair first, as a tag-selective
/// receive takes them — so half the messages are intertwined.
fn swapped_channel(m: u64) -> TraceStore {
    let info = |seq: u64| MsgInfo {
        src: Rank(0),
        dst: Rank(1),
        tag: Tag((seq % 2) as i32),
        bytes: 8,
        seq,
    };
    let records = (0..m)
        .flat_map(|i| {
            [
                TraceRecord::basic(0u32, EventKind::Send, i + 1, i).with_msg(info(i)),
                TraceRecord::basic(1u32, EventKind::RecvDone, i + 1, m + i).with_msg(info(i ^ 1)),
            ]
        })
        .collect();
    TraceStore::build(records, SiteTable::new(), 2)
}

/// The intertwined-message report (§4.4) enumerates each channel's
/// inversions; testing every pair of a channel's messages made doubling
/// the channel cost 4x.
#[test]
#[cfg_attr(debug_assertions, ignore = "timing gate: release builds only")]
fn intertwined_messages_are_found_in_time_linear_in_the_channel() {
    let channels = [8000, 16000].map(|m| {
        let store = swapped_channel(m);
        let matching = MessageMatching::build(&store);
        assert_eq!(find_intertwined(&store, &matching).len() as u64, m / 2);
        (store, matching)
    });
    let cells = interleaved_best(&channels, |(store, matching)| {
        timed(|| find_intertwined(store, matching).len())
    });
    eprintln!(
        "intertwined us on one channel of 8000/16000 messages: {:.0} / {:.0}",
        cells[0] / 1e3,
        cells[1] / 1e3
    );
    assert!(
        cells[1] <= 2.5 * cells[0],
        "doubling the channel took the intertwined report from {:.0} to {:.0} ns",
        cells[0],
        cells[1]
    );
}

/// A checkpointing session over `programs` that has recorded one run, and
/// that run's trace.
fn recorded_session(
    recorder: RecorderConfig,
    programs: impl Fn() -> Vec<RankProgram> + Send + Sync + 'static,
) -> (Session, TraceStore) {
    let mut s = Session::launch(
        SessionConfig {
            recorder,
            ..SessionConfig::default()
        },
        Box::new(programs),
    );
    assert!(s.run().is_completed());
    let trace = s.trace();
    (s, trace)
}

/// The vertical stopline at `num/den` of the recorded makespan.
fn cut(trace: &TraceStore, num: u64, den: u64) -> Stopline {
    Stopline::vertical(trace, trace.time_bounds().1 * num / den)
}

/// A `step` moves one rank, so with checkpoints that share the ranks and
/// history that did not move, stepping (its checkpoint deposit included)
/// must not cost more at 1024 ranks than at 64 — it cost ~30× more while a
/// checkpoint deep-copied every rank and the whole history.
#[test]
#[cfg_attr(debug_assertions, ignore = "timing gate: release builds only")]
fn a_step_costs_the_same_at_1024_ranks_as_at_64() {
    let sessions = [64, 256, 1024].map(|n| {
        let (mut session, trace) = recorded_session(RecorderConfig::default(), move || stencil(n));
        assert!(session.replay_to(&cut(&trace, 1, 2)).is_stopped());
        RefCell::new((session, 0u32))
    });
    // Each sample steps the next of the first eight ranks.
    let cells = interleaved_best(&sessions, |cell| {
        let (session, next) = &mut *cell.borrow_mut();
        *next += 1;
        timed(|| session.step(Rank(*next % 8)).is_stopped())
    });
    eprintln!(
        "step       us at 64/256/1024 ranks: {:.1} / {:.1} / {:.1}",
        cells[0] / 1e3,
        cells[1] / 1e3,
        cells[2] / 1e3
    );
    let [narrow, _, wide] = cells;
    assert!(
        wide <= 3.0 * narrow,
        "a step costs {wide:.0} ns at 1024 ranks against {narrow:.0} ns at 64"
    );
}

/// Ablation 2 (EXPERIMENTS.md): an `undo` that restores the checkpoint of
/// the stop it returns to costs the same after 65k recorded events as
/// after 1k — a restore copies a pointer per block of ranks and per log,
/// not the history (after 65k events it was 60–70× dearer while a
/// checkpoint copied the history).
#[test]
#[cfg_attr(debug_assertions, ignore = "timing gate: release builds only")]
fn an_undo_by_restore_costs_the_same_at_65k_events_as_at_1k() {
    let sessions = [64usize, 4096].map(|rounds| {
        let cfg = RingConfig {
            nprocs: 4,
            rounds,
            hop_cost: 100,
            tag_stride: 0,
        };
        let (mut session, trace) = recorded_session(RecorderConfig::full(), ring::factory(cfg));
        let three_quarters = cut(&trace, 3, 4);
        assert!(session.replay_to(&cut(&trace, 1, 2)).is_stopped());
        assert!(session.replay_to(&three_quarters).is_stopped());
        RefCell::new((session, three_quarters))
    });
    let cells = interleaved_best(&sessions, |cell| {
        let (session, three_quarters) = &mut *cell.borrow_mut();
        // Twenty round trips: to the 3/4 stop, then `undo` back to the 1/2
        // one, each a cache hit.
        (0..20)
            .map(|_| {
                assert!(session.replay_to(three_quarters).is_stopped());
                timed(|| assert!(session.undo()))
            })
            .sum()
    });
    eprintln!(
        "undo       us at 1k/65k events: {:.1} / {:.1}",
        cells[0] / 20e3,
        cells[1] / 20e3
    );
    let [short, long] = cells;
    assert!(
        long <= 1.2 * short,
        "an undo costs {long:.0} ns after 65k events against {short:.0} ns after 1k"
    );
}
