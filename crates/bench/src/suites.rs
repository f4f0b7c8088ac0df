//! The `tracedbg bench` suites — the hot paths the BENCH_*.json perf
//! trajectory tracks.
//!
//! * `parse` — trace file parse (text + binary) and digesting;
//! * `causality` — message matching, happens-before index construction
//!   (narrow ring and 400-rank stencil) and wildcard race detection;
//! * `replay` — golden-trace replay: match-log pinning, scripted-schedule
//!   re-execution, and replay-to-marker (the §6 O(history) observation);
//! * `engine` — turn-taking engine throughput under the §2
//!   instrumentation strategies, and with metrics off vs on (a 4-rank
//!   ring and a 4096-rank stencil);
//! * `checkpoint` — snapshot/restore plane: checkpoint capture, engine
//!   restoration, restored-run determinism, the same at a mid-run stop of
//!   the 400-rank stencil and the 80k-event random pattern (plus a
//!   debugger `step` there), and query site pre-resolution;
//! * `explore` — explorer schedule-search throughput at `jobs = 1` vs
//!   `jobs = N` (the parallel-speedup comparison), and a 4000-run search
//!   of a 16-rank workload at both (the frontier-and-window-cost rows);
//! * `explore_dpor` — exhaustive systematic search with static
//!   independence facts off vs on (the sleep-set DPOR payoff), at
//!   `jobs = 1` and `jobs = 4`; the static analysis that computes the
//!   facts, and `lint_script` on top of it, at width;
//! * `store` — the on-disk indexed trace store: ingest throughput (and
//!   its push / finish halves at 80k events), cold-open latency, each
//!   indexed query on a warm handle and on a fresh one (what a CLI child
//!   pays) against the parse-and-scan baselines, reading everything
//!   through the store against reading the `.tbin`, and the checksum;
//! * `localize` — differential fault localization: the full
//!   replay-harvest-rank pipeline at `jobs = 1` vs `jobs = N`, plus the
//!   event-graph differ in isolation;
//! * `profile` — critical-path profiling: wait-state classification,
//!   critical-path extraction, the sealed end-to-end `ProfileReport`
//!   build, and the Perfetto trace-event export.
//!
//! Every suite runs a fixed iteration plan (see [`crate::measure`]), so
//! numbers are comparable between invocations and across commits.

use crate::measure::{measure, measure_after, BenchRecord, Plan};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use tracedbg_debugger::{HistoryReport, Session, SessionConfig, Stopline};
use tracedbg_explore::{ExploreConfig, Explorer, Strategy};
use tracedbg_instrument::RecorderConfig;
use tracedbg_localize::{diff_channels, diff_ranks, localize, LocalizeConfig, VERDICT_LOCALIZED};
use tracedbg_mpsim::{Engine, EngineConfig, SchedPolicy};
use tracedbg_profile::{perfetto_json, CriticalPath, ProfileInput, ProfileReport, WaitAnalysis};
use tracedbg_store::{ingest_records, DiskStore, SharedWriter, StoreOptions, StoreWriter};
use tracedbg_trace::file::{read_binary, read_text, write_binary, write_text, TraceFile};
use tracedbg_trace::schedule::{Decision, ScheduleArtifact};
use tracedbg_trace::{
    materialize, trace_digest, EventQuery, MarkerVector, Rank, Tag, TraceSink, TraceSource,
    TraceStore,
};
use tracedbg_tracegraph::MessageMatching;
use tracedbg_workloads::fib;
use tracedbg_workloads::master_worker::{self, PoolConfig};
use tracedbg_workloads::planted::{planted_wildcard_factory, PlantedConfig};
use tracedbg_workloads::racy::{wildcard_race_factory, RacyConfig};
use tracedbg_workloads::random_comm;
use tracedbg_workloads::ring::{self, RingConfig};
use tracedbg_workloads::wide;

/// What to run and how hard.
#[derive(Clone, Debug, Default)]
pub struct SuiteOptions {
    /// Scaled-down plans (used by the verify smoke stage).
    pub quick: bool,
    /// Substring filter against `suite` or `suite/benchmark` names.
    pub filter: Option<String>,
    /// Worker threads for the parallel-explorer comparison point
    /// (`0` = available parallelism).
    pub jobs: usize,
}

/// One suite's results, ready for `BENCH_<name>.json`.
pub struct Suite {
    pub name: &'static str,
    pub records: Vec<BenchRecord>,
}

fn plan(opts: &SuiteOptions, warmup: u64, samples: usize, iters: u64) -> Plan {
    let p = Plan::new(warmup, samples, iters);
    if opts.quick {
        p.quick()
    } else {
        p
    }
}

fn wants(opts: &SuiteOptions, suite: &str, bench: &str) -> bool {
    match &opts.filter {
        None => true,
        Some(f) => suite.contains(f.as_str()) || format!("{suite}/{bench}").contains(f.as_str()),
    }
}

fn resolved_jobs(opts: &SuiteOptions) -> usize {
    match opts.jobs {
        0 => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        n => n,
    }
}

/// A recorded ring run: the parse/causality corpus.
fn ring_store(rounds: usize) -> TraceStore {
    recorded(ring::programs(&RingConfig {
        nprocs: 4,
        rounds,
        hop_cost: 100,
        tag_stride: 0,
    }))
}

/// The full trace of one completed run.
fn recorded(programs: Vec<tracedbg_mpsim::RankProgram>) -> TraceStore {
    let mut e = Engine::launch(
        EngineConfig::with_recorder(RecorderConfig::full()),
        programs,
    );
    assert!(e.run().is_completed());
    e.trace_store()
}

/// Trace parse + digest hot paths.
fn suite_parse(opts: &SuiteOptions) -> Suite {
    let mut records = Vec::new();
    let store = ring_store(64);
    let file = TraceFile::new(
        store.records().to_vec(),
        store.sites().clone(),
        store.n_ranks(),
    );
    let mut text = Vec::new();
    write_text(&mut text, &file).expect("in-memory write");
    let mut binary = Vec::new();
    write_binary(&mut binary, &file).expect("in-memory write");
    let p = plan(opts, 8, 9, 24);
    if wants(opts, "parse", "read_text") {
        records.push(measure("read_text", 1, p, || {
            let tf = read_text(text.as_slice()).expect("parse");
            assert_eq!(tf.records.len(), store.records().len());
        }));
    }
    if wants(opts, "parse", "read_binary") {
        records.push(measure("read_binary", 1, p, || {
            let tf = read_binary(binary.as_slice()).expect("parse");
            assert_eq!(tf.records.len(), store.records().len());
        }));
    }
    if wants(opts, "parse", "write_text") {
        records.push(measure("write_text", 1, p, || {
            let mut out = Vec::with_capacity(text.len());
            write_text(&mut out, &file).expect("write");
            assert!(!out.is_empty());
        }));
    }
    if wants(opts, "parse", "write_binary") {
        records.push(measure("write_binary", 1, p, || {
            let mut out = Vec::with_capacity(binary.len());
            write_binary(&mut out, &file).expect("write");
            assert!(!out.is_empty());
        }));
    }
    if wants(opts, "parse", "trace_digest") {
        records.push(measure("trace_digest", 1, p, || {
            assert_ne!(trace_digest(store.records()), 0);
        }));
    }
    Suite {
        name: "parse",
        records,
    }
}

/// Message matching + happens-before (vector clock) construction.
fn suite_causality(opts: &SuiteOptions) -> Suite {
    let mut records = Vec::new();
    let store = ring_store(64);
    let matching = MessageMatching::build(&store);
    let p = plan(opts, 8, 9, 24);
    if wants(opts, "causality", "message_matching") {
        records.push(measure("message_matching", 1, p, || {
            let mm = MessageMatching::build(&store);
            assert!(mm.is_clean());
        }));
    }
    if wants(opts, "causality", "hb_index") {
        records.push(measure("hb_index", 1, p, || {
            let hb = tracedbg_causality::HbIndex::build(&store, &matching);
            assert_eq!(hb.n_ranks(), store.n_ranks());
        }));
    }
    // What every `run`/`analyze`/`lint` of a wide trace pays for the
    // index: the 20x20 stencil of the `wide_stencil` benchmark workload
    // (~20k events, no wildcard receive, so nothing ever queries it).
    if wants(opts, "causality", "hb_index_stencil_400") {
        let store = recorded(wide::stencil_programs(&wide::StencilConfig {
            p: 20,
            steps: 4,
        }));
        let matching = MessageMatching::build(&store);
        records.push(measure(
            "hb_index_stencil_400",
            1,
            plan(opts, 2, 7, 4),
            || {
                let hb = tracedbg_causality::HbIndex::build(&store, &matching);
                assert_eq!(hb.n_ranks(), 400);
            },
        ));
    }
    // Index + race detection where every receive of one rank is a
    // wildcard race: 2000 tasks farmed out to 7 workers (~16k events).
    if wants(opts, "causality", "races_master_worker") {
        let store = recorded(master_worker::programs(&PoolConfig {
            nprocs: 8,
            tasks: 2000,
            ..PoolConfig::default()
        }));
        let matching = MessageMatching::build(&store);
        records.push(measure(
            "races_master_worker",
            1,
            plan(opts, 2, 7, 4),
            || {
                let hb = tracedbg_causality::HbIndex::build(&store, &matching);
                let races = tracedbg_causality::detect_races(&store, &matching, &hb);
                assert!(races.len() >= 1000);
            },
        ));
    }
    // What every `tracedbg run` pays after the engine stops, on the
    // `deep_random` benchmark shape (`random:16000 --procs 8 --seed 3`,
    // 80,016 records): the hand-over of the collected log into a store,
    // the matching, and the whole §4.4 history report.
    let random16000 = ["trace_handover", "message_matching", "history_report"]
        .iter()
        .any(|row| wants(opts, "causality", &format!("{row}_random16000")));
    if random16000 {
        let mut engine = Engine::launch(
            EngineConfig::with_recorder(RecorderConfig::full()),
            random_comm::programs(&random_comm::generate(3, 8, 16_000), 3),
        );
        assert!(engine.run().is_completed());
        let store = engine.trace_store();
        let p = plan(opts, 2, 9, 4);
        if wants(opts, "causality", "trace_handover_random16000") {
            records.push(measure("trace_handover_random16000", 1, p, || {
                assert_eq!(engine.trace_store().len(), 80_016);
            }));
        }
        if wants(opts, "causality", "message_matching_random16000") {
            records.push(measure("message_matching_random16000", 1, p, || {
                assert!(MessageMatching::build(&store).is_clean());
            }));
        }
        if wants(opts, "causality", "history_report_random16000") {
            records.push(measure("history_report_random16000", 1, p, || {
                assert!(HistoryReport::analyze(&store).is_clean());
            }));
        }
    }
    Suite {
        name: "causality",
        records,
    }
}

/// Golden-trace replay costs.
fn suite_replay(opts: &SuiteOptions) -> Suite {
    let mut records = Vec::new();
    let cfg = RingConfig {
        nprocs: 4,
        rounds: 64,
        hop_cost: 100,
        tag_stride: 0,
    };
    // Record once: markers, match log, and the full decision schedule.
    let mut rec = Engine::launch(
        EngineConfig::with_recorder(RecorderConfig::markers_only()),
        ring::programs(&cfg),
    );
    assert!(rec.run().is_completed());
    let target = rec.markers();
    let log = Arc::new(rec.match_log());
    let script = rec.schedule_log();
    let p = plan(opts, 2, 7, 4);
    if wants(opts, "replay", "matchlog_replay") {
        records.push(measure("matchlog_replay", 1, p, || {
            let mut e = Engine::launch(
                EngineConfig::with_recorder(RecorderConfig::markers_only()),
                ring::programs(&cfg),
            );
            e.set_replay(Arc::clone(&log));
            assert!(e.run().is_completed());
        }));
    }
    if wants(opts, "replay", "scripted_replay") {
        records.push(measure("scripted_replay", 1, p, || {
            let mut e = Engine::launch(
                EngineConfig {
                    recorder: RecorderConfig::markers_only(),
                    policy: SchedPolicy::Scripted(script.clone()),
                    ..Default::default()
                },
                ring::programs(&cfg),
            );
            assert!(e.run().is_completed());
            assert!(!e.schedule_diverged());
        }));
    }
    if wants(opts, "replay", "replay_to_marker") {
        records.push(measure("replay_to_marker", 1, p, || {
            let mut e = Engine::launch(
                EngineConfig::with_recorder(RecorderConfig::markers_only()),
                ring::programs(&cfg),
            );
            e.set_replay(Arc::clone(&log));
            // Stop halfway through each rank's history (§6: replay cost
            // grows with history depth).
            for m in target.iter() {
                e.set_threshold(m.rank, Some((m.count / 2).max(1)));
            }
            assert!(e.run().is_stopped());
        }));
    }
    if wants(opts, "replay", "replay_to_marker_ckpt") {
        // Same half-way stop as `replay_to_marker`, but starting from a
        // checkpoint taken 3/8 of the way in: only the 3/8→1/2 delta is
        // re-executed (the O(delta) undo/stopline path).
        let mut src = Engine::launch(
            EngineConfig::with_recorder(RecorderConfig::markers_only()),
            ring::programs(&cfg),
        );
        src.set_replay(Arc::clone(&log));
        for m in target.iter() {
            src.set_threshold(m.rank, Some((m.count * 3 / 8).max(1)));
        }
        assert!(src.run().is_stopped());
        let cp = src.snapshot();
        records.push(measure("replay_to_marker_ckpt", 1, p, || {
            let mut e = Engine::restore(&cp, Vec::new());
            e.clear_thresholds();
            for m in target.iter() {
                e.set_threshold(m.rank, Some((m.count / 2).max(1)));
            }
            e.resume_trapped();
            assert!(e.run().is_stopped());
        }));
    }
    // Debugger-level undo: bounce between two stoplines and undo, with the
    // checkpoints off (`undo_scratch`: every hop replays from scratch)
    // vs on (`undo_ckpt`: every hop restores a dominated checkpoint).
    let half = Stopline {
        markers: MarkerVector::from_counts(
            target.counts().iter().map(|c| (c / 2).max(1)).collect(),
        ),
        origin: "bench".into(),
    };
    let quarter = Stopline {
        markers: MarkerVector::from_counts(
            target.counts().iter().map(|c| (c / 4).max(1)).collect(),
        ),
        origin: "bench".into(),
    };
    for (name, every) in [("undo_scratch", 0usize), ("undo_ckpt", 1usize)] {
        if !wants(opts, "replay", name) {
            continue;
        }
        let mut s = Session::launch(
            SessionConfig {
                recorder: RecorderConfig::markers_only(),
                checkpoint_every: every,
                ..Default::default()
            },
            Box::new(move || ring::programs(&cfg)),
        );
        assert!(s.run().is_completed());
        records.push(measure(name, 1, p, || {
            assert!(s.replay_to(&quarter).is_stopped());
            assert!(s.replay_to(&half).is_stopped());
            assert!(s.undo(), "a prior stop must exist to undo to");
        }));
    }
    Suite {
        name: "replay",
        records,
    }
}

/// Engine throughput under the instrumentation strategies of §2.
fn suite_engine(opts: &SuiteOptions) -> Suite {
    let mut records = Vec::new();
    let p = plan(opts, 2, 7, 4);
    for (name, rcfg, metrics) in [
        ("ring_instr_off", RecorderConfig::off(), false),
        ("ring_instr_full", RecorderConfig::full(), false),
        // The obs pair: same workload and recorder, the run's metrics
        // derived after it or not. DESIGN.md §10 quotes the delta; the
        // contract is <5% on medians.
        ("ring_metrics_off", RecorderConfig::full(), false),
        ("ring_metrics_on", RecorderConfig::full(), true),
    ] {
        if !wants(opts, "engine", name) {
            continue;
        }
        let cfg = RingConfig {
            nprocs: 4,
            rounds: 100,
            hop_cost: 0,
            tag_stride: 0,
        };
        records.push(measure(name, 1, p, || {
            let mut e = Engine::launch(
                EngineConfig::with_recorder(rcfg.clone()),
                ring::programs(&cfg),
            );
            assert!(e.run().is_completed());
            if metrics {
                std::hint::black_box(e.take_metrics());
            }
        }));
    }
    // What the interpreter and the engine cost with no recording at all,
    // and the Table 1 pair (`repro_table1` times the same two runs).
    let wp = plan(opts, 1, 5, 1);
    if wants(opts, "engine", "interp_random16000_8_off") {
        let pat = random_comm::generate(7, 8, 16_000);
        records.push(measure("interp_random16000_8_off", 1, wp, || {
            let cfg = EngineConfig::with_recorder(RecorderConfig::off());
            let mut e = Engine::launch(cfg, random_comm::programs(&pat, 7));
            assert!(e.run().is_completed());
        }));
    }
    for (name, rcfg) in [
        ("fib27_off", RecorderConfig::off()),
        ("fib27_markers", RecorderConfig::markers_only()),
    ] {
        if !wants(opts, "engine", name) {
            continue;
        }
        records.push(measure(name, 1, wp, || {
            let cfg = EngineConfig::with_recorder(rcfg.clone());
            let mut e = Engine::launch(cfg, vec![fib::program(27)]);
            assert!(e.run().is_completed());
        }));
    }
    // The wide set: thousand-rank workloads that only fit because ranks
    // are resumable tasks, not OS threads. One pass each per iteration.
    if wants(opts, "engine", "wide_ring_1024") {
        let cfg = wide::wide_ring_config(1024, 1);
        records.push(measure("wide_ring_1024", 1, wp, || {
            let mut e = Engine::launch(
                EngineConfig {
                    recorder: RecorderConfig::markers_only(),
                    ..Default::default()
                },
                ring::programs(&cfg),
            );
            assert!(e.run().is_completed());
        }));
    }
    if wants(opts, "engine", "wide_stencil_32x32") {
        let cfg = wide::StencilConfig { p: 32, steps: 1 };
        records.push(measure("wide_stencil_32x32", 1, wp, || {
            let mut e = Engine::launch(
                EngineConfig {
                    recorder: RecorderConfig::markers_only(),
                    ..Default::default()
                },
                wide::stencil_programs(&cfg),
            );
            assert!(e.run().is_completed());
        }));
    }
    if wants(opts, "engine", "wide_butterfly_1024") {
        let cfg = wide::ButterflyConfig { nprocs: 1024 };
        records.push(measure("wide_butterfly_1024", 1, wp, || {
            let mut e = Engine::launch(
                EngineConfig {
                    recorder: RecorderConfig::markers_only(),
                    ..Default::default()
                },
                wide::butterfly_programs(&cfg),
            );
            assert!(e.run().is_completed());
        }));
    }
    // The obs pair at width: a 4096-rank stencil uses 4 channels per rank,
    // so deriving its metrics must cost per event, not per ranks²
    // (DESIGN.md §10); at
    // 16384 ranks a run costs ~4x the 4096-rank one only while a decision
    // point stores what changed in the ready set, not the set.
    for (name, p, metrics) in [
        ("stencil4096_metrics_off", 64, false),
        ("stencil4096_metrics_on", 64, true),
        ("stencil16384_metrics_off", 128, false),
        ("stencil16384_metrics_on", 128, true),
    ] {
        if !wants(opts, "engine", name) {
            continue;
        }
        let cfg = wide::StencilConfig { p, steps: 1 };
        records.push(measure(name, 1, wp, || {
            let mut e = Engine::launch(
                EngineConfig::with_recorder(RecorderConfig::full()),
                wide::stencil_programs(&cfg),
            );
            assert!(e.run().is_completed());
            if metrics {
                std::hint::black_box(e.take_metrics());
            }
        }));
    }
    Suite {
        name: "engine",
        records,
    }
}

/// Snapshot/restore plane costs: taking a checkpoint, rebuilding a live
/// engine from one, and running a restored engine to completion (with the
/// byte-identical-digest assertion that pins the determinism contract).
fn suite_checkpoint(opts: &SuiteOptions) -> Suite {
    let mut records = Vec::new();
    let cfg = RingConfig {
        nprocs: 4,
        rounds: 64,
        hop_cost: 100,
        tag_stride: 0,
    };
    let launch = || {
        Engine::launch(
            EngineConfig {
                recorder: RecorderConfig::markers_only(),
                ..Default::default()
            },
            ring::programs(&cfg),
        )
    };
    // Final markers, from a straight run.
    let mut straight = launch();
    assert!(straight.run().is_completed());
    let target = straight.markers();
    // A half-way stop to snapshot.
    let mut stopped = launch();
    for m in target.iter() {
        stopped.set_threshold(m.rank, Some((m.count / 2).max(1)));
    }
    assert!(stopped.run().is_stopped());
    let cp = stopped.snapshot();
    let p = plan(opts, 2, 7, 4);
    if wants(opts, "checkpoint", "snapshot") {
        records.push(measure("snapshot", 1, p, || {
            let c = stopped.snapshot();
            assert_eq!(c.n_ranks(), 4);
        }));
    }
    // The byte-identity ground truth: the stopped engine itself continued
    // to completion. (Stopping perturbs turn order relative to a
    // never-stopped run, so the contract is restored == continued, not
    // restored == never-stopped.)
    stopped.clear_thresholds();
    stopped.resume_trapped();
    assert!(stopped.run().is_completed());
    let want_digest = stopped.digest();
    if wants(opts, "checkpoint", "restore") {
        records.push(measure("restore", 1, p, || {
            let e = Engine::restore(&cp, Vec::new());
            assert_eq!(e.markers(), cp.markers());
        }));
    }
    if wants(opts, "checkpoint", "restore_continue") {
        records.push(measure("restore_continue", 1, p, || {
            let mut e = Engine::restore(&cp, Vec::new());
            e.clear_thresholds();
            e.resume_trapped();
            assert!(e.run().is_completed());
            assert_eq!(
                e.digest(),
                want_digest,
                "restored run must be byte-identical"
            );
        }));
    }
    // The benchmark's wide and deep debuggees stopped half-way through
    // every rank's history: what saving a debugger stop, returning to one
    // and stepping from one cost at width and at depth.
    let stopped_mid = |programs: &dyn Fn() -> Vec<tracedbg_mpsim::RankProgram>| {
        let mut straight = Engine::launch(EngineConfig::default(), programs());
        assert!(straight.run().is_completed());
        let mut e = Engine::launch(EngineConfig::default(), programs());
        for m in straight.markers().iter() {
            e.set_threshold(m.rank, Some((m.count / 2).max(1)));
        }
        assert!(e.run().is_stopped());
        e
    };
    let stencil400 = || wide::stencil_programs(&wide::StencilConfig { p: 20, steps: 4 });
    if wants(opts, "checkpoint", "snapshot_stencil400_mid")
        || wants(opts, "checkpoint", "restore_stencil400_mid")
    {
        let mut e = stopped_mid(&stencil400);
        records.push(measure("snapshot_stencil400_mid", 1, p, || {
            assert_eq!(e.snapshot().n_ranks(), 400);
        }));
        let cp = e.snapshot();
        records.push(measure("restore_stencil400_mid", 1, p, || {
            assert_eq!(Engine::restore(&cp, Vec::new()).n_ranks(), 400);
        }));
    }
    if wants(opts, "checkpoint", "step_stencil400") {
        // `step r` of a session at a mid-run stopline, checkpoint deposit
        // included, cycling through the first eight ranks.
        let mut s = Session::launch(SessionConfig::default(), Box::new(stencil400));
        assert!(s.run().is_completed());
        let trace = s.trace();
        let half = Stopline::vertical(&trace, trace.time_bounds().1 / 2);
        assert!(s.replay_to(&half).is_stopped());
        let mut next = 0;
        records.push(measure("step_stencil400", 1, p, || {
            next += 1;
            assert!(s.step(Rank(next % 8)).is_stopped());
        }));
    }
    if wants(opts, "checkpoint", "snapshot_random16000_mid") {
        let pat = random_comm::generate(3, 8, 16_000);
        let mut e = stopped_mid(&|| random_comm::programs(&pat, 3));
        records.push(measure("snapshot_random16000_mid", 1, p, || {
            assert_eq!(e.snapshot().n_ranks(), 8);
        }));
    }
    if wants(opts, "checkpoint", "query_by_function") {
        // Query with pre-resolved function→site binding vs what a naive
        // per-record resolve would report — counts must agree.
        let store = ring_store(64);
        let naive = store
            .records()
            .iter()
            .filter(|r| store.sites().func_name(r.site) == "ring")
            .count();
        assert!(naive > 0, "the ring workload events live in fn ring");
        let q = EventQuery::new().in_function("ring");
        assert_eq!(q.count(&store), naive);
        let p = plan(opts, 8, 9, 24);
        records.push(measure("query_by_function", 1, p, || {
            assert_eq!(q.count(&store), naive);
        }));
    }
    Suite {
        name: "checkpoint",
        records,
    }
}

/// Explorer schedule-search throughput: the jobs=1 vs jobs=N comparison
/// that motivates the parallel worker pool.
fn suite_explore(opts: &SuiteOptions) -> Suite {
    let mut records = Vec::new();
    let runs = if opts.quick { 16 } else { 48 };
    // One search takes under a millisecond: 50 samples cost little and
    // resolve the 10-20 % moves these rows are compared on.
    let p = if opts.quick {
        Plan::new(1, 3, 1)
    } else {
        Plan::new(1, 50, 1)
    };
    let n_jobs = resolved_jobs(opts).max(2);
    for (name, jobs) in [("explore_jobs1", 1usize), ("explore_jobsN", n_jobs)] {
        if !wants(opts, "explore", name) {
            continue;
        }
        records.push(measure(name, jobs, p, || {
            let cfg = ExploreConfig {
                workload: "racy-wildcard".to_string(),
                seed: 7,
                runs,
                preemptions: 2,
                strategy: Strategy::Both,
                jobs,
                ..Default::default()
            };
            let source: tracedbg_explore::ProgramSource =
                Box::new(wildcard_race_factory(RacyConfig::default()));
            let report = Explorer::new(cfg, source).explore();
            assert!(
                report.findings.iter().any(|f| f.class == "panic"),
                "the seeded race must be found on every measured run"
            );
        }));
    }
    // The two rows above are millisecond searches that never grow a
    // frontier; these are the `hunt_planted` shape — 16 ranks, ≈ 54
    // untaken alternatives per absorbed run, a frontier far wider than an
    // execution window — where frontier and window costs show: at
    // `jobs = 1` one task per window, at `jobs = N` windows of 256.
    for (name, jobs) in [
        ("explore_planted16_4000_jobs1", 1usize),
        ("explore_planted16_4000_jobsN", n_jobs),
    ] {
        if !wants(opts, "explore", name) {
            continue;
        }
        let runs = if opts.quick { 400 } else { 4000 };
        records.push(measure(name, jobs, plan(opts, 1, 5, 1), || {
            let planted = PlantedConfig {
                nprocs: 16,
                ..Default::default()
            };
            let cfg = ExploreConfig {
                workload: "planted-wildcard".to_string(),
                seed: 7,
                runs,
                jobs,
                ..Default::default()
            };
            let source: tracedbg_explore::ProgramSource =
                Box::new(planted_wildcard_factory(planted));
            let report = Explorer::new(cfg, source).explore();
            assert_eq!(report.runs_executed, runs);
            assert!(report.findings.iter().any(|f| f.class == "panic"));
        }));
    }
    // One run, interpreted against native: the same 8-rank wildcard race
    // under round robin makes the same 29 decisions either way, so the
    // ratio of the two rows is what interpreting the script costs a
    // re-execution (verify.sh gates it).
    let racy = tracedbg_workloads::scripts::builtin("racy-wildcard").expect("built-in script");
    let (racy_script, racy_file) = (racy.parse(), racy.file());
    // The `hunt_script` search, `explore sdl:racy-wildcard --procs 8
    // --runs 6000 --jobs 1 --dpor`, in ns per run: what one interpreted
    // re-execution costs the explorer, digest pruning and oracles
    // included (most of these runs are pruned).
    let name = "explore_sdl_racy_wildcard_6000_jobs1";
    if wants(opts, "explore", name) {
        let runs = if opts.quick { 600 } else { 6000 };
        let facts = tracedbg_analysis::analyze(&racy_script, 8, &racy_file).independence;
        let record = measure(name, 1, plan(opts, 1, 5, 1), || {
            let (script, file) = (racy_script.clone(), racy_file.clone());
            let cfg = ExploreConfig {
                workload: "sdl:racy-wildcard".to_string(),
                seed: 7,
                runs,
                jobs: 1,
                independence: Some(facts.clone()),
                ..Default::default()
            };
            let source: tracedbg_explore::ProgramSource =
                Box::new(move || tracedbg_workloads::script::programs(&script, 8, &file));
            let report = Explorer::new(cfg, source).explore();
            assert_eq!(report.runs_executed, runs);
            assert!(report.findings.iter().any(|f| f.class == "panic"));
        });
        records.push(record.per(runs as u64));
    }
    let native = wildcard_race_factory(RacyConfig {
        nprocs: 8,
        ..Default::default()
    });
    let mut run_row = |name, programs: &dyn Fn() -> Vec<tracedbg_mpsim::RankProgram>| {
        if !wants(opts, "explore", name) {
            return;
        }
        records.push(measure(name, 1, plan(opts, 50, 9, 400), || {
            let mut e = Engine::launch(
                EngineConfig::with_recorder(RecorderConfig::off()),
                programs(),
            );
            assert!(e.run().is_completed());
            assert_eq!(e.decision_points().len(), 29);
        }));
    };
    run_row("run_sdl_racy_wildcard_8", &|| {
        tracedbg_workloads::script::programs(&racy_script, 8, &racy_file)
    });
    run_row("run_native_racy_wildcard_8", &native);
    Suite {
        name: "explore",
        records,
    }
}

/// Sleep-set DPOR payoff: exhaustive systematic search over the `pairs`
/// script workload with independence facts off vs on, at jobs 1 and 4.
/// The closures also pin the reduction contract: with facts the search
/// must finish in at most half the runs while agreeing on the (empty)
/// finding set.
fn suite_explore_dpor(opts: &SuiteOptions) -> Suite {
    let mut records = Vec::new();
    let b = tracedbg_workloads::scripts::builtin("pairs").expect("built-in script");
    let nprocs = 4;
    let parsed = b.parse();
    let file = b.file();
    let facts = tracedbg_analysis::analyze(&parsed, nprocs, &file).independence;
    let run = |dpor: bool, jobs: usize| {
        let script = parsed.clone();
        let f = file.clone();
        let source: tracedbg_explore::ProgramSource =
            Box::new(move || tracedbg_workloads::script::programs(&script, nprocs, &f));
        let cfg = ExploreConfig {
            workload: "sdl:pairs".to_string(),
            seed: 42,
            runs: 100_000,
            preemptions: 2,
            strategy: Strategy::Systematic,
            jobs,
            independence: dpor.then(|| facts.clone()),
            ..Default::default()
        };
        Explorer::new(cfg, source).explore()
    };
    // The reduction contract is part of the bench: measure nothing if the
    // full search and the reduced search disagree.
    let full = run(false, 1);
    let reduced = run(true, 1);
    assert!(
        reduced.runs_executed * 2 <= full.runs_executed,
        "sleep sets must cut systematic runs at least 2x: {} vs {}",
        reduced.runs_executed,
        full.runs_executed
    );
    assert_eq!(full.findings.len(), reduced.findings.len());
    let p = if opts.quick {
        Plan::new(1, 3, 1)
    } else {
        Plan::new(1, 5, 1)
    };
    for (name, dpor, jobs) in [
        ("pairs_full_jobs1", false, 1usize),
        ("pairs_sleep_jobs1", true, 1usize),
        ("pairs_full_jobs4", false, 4usize),
        ("pairs_sleep_jobs4", true, 4usize),
    ] {
        if !wants(opts, "explore_dpor", name) {
            continue;
        }
        records.push(measure(name, jobs, p, || {
            let r = run(dpor, jobs);
            assert_eq!(
                r.runs_executed,
                if dpor { &reduced } else { &full }.runs_executed
            );
            assert!(r.findings.is_empty(), "pairs is clean under every schedule");
        }));
    }
    // What the facts cost to compute, and what linting a script costs on
    // top of that: every script rule reads the analysis's one walk, so the
    // lint rows track the analyze row at each width instead of multiplying
    // it (`sdl:ring`: two sites per rank, so the work is linear in ranks).
    let ring = tracedbg_workloads::scripts::builtin("ring").expect("built-in script");
    let (ring_script, ring_file) = (ring.parse(), ring.file());
    let p = plan(opts, 1, 7, 1);
    if wants(opts, "explore_dpor", "static_analyze_ring_2048") {
        records.push(measure("static_analyze_ring_2048", 1, p, || {
            let a = tracedbg_analysis::analyze(&ring_script, 2048, &ring_file);
            assert_eq!(a.graph.sites.len(), 2 * 2048);
        }));
    }
    for (name, nprocs) in [
        ("lint_script_ring_512", 512),
        ("lint_script_ring_2048", 2048),
    ] {
        if !wants(opts, "explore_dpor", name) {
            continue;
        }
        records.push(measure(name, 1, p, || {
            let diags =
                tracedbg_lint::lint_script(&ring_script, nprocs, &ring_file, &Default::default());
            assert!(diags.is_empty(), "the ring lints clean at every width");
        }));
    }
    Suite {
        name: "explore_dpor",
        records,
    }
}

/// The on-disk indexed trace store vs the parse-and-scan baselines.
///
/// Corpus: a 32-rank, 256-round ring with `tag_stride: 64`, so both zone
/// indexes have real selectivity (1/32 of events per rank lane, 1/64 of
/// the traffic per tag), as a store directory and as the `.tbin` of the
/// same run next to it. Three kinds of row per selection:
///
/// * `*_indexed` — the selection on a **warm handle**: an earlier call
///   already loaded the index sections it reads. Segments are never
///   cached (a read streams each one it touches through one buffer), so
///   since the streaming reader these rows cost a cold walk of the
///   segments less the section loads; before it they measured a
///   segment cache that no `tracedbg` child ever had warm.
/// * `*_cold` — a fresh `DiskStore::open` plus the selection inside the
///   timed closure: what a CLI child pays (read, checksum, decode).
/// * `*_scan` / `scan_file` — the path every consumer used before the
///   store: parse the whole binary trace (from memory / from the file on
///   disk) and filter linearly. `scan_file` is the honest baseline of the
///   cold rows.
///
/// Every store row asserts it saw exactly the events the scan sees.
fn suite_store(opts: &SuiteOptions) -> Suite {
    let mut records = Vec::new();
    let cfg = RingConfig {
        nprocs: 32,
        rounds: 256,
        hop_cost: 100,
        tag_stride: 64,
    };
    let store = recorded(ring::programs(&cfg));
    let file = TraceFile::new(
        store.records().to_vec(),
        store.sites().clone(),
        store.n_ranks(),
    );
    let mut binary = Vec::new();
    write_binary(&mut binary, &file).expect("in-memory write");

    // Unique per call, not just per process: two tests in one binary run
    // this suite concurrently and each ingests/deletes its directory.
    static CALL: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "tracedbg-bench-store-{}-{}",
        std::process::id(),
        CALL.fetch_add(1, Ordering::Relaxed)
    ));
    let tbin = dir.with_extension("tbin");
    std::fs::write(&tbin, &binary).expect("bench .tbin write");
    let read_tbin = || {
        let f = std::fs::File::open(&tbin).expect("bench .tbin open");
        read_binary(f).expect("parse")
    };
    let store_opts = StoreOptions {
        segment_events: 8192,
    };
    let summary = ingest_records(
        file.records.as_slice(),
        &file.sites,
        file.n_ranks,
        &dir,
        store_opts,
    )
    .expect("bench store ingest");
    assert!(summary.n_segments > 1, "corpus should span segments");

    if wants(opts, "store", "ingest") {
        let p = plan(opts, 2, 5, 4);
        records.push(measure("ingest", 1, p, || {
            let s = ingest_records(
                file.records.as_slice(),
                &file.sites,
                file.n_ranks,
                &dir,
                store_opts,
            )
            .expect("ingest");
            assert_eq!(s.n_events, file.records.len() as u64);
        }));
        // The timed loop rewrote the directory; rebuild the canonical copy.
        ingest_records(
            file.records.as_slice(),
            &file.sites,
            file.n_ranks,
            &dir,
            store_opts,
        )
        .expect("bench store rebuild");
    }
    if wants(opts, "store", "push_80k") || wants(opts, "store", "finish_80k") {
        // The collecting writer a session hands a detached sink's records
        // to: `accept` copies each record, `finish` writes the collected
        // slice in the one pass `ingest` and `run --store` make (canonical
        // check, frames with their running checksum, index, manifest).
        // Corpus: the benchmark's `deep_random` shape, 80,016 events in
        // the default segment size, in its own directory.
        let big = recorded(random_comm::programs(
            &random_comm::generate(3, 8, 16_000),
            3,
        ));
        let big_dir = dir.with_extension("80k");
        let create = || {
            let w = StoreWriter::create(&big_dir, StoreOptions::default()).expect("create");
            SharedWriter::new(w)
        };
        let push_all = |mut w: SharedWriter| {
            big.records().iter().for_each(|r| w.accept(r));
            w
        };
        let p = plan(opts, 1, 5, 2);
        if wants(opts, "store", "push_80k") {
            records.push(measure_after("push_80k", 1, p, create, |w| {
                push_all(w);
            }));
        }
        if wants(opts, "store", "finish_80k") {
            let pushed = || push_all(create());
            records.push(measure_after("finish_80k", 1, p, pushed, |w| {
                let s = w.finish(big.sites(), big.n_ranks()).expect("finish");
                assert_eq!(s.n_events, big.len() as u64);
            }));
        }
        let _ = std::fs::remove_dir_all(&big_dir);
    }
    if wants(opts, "store", "cold_open") {
        // Manifest + index directory + segment headers only: the lazy
        // reader's promise is that this stays in the sub-millisecond range
        // however large the payload grows.
        let p = plan(opts, 8, 9, 24);
        records.push(measure("cold_open", 1, p, || {
            let d = DiskStore::open(&dir).expect("open");
            assert_eq!(d.n_events(), file.records.len() as u64);
        }));
    }

    let disk = DiskStore::open(&dir).expect("open");
    let open = || DiskStore::open(&dir).expect("open");
    let rank = Rank(7);
    let tag = Tag(20 + 11);
    let p = plan(opts, 4, 9, 8);

    let n_rank = disk.by_rank(rank).expect("cursor").count();
    if wants(opts, "store", "query_rank_indexed") {
        records.push(measure("query_rank_indexed", 1, p, || {
            let n = disk.by_rank(rank).expect("cursor").count();
            assert_eq!(n, n_rank);
        }));
    }
    if wants(opts, "store", "query_rank_cold") {
        records.push(measure("query_rank_cold", 1, p, || {
            let n = open().by_rank(rank).expect("cursor").count();
            assert_eq!(n, n_rank);
        }));
    }
    if wants(opts, "store", "query_rank_scan") {
        records.push(measure("query_rank_scan", 1, p, || {
            let tf = read_binary(binary.as_slice()).expect("parse");
            let n = tf.records.iter().filter(|r| r.rank == rank).count();
            assert_eq!(n, n_rank);
        }));
    }
    if wants(opts, "store", "scan_file") {
        records.push(measure("scan_file", 1, p, || {
            let n = read_tbin()
                .records
                .iter()
                .filter(|r| r.rank == rank)
                .count();
            assert_eq!(n, n_rank);
        }));
    }
    let n_tag = disk.by_tag(tag).expect("cursor").count();
    if wants(opts, "store", "query_tag_indexed") {
        records.push(measure("query_tag_indexed", 1, p, || {
            let n = disk.by_tag(tag).expect("cursor").count();
            assert_eq!(n, n_tag);
        }));
    }
    if wants(opts, "store", "query_tag_cold") {
        records.push(measure("query_tag_cold", 1, p, || {
            let n = open().by_tag(tag).expect("cursor").count();
            assert_eq!(n, n_tag);
        }));
    }
    if wants(opts, "store", "query_tag_scan") {
        records.push(measure("query_tag_scan", 1, p, || {
            let tf = read_binary(binary.as_slice()).expect("parse");
            let n = tf
                .records
                .iter()
                .filter(|r| r.msg.as_ref().is_some_and(|m| m.tag == tag))
                .count();
            assert_eq!(n, n_tag);
        }));
    }
    let (t_lo, t_hi) = disk.time_bounds();
    let width = (t_hi - t_lo) / 100;
    let (w_lo, w_hi) = (t_lo, t_lo + width);
    let n_win = disk.by_time_window(w_lo, w_hi).expect("cursor").count();
    if wants(opts, "store", "query_window_indexed") {
        records.push(measure("query_window_indexed", 1, p, || {
            let n = disk.by_time_window(w_lo, w_hi).expect("cursor").count();
            assert_eq!(n, n_win);
        }));
    }
    if wants(opts, "store", "query_window_cold") {
        records.push(measure("query_window_cold", 1, p, || {
            let n = open().by_time_window(w_lo, w_hi).expect("cursor").count();
            assert_eq!(n, n_win);
        }));
    }
    if wants(opts, "store", "query_window_late_cold") {
        // The same width three quarters into the run: everything before
        // it is read and verified but skipped on its span, not decoded.
        let late_lo = t_lo + (t_hi - t_lo) / 4 * 3;
        let late = |d: &DiskStore| {
            d.by_time_window(late_lo, late_lo + width)
                .expect("cursor")
                .count()
        };
        let n_late = late(&disk);
        records.push(measure("query_window_late_cold", 1, p, || {
            assert_eq!(late(&open()), n_late);
        }));
    }
    if wants(opts, "store", "query_window_scan") {
        records.push(measure("query_window_scan", 1, p, || {
            let tf = read_binary(binary.as_slice()).expect("parse");
            let n = tf
                .records
                .iter()
                .filter(|r| r.t_start <= w_hi && r.t_end >= w_lo)
                .count();
            assert_eq!(n, n_win);
        }));
    }
    // Reading everything: through the store against the flat file, on a
    // warm handle (`scan_all_warm`, which streams the segments from the
    // page cache, vs `read_binary` from memory) and as a CLI child does
    // it, from disk into the in-memory index (`materialize_cold` vs
    // `materialize_file`).
    let n_all = file.records.len();
    if wants(opts, "store", "read_binary") {
        records.push(measure("read_binary", 1, p, || {
            let tf = read_binary(binary.as_slice()).expect("parse");
            assert_eq!(tf.records.len(), n_all);
        }));
    }
    if wants(opts, "store", "scan_all_warm") {
        records.push(measure("scan_all_warm", 1, p, || {
            assert_eq!(disk.events().expect("events").len(), n_all);
        }));
    }
    if wants(opts, "store", "materialize_cold") {
        records.push(measure("materialize_cold", 1, p, || {
            assert_eq!(materialize(&open()).expect("materialize").len(), n_all);
        }));
    }
    if wants(opts, "store", "materialize_file") {
        records.push(measure("materialize_file", 1, p, || {
            assert_eq!(read_tbin().into_store().len(), n_all);
        }));
    }
    if wants(opts, "store", "crc32_1mib") {
        let mib: Vec<u8> = binary.iter().copied().cycle().take(1 << 20).collect();
        let want = tracedbg_store::crc::crc32(&mib);
        records.push(measure("crc32_1mib", 1, p, || {
            assert_eq!(tracedbg_store::crc::crc32(std::hint::black_box(&mib)), want);
        }));
    }
    drop(disk);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_file(&tbin);
    Suite {
        name: "store",
        records,
    }
}

/// Differential fault localization on the planted-wildcard corpus
/// artifact: the full replay-harvest-rank pipeline at `jobs = 1` vs
/// `jobs = N` (the report must come out `localized` every iteration),
/// plus the event-graph differ on its own between a failing and a
/// passing recorded trace.
fn suite_localize(opts: &SuiteOptions) -> Suite {
    let mut records = Vec::new();
    let cfg = PlantedConfig::default();
    let mut artifact = ScheduleArtifact::new("planted-wildcard", cfg.nprocs, 0);
    artifact.decisions = vec![Decision::Turn {
        rank: Rank(cfg.bug_rank),
    }];
    let p = plan(opts, 1, 5, 2);
    let n_jobs = resolved_jobs(opts).max(2);
    tracedbg_mpsim::set_quiet_panics(true);
    for (name, jobs) in [("localize_jobs1", 1usize), ("localize_jobsN", n_jobs)] {
        if !wants(opts, "localize", name) {
            continue;
        }
        records.push(measure(name, jobs, p, || {
            let source: tracedbg_explore::ProgramSource = Box::new(planted_wildcard_factory(cfg));
            let lcfg = LocalizeConfig {
                runs: 8,
                seed: 0,
                jobs,
            };
            let report = localize(&source, &artifact, &lcfg);
            assert_eq!(report.verdict, VERDICT_LOCALIZED);
        }));
    }
    // The `hunt_planted` shape: 16 ranks, 2000 reference runs, nearly all
    // of them distinct passing traces — where what the harvest keeps of a
    // run, and what a metered run costs, show.
    let name = "localize_planted16_2000_jobs1";
    if wants(opts, "localize", name) {
        let wide = PlantedConfig {
            nprocs: 16,
            ..Default::default()
        };
        let mut artifact = ScheduleArtifact::new("planted-wildcard", wide.nprocs, 0);
        artifact.decisions = vec![Decision::Turn {
            rank: Rank(wide.bug_rank),
        }];
        let runs = if opts.quick { 200 } else { 2000 };
        records.push(measure(name, 1, plan(opts, 1, 5, 1), || {
            let source: tracedbg_explore::ProgramSource = Box::new(planted_wildcard_factory(wide));
            let lcfg = LocalizeConfig {
                runs,
                seed: 0,
                jobs: 1,
            };
            let report = localize(&source, &artifact, &lcfg);
            assert_eq!(report.verdict, VERDICT_LOCALIZED);
            assert!(
                report.passing_runs * 2 > runs,
                "most references are distinct"
            );
        }));
    }
    if wants(opts, "localize", "graph_diff") {
        let source: tracedbg_explore::ProgramSource = Box::new(planted_wildcard_factory(cfg));
        let failing = tracedbg_explore::runner::execute(
            &source,
            EngineConfig::for_artifact(&artifact).policy,
            &artifact.faults,
        );
        let passing = tracedbg_explore::runner::execute(&source, SchedPolicy::RoundRobin, &[]);
        records.push(measure("graph_diff", 1, plan(opts, 2, 5, 20), || {
            let ranks = diff_ranks(failing.store(), passing.store()).expect("in-memory diff");
            assert!(
                ranks.iter().any(|d| d.score() > 0),
                "failing vs passing must differ"
            );
            let channels = diff_channels(failing.store(), passing.store()).expect("in-memory diff");
            assert!(!channels.is_empty());
        }));
    }
    tracedbg_mpsim::set_quiet_panics(false);
    Suite {
        name: "localize",
        records,
    }
}

/// Critical-path profiling hot paths over a recorded ring trace — the
/// pure analyses (`tracedbg profile` minus the run that produced the
/// trace), each measured in isolation and then end to end.
fn suite_profile(opts: &SuiteOptions) -> Suite {
    let mut records = Vec::new();
    let store = ring_store(100);
    let matching = MessageMatching::build(&store);
    let p = plan(opts, 4, 7, 12);
    if wants(opts, "profile", "wait_classify") {
        records.push(measure("wait_classify", 1, p, || {
            let w = WaitAnalysis::build(&store, &matching);
            assert!(!w.waits.is_empty(), "a ring trace has late-sender waits");
        }));
    }
    if wants(opts, "profile", "critical_path") {
        records.push(measure("critical_path", 1, p, || {
            let cp = CriticalPath::build(&store, &matching);
            assert!(cp.len > 0, "a nonempty trace has a nonempty path");
        }));
    }
    if wants(opts, "profile", "report_build") {
        records.push(measure("report_build", 1, p, || {
            let report = ProfileReport::build(
                &store,
                ProfileInput {
                    source: "bench",
                    workload: "ring",
                    procs: store.n_ranks(),
                    seed: 0,
                    flight_dropped: 0,
                },
            );
            assert!(report.digest_ok());
            assert!(report.critical_path_len <= report.makespan);
        }));
    }
    if wants(opts, "profile", "perfetto_export") {
        let waits = WaitAnalysis::build(&store, &matching);
        let path = CriticalPath::build(&store, &matching);
        records.push(measure("perfetto_export", 1, p, || {
            let json = perfetto_json(&store, &matching, &waits, &path);
            assert!(json.ends_with('}'), "export is a complete JSON object");
        }));
    }
    Suite {
        name: "profile",
        records,
    }
}

/// Run every (non-filtered) suite in deterministic order.
pub fn run_suites(opts: &SuiteOptions) -> Vec<Suite> {
    let all = [
        suite_parse as fn(&SuiteOptions) -> Suite,
        suite_causality,
        suite_replay,
        suite_engine,
        suite_checkpoint,
        suite_explore,
        suite_explore_dpor,
        suite_store,
        suite_localize,
        suite_profile,
    ];
    all.iter()
        .map(|f| f(opts))
        .filter(|s| !s.records.is_empty())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_filtered_suite_produces_schema_valid_records() {
        let opts = SuiteOptions {
            quick: true,
            filter: Some("parse/trace_digest".to_string()),
            jobs: 1,
        };
        let suites = run_suites(&opts);
        assert_eq!(suites.len(), 1);
        assert_eq!(suites[0].name, "parse");
        assert_eq!(suites[0].records.len(), 1);
        let r = &suites[0].records[0];
        assert_eq!(r.name, "trace_digest");
        assert!(r.p10_ns <= r.median_ns && r.median_ns <= r.p90_ns);
    }

    #[test]
    fn filter_matches_whole_suites_too() {
        let opts = SuiteOptions {
            quick: true,
            filter: Some("causality".to_string()),
            jobs: 1,
        };
        let suites = run_suites(&opts);
        assert_eq!(suites.len(), 1);
        assert_eq!(suites[0].records.len(), 7);
    }
}
