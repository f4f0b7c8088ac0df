//! Cross-crate integration tests: full debugging stories end to end.

use std::io::Cursor;
use std::sync::Arc;
use tracedbg::causality::{cut_of_time, verify_cut, ConcurrencyRegion, Frontier, HbIndex};
use tracedbg::prelude::*;
use tracedbg::trace::file::{read_text, write_text, TraceFile};
use tracedbg::tracegraph::{ActionGraph, CallGraph, CommGraph, TraceGraph};
use tracedbg::workloads::lu::{self, LuConfig};
use tracedbg::workloads::master_worker::{self, completion_order, PoolConfig};
use tracedbg::workloads::ring::{self, RingConfig};
use tracedbg::workloads::strassen::{self, StrassenConfig, Variant};

/// A scratch directory unique per call (pid + process-wide counter), so
/// concurrent tests in this binary never share one.
fn scratch_dir(label: &str) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static CALL: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "tracedbg-integration-{label}-{}-{}",
        std::process::id(),
        CALL.fetch_add(1, Ordering::Relaxed)
    ))
}

fn strassen_session(variant: Variant) -> Session {
    let cfg = StrassenConfig::figures(variant);
    Session::launch(
        SessionConfig {
            recorder: RecorderConfig::full(),
            ..Default::default()
        },
        Box::new(strassen::factory(cfg)),
    )
}

#[test]
fn lint_catches_the_jres_bug() {
    // The paper's bug hunt (§4.1) takes stoplines, replay, and probes; the
    // lint pass flags the same run in one shot: the misdirected send shows
    // up as a leaked send, the starved ranks as a wait cycle.
    let mut session = strassen_session(Variant::JresBug);
    assert!(session.run().is_deadlocked());
    let diags = tracedbg::lint::lint_trace(&session.trace(), &LintConfig::default());
    assert!(diags.iter().any(|d| d.rule.0 == "TDL001"), "{diags:?}");
    assert!(diags.iter().any(|d| d.rule.0 == "TDL006"), "{diags:?}");
    assert!(tracedbg::lint::report::has_errors(&diags));
}

#[test]
fn full_bug_hunt_story() {
    // The §4.1 narrative as assertions: deadlock → analysis → stopline →
    // replay → step → probe reveals the wrong destination.
    let mut session = strassen_session(Variant::JresBug);
    assert!(session.run().is_deadlocked());
    let trace = session.trace();
    let report = HistoryReport::analyze(&trace);
    assert_eq!(report.circular_waits.len(), 1);
    assert_eq!(
        report.circular_waits[0].ranks,
        vec![Rank(0), Rank(7)],
        "figure 5: ranks 0 and 7 wait on each other"
    );
    assert_eq!(&report.received_counts[1..7], &[2, 2, 2, 2, 2, 2]);
    assert_eq!(report.received_counts[7], 1, "figure 6: P7 starves");
    assert!(!report.unmatched_sends.is_empty(), "the missed message");

    // Stopline before the first send; replay; the stop is consistent.
    let first_send_t = trace
        .records()
        .iter()
        .find(|r| r.kind == EventKind::Send)
        .unwrap()
        .t_start;
    let sl = Stopline::vertical(&trace, first_send_t.saturating_sub(1));
    let matching = MessageMatching::build(&trace);
    assert!(sl.is_consistent(&trace, &matching));
    assert!(session.replay_to(&sl).is_stopped());

    // Step P0 until the first B-part send probe appears: destination 0,
    // where 1 was meant (jres vs jres+1).
    let mut first_dest = None;
    for _ in 0..60 {
        session.step(Rank(0));
        if let Some(d) = session.latest_probe(Rank(0), "jres") {
            first_dest = Some(d);
            break;
        }
    }
    assert_eq!(first_dest, Some(0), "the buggy destination is exposed");
}

#[test]
fn correct_strassen_verifies_and_draws() {
    let mut session = strassen_session(Variant::Correct);
    assert!(session.run().is_completed());
    let trace = session.trace();
    // Figure 3 shape: 14 distribution sends from P0, 7 result sends.
    let sends_from_0 = trace
        .records()
        .iter()
        .filter(|r| r.kind == EventKind::Send && r.rank == Rank(0))
        .count();
    assert_eq!(sends_from_0, 14);
    let matching = MessageMatching::build(&trace);
    assert!(matching.is_clean());
    assert_eq!(matching.matched.len(), 21);

    // Every renderer accepts the full trace.
    let model = TimelineModel::build(&trace, &matching, false);
    let ascii = render_ascii(&model, 100);
    assert!(ascii.contains("P7"));
    let svg = render_svg(&model, 900.0);
    assert!(svg.contains("</svg>"));

    // Graph abstractions.
    let tg = TraceGraph::build(&trace);
    assert!(tg.n_nodes() > 8);
    let cg = CallGraph::project(&tg, Rank(0));
    assert!(cg.functions.iter().any(|f| f == "MatrSend"));
    let comm = CommGraph::build(&trace, &matching);
    assert_eq!(comm.n_nodes(), 21);
    let actions = ActionGraph::build(&trace);
    assert!(!actions.of(Rank(0), "MatrSend").is_empty());
}

#[test]
fn trace_file_roundtrip_preserves_analysis() {
    let mut session = strassen_session(Variant::Correct);
    session.run();
    let trace = session.trace();
    let file = TraceFile::new(
        trace.records().to_vec(),
        trace.sites().clone(),
        trace.n_ranks(),
    );
    let mut buf = Vec::new();
    write_text(&mut buf, &file).unwrap();
    let back = read_text(Cursor::new(&buf)).unwrap().into_store();
    assert_eq!(back.len(), trace.len());
    let mm1 = MessageMatching::build(&trace);
    let mm2 = MessageMatching::build(&back);
    assert_eq!(mm1.matched.len(), mm2.matched.len());
    // Happens-before survives the round trip.
    let hb1 = HbIndex::build(&trace, &mm1);
    let hb2 = HbIndex::build(&back, &mm2);
    for id in trace.ids().take(50) {
        assert_eq!(
            hb1.clock(id).components(),
            hb2.clock(id).components(),
            "clock mismatch at {id:?}"
        );
    }
}

#[test]
fn every_vertical_cut_of_a_real_trace_is_consistent() {
    let mut session = strassen_session(Variant::Correct);
    session.run();
    let trace = session.trace();
    let mm = MessageMatching::build(&trace);
    let (lo, hi) = trace.time_bounds();
    let step = ((hi - lo) / 64).max(1);
    let mut t = lo;
    while t <= hi {
        let cut = cut_of_time(&trace, t);
        assert!(
            verify_cut(&trace, &mm, &cut).is_empty(),
            "vertical cut at t={t} inconsistent"
        );
        t += step;
    }
}

#[test]
fn frontier_stoplines_on_lu_are_consistent_and_replayable() {
    let cfg = LuConfig::default();
    let mut session = Session::launch(SessionConfig::default(), Box::new(lu::factory(cfg)));
    assert!(session.run().is_completed());
    let trace = session.trace();
    let mm = MessageMatching::build(&trace);
    let hb = HbIndex::build(&trace, &mm);
    // Select a middle receive.
    let mid = Rank((cfg.nprocs / 2) as u32);
    let recv = trace
        .by_rank(mid)
        .iter()
        .copied()
        .find(|&id| trace.record(id).kind == EventKind::RecvDone)
        .unwrap();
    let past = Stopline::past_frontier(&trace, &hb, recv);
    let future = Stopline::future_frontier(&trace, &hb, recv);
    assert!(past.is_consistent(&trace, &mm));
    assert!(future.is_consistent(&trace, &mm));
    // On every rank except the selected one, the past frontier precedes
    // (or meets) the exclusive future cut — the concurrency region lies
    // between them. (On the selected rank the past includes the event
    // itself while the future cut stops just before it.)
    for r in 0..trace.n_ranks() {
        if Rank(r as u32) == mid {
            continue;
        }
        assert!(
            past.markers.get(Rank(r as u32)) <= future.markers.get(Rank(r as u32)),
            "rank {r}: past {:?} future {:?}",
            past.markers,
            future.markers
        );
    }
    // Replay to the past frontier: markers land exactly on it.
    session.replay_to(&past);
    assert_eq!(session.markers(), past.markers);

    // Concurrency region is consistent with the frontier markers.
    let region = ConcurrencyRegion::of(&hb, recv);
    for id in region.concurrent_events(&trace) {
        let f = Frontier::past_of(&hb, recv);
        let rec = trace.record(id);
        if let Some(m) = f.marker_of(rec.rank) {
            assert!(rec.marker > m.count, "concurrent event inside the past");
        }
    }
}

#[test]
fn replay_reproduces_timestamps_exactly() {
    // Determinism: a replay regenerates the identical time-space diagram.
    let cfg = PoolConfig::default();
    let run = |policy: SchedPolicy, replay: Option<tracedbg::mpsim::ReplayLog>| {
        let mut e = Engine::launch(
            EngineConfig {
                policy,
                recorder: RecorderConfig::full(),
                ..Default::default()
            },
            master_worker::programs(&cfg),
        );
        if let Some(log) = replay {
            e.set_replay(Arc::new(log));
        }
        assert!(e.run().is_completed());
        let store = e.trace_store();
        let recs: Vec<(u32, u64, u64, u64)> = store
            .records()
            .iter()
            .map(|r| (r.rank.0, r.marker, r.t_start, r.t_end))
            .collect();
        (recs, e.match_log())
    };
    let (recs1, log) = run(SchedPolicy::Seeded(5), None);
    let (recs2, _) = run(SchedPolicy::Seeded(777), Some(log));
    assert_eq!(recs1, recs2, "replayed trace must be bit-identical");
}

#[test]
fn undo_across_multiple_stops_on_ring() {
    let cfg = RingConfig::default();
    let mut session = Session::launch(SessionConfig::default(), Box::new(ring::factory(cfg)));
    assert!(session.run().is_completed());
    let final_markers = session.markers();
    // Replay to an early stopline, then walk forward with global steps.
    let trace = session.trace();
    let sl = Stopline::vertical(&trace, trace.time_bounds().1 / 4);
    session.replay_to(&sl);
    let stops: Vec<MarkerVector> = (0..3)
        .map(|_| {
            session.step_all();
            session.markers()
        })
        .collect();
    // Undo unwinds the stops in reverse order.
    assert!(session.undo());
    assert_eq!(session.markers(), stops[1]);
    assert!(session.undo());
    assert_eq!(session.markers(), stops[0]);
    // Continue to completion: same final state as the recording run.
    assert!(session.continue_all().is_completed());
    assert_eq!(session.markers(), final_markers);
}

#[test]
fn command_interface_drives_a_session() {
    let cfg = RingConfig {
        nprocs: 3,
        rounds: 2,
        hop_cost: 1_000,
        tag_stride: 0,
    };
    let session = Session::launch(SessionConfig::default(), Box::new(ring::factory(cfg)));
    let mut ci = CommandInterface::new(session);
    let transcript = ci.script(&["run", "analyze", "markers"]);
    assert!(transcript.contains("completed"), "{transcript}");
    assert!(transcript.contains("matched message(s)"), "{transcript}");
    let t2 = ci.execute("stopline t 1");
    assert!(t2.contains("stopline"), "{t2}");
    let t3 = ci.execute("replay");
    assert!(t3.contains("stopped") || t3.contains("completed"), "{t3}");
}

#[test]
fn wildcard_completion_order_is_pinned_by_replay() {
    let cfg = PoolConfig {
        nprocs: 5,
        tasks: 12,
        base_cost: 10_000,
    };
    let run = |policy: SchedPolicy, replay: Option<tracedbg::mpsim::ReplayLog>| {
        let mut e = Engine::launch(
            EngineConfig {
                policy,
                recorder: RecorderConfig::full(),
                ..Default::default()
            },
            master_worker::programs(&cfg),
        );
        if let Some(log) = replay {
            e.set_replay(Arc::new(log));
        }
        assert!(e.run().is_completed());
        let s = e.trace_store();
        (completion_order(&s), e.match_log())
    };
    let (o1, log) = run(SchedPolicy::Seeded(11), None);
    let (o2, _) = run(SchedPolicy::Seeded(4242), Some(log));
    assert_eq!(o1, o2);
    assert_eq!(o1.len(), 12);
}

#[test]
fn comm_only_strategy_still_supports_matching() {
    // PMPI-style instrumentation records only communication, but the
    // trace graph's message arcs and the matching still work.
    let cfg = RingConfig::default();
    let mut e = Engine::launch(
        EngineConfig::with_recorder(RecorderConfig::comm_only()),
        ring::programs(&cfg),
    );
    assert!(e.run().is_completed());
    let store = e.trace_store();
    assert_eq!(store.of_kind(EventKind::FnEnter).len(), 0);
    let mm = MessageMatching::build(&store);
    assert!(mm.is_clean());
    assert_eq!(mm.matched.len(), cfg.nprocs * cfg.rounds);
}

#[test]
fn crash_postmortem_replay() {
    // §4.1's opening scenario: "in a situation where a program crashes and
    // a post-mortem debugging session sheds no light on the bug, the user
    // can instrument the program and get an execution trace to the point
    // of the crash ... by setting a stopline and replaying, the user can
    // have the execution stop before the problem occurs."
    let factory: ProgramFactory = Box::new(|| {
        // for i in 0..10 { probe i; compute; crash at i == 7 }
        let label = Label::new("i");
        let p0 = Prog::for_range(
            |_, _| (0, 10),
            |i: &mut i64, k| *i = k,
            Prog::seq(vec![
                Prog::op(move |i: &mut i64, v| TaskOp::Probe {
                    label,
                    value: *i,
                    site: v.site("crash.rs", 4, "main"),
                }),
                Prog::op(|_, v| TaskOp::Compute {
                    cost_ns: 1_000,
                    site: v.site("crash.rs", 4, "main"),
                }),
                Prog::act(|i, _| {
                    if *i == 7 {
                        panic!("index out of bounds at iteration {i}");
                    }
                }),
            ]),
        );
        let p1 = Prog::op(|_: &mut (), v| TaskOp::Compute {
            cost_ns: 500,
            site: v.site("crash.rs", 20, "bystander"),
        });
        vec![RankProgram::task(0i64, p0), RankProgram::task((), p1)]
    });
    let mut session = Session::launch(
        SessionConfig {
            recorder: RecorderConfig::full(),
            ..Default::default()
        },
        factory,
    );
    // 1. The crash.
    match session.run() {
        SessionStatus::Panicked { rank, message } => {
            assert_eq!(*rank, Rank(0));
            assert!(message.contains("iteration 7"), "{message}");
        }
        other => panic!("{other:?}"),
    }
    // 2. The trace reaches the point of the crash.
    let trace = session.trace();
    assert_eq!(session.latest_probe(Rank(0), "i"), Some(7));
    // 3. Stop before the problem occurs: one event before the end of the
    //    crashed rank's history.
    let final_markers = trace.final_markers();
    let sl = Stopline {
        markers: MarkerVector::from_counts(vec![
            // Two events back: before the fatal iteration's probe.
            final_markers.get(Rank(0)) - 2,
            final_markers.get(Rank(1)),
        ]),
        origin: "before the crash".into(),
    };
    session.replay_to(&sl);
    assert!(session.status().is_stopped(), "{:?}", session.status());
    // The fatal iteration has not executed yet in the replay.
    assert_eq!(session.latest_probe(Rank(0), "i"), Some(7 - 1));
    // Standard debugging from here: one step reproduces the crash
    // deterministically.
    session.step(Rank(0));
    session.step(Rank(0));
    match session.continue_all() {
        SessionStatus::Panicked { message, .. } => {
            assert!(message.contains("iteration 7"), "{message}");
        }
        other => panic!("the replayed crash must reproduce: {other:?}"),
    }
}

#[test]
fn markers_only_strategy_supports_stopline_replay() {
    // The cheapest §2.2 mode: no trace records, but replay still stops at
    // exact markers. Record a reachable stop state by trapping rank 0
    // mid-run, then replay to exactly that state.
    let cfg = RingConfig::default();
    let run_cfg = EngineConfig::with_recorder(RecorderConfig::markers_only());
    let mut rec_engine = Engine::launch(run_cfg.clone(), ring::programs(&cfg));
    assert!(rec_engine.run().is_completed());
    let final_markers = rec_engine.markers();
    let log = rec_engine.match_log();

    // Trap rank 0 halfway through its events on a fresh recording run.
    let half = final_markers.get(Rank(0)) / 2;
    let mut stop_engine = Engine::launch(run_cfg.clone(), ring::programs(&cfg));
    stop_engine.set_threshold(Rank(0), Some(half));
    assert!(stop_engine.run().is_stopped());
    let stop_state = stop_engine.markers();
    assert_eq!(stop_state.get(Rank(0)), half);

    // Replay to that exact state under forced matching.
    let mut replay_engine = Engine::launch(run_cfg, ring::programs(&cfg));
    replay_engine.set_replay(Arc::new(log));
    replay_engine.arm_stopline(&stop_state);
    let out = replay_engine.run();
    assert!(out.is_stopped(), "{out:?}");
    assert_eq!(replay_engine.markers(), stop_state);
}

#[test]
fn perturbed_run_records_a_schedule_that_replays_exactly() {
    // Satellite of the explore work: a run under an arbitrary perturbation
    // seed records its decision sequence; feeding that sequence back as a
    // scripted schedule must regenerate the trace event for event,
    // timestamps included.
    use tracedbg::trace::diff::{diff_traces, DiffMode};
    use tracedbg::workloads::random_comm;
    let pat = random_comm::generate(2024, 5, 30);
    let mut recorded = Engine::launch(
        EngineConfig {
            policy: SchedPolicy::Seeded(0xfeed),
            recorder: RecorderConfig::full(),
            ..Default::default()
        },
        random_comm::programs(&pat, 2024),
    );
    assert!(recorded.run().is_completed());
    let script = recorded.schedule_log();
    assert!(!script.is_empty());
    let recorded_trace = recorded.trace_store();

    let mut replayed = Engine::launch(
        EngineConfig {
            policy: SchedPolicy::Scripted(script),
            recorder: RecorderConfig::full(),
            ..Default::default()
        },
        random_comm::programs(&pat, 2024),
    );
    assert!(replayed.run().is_completed());
    assert!(!replayed.schedule_diverged(), "every decision must apply");
    let divs = diff_traces(&recorded_trace, &replayed.trace_store(), DiffMode::Exact);
    assert!(
        divs.is_empty(),
        "replay diverged:\n{}",
        divs.iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn explorer_finding_replays_through_the_debugger() {
    // The full loop at the facade level: explore a racy workload, take the
    // shrunk artifact, and re-execute it with the debugger's
    // schedule-driven replay.
    use tracedbg::workloads::racy::{wildcard_race_factory, RacyConfig};
    let cfg = ExploreConfig {
        workload: "racy-wildcard".into(),
        seed: 3,
        runs: 32,
        strategy: ExploreStrategy::Systematic,
        ..Default::default()
    };
    let report =
        Explorer::new(cfg, Box::new(wildcard_race_factory(RacyConfig::default()))).explore();
    let finding = report
        .findings
        .iter()
        .find(|f| f.class == "panic")
        .expect("the wildcard race is within a 32-run budget");
    assert!(finding.confirmed);

    tracedbg::mpsim::set_quiet_panics(true);
    let replay = replay_schedule(
        &finding.artifact,
        Box::new(wildcard_race_factory(RacyConfig::default())),
    );
    tracedbg::mpsim::set_quiet_panics(false);
    assert_eq!(replay.class, "panic");
    assert!(!replay.diverged);
    assert!(replay.detail.contains("worker 1"), "{}", replay.detail);
}

#[test]
fn stats_stream_identically_from_every_trace_plane() {
    // `tracedbg stats <path>` renders `TraceStats::from_source`; the
    // number stream must be identical whether the plane is the in-memory
    // store, a re-parsed `.trc` text file, or an ingested DiskStore
    // directory (read without materializing).
    let cfg = RingConfig {
        nprocs: 4,
        rounds: 3,
        hop_cost: 100,
        tag_stride: 10,
    };
    let mut e = Engine::launch(
        EngineConfig::with_recorder(RecorderConfig::full()),
        ring::programs(&cfg),
    );
    assert!(e.run().is_completed());
    let store = e.trace_store();
    let live = format!("{}", TraceStats::from_source(&store).unwrap());

    let file = TraceFile::new(
        store.records().to_vec(),
        store.sites().clone(),
        store.n_ranks(),
    );
    let mut text = Vec::new();
    write_text(&mut text, &file).unwrap();
    let reread = read_text(Cursor::new(text)).unwrap().into_store();
    assert_eq!(
        format!("{}", TraceStats::from_source(&reread).unwrap()),
        live
    );

    let dir = scratch_dir("stats-plane");
    let _ = std::fs::remove_dir_all(&dir);
    tracedbg::store::ingest_records(
        store.records(),
        store.sites(),
        store.n_ranks(),
        &dir,
        StoreOptions::default(),
    )
    .unwrap();
    let disk = DiskStore::open(&dir).unwrap();
    let from_disk = format!("{}", TraceStats::from_source(&disk).unwrap());
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(from_disk, live, "DiskStore plane diverged");
}

#[test]
fn profile_report_blames_the_planted_rank_through_the_facade() {
    // End-to-end through the `tracedbg` facade: run the planted pipeline
    // bug under its canonical delay fault and check the profiler pins the
    // planted rank in the top-2 of the blame ranking, with the makespan
    // inequality intact.
    use tracedbg::profile::{ProfileInput, ProfileReport};
    use tracedbg::trace::schedule::Fault;
    use tracedbg::workloads::planted::{planted_pipeline_factory, PlantedConfig};
    let cfg = PlantedConfig::default();
    tracedbg::mpsim::set_quiet_panics(true);
    let mut e = Engine::launch(
        EngineConfig {
            recorder: RecorderConfig::full(),
            faults: tracedbg::mpsim::FaultPlan::new(vec![Fault::Delay {
                src: Rank(0),
                dst: Rank(cfg.bug_rank),
                nth: 1,
                extra_ns: cfg.work * 2,
            }]),
            ..Default::default()
        },
        planted_pipeline_factory(cfg)(),
    );
    e.run();
    tracedbg::mpsim::set_quiet_panics(false);
    let store = e.trace_store();
    let report = ProfileReport::build(
        &store,
        ProfileInput {
            source: "test",
            workload: "planted-pipeline",
            procs: store.n_ranks(),
            seed: 0,
            flight_dropped: 0,
        },
    );
    assert!(report.digest_ok());
    assert!(report.critical_path_len <= report.makespan);
    assert!(report.makespan <= report.busy_total + report.wait_total);
    let ranking = report.blame_ranking();
    assert!(
        ranking.iter().take(2).any(|&r| r == cfg.bug_rank),
        "planted rank {} not in blame top-2: {ranking:?}",
        cfg.bug_rank
    );
}

/// `tracedbg run … | head -1`: a reader that closes stdout after one line
/// ends the output — the CLI must not panic (exit code 101) over it.
#[test]
fn closed_stdout_ends_the_cli_quietly() {
    use std::io::{BufRead, BufReader, Read};
    use std::process::{Command, Stdio};
    let mut child = Command::new(env!("CARGO_BIN_EXE_tracedbg"))
        .args(["run", "ring", "--procs", "64"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn tracedbg");
    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut first = String::new();
    stdout.read_line(&mut first).expect("first line");
    assert!(first.starts_with("outcome:"), "{first:?}");
    // Close the pipe while the rest of the report is still to be printed.
    drop(stdout);
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .expect("piped stderr")
        .read_to_string(&mut stderr)
        .expect("read stderr");
    let status = child.wait().expect("wait");
    assert_ne!(status.code(), Some(101), "panicked: {stderr}");
    assert!(stderr.is_empty(), "expected a quiet exit, got: {stderr}");
}

/// A store whose index directory declares 2^62 four-byte items for a
/// section (the size wraps to 0 in 64 bits, and the checksums are
/// re-sealed to match) is refused with one error line and the bad-input
/// exit code, never the capacity-overflow panic (101) of a query. The
/// typed error itself is `crates/store/tests/corruption.rs`'s case.
#[test]
fn a_hostile_store_index_is_a_typed_error_not_a_panic() {
    use std::process::Command;
    use tracedbg::store::crc::crc32;
    let golden = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden/ring.trc");
    let text = std::fs::read_to_string(golden).unwrap();
    let store = read_text(text.as_bytes()).unwrap().into_store();
    let dir = scratch_dir("hostile-index");
    let _ = std::fs::remove_dir_all(&dir);
    let opts = StoreOptions::default();
    let (records, sites) = (store.records(), store.sites());
    tracedbg::store::ingest_records(records, sites, store.n_ranks(), &dir, opts).unwrap();
    let path = dir.join("index.tds");
    let mut index = std::fs::read(&path).unwrap();
    let entries = u32::from_le_bytes(index[16..20].try_into().unwrap()) as usize;
    let dir_bytes = 20..20 + 33 * entries;
    let rank0 = dir_bytes
        .clone()
        .step_by(33)
        .find(|&at| index[at] == 1)
        .unwrap();
    index[rank0 + 13..rank0 + 21].copy_from_slice(&(1u64 << 62).to_le_bytes());
    index[rank0 + 29..rank0 + 33].copy_from_slice(&crc32(&[]).to_le_bytes());
    let dir_crc = crc32(&index[dir_bytes.clone()]);
    index[dir_bytes.end..dir_bytes.end + 4].copy_from_slice(&dir_crc.to_le_bytes());
    std::fs::write(&path, &index).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_tracedbg"))
        .arg("query")
        .arg(&dir)
        .args(["--rank", "0"])
        .output()
        .expect("spawn tracedbg");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    assert!(stderr.contains("4611686018427387904 items"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

/// A hand-edited trace in which each rank receives the other's message
/// before sending its own is not a recording of any run. The verbs that
/// reason about causality must refuse it with one error line and the
/// bad-input exit code — never a panic (101).
#[test]
fn non_causal_trace_is_a_typed_error_not_a_panic() {
    use std::process::Command;
    use tracedbg::causality::NonCausalTrace;
    const TRACE: &str = "#tracedbg v1\n#ranks 2\nS 0 1 x.c|main\n\
        R 0 RP 1 0 0 0 1 1\n\
        R 0 RD 2 0 10 0 0 0 M 1 0 1 8 0\n\
        R 0 SN 3 10 20 0 0 0 M 0 1 1 8 0\n\
        R 1 RP 1 0 0 0 0 1\n\
        R 1 RD 2 0 10 0 0 0 M 0 1 1 8 0\n\
        R 1 SN 3 10 20 0 0 0 M 1 0 1 8 0\n";
    let store = read_text(TRACE.as_bytes()).expect("parses").into_store();
    let mm = MessageMatching::build(&store);
    let hb = HbIndex::build(&store, &mm);
    assert_eq!(
        hb.check_causal(),
        Err(NonCausalTrace {
            rank: Rank(0),
            marker: 2
        })
    );
    // The cone walks terminate on it all the same.
    for e in store.ids() {
        assert_eq!(hb.past_markers(e).len(), 2);
        assert_eq!(hb.future_markers(e).len(), 2);
    }
    let _ = HistoryReport::analyze(&store);

    let dir = scratch_dir("noncausal");
    std::fs::create_dir_all(&dir).unwrap();
    let (path, html) = (dir.join("cyclic.trc"), dir.join("report.html"));
    std::fs::write(&path, TRACE).unwrap();
    for verb in ["analyze", "lint", "report"] {
        let out = Command::new(env!("CARGO_BIN_EXE_tracedbg"))
            .arg(verb)
            .arg(&path)
            .args(if verb == "report" {
                vec!["--out".as_ref(), html.as_os_str()]
            } else {
                vec![]
            })
            .output()
            .expect("spawn tracedbg");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{verb}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{verb}: {stderr}");
        assert!(
            stderr.starts_with("error: ")
                && stderr.contains("not a causal trace")
                && stderr.contains("rank 0 marker 2"),
            "{verb}: {stderr}"
        );
    }
    for verb in ["view", "stats"] {
        let out = Command::new(env!("CARGO_BIN_EXE_tracedbg"))
            .arg(verb)
            .arg(&path)
            .output()
            .expect("spawn tracedbg");
        assert!(out.status.success(), "{verb}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Run the CLI in `cwd`; `(exit code, stdout, stderr)`.
fn tracedbg_in(cwd: &std::path::Path, args: &[&str]) -> (Option<i32>, String, String) {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_tracedbg"))
        .args(args)
        .current_dir(cwd)
        .output()
        .expect("spawn tracedbg");
    let text = |b: &[u8]| String::from_utf8_lossy(b).into_owned();
    (out.status.code(), text(&out.stdout), text(&out.stderr))
}

/// `report` writes where `--out` says, and nowhere else.
#[test]
fn report_writes_to_out_and_nowhere_else() {
    let cwd = scratch_dir("report-out");
    let _ = std::fs::remove_dir_all(&cwd);
    std::fs::create_dir_all(cwd.join("sub")).unwrap();
    let trace = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden/ring.trc");
    let out = cwd.join("sub/mine.html");
    let (code, stdout, stderr) =
        tracedbg_in(&cwd, &["report", trace, "--out", out.to_str().unwrap()]);
    assert_eq!(code, Some(0), "{stderr}");
    assert_eq!(stdout, format!("report written to {}\n", out.display()));
    assert!(std::fs::read_to_string(&out).unwrap().contains("<html"));
    let mut entries: Vec<_> = std::fs::read_dir(&cwd)
        .unwrap()
        .map(|e| e.unwrap().file_name())
        .collect();
    entries.sort();
    assert_eq!(entries, ["sub"], "nothing lands in the working directory");
    let _ = std::fs::remove_dir_all(&cwd);
}

/// `--help` prints the verb's usage line and an undeclared flag is refused,
/// both before the verb runs: `bench` runs no suite and writes no
/// `BENCH_*.json`.
#[test]
fn bench_help_and_an_undeclared_flag_run_nothing() {
    let cwd = scratch_dir("bench-help");
    let _ = std::fs::remove_dir_all(&cwd);
    std::fs::create_dir_all(&cwd).unwrap();
    let usage = "usage: tracedbg bench [--quick] [--filter NAME] [--jobs N] [--out DIR]";
    let (code, stdout, stderr) = tracedbg_in(&cwd, &["bench", "--help"]);
    assert_eq!(
        (code, stdout, stderr),
        (Some(0), format!("{usage}\n"), String::new())
    );
    let (code, stdout, stderr) = tracedbg_in(&cwd, &["bench", "--frobnicate"]);
    let refusal = format!("error: bench takes no flag --frobnicate ({usage})\n");
    assert_eq!((code, stdout, stderr), (Some(1), String::new(), refusal));
    assert_eq!(
        std::fs::read_dir(&cwd).unwrap().count(),
        0,
        "no file written"
    );
    let _ = std::fs::remove_dir_all(&cwd);
}

/// A flag value that does not parse is an error naming the flag — never
/// silently the default (`run ring --procs abc` used to run 8 ranks).
#[test]
fn a_flag_value_that_does_not_parse_is_an_error() {
    let cwd = std::env::temp_dir();
    for (args, flag, value) in [
        (&["run", "ring", "--procs", "abc"][..], "procs", "abc"),
        (&["explore", "ring", "--runs", "lots"], "runs", "lots"),
        (&["stats", "pool", "--seed", "-1"], "seed", "-1"),
        (
            &["debug", "ring", "--checkpoint-every", "often", "-e", "run"],
            "checkpoint-every",
            "often",
        ),
        (
            &["localize", "planted-wildcard", "--jobs", "1.5"],
            "jobs",
            "1.5",
        ),
    ] {
        let (code, stdout, stderr) = tracedbg_in(&cwd, args);
        assert_eq!(code, Some(1), "{args:?}: {stderr}");
        assert_eq!(stdout, "", "{args:?}");
        assert_eq!(
            stderr,
            format!("error: --{flag}: bad value {value:?}\n"),
            "{args:?}"
        );
    }
    // A value that parses still does what it did.
    let (code, stdout, _) = tracedbg_in(&cwd, &["run", "ring", "--procs", "3"]);
    assert_eq!(code, Some(0));
    assert!(stdout.contains("received per rank: [3, 3, 3]"), "{stdout}");
}

/// One rule for "workload or file", for every verb: a name `tracedbg
/// workloads` lists is the workload whatever the working directory holds,
/// and `./name` is the file. (`stats` and `profile` used to ask the
/// filesystem first: a stray file `ring` made `stats ring` print `0
/// events, 0 ranks`.)
#[test]
fn a_name_is_the_workload_whatever_the_cwd_holds() {
    let dir = scratch_dir("strays");
    std::fs::create_dir_all(dir.join("heat")).unwrap();
    std::fs::write(dir.join("ring"), "").unwrap();
    let (_, clean, _) = tracedbg_in(&std::env::temp_dir(), &["stats", "ring", "--procs", "4"]);
    assert!(clean.starts_with("outcome: Completed\n"), "{clean}");
    // The stray file and directory change nothing for any verb ...
    for verb in ["stats", "profile"] {
        for name in ["ring", "heat"] {
            let (code, here, stderr) = tracedbg_in(&dir, &[verb, name, "--procs", "4"]);
            let (_, elsewhere, _) =
                tracedbg_in(&std::env::temp_dir(), &[verb, name, "--procs", "4"]);
            assert_eq!((code, stderr.as_str()), (Some(0), ""), "{verb} {name}");
            assert_eq!(here, elsewhere, "{verb} {name}");
        }
    }
    let (code, out, _) = tracedbg_in(&dir, &["run", "ring", "--procs", "4"]);
    assert!(
        code == Some(0) && out.starts_with("outcome: Completed"),
        "{out}"
    );
    // ... `./` names the file (an empty trace; a directory with no store) ...
    let (code, out, _) = tracedbg_in(&dir, &["stats", "./ring"]);
    assert!(
        code == Some(0) && out.contains("0 events, 0 ranks"),
        "{out}"
    );
    let (code, _, stderr) = tracedbg_in(&dir, &["stats", "./heat"]);
    assert!(
        code == Some(1) && stderr.starts_with("error: ./heat/manifest.tds"),
        "{stderr}"
    );
    // ... and a verb that cannot take the workload says what it does take,
    // in one line, instead of `cannot open ring`.
    for (args, says) in [
        (["view", "ring"], "view takes trace.trc | trace.tbin | store-dir, not the workload"),
        (["lint", "ring"], "lint takes trace.trc | trace.tbin | store-dir | script:<path> | sdl:<name>, not the native workload"),
        (["analyze", "heat"], "analyze takes trace.trc | trace.tbin | store-dir | script:<path> | sdl:<name>, not the native workload"),
        (["query", "ring"], "query takes store-dir, not the workload"),
    ] {
        let (code, stdout, stderr) = tracedbg_in(&dir, &args);
        assert_eq!((code, stdout.as_str()), (Some(1), ""), "{args:?}");
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
        assert!(stderr.starts_with(&format!("error: {says}")), "{args:?}: {stderr}");
    }
    // `analyze ring` stays the builtin script of that name.
    let (code, out, _) = tracedbg_in(&dir, &["analyze", "ring", "--procs", "3"]);
    assert!(
        code == Some(0) && out.starts_with("static analysis of ring (3 procs"),
        "{out}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// `localize --trace` reports the same bytes from a recorded `.trc` and
/// from the store directory ingested from it, at 64 ranks: the graph
/// differ asks for every rank's edges, and the store plane answers it from
/// one materialization, as the file plane does.
#[test]
fn localize_reports_the_same_from_a_trc_and_its_store_at_64_ranks() {
    let dir = scratch_dir("localize-64");
    std::fs::create_dir_all(&dir).unwrap();
    let run = |args: &[&str], want: i32| -> String {
        let (code, out, err) = tracedbg_in(&dir, args);
        assert_eq!(code, Some(want), "{args:?}: {err}");
        out
    };
    // Exploration exits 1: it found the race and wrote its artifact.
    run(
        &[
            "explore",
            "sdl:racy-wildcard",
            "--procs",
            "64",
            "--runs",
            "50",
            "--jobs",
            "1",
            "--seed",
            "9",
            "--out",
            "art",
        ],
        1,
    );
    let art = "art/sdl-racy-wildcard-panic-0.sched.json";
    let artifact = std::fs::read_to_string(dir.join(art)).unwrap();
    assert!(artifact.contains("\"procs\":64"), "{artifact}");
    run(&["replay", "--schedule", art, "--trace", "fail.trc"], 0);
    run(&["ingest", "fail.trc", "--out", "fail-store"], 0);
    let localize = |trace: &str| {
        run(
            &["localize", "--schedule", art, "--trace", trace, "--json"],
            0,
        )
    };
    let from_file = localize("fail.trc");
    assert!(
        from_file.contains("\"verdict\":\"localized\""),
        "{from_file}"
    );
    assert_eq!(localize("fail-store"), from_file);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A profile is a function of the trace alone: profiling a workload and
/// profiling that run's `.tbin` give one report but for the fields that
/// name the input (`source`, `workload`, `seed`) and the digest that
/// seals them. The engine once kept a span ring whose overflow count
/// (2760 here) rode along in the report of the run but not of its file.
#[test]
fn a_profile_does_not_depend_on_its_input_plane() {
    let dir = scratch_dir("profile-plane");
    std::fs::create_dir_all(&dir).unwrap();
    let run = |args: &[&str]| -> String {
        let (code, out, err) = tracedbg_in(&dir, args);
        assert_eq!(code, Some(0), "{args:?}: {err}");
        out
    };
    run(&["run", "stencil", "--procs", "64", "--trace", "s.tbin"]);
    let report = |args: &[&str]| {
        let mut r = ProfileReport::from_json(run(args).trim()).expect("a sealed report");
        assert!(r.digest_ok(), "{args:?}");
        (r.source, r.workload, r.seed, r.digest) = Default::default();
        r
    };
    let from_run = report(&["profile", "stencil", "--procs", "64", "--json"]);
    let from_file = report(&["profile", "s.tbin", "--json"]);
    assert_eq!(from_run.procs, 64);
    assert_eq!(from_run, from_file);
    std::fs::remove_dir_all(&dir).unwrap();
}
