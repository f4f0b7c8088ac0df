//! The traced run: every verb of the pass re-enacted in-process, each
//! call into a crate's public functions wrapped in a span.
//!
//! The `tracedbg` binary is not instrumented (that is a later change);
//! what is measured here is the same sequence of library calls `cmd_*`
//! makes, issued from this file. Three things tie the re-enactment to the
//! real thing: the trace file and the debug transcript produced here must
//! be byte-identical to the CLI child's, the CLI verbs are timed in the
//! same run (`cli.*_ms`), and `cli.unattributed_pct_*` states how much of
//! each CLI verb's wall the in-process spans do not cover.
//!
//! A layer metric is the median duration of the spans carrying its name
//! (calls in the microsecond range are repeated at least 30 times);
//! metrics of layers a workload bypasses stay 0.

use crate::child::{Runner, Scratch};
use crate::e2e::{self, fnv64, Expected, SetUp};
use crate::spans::Tracer;
use crate::workload::Workload;
use crate::{spec, stats, Env, RunResult};
use std::collections::BTreeMap;
use std::io::BufReader;
use std::path::{Path, PathBuf};
use std::time::Instant;
use tracedbg_causality::{detect_circular_waits, detect_races, HbIndex};
use tracedbg_debugger::{
    replay_schedule, replay_schedule_from_checkpoint, CommandInterface, HistoryReport, Session,
    SessionConfig, Stopline,
};
use tracedbg_explore::runner::execute;
use tracedbg_explore::shrink::ddmin;
use tracedbg_explore::{ExploreConfig, Explorer};
use tracedbg_instrument::RecorderConfig;
use tracedbg_lint::{lint_trace, LintConfig};
use tracedbg_localize::{localize_with_trace, LocalizeConfig, LocalizeReport};
use tracedbg_mpsim::{set_quiet_panics, Engine, EngineConfig, FaultPlan, SchedPolicy};
use tracedbg_profile::{CriticalPath, ProfileInput, ProfileReport, WaitAnalysis};
use tracedbg_store::{ingest_records, DiskStore, SharedWriter, StoreOptions, StoreWriter};
use tracedbg_trace::file::{read_binary, read_text, write_binary, write_text, TraceFile};
use tracedbg_trace::{
    materialize, trace_digest, MarkerVector, Rank, ScheduleArtifact, Select, Tag, TraceSource,
    TraceStats, TraceStore,
};
use tracedbg_tracegraph::{CommGraph, MessageMatching};
use tracedbg_viz::{render_ascii, TimelineModel};

/// Untraced CLI passes timed alongside the traced ones.
const MIN_CLI_PASSES: usize = 2;
/// In-process passes. Only the first runs on a cold heap, as every CLI
/// child does, so it is the one held against the CLI; the later ones run
/// on the heap the first grew and show what that is worth
/// (`bench.cold_pass_penalty_pct`). Layer spans inside contribute every
/// sample to their median.
const TRACED_PASSES: usize = 3;
/// Samples of `tracedbg workloads`, the process-start floor.
const SPAWN_SAMPLES: usize = 20;

struct Ctx<'a> {
    tr: Tracer,
    w: &'a Workload,
    dir: PathBuf,
    /// Counts and derived values that are not span medians.
    vals: BTreeMap<&'static str, f64>,
    /// Size of the JSON document the encode/decode probes worked on.
    json_bytes: f64,
    /// Cross-checks against the CLI children that failed.
    mismatches: Vec<String>,
}

/// The sampling rule of every probe: 30 samples, or, past three, as many
/// as fit the time budget. Microsecond calls get their 30, 100 ms calls a
/// handful.
fn more_samples(taken: usize, started: Instant, budget_ms: u128) -> bool {
    taken < 30 && (taken < 3 || started.elapsed().as_millis() < budget_ms)
}

impl Ctx<'_> {
    /// Call `f` under `name` as often as [`more_samples`] asks.
    fn probe<T>(&mut self, name: &str, mut f: impl FnMut() -> T) -> T {
        let started = Instant::now();
        let mut out = self.tr.leaf(name, &mut f);
        let mut n = 1;
        while more_samples(n, started, 250) {
            out = self.tr.leaf(name, &mut f);
            n += 1;
        }
        out
    }

    fn median_ns(&self, name: &str) -> f64 {
        stats::median(&self.tr.durations_ns(name)).unwrap_or(0.0)
    }

    fn min_ns(&self, name: &str) -> f64 {
        stats::min(&self.tr.durations_ns(name)).unwrap_or(0.0)
    }

    fn first_ns(&self, name: &str) -> f64 {
        self.tr.durations_ns(name).first().copied().unwrap_or(0.0)
    }

    fn ms(&self, name: &str) -> f64 {
        self.median_ns(name) / 1e6
    }

    fn us(&self, name: &str) -> f64 {
        self.median_ns(name) / 1e3
    }

    fn path(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }

    fn expect_same(&mut self, what: &str, got: u64, want: Option<&u64>) {
        if want.is_some_and(|w| *w != got) {
            self.mismatches.push(format!(
                "in-process {what} is not byte-identical to the CLI child's"
            ));
        }
    }
}

fn write_file(path: &Path, text: &str) {
    std::fs::write(path, text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
}

/// `tracedbg run W --store D/s` (`tee`) or `run W --trace D/t.tbin`.
fn verb_record(c: &mut Ctx, tee: bool) -> TraceStore {
    let (w, dir) = (c.w, c.dir.clone());
    let verb = if tee {
        "verb.record"
    } else {
        "verb.record_file"
    };
    c.tr.span(verb, |tr| {
        let factory = tr.leaf("workloads.factory", || w.factory());
        let mut session = tr.leaf("mpsim.launch_session", || {
            Session::launch(SessionConfig::default(), factory)
        });
        let shared = tee.then(|| {
            tr.leaf("store.create", || {
                let writer = StoreWriter::create(&dir.join("s"), StoreOptions::default())
                    .expect("store dir");
                let shared = SharedWriter::new(writer);
                session.attach_trace_sink(Box::new(shared.clone()));
                shared
            })
        });
        let run = if tee {
            "mpsim.run_session_tee"
        } else {
            "mpsim.run_session"
        };
        let outcome = tr.leaf(run, || format!("outcome: {:?}\n", session.run()));
        let store = tr.leaf("trace.store_build", || session.trace());
        let mut out = outcome;
        if let Some(shared) = shared {
            let summary = tr.leaf("store.finish", || {
                session.detach_trace_sink();
                shared
                    .finish(store.sites(), store.n_ranks())
                    .expect("store finish")
            });
            out.push_str(&format!(
                "store written ({} events, {} bytes)\n",
                summary.n_events, summary.bytes
            ));
        }
        out.push_str(&tr.leaf("trace.stats", || {
            format!("{}\n", TraceStats::compute(store.records()))
        }));
        let report = tr.leaf("debugger.history_report", || HistoryReport::analyze(&store));
        out.push_str(&tr.leaf("debugger.history_render", || format!("{report}\n")));
        if !tee {
            tr.leaf("trace.write_binary_file", || {
                let file = TraceFile::new(
                    store.records().to_vec(),
                    store.sites().clone(),
                    store.n_ranks(),
                );
                let mut f = std::fs::File::create(dir.join("t.tbin")).expect("trace file");
                write_binary(&mut f, &file).expect("trace write");
            });
        }
        tr.leaf("cli.write_stdout", || {
            write_file(&dir.join(format!("{verb}.out")), &out)
        });
        // The CLI process pays for dropping the session and the report too.
        tr.leaf("cli.teardown", || drop((session, report)));
        store
    })
}

/// `tracedbg ingest D/t.tbin --out D/i`.
fn verb_ingest(c: &mut Ctx) {
    let dir = c.dir.clone();
    c.tr.span("verb.ingest", |tr| {
        let tf = tr.leaf("trace.read_binary_file", || {
            let f = std::fs::File::open(dir.join("t.tbin")).expect("trace file");
            read_binary(BufReader::new(f)).expect("trace parse")
        });
        tr.leaf("store.ingest", || {
            ingest_records(
                &tf.records,
                &tf.sites,
                tf.n_ranks,
                &dir.join("i"),
                StoreOptions::default(),
            )
            .expect("ingest")
        });
        tr.leaf("cli.teardown", || drop(tf));
    });
}

fn selector(args: &[String]) -> (&'static str, Select) {
    let value = &args[1];
    match args[0].as_str() {
        "--rank" => (
            "store.query_rank",
            Select::Rank(Rank(value.parse().expect("rank"))),
        ),
        "--tag" => (
            "store.query_tag",
            Select::Tag(Tag(value.parse().expect("tag"))),
        ),
        _ => {
            let (lo, hi) = value.split_once(':').expect("lo:hi");
            (
                "store.query_window",
                Select::TimeWindow(lo.parse().expect("lo"), hi.parse().expect("hi")),
            )
        }
    }
}

/// The query batch: `tracedbg query D/s <selector> --count`, one open per
/// query as separate CLI processes would do.
fn verb_query(c: &mut Ctx, exp: &Expected) {
    let dir = c.dir.clone();
    c.tr.span("verb.query", |tr| {
        for q in &exp.queries {
            let (name, sel) = selector(q);
            let disk = tr.leaf("store.open", || {
                DiskStore::open(&dir.join("s")).expect("open")
            });
            tr.leaf(name, || count_matches(&disk, sel));
        }
    });
}

fn count_matches(disk: &DiskStore, sel: Select) -> usize {
    let mut total = 0;
    for rec in disk.select(sel).expect("cursor") {
        rec.expect("record");
        total += 1;
    }
    total
}

fn open_and_materialize(tr: &mut Tracer, dir: &Path) -> TraceStore {
    let disk = tr.leaf("store.open", || DiskStore::open(dir).expect("open"));
    tr.leaf("store.materialize", || {
        materialize(&disk).expect("materialize")
    })
}

/// `stats`, `profile --json --out`, `lint`, `view` on the store directory.
fn verb_analyze(c: &mut Ctx) {
    let dir = c.dir.clone();
    let store_dir = dir.join("s");
    c.tr.span("verb.analyze", |tr| {
        tr.span("verb.analyze.stats", |tr| {
            let disk = tr.leaf("store.open", || DiskStore::open(&store_dir).expect("open"));
            let text = tr.leaf("trace.stats_source", || {
                TraceStats::from_source(&disk).expect("stats").to_string()
            });
            tr.leaf("cli.write_stdout", || {
                write_file(&dir.join("stats.out"), &text)
            });
        });
        tr.span("verb.analyze.profile", |tr| {
            let store = open_and_materialize(tr, &store_dir);
            let workload = store_dir.to_string_lossy().into_owned();
            let report = tr.leaf("profile.report", || {
                ProfileReport::build(
                    &store,
                    ProfileInput {
                        source: "store",
                        workload: &workload,
                        procs: store.n_ranks(),
                        seed: 0,
                        flight_dropped: 0,
                    },
                )
            });
            // `--json --out` encodes the report twice: stdout and the file.
            let json = tr.leaf("serde_json.encode_report", || report.to_json());
            tr.leaf("cli.write_stdout", || {
                write_file(&dir.join("profile.out"), &json)
            });
            let json = tr.leaf("serde_json.encode_report", || report.to_json());
            tr.leaf("cli.write_stdout", || {
                write_file(&dir.join("p.json"), &json)
            });
            tr.leaf("cli.teardown", || drop((store, report)));
        });
        tr.span("verb.analyze.lint", |tr| {
            let store = open_and_materialize(tr, &store_dir);
            let diags = tr.leaf("lint.trace", || lint_trace(&store, &LintConfig::default()));
            let text = tr.leaf("lint.render", || {
                tracedbg_lint::report::render_human(&diags)
            });
            tr.leaf("cli.write_stdout", || {
                write_file(&dir.join("lint.out"), &text)
            });
            tr.leaf("cli.teardown", || drop((store, diags)));
        });
        tr.span("verb.analyze.view", |tr| {
            let store = open_and_materialize(tr, &store_dir);
            let matching = tr.leaf("tracegraph.matching", || MessageMatching::build(&store));
            let text = tr.leaf("viz.timeline", || {
                render_ascii(&TimelineModel::build(&store, &matching, false), 120)
            });
            tr.leaf("cli.write_stdout", || {
                write_file(&dir.join("view.out"), &text)
            });
            tr.leaf("cli.teardown", || drop((store, matching)));
        });
    });
}

/// The scripted `tracedbg debug W -e ...` session. Returns the transcript.
fn verb_debug(c: &mut Ctx, exp: &Expected) -> String {
    let (w, dir) = (c.w, c.dir.clone());
    let (transcript, cache) = c.tr.span("verb.debug", |tr| {
        let factory = tr.leaf("workloads.factory", || w.factory());
        let session = tr.leaf("mpsim.launch_session", || {
            Session::launch(SessionConfig::default(), factory)
        });
        let mut ci = CommandInterface::new(session);
        let mut transcript = String::new();
        for cmd in &exp.debug_script {
            let name = match cmd.split_whitespace().next().unwrap_or("") {
                "run" => "debugger.run",
                "stopline" => "debugger.stopline",
                "replay" => "debugger.replay_to",
                "step" => "debugger.step",
                "undo" => "debugger.undo",
                _ => "debugger.markers",
            };
            let reply = tr.leaf(name, || ci.execute(cmd));
            transcript.push_str(&reply);
            transcript.push('\n');
        }
        tr.leaf("cli.write_stdout", || {
            write_file(&dir.join("debug.out"), &transcript)
        });
        let cache = ci.session().telemetry().cache;
        tr.leaf("cli.teardown", || drop(ci));
        (transcript, cache)
    });
    c.vals.insert("debugger.ckpt_hits", cache.hits as f64);
    c.vals.insert("debugger.ckpt_misses", cache.misses as f64);
    transcript
}

/// Engine-level probes every workload has: launch, run (recorder on/off,
/// metrics on/off), the decision log, snapshot and restore.
fn probe_engine(c: &mut Ctx) -> TraceStore {
    let w = c.w;
    c.probe("workloads.factory_and_programs", || w.factory()().len());
    let factory = w.factory();
    let config = |recorder: RecorderConfig, metrics: bool| EngineConfig {
        recorder,
        metrics,
        ..Default::default()
    };
    // The three configurations take turns, so a slow spell of the box
    // falls on all of them alike.
    let started = Instant::now();
    let mut rounds = 0;
    while more_samples(rounds, started, 1200) {
        for (name, recorder, metrics) in [
            ("mpsim.run", RecorderConfig::full(), false),
            ("mpsim.run_recorder_off", RecorderConfig::off(), false),
            ("mpsim.run_metrics_on", RecorderConfig::full(), true),
        ] {
            let programs = factory();
            let mut engine = c.tr.leaf("mpsim.launch", || {
                Engine::launch(config(recorder, metrics), programs)
            });
            assert!(c.tr.leaf(name, || engine.run()).is_completed());
        }
        rounds += 1;
    }
    let mut engine = Engine::launch(config(RecorderConfig::full(), true), factory());
    assert!(engine.run().is_completed());
    let alternatives: usize = engine
        .decision_points()
        .iter()
        .map(|d| d.alternatives.len())
        .sum();
    let metrics = engine.take_metrics().expect("metrics were on");
    c.vals.insert("mpsim.turns", metrics.turns as f64);
    c.vals.insert("mpsim.matches", metrics.matches as f64);
    c.vals
        .insert("mpsim.decision_alternatives", alternatives as f64);
    let store = engine.trace_store();

    // Stop half-way through every rank's history, then snapshot/restore.
    let target = engine.markers();
    let mut stopped = Engine::launch(
        EngineConfig {
            recorder: RecorderConfig::full(),
            checkpoints: true,
            ..Default::default()
        },
        factory(),
    );
    for m in target.iter() {
        stopped.set_threshold(m.rank, Some((m.count / 2).max(1)));
    }
    if stopped.run().is_stopped() {
        let cp = c.probe("mpsim.snapshot", || stopped.snapshot());
        let started = Instant::now();
        let mut n = 0;
        while more_samples(n, started, 250) {
            let programs = factory();
            let restored =
                c.tr.leaf("mpsim.restore", || Engine::restore(&cp, programs));
            assert_eq!(restored.markers(), cp.markers());
            n += 1;
        }
    }
    store
}

/// Trace-file, matching and causality layers on the recorded trace.
fn probe_trace_layers(c: &mut Ctx, store: &TraceStore) {
    let file = TraceFile::new(
        store.records().to_vec(),
        store.sites().clone(),
        store.n_ranks(),
    );
    let mut binary = Vec::new();
    c.probe("trace.write_binary", || {
        binary.clear();
        write_binary(&mut binary, &file).expect("in-memory write");
    });
    c.probe("trace.read_binary", || {
        read_binary(binary.as_slice()).expect("parse").records.len()
    });
    let mut text = Vec::new();
    c.probe("trace.write_text", || {
        text.clear();
        write_text(&mut text, &file).expect("in-memory write");
    });
    c.probe("trace.read_text", || {
        read_text(text.as_slice()).expect("parse").records.len()
    });
    c.probe("trace.digest", || trace_digest(store.records()));
    c.probe("trace.stats", || {
        TraceStats::compute(store.records()).to_string()
    });
    let matching = c.probe("tracegraph.matching", || MessageMatching::build(store));
    c.probe("tracegraph.commgraph", || {
        CommGraph::build(store, &matching)
    });
    let hb = c.probe("causality.hb_build", || HbIndex::build(store, &matching));
    c.probe("causality.races", || {
        detect_races(store, &matching, &hb).len()
    });
    c.probe("causality.circular_waits", || {
        detect_circular_waits(store, &matching).len()
    });
}

/// Store and analysis layers that only the trace-family verbs reach.
fn probe_store_layers(c: &mut Ctx, store: &TraceStore, exp: &Expected) {
    let dir = c.path("s");
    c.probe("store.open", || {
        DiskStore::open(&dir).expect("open").n_events()
    });
    c.vals
        .insert("store.bytes", crate::child::dir_bytes(&dir) as f64);
    // A fresh handle per query, as every `tracedbg query` process has: the
    // segment cache is cold, the page cache warm.
    for _ in 0..8 {
        for q in &exp.queries {
            let (name, sel) = selector(q);
            let disk = DiskStore::open(&dir).expect("open");
            c.tr.leaf(name, || count_matches(&disk, sel));
        }
    }
    let disk = DiskStore::open(&dir).expect("open");
    c.probe("store.materialize", || {
        materialize(&disk).expect("materialize").len()
    });
    c.probe("store.verify", || disk.verify().expect("verify"));
    let probe_dir = c.path("probe-ingest");
    c.probe("store.ingest", || {
        ingest_records(
            store.records(),
            store.sites(),
            store.n_ranks(),
            &probe_dir,
            StoreOptions::default(),
        )
        .expect("ingest")
        .bytes
    });

    let matching = MessageMatching::build(store);
    c.probe("profile.wait", || {
        WaitAnalysis::build(store, &matching).waits.len()
    });
    c.probe("profile.path", || CriticalPath::build(store, &matching).len);
    let input = || ProfileInput {
        source: "probe",
        workload: "probe",
        procs: store.n_ranks(),
        seed: 0,
        flight_dropped: 0,
    };
    let report = c.probe("profile.report", || ProfileReport::build(store, input()));
    c.probe("profile.seal", || {
        let mut r = report.clone();
        r.seal();
        r.digest
    });
    let json = c.probe("serde_json.encode_report", || report.to_json());
    c.probe("serde_json.decode_report", || {
        ProfileReport::from_json(&json).expect("decode").events
    });
    c.json_bytes = json.len() as f64;
    c.probe("lint.trace", || {
        lint_trace(store, &LintConfig::default()).len()
    });
    c.probe("viz.timeline", || {
        render_ascii(&TimelineModel::build(store, &matching, false), 120).len()
    });
}

fn traced_trace_family(c: &mut Ctx, setup: &SetUp) {
    let exp = &setup.expected;
    let mut transcript = String::new();
    for _ in 0..TRACED_PASSES {
        verb_record(c, true);
        verb_record(c, false);
        verb_ingest(c);
        verb_query(c, exp);
        verb_analyze(c);
        transcript = verb_debug(c, exp);
    }

    let tbin = std::fs::read(c.path("t.tbin")).expect("trace file");
    c.expect_same(
        "trace file",
        fnv64(&tbin),
        setup.fingerprint.get("trace_file"),
    );
    c.expect_same(
        "debug transcript",
        fnv64(transcript.as_bytes()),
        setup.fingerprint.get("debug_transcript"),
    );

    let store = probe_engine(c);
    probe_trace_layers(c, &store);
    probe_store_layers(c, &store, exp);
    c.vals.insert("work.records", store.len() as f64);
}

/// `explore W --runs N --jobs 1 [--dpor] --json --out D/x`.
fn verb_explore(c: &mut Ctx, jobs: usize, span: &str) -> Option<ScheduleArtifact> {
    let (w, dir) = (c.w, c.dir.clone());
    let (runs, _) = w.hunt_budgets();
    let (report, wall_ns) = c.tr.span(span, |tr| {
        let factory = tr.leaf("workloads.factory", || w.factory());
        let independence = w.script().map(|(parsed, file)| {
            tr.leaf("analysis.static", || {
                tracedbg_analysis::analyze(&parsed, w.procs(), &file).independence
            })
        });
        let cfg = ExploreConfig {
            workload: w.target(),
            seed: w.seed,
            runs,
            jobs,
            independence,
            ..Default::default()
        };
        let started = Instant::now();
        let (report, _) = tr.leaf("explore.search", || {
            Explorer::new(cfg, factory).explore_traced()
        });
        let wall_ns = started.elapsed().as_nanos() as f64;
        let json = tr.leaf("serde_json.encode_explore", || report.to_json());
        tr.leaf("cli.write_stdout", || {
            write_file(&dir.join("explore.out"), &json);
            for f in &report.findings {
                write_file(
                    &dir.join(format!("{}.sched.json", f.class)),
                    &f.artifact.to_json(),
                );
            }
        });
        (report, wall_ns)
    });
    if jobs == 1 {
        c.vals
            .insert("explore.runs_executed", report.runs_executed as f64);
        c.vals.insert("explore.runs_pruned", report.pruned as f64);
        c.vals
            .insert("explore.runs_skipped_sleep", report.sleep_skipped as f64);
        c.vals.insert(
            "explore.ns_per_run",
            wall_ns / report.runs_executed.max(1) as f64,
        );
        c.vals
            .insert("work.runs", (report.runs_executed + report.aux_runs) as f64);
    }
    report
        .findings
        .into_iter()
        .find(|f| f.class == "panic")
        .map(|f| f.artifact)
}

/// `localize --schedule ART --runs N --seed S --jobs 1 --json --out D/l.json`.
fn verb_localize(c: &mut Ctx) -> LocalizeReport {
    let (w, dir) = (c.w, c.dir.clone());
    let (_, runs) = w.hunt_budgets();
    c.vals.insert("localize.reference_runs", runs as f64);
    c.tr.span("verb.localize", |tr| {
        let artifact = tr.leaf("serde_json.decode_artifact", || {
            let json = std::fs::read_to_string(dir.join("panic.sched.json")).expect("artifact");
            ScheduleArtifact::from_json(&json).expect("artifact parse")
        });
        let factory = tr.leaf("workloads.factory", || w.factory());
        let cfg = LocalizeConfig {
            runs,
            seed: w.seed,
            jobs: 1,
        };
        let report = tr.leaf("localize.total", || {
            localize_with_trace(&factory, &artifact, &cfg, None)
        });
        // `--json --out` encodes the report twice: stdout and the file.
        let json = tr.leaf("serde_json.encode_localize", || report.to_json());
        tr.leaf("cli.write_stdout", || {
            write_file(&dir.join("localize.out"), &json)
        });
        let json = tr.leaf("serde_json.encode_localize", || report.to_json());
        tr.leaf("cli.write_stdout", || {
            write_file(&dir.join("l.json"), &json)
        });
        report
    })
}

/// `replay --schedule ART`, `--from-checkpoint`, `--to-suspect D/l.json`.
fn verb_replay(c: &mut Ctx, artifact: &ScheduleArtifact, report: &LocalizeReport) {
    let w = c.w;
    c.tr.span("verb.replay", |tr| {
        let straight = tr.leaf("debugger.schedule_replay", || {
            replay_schedule(artifact, w.factory())
        });
        assert_eq!(Some(straight.class.as_str()), artifact.failure.as_deref());
        let ck = tr.leaf("debugger.schedule_replay_ckpt", || {
            replay_schedule_from_checkpoint(artifact, w.factory())
        });
        assert!(ck.reproduced, "restored run must be byte-identical");
        if let Some(d) = &report.divergence {
            let stopline = Stopline {
                markers: MarkerVector::from_counts(d.markers.clone()),
                origin: "localize divergence".into(),
            };
            let mut session = Session::launch(
                SessionConfig {
                    policy: SchedPolicy::Scripted(artifact.decisions.clone()),
                    faults: FaultPlan::new(artifact.faults.clone()),
                    ..SessionConfig::default()
                },
                w.factory(),
            );
            tr.leaf("debugger.run", || {
                session.run();
            });
            tr.leaf("debugger.replay_to", || {
                session.replay_to(&stopline);
            });
            assert_eq!(
                session.markers().counts(),
                d.markers.as_slice(),
                "frontier reached"
            );
        }
    });
}

fn traced_hunt(c: &mut Ctx, setup: &SetUp) {
    let mut found = None;
    for _ in 0..TRACED_PASSES {
        let artifact = verb_explore(c, 1, "verb.explore").expect("the planted failure is found");
        // The failing runs below panic on purpose; `explore` itself
        // silences them and switches the noise back on when it returns.
        set_quiet_panics(true);
        let report = verb_localize(c);
        verb_replay(c, &artifact, &report);
        found = Some(artifact);
    }
    let artifact = found.expect("at least one traced pass");
    let json = std::fs::read(c.path("l.json")).expect("localize report");
    c.expect_same(
        "localize report",
        fnv64(&json),
        setup.fingerprint.get("localize_report"),
    );
    let json = std::fs::read(c.path("explore.out")).expect("explore report");
    // The CLI prints the report with `println!`: one trailing newline.
    c.expect_same(
        "explore report",
        fnv64(&[&json[..], b"\n"].concat()),
        setup.fingerprint.get("explore_report"),
    );

    // The same search on every core: informational on a 2-CPU box.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    verb_explore(c, cores, "explore.search_all_cores");
    set_quiet_panics(true);
    let (one, all) = (
        c.min_ns("verb.explore"),
        c.min_ns("explore.search_all_cores"),
    );
    c.vals.insert(
        "explore.jobs_speedup",
        if all > 0.0 { one / all } else { 0.0 },
    );

    // Shrinking, called directly: delta-debug the failing run's full
    // decision log down to the decisions that force the failure.
    let w = c.w;
    let factory = w.factory();
    let failing = execute(
        &factory,
        SchedPolicy::Scripted(artifact.decisions.clone()),
        &artifact.faults,
    );
    let class = failing.class;
    c.probe("explore.shrink", || {
        ddmin(
            failing.decisions.clone(),
            ExploreConfig::default().shrink_budget,
            |d| {
                execute(
                    &factory,
                    SchedPolicy::Scripted(d.to_vec()),
                    &artifact.faults,
                )
                .class
                    == class
            },
        )
        .len()
    });
    let artifact_json = c.probe("serde_json.encode_artifact", || artifact.to_json());
    c.probe("serde_json.decode_artifact", || {
        ScheduleArtifact::from_json(&artifact_json)
            .expect("decode")
            .decisions
            .len()
    });
    c.json_bytes = artifact_json.len() as f64;
    if let Some(source) = w.script_source() {
        c.probe("workloads.script_parse", || {
            tracedbg_workloads::script::parse(source).is_ok()
        });
    }

    let store = probe_engine(c);
    c.probe("trace.digest", || trace_digest(store.records()));
    c.vals.insert("work.records", store.len() as f64);
    set_quiet_panics(false);
}

/// Median wall (ms) of a CLI verb over the untraced passes of this run:
/// taken moments before the traced pass, so in the same mood of the box.
fn cli_median_ms(passes: &[e2e::Pass], verb: &str) -> f64 {
    let v: Vec<f64> = passes
        .iter()
        .filter_map(|p| p.walls.get(verb).copied())
        .collect();
    stats::median(&v).unwrap_or(0.0) * 1e3
}

/// Wall (ms) of a CLI verb in its fastest untraced pass: the estimator the
/// end-to-end metrics use, for the reason given there.
fn cli_ms(passes: &[e2e::Pass], verb: &str) -> f64 {
    let v: Vec<f64> = passes
        .iter()
        .filter_map(|p| p.walls.get(verb).copied())
        .collect();
    stats::min(&v).unwrap_or(0.0) * 1e3
}

fn pct(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        100.0 * part / whole
    } else {
        0.0
    }
}

/// The traced run of one workload: every per-layer metric.
pub fn run(
    env: &Env,
    runner: &mut Runner,
    scratch: &Scratch,
    w: &Workload,
    seconds: f64,
) -> RunResult {
    // Untraced CLI passes first: the verb walls the spans are held against.
    let setup = e2e::set_up(runner, scratch, w);
    let started = Instant::now();
    let mut cli = Vec::new();
    while cli.len() < MIN_CLI_PASSES || started.elapsed().as_secs_f64() < seconds / 3.0 {
        cli.push(e2e::run_pass(
            runner,
            scratch,
            w,
            &setup.expected,
            setup.reference_debug,
            cli.len() + 1,
        ));
    }
    let spawn_dir = scratch.sub("spawn").expect("scratch subdirectory");
    let spawn_s: Vec<f64> = (0..SPAWN_SAMPLES)
        .filter_map(|_| runner.run(&spawn_dir, &["workloads".to_string()], 0))
        .map(|d| d.wall_s)
        .collect();

    let mut c = Ctx {
        tr: Tracer::new(w.name()),
        w,
        dir: scratch.sub("traced").expect("scratch subdirectory"),
        vals: BTreeMap::new(),
        json_bytes: 0.0,
        mismatches: Vec::new(),
    };
    if w.is_hunt() {
        traced_hunt(&mut c, &setup);
    } else {
        traced_trace_family(&mut c, &setup);
    }

    let spans_path = env.out_dir.join(format!("spans-{}.json", w.name()));
    if let Err(e) = std::fs::write(&spans_path, c.tr.to_chrome_json()) {
        c.mismatches.push(format!("{}: {e}", spans_path.display()));
    }
    for m in std::mem::take(&mut c.mismatches) {
        runner.ops_attempted += 1;
        runner.fail(m);
    }

    let records = c.vals.get("work.records").copied().unwrap_or(0.0);
    let timed_verbs = if w.is_hunt() {
        [&e2e::PRODUCE_HUNT[..], &e2e::INSPECT_HUNT[..]].concat()
    } else {
        [&e2e::PRODUCE_TRACE[..], &e2e::INSPECT_TRACE[..]].concat()
    };
    let cli_pass_ms: f64 = timed_verbs.iter().map(|v| cli_ms(&cli, v)).sum();
    let cli_pass_median_ms: f64 = timed_verbs.iter().map(|v| cli_median_ms(&cli, v)).sum();
    let cold_pass_ms: f64 = timed_verbs
        .iter()
        .map(|v| c.first_ns(&format!("verb.{v}")) / 1e6)
        .sum();
    let warm_pass_ms: f64 = timed_verbs
        .iter()
        .map(|v| c.min_ns(&format!("verb.{v}")) / 1e6)
        .sum();
    let unattributed = |verb: &str| {
        let (whole, covered) = (
            cli_median_ms(&cli, verb),
            c.first_ns(&format!("verb.{verb}")) / 1e6,
        );
        pct(whole - covered, whole)
    };
    let mb_per_s = |bytes: f64, ns: f64| {
        if ns > 0.0 {
            bytes / 1e6 / (ns / 1e9)
        } else {
            0.0
        }
    };
    let json_bytes = c.json_bytes;
    let (encode, decode) = if w.is_hunt() {
        ("serde_json.encode_artifact", "serde_json.decode_artifact")
    } else {
        ("serde_json.encode_report", "serde_json.decode_report")
    };
    let report_self = c.ms("profile.report")
        - c.ms("tracegraph.matching")
        - c.ms("profile.wait")
        - c.ms("profile.path");
    let run_ns = c.median_ns("mpsim.run");
    let (fastest_run, fastest_off, fastest_metered) = (
        c.min_ns("mpsim.run"),
        c.min_ns("mpsim.run_recorder_off"),
        c.min_ns("mpsim.run_metrics_on"),
    );
    let store_bytes = c.vals.get("store.bytes").copied().unwrap_or(0.0);
    let peak_rss_mb = cli.iter().map(|p| p.peak_rss_kb).max().unwrap_or(0) as f64 / 1024.0;
    let p90_us =
        |name: &str| stats::percentile(&c.tr.durations_ns(name), 90.0).unwrap_or(0.0) / 1e3;

    let derived: Vec<(&'static str, f64)> = vec![
        ("mpsim.launch_us", c.us("mpsim.launch")),
        (
            "mpsim.run_ns_per_record",
            if records > 0.0 { run_ns / records } else { 0.0 },
        ),
        ("mpsim.snapshot_us", c.us("mpsim.snapshot")),
        ("mpsim.restore_us", c.us("mpsim.restore")),
        (
            "instrument.record_overhead_pct",
            pct(fastest_run - fastest_off, fastest_off),
        ),
        (
            "obs.metrics_overhead_pct",
            pct(fastest_metered - fastest_run, fastest_run),
        ),
        (
            "workloads.factory_ms",
            c.ms("workloads.factory_and_programs"),
        ),
        ("workloads.script_parse_us", c.us("workloads.script_parse")),
        ("trace.store_build_ms", c.ms("trace.store_build")),
        ("trace.stats_ms", c.ms("trace.stats")),
        ("trace.write_binary_ms", c.ms("trace.write_binary")),
        ("trace.read_binary_ms", c.ms("trace.read_binary")),
        ("trace.write_text_ms", c.ms("trace.write_text")),
        ("trace.read_text_ms", c.ms("trace.read_text")),
        ("trace.digest_us", c.us("trace.digest")),
        (
            "store.tee_overhead_ms",
            c.ms("mpsim.run_session_tee") - c.ms("mpsim.run_session"),
        ),
        ("store.ingest_ms", c.ms("store.ingest")),
        ("store.open_us", c.us("store.open")),
        ("store.query_rank_us", c.us("store.query_rank")),
        ("store.query_rank_us_p90", p90_us("store.query_rank")),
        ("store.query_tag_us", c.us("store.query_tag")),
        ("store.query_tag_us_p90", p90_us("store.query_tag")),
        ("store.query_window_us", c.us("store.query_window")),
        ("store.query_window_us_p90", p90_us("store.query_window")),
        ("store.materialize_ms", c.ms("store.materialize")),
        ("store.verify_ms", c.ms("store.verify")),
        (
            "store.bytes_per_record",
            if records > 0.0 {
                store_bytes / records
            } else {
                0.0
            },
        ),
        ("tracegraph.matching_ms", c.ms("tracegraph.matching")),
        ("tracegraph.commgraph_ms", c.ms("tracegraph.commgraph")),
        ("causality.hb_build_ms", c.ms("causality.hb_build")),
        (
            "causality.hb_share_of_record_pct",
            pct(c.ms("causality.hb_build"), cli_ms(&cli, "record")),
        ),
        ("causality.races_ms", c.ms("causality.races")),
        (
            "causality.circular_waits_ms",
            c.ms("causality.circular_waits"),
        ),
        (
            "debugger.history_report_ms",
            c.first_ns("debugger.history_report") / 1e6,
        ),
        ("debugger.replay_to_ms", c.ms("debugger.replay_to")),
        ("debugger.step_us", c.us("debugger.step")),
        ("debugger.undo_ms", c.ms("debugger.undo")),
        (
            "debugger.schedule_replay_ms",
            c.ms("debugger.schedule_replay"),
        ),
        ("profile.wait_ms", c.ms("profile.wait")),
        ("profile.path_ms", c.ms("profile.path")),
        ("profile.report_build_ms", report_self.max(0.0)),
        ("profile.seal_ms", c.ms("profile.seal")),
        ("lint.trace_ms", c.ms("lint.trace")),
        ("viz.timeline_ms", c.ms("viz.timeline")),
        (
            "serde_json.encode_mb_per_s",
            mb_per_s(json_bytes, c.median_ns(encode)),
        ),
        (
            "serde_json.decode_mb_per_s",
            mb_per_s(json_bytes, c.median_ns(decode)),
        ),
        ("explore.shrink_ms", c.ms("explore.shrink")),
        ("analysis.static_us", c.us("analysis.static")),
        (
            "localize.ns_per_reference_run",
            c.median_ns("localize.total")
                / c.vals
                    .get("localize.reference_runs")
                    .copied()
                    .unwrap_or(1.0)
                    .max(1.0),
        ),
        ("localize.total_ms", c.ms("localize.total")),
        ("cli.spawn_ms", stats::median(&spawn_s).unwrap_or(0.0) * 1e3),
        ("cli.record_ms", cli_ms(&cli, "record")),
        (
            "cli.record_ns_per_record",
            if records > 0.0 && !w.is_hunt() {
                cli_ms(&cli, "record") * 1e6 / records
            } else {
                0.0
            },
        ),
        ("cli.record_file_ms", cli_ms(&cli, "record_file")),
        ("cli.ingest_ms", cli_ms(&cli, "ingest")),
        (
            "cli.query_ms",
            cli_ms(&cli, "query") / setup.expected.queries.len().max(1) as f64,
        ),
        ("cli.analyze_ms", cli_ms(&cli, "analyze")),
        ("cli.debug_ms", cli_ms(&cli, "debug")),
        ("cli.explore_ms", cli_ms(&cli, "explore")),
        ("cli.localize_ms", cli_ms(&cli, "localize")),
        ("cli.replay_ms", cli_ms(&cli, "replay")),
        ("cli.unattributed_pct_record", unattributed("record")),
        ("cli.unattributed_pct_analyze", unattributed("analyze")),
        ("cli.unattributed_pct_debug", unattributed("debug")),
        ("cli.unattributed_pct_explore", unattributed("explore")),
        ("cli.unattributed_pct_localize", unattributed("localize")),
        ("cli.peak_rss_mb", peak_rss_mb),
        (
            "bench.traced_vs_cli_pct",
            pct(cold_pass_ms - cli_pass_median_ms, cli_pass_median_ms),
        ),
        ("bench.traced_pass_ms", cold_pass_ms),
        (
            "bench.cold_pass_penalty_pct",
            pct(cold_pass_ms - warm_pass_ms, cold_pass_ms),
        ),
        ("bench.cli_pass_ms", cli_pass_ms),
        ("bench.spans", c.tr.spans().len() as f64),
        ("work.ranks", w.procs() as f64),
    ];
    let mut values: BTreeMap<&str, f64> = c.vals.clone();
    values.extend(derived);
    for name in values.keys() {
        assert!(
            spec::PER_LAYER.iter().any(|m| m.name == *name),
            "{name} is not in the manifest"
        );
    }

    let metrics = spec::PER_LAYER
        .iter()
        .map(|m| (m.name, values.get(m.name).copied().unwrap_or(0.0), m.unit))
        .collect();
    RunResult {
        correct: runner.ops_failed == 0,
        attempted: runner.ops_attempted,
        failed: runner.ops_failed,
        metrics,
        detail: BTreeMap::new(),
        failures: runner.failures.clone(),
        passes: cli.len(),
    }
}
