//! The determinism oracle: a recorded run is reproduced exactly by every
//! path back to it (§2, §4.2).
//!
//! A case is a program, a process count, a fault plan and a schedule seed,
//! drawn by the one generator in `oracle/cases.rs`: a random SDL program
//! over 2–16 or 65–130 ranks, or a corpus script. [`check`] runs the case
//! on the engine and then every other
//! way; each leg must give the engine run's outcome, `trace_digest` and
//! record vector, and holds its own contract besides:
//!
//! | leg | its own contract |
//! |---|---|
//! | `engine` | the consuming hand-over (`into_trace_store`) is the gathered trace |
//! | `session` | `Session::run`, its trace and its hand-over |
//! | `files` | `.trc` and `.tbin` round trips keep ranks, sites and the profile |
//! | `store` | every `DiskStore` query of `ingest_store`'s image equals a linear scan, `comm_edges` and `materialize` (and its profile) included; a shuffled `ingest_records` and an engine's tee write the same files |
//! | `replay` | `replay_schedule` of the run's artifact does not diverge |
//! | `snapshot` | a snapshot at a random decision restores twice to the straight run's state digest (and decision log; the second restore follows the recorded match log), after a debugger drove a restored copy on (ranks stepped alone, a breakpoint and a watch armed and cleared); the snapshots the drive took restore to where the drive went |
//! | `hand-over` | a restored run hands over the trace, its checkpoint held or dropped |
//! | `log` | the recorded match log decides the run under another seed, from launch and installed at a restored depth |
//! | `metrics` | `EngineMetrics` equal recounts from the trace and the schedule log |
//! | `digest` | over seeded schedules of the case, two runs' order-free `run_digest`s are equal exactly when the `trace_digest`s of their canonical traces are, and a run's digest is that of its canonical trace |
//! | `explore` | reports at `jobs` 1 and 4 are byte-identical |
//! | `may-match` | every dynamic match lies in the static `MayMatch` relation |
//! | `profile` | critical path ≤ makespan ≤ busy + wait, per-rank shares sum, the sealed report round-trips, the path runs forward, every wait has a cause |
//!
//! The compat `proptest` neither shrinks nor prints inputs, so a failure
//! is re-raised with the case printed as the literal a pinned test takes.

use proptest::prelude::TestRng;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use tracedbg::analysis::analyze;
use tracedbg::explore::{execute_task, RunTask};
use tracedbg::instrument::{Watch, WatchCond};
use tracedbg::mpsim::{set_quiet_panics, FaultPlan, ReplayLog};
use tracedbg::prelude::*;
use tracedbg::store::{ingest_records, ingest_store};
use tracedbg::trace::diff::{run_digest, trace_digest};
use tracedbg::trace::file::{read_binary, read_text, write_binary, write_text, TraceFile};
use tracedbg::trace::schedule::{Alternatives, Decision, DecisionPoint};
use tracedbg::trace::Select;
use tracedbg::workloads::script::{self, Script};

#[path = "oracle/cases.rs"]
mod cases;

use cases::*;

/// Ranks per block of a checkpoint's rank tables.
const BLOCK: usize = 64;

// ------------------------------------------------------------------ check

/// What every path back to the run must reproduce.
struct Ending {
    outcome: String,
    digest: u64,
    records: Vec<TraceRecord>,
}

impl Ending {
    fn new(outcome: String, records: &[TraceRecord]) -> Ending {
        let (digest, records) = (trace_digest(records), records.to_vec());
        Ending {
            outcome,
            digest,
            records,
        }
    }

    fn of(o: &RunOutcome, e: &mut Engine) -> Ending {
        Ending::new(
            format!("{}: {}", o.class(), o.detail()),
            e.trace_store().records(),
        )
    }

    fn assert_is(&self, want: &Ending, leg: &str) {
        assert_eq!(self.outcome, want.outcome, "{leg}: outcome");
        assert_same_records(&self.records, &want.records, leg);
        assert_eq!(self.digest, want.digest, "{leg}: trace_digest");
    }
}

fn assert_same_records(got: &[TraceRecord], want: &[TraceRecord], leg: &str) {
    let (n, m) = (got.len(), want.len());
    if let Some(i) = (0..n.max(m)).find(|&i| got.get(i) != want.get(i)) {
        let (g, w) = (got.get(i), want.get(i));
        panic!("{leg}: record {i} of {n}/{m} differs: {g:?} vs {w:?}");
    }
}

/// Where a restored or driven engine goes: where it stops with what is
/// armed still armed, then disarmed to the end (its outcome, state
/// digest and trace), and its decision log.
type Finish = (Ending, Vec<DecisionPoint>);

fn finish(e: &mut Engine) -> Finish {
    e.clear_pauses();
    e.resume_trapped();
    let armed = e.run();
    e.clear_thresholds();
    e.clear_breaks();
    e.clear_pauses();
    e.resume_trapped();
    let o = e.run();
    let mut ending = Ending::of(&o, e);
    ending.outcome = format!("{armed:?}, then {}, state {}", ending.outcome, e.digest());
    (ending, e.decision_points().clone().into_vec())
}

fn assert_finish(got: Finish, want: &Finish, leg: &str) {
    got.0.assert_is(&want.0, leg);
    assert!(got.1 == want.1, "{leg}: decision log");
}

/// Step `rank` alone by one event while the rest hold.
fn step(e: &mut Engine, rank: Rank) {
    e.pause_all_but([rank]);
    e.set_threshold(rank, Some(e.markers().get(rank) + 1));
    e.resume_rank(rank);
    let _ = e.run();
    e.clear_pauses();
    e.set_threshold(rank, None);
}

/// Whether the linear scan of a selection keeps `r`.
fn selects(sel: Select, r: &TraceRecord) -> bool {
    match sel {
        Select::All => true,
        Select::Rank(rank) => r.rank == rank,
        Select::Tag(tag) => r.msg.is_some_and(|m| m.tag == tag),
        Select::Kind(kind) => r.kind == kind,
        Select::TimeWindow(lo, hi) => r.t_start <= hi && r.t_end >= lo,
    }
}

/// What a case showed, for the mix the default case set must have: its
/// outcome class, whether a wildcard receive had more than one message
/// to take, and whether a checkpoint of more than one block of ranks was
/// restored.
type Seen = (&'static str, bool, bool);

/// Run `case` every way and assert that they agree; a failure is re-raised
/// with the case attached.
fn check(case: &Case) -> Seen {
    set_quiet_panics(true);
    catch_unwind(AssertUnwindSafe(|| Run::new(case).legs())).unwrap_or_else(|e| {
        let why = (e.downcast_ref::<String>().map(String::as_str))
            .or_else(|| e.downcast_ref::<&str>().copied());
        panic!("{}\nfailing case:\n{case}", why.unwrap_or("(no message)"))
    })
}

/// A case's engine run, which every leg must reproduce.
struct Run<'a> {
    case: &'a Case,
    script: Script,
    store: TraceStore,
    want: Ending,
    class: &'static str,
    state: u64,
    decisions: Vec<DecisionPoint>,
    schedule: Vec<Decision>,
    log: Arc<ReplayLog>,
    /// What a leg picks at random follows from the schedule seed.
    rng: TestRng,
}

impl<'a> Run<'a> {
    fn new(case: &'a Case) -> Run<'a> {
        let script = script::parse(&case.source).expect("the case parses");
        let programs = script::programs(&script, case.procs, &case.file);
        let mut engine = Engine::launch(case.config(), programs);
        let o = engine.run();
        let run = Run {
            case,
            want: Ending::of(&o, &mut engine),
            store: engine.trace_store(),
            class: o.class(),
            state: engine.digest(),
            decisions: engine.decision_points().clone().into_vec(),
            schedule: engine.schedule_log(),
            log: Arc::new(engine.match_log()),
            script,
            rng: TestRng::seeded(case.seed ^ 0x0a_c1e5),
        };
        let handed = engine.into_trace_store();
        assert_same_records(handed.records(), &run.want.records, "engine: hand-over");
        run
    }

    fn factory(&self) -> ProgramFactory {
        let (script, procs, file) = (self.script.clone(), self.case.procs, self.case.file.clone());
        Box::new(move || script::programs(&script, procs, &file))
    }

    fn launch(&self, cfg: EngineConfig) -> Engine {
        Engine::launch(cfg, (self.factory())())
    }

    /// Run `e` on and assert that it ends as the engine run did.
    fn reproduce(&self, e: &mut Engine, leg: &str) {
        let o = e.run();
        Ending::of(&o, e).assert_is(&self.want, leg);
    }

    fn pick(&mut self, n: usize) -> usize {
        self.rng.below(n.max(1) as u64) as usize
    }

    fn legs(mut self) -> Seen {
        self.session();
        self.files();
        self.store();
        self.replay();
        let wide_snapshot = self.snapshot();
        self.log();
        self.metrics();
        self.digest();
        self.explore();
        self.may_match();
        self.profile();
        let choice = |p: &DecisionPoint| matches!(p.alternatives, Alternatives::Matches(_));
        let branched = self.decisions.iter().any(|p| choice(p) && p.is_branch());
        (self.class, branched, wide_snapshot)
    }

    fn session(&self) {
        let cfg = SessionConfig {
            policy: SchedPolicy::Seeded(self.case.seed),
            recorder: RecorderConfig::full(),
            faults: FaultPlan::new(self.case.faults.clone()),
            ..Default::default()
        };
        let mut session = Session::launch(cfg, self.factory());
        let class = match session.run() {
            SessionStatus::Completed => "completed",
            SessionStatus::Deadlocked(_) => "deadlock",
            SessionStatus::Panicked { .. } => "panic",
            other => panic!("session: stopped unasked: {other:?}"),
        };
        assert_eq!(class, self.class, "session: outcome");
        let want = &self.want.records;
        assert_same_records(session.trace().records(), want, "session: trace");
        assert_same_records(session.into_trace().records(), want, "session: hand-over");
    }

    fn files(&self) {
        let (n, sites) = (self.store.n_ranks(), self.store.sites());
        let file = TraceFile::new(self.want.records.clone(), sites.clone(), n);
        let (mut text, mut binary) = (Vec::new(), Vec::new());
        write_text(&mut text, &file).unwrap();
        write_binary(&mut binary, &file).unwrap();
        let text = read_text(text.as_slice()).expect("files: .trc reads back");
        let binary = read_binary(binary.as_slice()).expect("files: .tbin reads back");
        let report = profile(&self.store).to_json();
        for (leg, back) in [("files: .trc", text), ("files: .tbin", binary)] {
            assert_eq!(back.n_ranks, n, "{leg}: ranks");
            assert_eq!(back.sites.snapshot(), sites.snapshot(), "{leg}: sites");
            Ending::new(self.want.outcome.clone(), &back.records).assert_is(&self.want, leg);
            let same = profile(&back.into_store()).to_json() == report;
            assert!(same, "{leg}: profile");
        }
    }

    fn store(&mut self) {
        // One to nine segments, so that queries cross segment boundaries.
        let segment_events = 4 + self.store.len() / (1 + self.pick(8));
        let opts = StoreOptions { segment_events };
        let (store, dir) = (&self.store, scratch_dir("ingest"));
        let disk = ingest_store(store, &dir, opts).expect("store: ingest");
        disk.verify().expect("store: verify");
        let records = store.records();
        let got = (disk.n_events(), disk.n_ranks(), disk.time_bounds());
        let want = (records.len() as u64, store.n_ranks(), store.time_bounds());
        assert_eq!(got, want, "store: events, ranks, time bounds");
        let same_sites = disk.sites().snapshot() == store.sites().snapshot();
        assert!(same_sites, "store: sites");
        let src: &dyn TraceSource = &disk;
        let back = materialize(src).unwrap();
        assert_same_records(back.records(), records, "store: materialize");
        let same = profile(&back).to_json() == profile(store).to_json();
        assert!(same, "store: profile");

        // Every rank, tag and kind, one rank and one tag past the last, and
        // windows: a late one skips frames on their peeked span, an
        // inverted one (`lo > hi`) answers by the same rule as the rest.
        let n = self.case.procs as u32;
        let mut sels: Vec<Select> = (0..=n).map(|r| Select::Rank(Rank(r))).collect();
        let mut tags: Vec<Tag> = records
            .iter()
            .filter_map(|r| r.msg.map(|m| m.tag))
            .collect();
        tags.sort();
        tags.dedup();
        sels.extend(tags.into_iter().chain([Tag(12_345)]).map(Select::Tag));
        sels.extend(EventKind::all().into_iter().map(Select::Kind));
        let (lo, hi) = store.time_bounds();
        let (mid, pick) = (lo + (hi - lo) / 2, lo + self.rng.below(hi - lo + 1));
        let windows = [
            (lo, hi),
            (lo, mid),
            (mid, hi),
            (hi - (hi - lo) / 8, hi),
            (pick, pick),
            (hi + 1, hi + 9),
            (hi, lo),
        ];
        sels.extend(windows.map(|(a, b)| Select::TimeWindow(a, b)));
        sels.push(Select::All);
        for sel in sels {
            let got = match sel {
                Select::All => src.events(),
                Select::Rank(r) => src.by_rank(r),
                Select::Tag(t) => src.by_tag(t),
                Select::Kind(k) => src.by_construct(k),
                Select::TimeWindow(a, b) => src.by_time_window(a, b),
            };
            let want: Vec<_> = records
                .iter()
                .filter(|r| selects(sel, r))
                .copied()
                .collect();
            assert_same_records(&got.unwrap(), &want, &format!("store: {sel:?}"));
        }
        for r in (0..=n).map(Rank) {
            let want = store.comm_edges(r).unwrap();
            assert_eq!(src.comm_edges(r).unwrap(), want, "store: comm_edges({r:?})");
        }
        drop(disk);

        // Any order of the records, and the order an engine tees them in,
        // write the one image.
        let mut shuffled = records.to_vec();
        for i in (1..shuffled.len()).rev() {
            shuffled.swap(i, self.rng.below(i as u64 + 1) as usize);
        }
        let (ranks, sites) = (store.n_ranks(), store.sites());
        let shuffled_dir = scratch_dir("shuffled");
        ingest_records(&shuffled, sites, ranks, &shuffled_dir, opts).expect("store: shuffled");
        let want = image(&dir);
        assert!(image(&shuffled_dir) == want, "store: shuffle");
        let tee_dir = scratch_dir("tee");
        let tee = SharedWriter::new(StoreWriter::create(&tee_dir, opts).expect("store: tee"));
        let mut engine = self.launch(self.case.config());
        engine.attach_trace_sink(Box::new(tee.clone()));
        self.reproduce(&mut engine, "store: teeing run");
        engine.detach_trace_sink();
        tee.finish(sites, ranks).expect("store: tee finish");
        assert!(image(&tee_dir) == want, "store: tee");
        for d in [dir, shuffled_dir, tee_dir] {
            let _ = std::fs::remove_dir_all(d);
        }
    }

    fn replay(&self) {
        let mut artifact = ScheduleArtifact::new("oracle", self.case.procs, 0);
        artifact.faults = self.case.faults.clone();
        artifact.decisions = self.schedule.clone();
        let mut replay = replay_schedule(&artifact, self.factory());
        assert!(!replay.diverged, "replay: diverged");
        let outcome = format!("{}: {}", replay.class, replay.detail);
        Ending::new(outcome, replay.trace().records()).assert_is(&self.want, "replay");
    }

    /// Snapshot at a random decision, let a debugger drive a restored copy
    /// on, then restore the snapshot twice and hand a restored run over.
    /// Whether the snapshot spans more than one block of ranks.
    fn snapshot(&mut self) -> bool {
        let (n, k) = (self.case.procs, self.pick(self.decisions.len()));
        let mut original = self.launch(self.case.config());
        original.set_snapshot_at(k);
        self.reproduce(&mut original, "snapshot: snapshotting run");
        let Some(cp) = original.take_pending_snapshot() else {
            assert!(self.decisions.is_empty(), "snapshot: no decision {k}");
            return false;
        };

        // The ranks stepped alone include the last of the first block and
        // the first of the second when there are two; the trace is gathered
        // at the last stop.
        let mut steps: Vec<usize> = (0..2 + self.pick(6)).map(|_| self.pick(n)).collect();
        if n > BLOCK {
            steps.extend([BLOCK - 1, BLOCK]);
        }
        let mut driven = Engine::restore(&cp, Vec::new());
        let at = self.pick(self.want.records.len());
        driven.add_breakpoint(self.want.records[at].site);
        driven.add_watch(None, Watch::new("v", WatchCond::Change));
        let (before, after) = steps.split_at(steps.len() / 2);
        before
            .iter()
            .for_each(|&r| step(&mut driven, Rank(r as u32)));
        let armed = driven.snapshot();
        let want_armed = finish(&mut Engine::restore(&armed, Vec::new()));
        after
            .iter()
            .for_each(|&r| step(&mut driven, Rank(r as u32)));
        let _ = driven.trace_store();
        driven.clear_breaks();
        let later = driven.decision_points().len() + self.pick(40);
        driven.set_snapshot_at(later);
        let want_driven = finish(&mut driven);
        let mid = driven.take_pending_snapshot();
        drop(driven);

        // The second restore is also handed the recorded log, which a state
        // of the recording follows as it is (a pinned match has no
        // alternatives to log, so only the first keeps the decision log).
        for copy in ["first", "second"] {
            let leg = format!("snapshot: {copy} restore at decision {k}");
            let mut restored = Engine::restore(&cp, Vec::new());
            if copy == "second" {
                restored.set_replay(self.log.clone());
            }
            self.reproduce(&mut restored, &leg);
            assert_eq!(restored.digest(), self.state, "{leg}: state digest");
            let got = restored.decision_points().clone().into_vec();
            let same = copy == "second" || got == self.decisions;
            assert!(same, "{leg}: decision log");
            let got = finish(&mut Engine::restore(&armed, Vec::new()));
            let leg = format!("snapshot: {copy} restore of the armed snapshot");
            assert_finish(got, &want_armed, &leg);
            if let Some(mid) = &mid {
                let got = finish(&mut Engine::restore(mid, Vec::new()));
                let leg = format!("snapshot: {copy} restore of the drive's snapshot at {later}");
                assert_finish(got, &want_driven, &leg);
            }
        }

        // The consuming hand-over of a restored run, with the checkpoint,
        // which shares the log's first chunk, held or dropped.
        let mut restored = Engine::restore(&cp, Vec::new());
        let _ = restored.run();
        let held = (self.pick(2) == 0).then_some(cp);
        let want = &self.want.records;
        assert_same_records(
            restored.into_trace_store().records(),
            want,
            "hand-over: restored",
        );
        assert_same_records(
            original.into_trace_store().records(),
            want,
            "hand-over: original",
        );
        if let Some(cp) = held {
            let mut again = Engine::restore(&cp, Vec::new());
            let _ = again.run();
            assert_same_records(again.into_trace_store().records(), want, "hand-over: held");
        }
        n > BLOCK
    }

    /// The recorded match log decides the run under any schedule: from
    /// launch, and installed in an engine restored at a random depth.
    fn log(&mut self) {
        let other = EngineConfig {
            policy: SchedPolicy::Seeded(self.rng.below(10_000)),
            sites: Some(self.store.sites().clone()),
            ..self.case.config()
        };
        let k = self.pick(self.decisions.len() + 1);
        let mut logged = self.launch(other);
        logged.set_replay(self.log.clone());
        logged.set_snapshot_at(k);
        self.reproduce(&mut logged, "log: from launch");
        if let Some(cp) = logged.take_pending_snapshot() {
            let mut restored = Engine::restore(&cp, Vec::new());
            restored.set_replay(self.log.clone());
            self.reproduce(&mut restored, &format!("log: installed at {k}"));
        }
    }

    fn metrics(&self) {
        let n = self.case.procs;
        let mut engine = self.launch(self.case.config());
        self.reproduce(&mut engine, "metrics: run");
        let m = engine.take_metrics().expect("metrics: derived");

        // Recounts from the trace: sends and bytes per channel, then per
        // rank, and receive posts.
        let mut channels = BTreeMap::<(usize, u32), (u64, u64)>::new();
        let mut recvs = vec![0u64; n];
        for r in self.store.records() {
            match (r.kind, r.msg) {
                (EventKind::Send, Some(info)) => {
                    let c = channels.entry((r.rank.ix(), info.dst.0)).or_default();
                    *c = (c.0 + 1, c.1 + info.bytes as u64);
                }
                (EventKind::RecvPost, _) => recvs[r.rank.ix()] += 1,
                _ => {}
            }
        }
        let (mut msgs, mut bytes) = (vec![0u64; n], vec![0u64; n]);
        for (&(src, _), &(k, b)) in &channels {
            (msgs[src], bytes[src]) = (msgs[src] + k, bytes[src] + b);
        }
        let got = (&m.msgs_sent, &m.bytes_sent, &m.recvs, m.channels().len());
        assert_eq!(got, (&msgs, &bytes, &recvs, n), "metrics: per rank");
        let mut rows = BTreeMap::new();
        for (src, row) in m.channels().iter().enumerate() {
            let sorted = row.windows(2).all(|w| w[0].0 < w[1].0) && row.iter().all(|c| c.1 > 0);
            assert!(sorted, "metrics: row {src}: {row:?}");
            rows.extend(row.iter().map(|&(dst, k, b)| ((src, dst), (k, b))));
        }
        assert_eq!(rows, channels, "metrics: channels");

        // Recounts from the schedule log: a rank's wait is the turns
        // granted, to anyone, between its own last turn and the match that
        // released it.
        let (mut turns, mut matches) = (0u64, 0u64);
        let (mut stamp, mut blocked) = (vec![0u64; n], vec![0u64; n]);
        for d in &self.schedule {
            match d {
                Decision::Turn { rank } => {
                    turns += 1;
                    stamp[rank.ix()] = turns;
                }
                Decision::Match { dst, .. } => {
                    matches += 1;
                    blocked[dst.ix()] += turns - stamp[dst.ix()];
                }
            }
        }
        let latency = (m.match_latency.count, m.match_latency.sum);
        let got = (m.turns, m.matches, &m.blocked_turns, latency);
        let waited = blocked.iter().sum();
        let want = (turns, matches, &blocked, (matches, waited));
        assert_eq!(got, want, "metrics: turns, matches, blocked turns");
    }

    fn digest(&self) {
        // A wide case's runs cost a hundred narrow ones in a debug build.
        let schedules = if self.case.procs > BLOCK { 3 } else { 6 };
        let source = self.factory();
        let runs: Vec<(u64, u64)> = (0..schedules)
            .map(|i| {
                let task = RunTask {
                    policy: SchedPolicy::Seeded(self.case.seed.wrapping_add(i / 2)),
                    faults: self.case.faults.clone(),
                };
                let res = execute_task(&source, &task);
                let store = res.store();
                let canonical = run_digest(store.records(), store.n_ranks());
                assert_eq!(res.digest, canonical, "digest: arrival vs canonical order");
                (res.digest, trace_digest(store.records()))
            })
            .collect();
        for a in &runs {
            for b in &runs {
                assert_eq!(a.0 == b.0, a.1 == b.1, "digest: partition of {runs:?}");
            }
        }
    }

    fn explore(&self) {
        // A wide case's runs cost a hundred narrow ones in a debug build.
        let runs = if self.case.procs > BLOCK { 2 } else { 6 };
        let report = |jobs| {
            let cfg = ExploreConfig {
                workload: "oracle".into(),
                seed: self.case.seed,
                runs,
                shrink_budget: runs,
                jobs,
                ..Default::default()
            };
            let mut report = Explorer::new(cfg, self.factory()).explore();
            report.jobs = 0;
            for f in &mut report.findings {
                if let Some(meta) = &mut f.artifact.meta {
                    (meta.jobs, meta.wall_ms) = (0, 0);
                }
            }
            report.to_json()
        };
        assert_eq!(report(1), report(4), "explore: jobs 1 vs 4");
    }

    fn may_match(&self) {
        let a = analyze(&self.script, self.case.procs, &self.case.file);
        let independent = a.independence.pairs();
        let store = &self.store;
        let line = |id| store.sites().resolve(store.record(id).site).unwrap().line;
        for m in &MessageMatching::build(store).matched {
            let (src, dst) = (m.info.src.0 as usize, m.info.dst.0 as usize);
            let (sl, rl) = (line(m.send), line(m.recv));
            let lines = a.may_match_lines(src, sl, dst, rl);
            let ranks = a.may_match.rank_may_comm(src, dst);
            let apart = independent.contains(&(src.min(dst), src.max(dst)));
            let what = format!("lines {lines}, ranks {ranks}, independent {apart}");
            assert!(
                lines && ranks && !apart,
                "may-match: {src}:{sl} -> {dst}:{rl}: {what}"
            );
        }
    }

    /// The profile's own laws: the critical path fits in the makespan,
    /// which fits in busy plus waiting time; the path and the blame split
    /// exactly over the ranks; the sealed report round-trips; the path's
    /// steps run forward in time; every wait costs something and has a
    /// cause.
    fn profile(&self) {
        let (store, report) = (&self.store, profile(&self.store));
        let laws = report.critical_path_len <= report.makespan
            && report.makespan <= report.busy_total + report.wait_total;
        assert!(laws, "profile: path, makespan, busy + wait");
        let path: u64 = report.ranks.iter().map(|r| r.path).sum();
        let blamed: u64 = report.ranks.iter().map(|r| r.blamed).sum();
        let want = (report.critical_path_len, report.blame.iter().sum());
        assert_eq!((path, blamed), want, "profile: per-rank path and blame");
        assert!(report.digest_ok(), "profile: digest");
        let back = ProfileReport::from_json(&report.to_json());
        assert!(back.as_ref() == Ok(&report), "profile: JSON round trip");
        let matching = MessageMatching::build(store);
        let path = CriticalPath::build(store, &matching);
        let ends: Vec<u64> = path
            .steps
            .iter()
            .map(|&id| store.record(id).t_end)
            .collect();
        assert!(ends.windows(2).all(|w| w[0] <= w[1]), "profile: path order");
        let sum = path.contributions.iter().sum::<u64>();
        assert_eq!(
            (path.contributions.len(), sum),
            (ends.len(), path.len),
            "profile: path"
        );
        for w in WaitAnalysis::build(store, &matching).waits {
            let caused = w.cost() > 0 && w.cause_rank.ix() < store.n_ranks();
            assert!(caused, "profile: wait {w:?}");
        }
    }
}

/// The profile of a trace, which must not depend on the plane it came
/// from (the `files` and `store` legs compare).
fn profile(store: &TraceStore) -> ProfileReport {
    let (source, workload, procs) = ("oracle", "oracle", store.n_ranks());
    let input = ProfileInput {
        source,
        workload,
        procs,
        seed: 0,
        flight_dropped: 0,
    };
    ProfileReport::build(store, input)
}

/// A scratch directory unique per call.
fn scratch_dir(label: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static CALL: AtomicU64 = AtomicU64::new(0);
    let call = CALL.fetch_add(1, Ordering::Relaxed);
    let name = format!("tracedbg-oracle-{label}-{}-{call}", std::process::id());
    std::env::temp_dir().join(name)
}

/// The files of a store directory, by name.
fn image(dir: &Path) -> BTreeMap<std::ffi::OsString, Vec<u8>> {
    let read = |e: std::io::Result<std::fs::DirEntry>| {
        let e = e.unwrap();
        (e.file_name(), std::fs::read(e.path()).unwrap())
    };
    std::fs::read_dir(dir).unwrap().map(read).collect()
}

// ------------------------------------------------------------------ tests

/// The default case set, and the mix it must have: a generator that
/// degenerates fails here instead of passing vacuously.
#[test]
fn random_cases_reproduce_on_every_path() {
    const CASES: usize = 48;
    let corpus = corpus();
    assert!(corpus.len() >= 8, "corpus scripts found");
    let mut rng = TestRng::for_test("random_cases_reproduce_on_every_path");
    let seen: Vec<Seen> = (0..CASES)
        .map(|_| check(&gen_case(&mut rng, &corpus)))
        .collect();
    let percent = |f: &dyn Fn(&Seen) -> bool| seen.iter().filter(|s| f(s)).count() * 100 / CASES;
    let completed = percent(&|s| s.0 == "completed");
    let deadlocked = percent(&|s| s.0 == "deadlock");
    let branched = percent(&|s| s.1);
    assert!(completed >= 50, "{completed}% of the cases complete");
    assert!(deadlocked >= 10, "{deadlocked}% of the cases deadlock");
    assert!(branched >= 20, "{branched}% choose among messages");
    assert!(seen.iter().any(|s| s.2), "no case snapshots across a block");
}
