//! A debugging session over the simulated runtime.
//!
//! The session owns the target program (as a *factory*, because replay and
//! undo re-execute it from the start — §6: "our current implementation of
//! replay and undo is done in straightforward manner by re-executing until
//! an execution marker threshold is encountered"), the engine incarnation
//! currently running it, the recorded receive-match log, and the backlog of
//! its stops — the undo targets, with the checkpoints §6 asks for.

use crate::backlog::{Backlog, CacheLookupStats};
use crate::stopline::Stopline;
use std::collections::BTreeSet;
use std::sync::Arc;
use tracedbg_mpsim::DeadlockReport;
use tracedbg_mpsim::{
    CostModel, Engine, EngineCheckpoint, EngineConfig, EngineMetrics, FaultPlan, RecorderConfig,
    ReplayLog, RunOutcome, SchedPolicy,
};
use tracedbg_trace::{Label, Marker, MarkerVector, Rank, ScheduleArtifact, SiteTable, TraceStore};

pub use tracedbg_mpsim::ProgramFactory;

/// Session construction parameters.
#[derive(Clone, Debug)]
pub struct SessionConfig {
    pub cost: CostModel,
    pub policy: SchedPolicy,
    pub recorder: RecorderConfig,
    /// Faults to inject into every incarnation of the target (explorer
    /// schedule replays carry the fault plan of the run they reproduce).
    pub faults: FaultPlan,
    /// Take an [`EngineCheckpoint`] at every Nth debugger stop that leaves
    /// the program stopped, kept with that stop in the session's backlog,
    /// so `replay_to`/`undo` restore the nearest dominated checkpoint and
    /// re-execute only the delta. `0` disables checkpointing entirely
    /// (every replay re-executes from scratch, the pre-checkpoint
    /// behavior).
    pub checkpoint_every: usize,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            cost: CostModel::default(),
            policy: SchedPolicy::default(),
            recorder: RecorderConfig::default(),
            faults: FaultPlan::default(),
            checkpoint_every: 1,
        }
    }
}

impl SessionConfig {
    /// A session that re-runs a schedule artifact
    /// ([`EngineConfig::for_artifact`]); the recorder stays the caller's.
    pub fn for_artifact(artifact: &ScheduleArtifact) -> Self {
        let run = EngineConfig::for_artifact(artifact);
        SessionConfig {
            policy: run.policy,
            faults: run.faults,
            ..Default::default()
        }
    }

    /// The engine configuration of one incarnation of the target. The
    /// session's `live` incarnations are checkpointable (per
    /// `checkpoint_every`).
    fn engine(&self, sites: &SiteTable, live: bool) -> EngineConfig {
        EngineConfig {
            cost: self.cost,
            policy: self.policy.clone(),
            recorder: self.recorder.clone(),
            replay: None,
            sites: Some(sites.clone()),
            faults: self.faults.clone(),
            checkpoints: live && self.checkpoint_every > 0,
            ..Default::default()
        }
    }
}

/// Where the session currently stands.
#[derive(Debug)]
pub enum SessionStatus {
    /// Launched but not yet run.
    Idle,
    /// Stopped at traps and/or pauses.
    Stopped {
        traps: Vec<Marker>,
        paused: Vec<Rank>,
    },
    Completed,
    Deadlocked(DeadlockReport),
    Panicked {
        rank: Rank,
        message: String,
    },
}

impl From<RunOutcome> for SessionStatus {
    fn from(outcome: RunOutcome) -> Self {
        match outcome {
            RunOutcome::Completed => SessionStatus::Completed,
            RunOutcome::Deadlock(d) => SessionStatus::Deadlocked(d),
            RunOutcome::Stopped(s) => SessionStatus::Stopped {
                traps: s.traps,
                paused: s.paused,
            },
            RunOutcome::Panicked { rank, message } => SessionStatus::Panicked { rank, message },
        }
    }
}

impl SessionStatus {
    pub fn is_stopped(&self) -> bool {
        matches!(self, SessionStatus::Stopped { .. })
    }

    pub fn is_completed(&self) -> bool {
        matches!(self, SessionStatus::Completed)
    }

    pub fn is_deadlocked(&self) -> bool {
        matches!(self, SessionStatus::Deadlocked(_))
    }
}

/// A live debugging session.
pub struct Session {
    factory: ProgramFactory,
    cfg: SessionConfig,
    /// One site table for the whole session: location ids are stable
    /// across recording, replay and restart incarnations.
    sites: SiteTable,
    engine: Engine,
    status: SessionStatus,
    /// Every stop since launch or restart, thinned to a logarithmic
    /// backlog (§6): the undo targets, and the checkpoints replays restore
    /// the nearest dominated one of instead of starting over.
    backlog: Backlog,
    /// The match log the current incarnation replays: taken from the
    /// recording incarnation when its first replay is requested, shared
    /// with every engine and checkpoint since. `None` while recording.
    recorded_log: Option<Arc<ReplayLog>>,
    /// What the session adds to the live incarnation's metrics: those of
    /// every retired incarnation (replay and restart replace the engine;
    /// its metrics are derived and folded in here first), and the length
    /// of every replay delta.
    metrics: EngineMetrics,
    /// Checkpoint restores performed by `replay_to`.
    restores: u64,
    /// Wall-clock nanoseconds those restores took.
    restore_ns: u64,
}

/// The session's telemetry snapshot: engine metrics summed over every
/// incarnation, plus checkpoint lookup and restore behaviour.
#[derive(Clone, Debug)]
pub struct SessionTelemetry {
    pub engine: EngineMetrics,
    pub cache: CacheLookupStats,
    /// Stops in the backlog that hold a checkpoint.
    pub cache_len: usize,
    pub restores: u64,
    pub restore_ns: u64,
    pub snapshot_ns: u64,
}

impl Session {
    /// Launch the target program (processes created, nothing run yet).
    pub fn launch(cfg: SessionConfig, factory: ProgramFactory) -> Self {
        let sites = SiteTable::new();
        let engine = Engine::launch(cfg.engine(&sites, true), factory());
        let n = engine.n_ranks();
        Session {
            factory,
            backlog: Backlog::new(cfg.checkpoint_every),
            cfg,
            sites,
            engine,
            status: SessionStatus::Idle,
            recorded_log: None,
            metrics: EngineMetrics::new(n),
            restores: 0,
            restore_ns: 0,
        }
    }

    /// A fresh engine on the target program, from process creation.
    fn incarnation(&self, live: bool) -> Engine {
        Engine::launch(self.cfg.engine(&self.sites, live), (self.factory)())
    }

    /// Replace the engine with a fresh live incarnation that records into
    /// the retired one's log buffers.
    fn reincarnate(&mut self) {
        let fresh = self.incarnation(true);
        let retired = std::mem::replace(&mut self.engine, fresh);
        self.engine.reuse_log_buffers(retired);
    }

    pub fn n_ranks(&self) -> usize {
        self.engine.n_ranks()
    }

    pub fn status(&self) -> &SessionStatus {
        &self.status
    }

    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Stream every trace record of the current engine incarnation into a
    /// [`tracedbg_trace::TraceSink`] (e.g. an on-disk store writer) as the
    /// run executes. Replay and restart replace the engine, so attach
    /// before the first `run` of the incarnation you want persisted.
    pub fn attach_trace_sink(&mut self, sink: Box<dyn tracedbg_trace::TraceSink>) {
        self.engine.attach_trace_sink(sink);
    }

    /// Detach the streaming sink so its owner can finish it.
    pub fn detach_trace_sink(&mut self) -> Option<Box<dyn tracedbg_trace::TraceSink>> {
        self.engine.detach_trace_sink()
    }

    /// Run until the next stop/completion/deadlock, recording the stop in
    /// the backlog.
    pub fn run(&mut self) -> &SessionStatus {
        self.run_with(|_| ());
        &self.status
    }

    /// [`Session::run`], handing the engine's outcome to `read` before it
    /// becomes the session's status.
    pub(crate) fn run_with<T>(&mut self, read: impl FnOnce(&RunOutcome) -> T) -> T {
        let outcome = self.engine.run();
        let seen = read(&outcome);
        self.record_stop(outcome.into());
        seen
    }

    /// Make `status` the session's, with the bookkeeping every stop gets.
    fn record_stop(&mut self, status: SessionStatus) {
        self.status = status;
        // Only a Stopped state can make further progress, so only it may
        // take a checkpoint.
        let engine = &mut self.engine;
        let stopped = self.status.is_stopped();
        self.backlog
            .record(engine.markers(), stopped, || engine.snapshot());
    }

    /// Resume every trapped process and run on (breakpoint thresholds are
    /// cleared — with counter-threshold semantics a kept threshold would
    /// re-trap on the very next event).
    pub fn continue_all(&mut self) -> &SessionStatus {
        self.engine.clear_thresholds();
        self.engine.clear_pauses();
        self.engine.resume_trapped();
        self.run()
    }

    fn ranks(&self) -> impl Iterator<Item = Rank> {
        (0..self.engine.n_ranks()).map(Rank::from)
    }

    /// Single-step one process by one instrumentation event; all other
    /// processes hold (the paper's antidote to the fatal "step over" —
    /// execution cannot run away).
    pub fn step(&mut self, rank: Rank) -> &SessionStatus {
        self.step_set(&BTreeSet::from([rank]))
    }

    /// Step every non-finished process by one event.
    pub fn step_all(&mut self) -> &SessionStatus {
        let live = self.ranks().filter(|&r| !self.engine.is_finished(r));
        self.step_set(&live.collect())
    }

    /// Step every process in a set by one event while the rest hold —
    /// p2d2's set-oriented stepping.
    pub fn step_set(&mut self, ranks: &BTreeSet<Rank>) -> &SessionStatus {
        let markers = self.engine.markers();
        self.engine.pause_all_but(ranks.iter().copied());
        for &rank in ranks {
            self.engine.set_threshold(rank, Some(markers.get(rank) + 1));
            self.engine.resume_rank(rank);
        }
        self.run();
        self.engine.clear_pauses();
        for &rank in ranks {
            self.engine.set_threshold(rank, None);
        }
        &self.status
    }

    /// The match log replays of this session are forced by.
    fn recorded_log(&self) -> Arc<ReplayLog> {
        match &self.recorded_log {
            Some(log) => Arc::clone(log),
            None => Arc::new(self.engine.match_log()),
        }
    }

    /// Verify replay fidelity (§4.2's "identical event causality"): re-run
    /// the program from scratch under the recorded match log in a separate
    /// engine and diff its trace against this session's history so far.
    /// Returns the divergences (empty = faithful). Requires a recorded run.
    pub fn verify_replay(&mut self) -> Vec<tracedbg_trace::Divergence> {
        let mine = self.trace();
        let final_markers = mine.final_markers();
        let mut other = self.incarnation(false);
        other.set_replay(self.recorded_log());
        // Stop the verification run exactly where this session's history
        // ends, so partial histories (stopped sessions) compare cleanly.
        other.arm_stopline(&final_markers);
        let _ = other.run();
        let theirs = other.trace_store();
        tracedbg_trace::diff_traces(&mine, &theirs, tracedbg_trace::DiffMode::Exact)
    }

    /// Current execution markers.
    pub fn markers(&self) -> MarkerVector {
        self.engine.markers()
    }

    /// Everything traced so far, as a queryable store.
    pub fn trace(&mut self) -> TraceStore {
        self.engine.trace_store()
    }

    /// [`Session::trace`] for a caller that is done with the session: the
    /// records move into the store and are reordered there instead of
    /// being cloned. The stops' checkpoints are dropped first, so the only
    /// records copied are those a checkpoint held elsewhere still shares.
    pub fn into_trace(self) -> TraceStore {
        let Session {
            engine, backlog, ..
        } = self;
        drop(backlog);
        engine.into_trace_store()
    }

    /// Arm a stopline and (re-)execute to it under nondeterminism control:
    /// the §4.1/§4.2 replay. The program resumes from the nearest
    /// checkpoint the stopline dominates — re-executing only the delta —
    /// or, when there is none, from process creation; wildcard receives are
    /// forced to their recorded matches; every process stops when its
    /// `UserMonitor` counter reaches the stopline marker.
    pub fn replay_to(&mut self, stopline: &Stopline) -> &SessionStatus {
        let origin = self.backlog.best_for(&stopline.markers);
        self.replay_from(origin, stopline)
    }

    /// [`Session::replay_to`] from `origin`, or from process creation.
    fn replay_from(
        &mut self,
        origin: Option<Arc<EngineCheckpoint>>,
        stopline: &Stopline,
    ) -> &SessionStatus {
        let log = self.recorded_log();
        self.recorded_log = Some(Arc::clone(&log));
        self.retire_engine_metrics();
        match origin {
            Some(cp) => {
                let t0 = std::time::Instant::now();
                self.engine = Engine::restore(&cp, Vec::new());
                self.restores += 1;
                self.restore_ns += t0.elapsed().as_nanos() as u64;
                // A restored engine comes up with whatever was armed when
                // the snapshot was taken; a fresh incarnation has nothing.
                self.engine.clear_thresholds();
                self.engine.clear_pauses();
                self.engine.clear_breaks();
            }
            None => self.reincarnate(),
        }
        let ahead = self.engine.set_replay(log);
        self.metrics.replay_delta.record(ahead as u64);
        // Ranks already at their target hold: an exact-hit restore is the
        // stop itself, no re-execution at all. The holds drop once the
        // stop is reached, so stepping/continuing from here behaves like
        // any other stop (resume_rank does not clear pause flags).
        self.engine.arm_stopline(&stopline.markers);
        let outcome = self.engine.run();
        self.engine.clear_pauses();
        self.record_stop(self.stop_reached(stopline, outcome));
        &self.status
    }

    /// What a replay to `stopline` reports: a function of the stop
    /// reached, not of the origin it ran from. A rank a checkpoint holds at
    /// its target may be past the trap a from-scratch run stops it in (its
    /// receive already posted, or its last event done and the rank
    /// finished); it is at the stopline all the same.
    fn stop_reached(&self, stopline: &Stopline, outcome: RunOutcome) -> SessionStatus {
        let at = self.engine.markers();
        let reached = |m: &Marker| at.get(m.rank) == m.count;
        let (paused, traps): (Vec<Marker>, Vec<Marker>) = stopline
            .markers
            .iter()
            .filter(reached)
            .partition(|m| m.count == 0);
        let stalled = matches!(outcome, RunOutcome::Stopped(_) | RunOutcome::Deadlock(_));
        if stalled && !(traps.is_empty() && paused.is_empty()) {
            SessionStatus::Stopped {
                traps,
                paused: paused.iter().map(|m| m.rank).collect(),
            }
        } else {
            outcome.into()
        }
    }

    /// Fold the outgoing engine incarnation's metrics into the session's
    /// (called before every engine replacement).
    fn retire_engine_metrics(&mut self) {
        if let Some(m) = self.engine.take_metrics() {
            self.metrics.merge(&m);
        }
    }

    /// Parallel undo (§4.2): replay to the stop state preceding the most
    /// recent resumption.
    ///
    /// Returns `false` when there is no earlier stop to return to.
    pub fn undo(&mut self) -> bool {
        let Some((markers, origin)) = self.backlog.undo() else {
            return false;
        };
        let sl = Stopline {
            markers,
            origin: "undo".into(),
        };
        self.replay_from(origin, &sl);
        true
    }

    /// Restart the program from scratch *without* replay forcing (a fresh
    /// recording run).
    pub fn restart(&mut self) -> &SessionStatus {
        self.retire_engine_metrics();
        self.reincarnate();
        self.recorded_log = None;
        self.status = SessionStatus::Idle;
        // A fresh recording run replaces the history the stops and their
        // checkpoints were taken from; drop them.
        self.backlog.clear();
        &self.status
    }

    /// The most recent probe value with this label on a rank, from the
    /// trace recorded so far — the stand-in for inspecting a local
    /// variable at a stop (Figure 7's `jres`). Reads the rank's own records
    /// newest first, without building the whole history.
    pub fn latest_probe(&self, rank: Rank, label: &str) -> Option<i64> {
        let label = Some(Label::new(label));
        self.engine
            .records_newest_first(rank)
            .find(|r| r.kind == tracedbg_trace::EventKind::Probe && r.label == label)
            .map(|r| r.args[0])
    }

    /// Recent `UserMonitor` ring entries of a rank, resolved to source
    /// locations (the "where" report at a stop).
    pub fn where_is(&self, rank: Rank) -> Vec<String> {
        let sites = self.engine.sites().clone();
        self.engine
            .recent_calls(rank)
            .into_iter()
            .map(|e| {
                let loc = sites
                    .resolve(e.site)
                    .map(|l| l.to_string())
                    .unwrap_or_else(|| "?".into());
                format!(
                    "marker {} at {} args=({}, {})",
                    e.marker, loc, e.args[0], e.args[1]
                )
            })
            .collect()
    }

    /// The session's telemetry: engine metrics summed across every
    /// incarnation so far, plus checkpoint lookup, snapshot and restore
    /// cost figures (the replay-cost visibility §6's checkpointing asks
    /// for). An incarnation's metrics are derived from what it traced and
    /// decided; a debugger trap breaks the turn-to-record pairing
    /// `queue_hwm` rests on, so that field is approximate here.
    pub fn telemetry(&self) -> SessionTelemetry {
        let mut engine = self.metrics.clone();
        if let Some(m) = self.engine.take_metrics() {
            engine.merge(&m);
        }
        engine.snapshots = self.backlog.snapshots;
        SessionTelemetry {
            engine,
            cache: self.backlog.stats,
            cache_len: self.backlog.checkpoints(),
            restores: self.restores,
            restore_ns: self.restore_ns,
            snapshot_ns: self.backlog.snapshot_ns,
        }
    }

    // ---- breakpoints & watchpoints ----
    //
    // Location breakpoints resolve through the shared site table, which is
    // populated as instrumented code executes. The trace-driven workflow —
    // record a run first, then replay with breakpoints — guarantees the
    // sites exist. Breakpoints survive `continue_all` (unlike the
    // counter-threshold, which must be cleared to avoid immediate
    // re-trapping) but are *not* carried across `replay_to`/`restart`
    // engine incarnations; re-arm after replaying.

    /// Arm a breakpoint on every site of a function. Returns how many
    /// sites were armed (0 if the function never executed yet).
    pub fn break_at_function(&mut self, func: &str) -> usize {
        let sites = self.engine.sites().find_function(func);
        for s in &sites {
            self.engine.add_breakpoint(*s);
        }
        sites.len()
    }

    /// Arm a breakpoint at a file:line. Returns how many sites matched.
    pub fn break_at_line(&mut self, file: &str, line: u32) -> usize {
        let sites = self.engine.sites().find_line(file, line);
        for s in &sites {
            self.engine.add_breakpoint(*s);
        }
        sites.len()
    }

    /// Arm a watchpoint on a probe label (all ranks if `rank` is `None`).
    pub fn watch(&mut self, rank: Option<Rank>, label: &str, cond: tracedbg_instrument::WatchCond) {
        self.engine
            .add_watch(rank, tracedbg_instrument::Watch::new(label, cond));
    }

    /// Disarm all breakpoints and watchpoints.
    pub fn clear_breaks(&mut self) {
        self.engine.clear_breaks();
    }

    /// Why a rank's most recent trap fired.
    pub fn why(&self, rank: Rank) -> Option<tracedbg_instrument::TrapCause> {
        self.engine.trap_cause(rank)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testprog::*;

    fn two_proc_factory() -> ProgramFactory {
        Box::new(|| {
            let mut p0 = Vec::new();
            for i in 0..5 {
                p0.extend([compute(100), probe("i", move |_| i)]);
            }
            p0.push(send(1, 1, 99));
            let p1 = vec![
                recv_from(0, 1),
                probe("got", |s| s[0].payload.to_i64().unwrap()),
            ];
            vec![rank(p0), rank(p1)]
        })
    }

    fn session() -> Session {
        Session::launch(
            SessionConfig {
                recorder: RecorderConfig::full(),
                ..Default::default()
            },
            two_proc_factory(),
        )
    }

    #[test]
    fn run_to_completion() {
        let mut s = session();
        assert!(s.run().is_completed());
        assert_eq!(s.latest_probe(Rank(1), "got"), Some(99));
        assert_eq!(s.latest_probe(Rank(0), "i"), Some(4));
        assert_eq!(s.latest_probe(Rank(0), "nope"), None);
    }

    #[test]
    fn latest_probe_answers_what_the_whole_history_answers_at_every_stop() {
        use tracedbg_trace::EventKind;
        use tracedbg_workloads::master_worker::{self, PoolConfig};
        let cfg = PoolConfig::default();
        let mut s = Session::launch(
            SessionConfig {
                recorder: RecorderConfig::full(),
                ..Default::default()
            },
            Box::new(move || master_worker::programs(&cfg)),
        );
        assert!(s.run().is_completed());
        // The answer as the sorted whole history gives it, against the
        // run's log read backwards.
        let from_history = |s: &mut Session, rank: Rank, label: &str| {
            let store = s.trace();
            let latest = store.by_rank(rank).iter().rev().map(|&id| store.record(id));
            latest
                .filter(|r| r.kind == EventKind::Probe && r.label.map(Label::as_str) == Some(label))
                .map(|r| r.args[0])
                .next()
        };
        s.replay_to(&Stopline {
            markers: MarkerVector::from_counts(vec![1; cfg.nprocs]),
            origin: "start".into(),
        });
        let mut answered = 0;
        loop {
            for rank in (0..cfg.nprocs).map(Rank::from) {
                for label in ["completed_by", "nope"] {
                    let got = s.latest_probe(rank, label);
                    assert_eq!(got, from_history(&mut s, rank, label), "{rank:?} {label}");
                    answered += usize::from(got.is_some());
                }
            }
            if !s.status().is_stopped() {
                break;
            }
            s.step_all();
        }
        assert!(s.status().is_completed());
        assert!(s.engine().is_finished(Rank(0)));
        assert_eq!(s.latest_probe(Rank(0), "completed_by"), Some(1));
        assert!(answered > 20, "{answered} stops saw a probe");
    }

    #[test]
    fn stopline_replay_stops_at_markers() {
        let mut s = session();
        assert!(s.run().is_completed());
        let store = s.trace();
        // Stop P0 after its 3rd compute: ProcStart(1) c(2) p(3) c(4) p(5) c(6)
        let sl = Stopline {
            markers: MarkerVector::from_counts(vec![6, 1]),
            origin: "test".into(),
        };
        match s.replay_to(&sl) {
            SessionStatus::Stopped { traps, .. } => {
                assert_eq!(traps.len(), 2, "{traps:?}");
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(s.markers().get(Rank(0)), 6);
        assert_eq!(s.markers().get(Rank(1)), 1);
        drop(store);
        // Continue to the end.
        assert!(s.continue_all().is_completed());
    }

    #[test]
    fn step_advances_one_marker() {
        let mut s = session();
        assert!(s.run().is_completed());
        let sl = Stopline {
            markers: MarkerVector::from_counts(vec![2, 1]),
            origin: "test".into(),
        };
        s.replay_to(&sl);
        let before = s.markers().get(Rank(0));
        s.step(Rank(0));
        assert_eq!(s.markers().get(Rank(0)), before + 1);
        assert_eq!(s.markers().get(Rank(1)), 1, "other rank held");
    }

    #[test]
    fn undo_returns_to_previous_stop() {
        let mut s = session();
        assert!(s.run().is_completed());
        let sl = Stopline {
            markers: MarkerVector::from_counts(vec![4, 1]),
            origin: "first stop".into(),
        };
        s.replay_to(&sl);
        let at_first = s.markers();
        s.step(Rank(0));
        s.step(Rank(0));
        assert_ne!(s.markers(), at_first);
        assert!(s.undo(), "one undo");
        // Undo returns to the state before the last resumption, i.e. the
        // stop after the first step.
        assert_eq!(s.markers().get(Rank(0)), 5);
        assert!(s.undo(), "second undo back to the stopline");
        assert_eq!(s.markers(), at_first);
    }

    #[test]
    fn undo_with_no_history_is_refused() {
        let mut s = session();
        assert!(!s.undo());
    }

    #[test]
    fn step_all_advances_every_live_rank() {
        let mut s = session();
        assert!(s.run().is_completed());
        let sl = Stopline {
            markers: MarkerVector::from_counts(vec![2, 1]),
            origin: "test".into(),
        };
        s.replay_to(&sl);
        s.step_all();
        assert_eq!(s.markers().counts(), &[3, 2]);
    }

    #[test]
    fn where_reports_sites() {
        let mut s = session();
        let sl = Stopline {
            markers: MarkerVector::from_counts(vec![3, 1]),
            origin: "test".into(),
        };
        s.run();
        s.replay_to(&sl);
        let w = s.where_is(Rank(0));
        assert!(!w.is_empty());
        assert!(w[0].contains("test.rs"), "{w:?}");
    }

    #[test]
    fn restart_resets() {
        let mut s = session();
        s.run();
        s.restart();
        assert!(matches!(s.status(), SessionStatus::Idle));
        assert!(s.run().is_completed());
    }

    #[test]
    fn breakpoint_on_function_stops_each_visit() {
        let mut s = session();
        assert!(s.run().is_completed()); // record: interns the sites
        let sl = Stopline {
            markers: MarkerVector::from_counts(vec![1, 1]),
            origin: "start".into(),
        };
        s.replay_to(&sl);
        // p0 uses one site for everything, so the breakpoint covers its
        // computes, probes and send alike.
        let armed = s.break_at_function("p0");
        assert!(armed > 0);
        // Continue: P0 traps at its next event at that site.
        s.continue_all();
        match s.status() {
            SessionStatus::Stopped { traps, .. } => {
                assert!(!traps.is_empty());
            }
            other => panic!("{other:?}"),
        }
        match s.why(Rank(0)) {
            Some(tracedbg_instrument::TrapCause::Breakpoint(_)) => {}
            other => panic!("expected breakpoint cause, got {other:?}"),
        }
        // Breakpoints survive continue; the next event at the site traps
        // again, strictly later.
        let m1 = s.markers().get(Rank(0));
        s.continue_all();
        if s.status().is_stopped() {
            assert!(s.markers().get(Rank(0)) > m1);
        }
        // After clearing, the run completes.
        s.clear_breaks();
        while s.status().is_stopped() {
            s.continue_all();
        }
        assert!(s.status().is_completed());
    }

    #[test]
    fn watchpoint_on_probe_value() {
        let mut s = session();
        assert!(s.run().is_completed());
        let sl = Stopline {
            markers: MarkerVector::from_counts(vec![1, 1]),
            origin: "start".into(),
        };
        s.replay_to(&sl);
        // p0 probes i = 0,1,2,3,4; trap when i == 3.
        s.watch(
            Some(Rank(0)),
            "i",
            tracedbg_instrument::WatchCond::Equals(3),
        );
        s.continue_all();
        assert!(s.status().is_stopped(), "{:?}", s.status());
        match s.why(Rank(0)) {
            Some(tracedbg_instrument::TrapCause::Watch { label, value }) => {
                assert_eq!(label.as_str(), "i");
                assert_eq!(value, 3);
            }
            other => panic!("expected watch cause, got {other:?}"),
        }
        assert_eq!(s.latest_probe(Rank(0), "i"), Some(3));
        s.clear_breaks();
        assert!(s.continue_all().is_completed());
    }

    #[test]
    fn checkpointed_session_matches_scratch_session() {
        // Drive the same debugging script through a checkpointing session
        // and a scratch-only one: every observable state must agree.
        let mut fast = session(); // checkpoint_every: 1 (default)
        let mut slow = Session::launch(
            SessionConfig {
                recorder: RecorderConfig::full(),
                checkpoint_every: 0,
                ..Default::default()
            },
            two_proc_factory(),
        );
        let script = |s: &mut Session| -> Vec<MarkerVector> {
            let mut states = Vec::new();
            assert!(s.run().is_completed());
            let sl = Stopline {
                markers: MarkerVector::from_counts(vec![4, 1]),
                origin: "t".into(),
            };
            s.replay_to(&sl);
            states.push(s.markers());
            s.step(Rank(0));
            states.push(s.markers());
            s.step(Rank(0));
            states.push(s.markers());
            assert!(s.undo());
            states.push(s.markers());
            assert!(s.undo());
            states.push(s.markers());
            assert!(s.continue_all().is_completed());
            states.push(s.markers());
            states
        };
        let fast_states = script(&mut fast);
        let slow_states = script(&mut slow);
        assert_eq!(fast_states, slow_states);
        assert!(
            fast.telemetry().cache_len > 0,
            "fast path must actually checkpoint"
        );
        assert_eq!(slow.telemetry().cache_len, 0);
        // Full histories agree byte for byte.
        assert_eq!(fast.trace().records(), slow.trace().records());
    }

    #[test]
    fn transcript_is_the_same_from_every_replay_origin() {
        // Stepping a rank past the trap it was replayed into (its receive
        // posted) leaves checkpoints whose ranks are at the stopline but no
        // longer trapped; `undo` must still answer with the stop reached,
        // as the from-scratch session (`checkpoint_every: 0`) does.
        use tracedbg_workloads::random_comm;
        let transcript = |checkpoint_every: usize| {
            let pat = random_comm::generate(3, 8, 400);
            let session = Session::launch(
                SessionConfig {
                    checkpoint_every,
                    ..Default::default()
                },
                Box::new(move || random_comm::programs(&pat, 3)),
            );
            let steps: Vec<String> = (0..8).map(|r| format!("step {r}")).collect();
            let mut script = vec!["run", "stopline t 20000", "replay"];
            script.extend(steps.iter().map(String::as_str));
            script.extend(["undo", "undo", "undo", "markers"]);
            crate::CommandInterface::new(session).script(&script)
        };
        let scratch = transcript(0);
        assert_eq!(scratch.matches("\nstopped: traps [P0@").count(), 4);
        assert_eq!(transcript(1), scratch);
        assert_eq!(transcript(3), scratch);
    }

    #[test]
    fn undo_from_checkpoint_is_a_pure_restore() {
        let mut s = session();
        assert!(s.run().is_completed());
        let sl = Stopline {
            markers: MarkerVector::from_counts(vec![4, 1]),
            origin: "t".into(),
        };
        s.replay_to(&sl);
        s.step(Rank(0));
        let at_step = s.markers();
        s.step(Rank(0));
        // The stop after the first step was checkpointed; undoing to it is
        // an exact hit (no re-execution, and no fresh snapshot of a stop
        // the backlog already holds), and the session reports the same
        // stopped state.
        let snapshots = s.telemetry().engine.snapshots;
        assert!(snapshots >= 2, "both steps were checkpointed");
        assert!(s.undo());
        assert_eq!(s.telemetry().engine.snapshots, snapshots);
        assert_eq!(s.markers(), at_step);
        assert!(s.status().is_stopped());
        // The restored incarnation keeps working: step again, finish.
        s.step(Rank(0));
        assert_eq!(s.markers().get(Rank(0)), at_step.get(Rank(0)) + 1);
        assert!(s.continue_all().is_completed());
    }

    #[test]
    fn undo_restores_from_the_stop_it_undoes() {
        // Replay to 10s, back to 6s, then undo twice: the first undo
        // restores the 10s stop exactly; the second returns to the end of
        // the run from the 6s stop it undoes, which it looks up before
        // dropping that stop.
        use tracedbg_workloads::ring::{self, RingConfig};
        let session = Session::launch(
            SessionConfig::default(),
            Box::new(ring::factory(RingConfig::default())),
        );
        let mut ci = crate::CommandInterface::new(session);
        ci.script(&[
            "run",
            "stopline markers 10 10 10 10",
            "replay",
            "stopline markers 6 6 6 6",
            "replay",
            "undo",
        ]);
        let snapshots = ci.session().telemetry().engine.snapshots;
        assert_eq!(snapshots, 2, "the stop undone to keeps its checkpoint");
        ci.execute("undo");
        let tel = ci.session().telemetry();
        assert_eq!((tel.cache.hits, tel.cache.misses), (2, 2));
        assert_eq!(tel.restores, 2);
    }

    #[test]
    fn telemetry_spans_incarnations_and_counts_restores() {
        let mut s = session();
        assert!(s.run().is_completed());
        let turns_first_run = s.telemetry().engine.turns;
        assert!(turns_first_run > 0, "metrics are on by default");
        let sl = Stopline {
            markers: MarkerVector::from_counts(vec![4, 1]),
            origin: "t".into(),
        };
        s.replay_to(&sl); // scratch replay: metrics absorbed, new engine
        s.step(Rank(0));
        s.step(Rank(0));
        assert!(s.undo(), "undo restores a checkpoint from the backlog");
        let tel = s.telemetry();
        assert!(
            tel.engine.turns > turns_first_run,
            "replay incarnations add turns: {} vs {}",
            tel.engine.turns,
            turns_first_run
        );
        assert!(tel.restores >= 1, "undo went through the restore path");
        assert!(tel.cache.hits >= 1);
        assert!(
            tel.engine.replay_delta.count >= 1,
            "delta replay recorded its length"
        );
        assert!(tel.engine.msgs_sent.iter().sum::<u64>() >= 1);
    }

    #[test]
    fn replay_after_deadlock_stops_before_it() {
        // Deadlocking pair; replay to just before the fatal receives.
        let factory: ProgramFactory = Box::new(|| {
            vec![
                rank(vec![compute(10), recv_from(1, 0)]),
                rank(vec![compute(10), recv_from(0, 0)]),
            ]
        });
        let mut s = Session::launch(
            SessionConfig {
                recorder: RecorderConfig::full(),
                ..Default::default()
            },
            factory,
        );
        assert!(s.run().is_deadlocked());
        // Each: ProcStart(1) compute(2) recvpost(3). Stop at 2.
        let sl = Stopline {
            markers: MarkerVector::from_counts(vec![2, 2]),
            origin: "before deadlock".into(),
        };
        assert!(s.replay_to(&sl).is_stopped());
        assert_eq!(s.markers().counts(), &[2, 2]);
    }

    /// A checkpointing session that has recorded a 4-rank ring, plus a
    /// stopline maker: `frac(num, den)` is that fraction of every rank's
    /// final marker.
    fn recorded_ring(rounds: usize) -> (Session, impl Fn(u64, u64) -> Stopline) {
        use tracedbg_workloads::ring::{self, RingConfig};
        let cfg = RingConfig {
            nprocs: 4,
            rounds,
            hop_cost: 100,
            tag_stride: 0,
        };
        let mut s = Session::launch(
            SessionConfig {
                recorder: RecorderConfig::markers_only(),
                checkpoint_every: 1,
                ..Default::default()
            },
            Box::new(move || ring::programs(&cfg)),
        );
        assert!(s.run().is_completed());
        let end = s.markers();
        let frac = move |num: u64, den: u64| Stopline {
            markers: MarkerVector::from_counts(
                end.counts()
                    .iter()
                    .map(|c| (c * num / den).max(1))
                    .collect(),
            ),
            origin: "test".into(),
        };
        (s, frac)
    }

    #[test]
    fn delta_replay_repins_a_blocked_receive() {
        // Regression: a receive consumes its replay-log entry when the
        // request is serviced, not when it matches, so a checkpoint taken
        // while a rank is blocked in an unmatched receive has consumed one
        // entry beyond its match count. Advancing the log by match counts
        // alone left that rank's cursor one short, forcing its *next*
        // receive onto an already-delivered (src, seq) — an upward
        // `replay_to` past the checkpoint then deadlocked on a bogus
        // cyclic wait. Long enough rings reliably stop with ranks blocked
        // in the receive half of a forwarded hop.
        let (mut s, frac) = recorded_ring(8);
        let quarter = frac(1, 4);
        let half = frac(1, 2);
        assert!(s.replay_to(&quarter).is_stopped());
        // The second replay restores the quarter checkpoint and replays
        // only the delta; before the fix it deadlocked partway there.
        assert!(s.replay_to(&half).is_stopped(), "{:?}", s.status());
        assert_eq!(s.markers(), half.markers);
    }

    #[test]
    fn jumps_replay_only_the_distance_from_the_nearest_checkpoint() {
        // §6's logarithmic backlog on the shipping engine: after stops at
        // 1/4, 1/2 and 3/4, a jump back and a jump forward each restore
        // the nearest dominated checkpoint and re-execute only the delta.
        let (mut s, frac) = recorded_ring(64);
        let total: u64 = s.markers().counts().iter().sum();
        for quarter in 1..=3 {
            assert!(s.replay_to(&frac(quarter, 4)).is_stopped());
        }
        let replayed = |s: &mut Session, sl: &Stopline| {
            let before = s.telemetry().cache.restore_distance;
            assert!(s.replay_to(sl).is_stopped(), "{:?}", s.status());
            s.telemetry().cache.restore_distance - before
        };
        // Back to just past 1/4, then forward to just past 3/4: each jump
        // costs its distance from a checkpoint, not from process creation.
        for (num, den) in [(9, 32), (25, 32)] {
            let cost = replayed(&mut s, &frac(num, den));
            assert!(
                cost <= total / 16,
                "jump to {num}/{den} re-executed {cost} of {total} events"
            );
        }
    }
}
