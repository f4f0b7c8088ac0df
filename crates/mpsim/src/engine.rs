//! The turn-taking engine.
//!
//! The engine owns every shared structure of a run (mailboxes, sequence
//! counters, collective state, the decision log, the collected trace) and
//! grants execution to
//! exactly one process at a time. A granted process is stepped inline until
//! its next runtime operation, which it returns as a [`Request`]; the engine
//! services the request and schedules the next turn. Because scheduling
//! decisions are a pure function of (program, policy seed, replay log), the
//! run is controlled — restarting it with the same inputs regenerates the
//! same execution, which is the foundation of the paper's replay, stopline and
//! *undo* operations.

use crate::checkpoint::{EngineCheckpoint, RankCell, RankState, RankTable};
use crate::clock::CostModel;
use crate::collective::{CollEntry, PendingCollective};
use crate::deadlock::DeadlockReport;
use crate::fault::{FaultKind, FaultPlan};
use crate::mailbox::Mailbox;
use crate::message::{Envelope, MatchSpec};
use crate::ops::{Reply, Request, SendMode};
use crate::record::ReplayLog;
use crate::sched::{SchedPolicy, Scheduler};
use crate::task::{Prog, TaskEnv, TaskHarness, TaskInterp, TaskProgram};
use std::sync::Arc;
use tracedbg_instrument::{Armed, Recorder, RecorderConfig};
use tracedbg_obs::EngineMetrics;
use tracedbg_trace::schedule::{
    Alternatives, Decision, DecisionPoint, RankSet, ReadyChanges, ReadyDelta,
};
use tracedbg_trace::{
    ChunkLog, Marker, MarkerVector, Rank, ScheduleArtifact, SiteTable, TraceRecord, TraceSink,
    TraceStore,
};

/// Engine construction parameters.
#[derive(Clone, Debug, Default)]
pub struct EngineConfig {
    pub cost: CostModel,
    pub policy: SchedPolicy,
    pub recorder: RecorderConfig,
    /// Force receive matches from a previous run (§4.2 replay): the log
    /// [`Engine::set_replay`] is called with at launch.
    pub replay: Option<ReplayLog>,
    /// Share a site table across engine incarnations so source-location
    /// ids stay stable between a recording run and its replays (the
    /// debugger's breakpoints and trace comparisons depend on this).
    pub sites: Option<SiteTable>,
    /// Faults to inject into this run (explorer fault plane).
    pub faults: FaultPlan,
    /// Allow [`EngineCheckpoint`]s to be taken of this run
    /// ([`Engine::snapshot`], [`Engine::set_snapshot_at`]). Off by default.
    pub checkpoints: bool,
    /// Ignored: the engine keeps no counters, and a run's
    /// [`EngineMetrics`] are derived after it ([`Engine::take_metrics`]).
    /// The field stays only because `benchmark/` compiles against it.
    pub metrics: bool,
}

impl EngineConfig {
    pub fn with_recorder(recorder: RecorderConfig) -> Self {
        EngineConfig {
            recorder,
            ..Default::default()
        }
    }

    /// Re-run a schedule artifact: the scheduler follows its recorded
    /// decisions and the engine injects its recorded faults. Everything
    /// else (recorder, checkpoints, telemetry) is the caller's to set.
    pub fn for_artifact(artifact: &ScheduleArtifact) -> Self {
        EngineConfig {
            policy: SchedPolicy::Scripted(artifact.decisions.clone()),
            faults: FaultPlan::new(artifact.faults.clone()),
            ..Default::default()
        }
    }
}

/// Outcome classes ([`RunOutcome::class`]). These are the `failure`
/// strings written into schedule artifacts; `tracedbg replay` compares
/// against them.
pub const CLASS_COMPLETED: &str = "completed";
pub const CLASS_DEADLOCK: &str = "deadlock";
pub const CLASS_PANIC: &str = "panic";
pub const CLASS_STOPPED: &str = "stopped";

/// Why `Engine::run` returned.
#[derive(Debug)]
pub enum RunOutcome {
    /// Every process finished.
    Completed,
    /// No process can make progress (the Figure 5 situation).
    Deadlock(DeadlockReport),
    /// One or more processes hit debugger traps / pauses.
    Stopped(StopReason),
    /// A process panicked.
    Panicked { rank: Rank, message: String },
}

impl RunOutcome {
    /// The outcome's class, one of the `CLASS_*` strings.
    pub fn class(&self) -> &'static str {
        match self {
            RunOutcome::Completed => CLASS_COMPLETED,
            RunOutcome::Deadlock(_) => CLASS_DEADLOCK,
            RunOutcome::Stopped(_) => CLASS_STOPPED,
            RunOutcome::Panicked { .. } => CLASS_PANIC,
        }
    }

    /// Human-readable outcome detail (deadlock cycle, panic message, …).
    pub fn detail(&self) -> String {
        match self {
            RunOutcome::Completed => "run completed".to_string(),
            RunOutcome::Deadlock(rep) if rep.is_cyclic() => {
                format!("cyclic wait: {:?}", rep.cycle)
            }
            RunOutcome::Deadlock(rep) => format!(
                "stalled: {} process(es) waiting with no cycle",
                rep.waits.len()
            ),
            RunOutcome::Stopped(s) => {
                format!("{} trap(s), {} paused", s.traps.len(), s.paused.len())
            }
            RunOutcome::Panicked { rank, message } => format!("{rank:?} panicked: {message}"),
        }
    }

    pub fn is_completed(&self) -> bool {
        matches!(self, RunOutcome::Completed)
    }

    pub fn is_deadlock(&self) -> bool {
        matches!(self, RunOutcome::Deadlock(_))
    }

    pub fn is_stopped(&self) -> bool {
        matches!(self, RunOutcome::Stopped(_))
    }
}

/// Details of a debugger stop.
#[derive(Debug, Clone)]
pub struct StopReason {
    /// Processes stopped at fired marker thresholds.
    pub traps: Vec<Marker>,
    /// Processes paused by an explicit debugger pause.
    pub paused: Vec<Rank>,
}

#[derive(Clone, Debug)]
pub(crate) enum ProcState {
    /// Waiting for a turn; the reply to deliver when granted.
    Ready(Reply),
    /// Currently holding the turn (engine is waiting for its request).
    Running,
    /// Blocked in a receive.
    Blocked {
        spec: MatchSpec,
        t_post: u64,
        marker: u64,
    },
    /// Blocked in a synchronous send to `dst`, waiting for the rendezvous.
    BlockedSend {
        dst: Rank,
        marker: u64,
    },
    /// Waiting inside a collective.
    InCollective,
    /// Stopped at a fired marker threshold.
    Trapped {
        marker: u64,
    },
    /// Silenced by an injected fault: the process submitted a request that
    /// was swallowed and will never be granted another turn.
    Faulted(FaultKind),
    Finished,
    Panicked(String),
}

/// A rank's program: a [`Prog`] tree and its initial state, built with
/// [`RankProgram::task`].
pub struct RankProgram(Box<dyn TaskProgram>);

/// Recreates the target program for each (re-)execution: replay and undo
/// re-run it from the start, the explorer runs it many times.
pub type ProgramFactory = Box<dyn Fn() -> Vec<RankProgram> + Send + Sync>;

impl RankProgram {
    /// A rank from a [`Prog`] tree and its initial state.
    pub fn task<S: Clone + Send + Sync + 'static>(state: S, prog: Prog<S>) -> Self {
        RankProgram(Box::new(TaskInterp::new(state, prog)))
    }
}

/// A complete simulated run.
pub struct Engine {
    /// The run's deterministic state — what a checkpoint is a clone of.
    st: EngineCheckpoint,
    /// The ranks in a `Ready` state, paused or not.
    waiting: RankSet,
    /// The ranks the scheduler may grant the next turn: `waiting` and not
    /// paused. Both sets are maintained at every state and pause
    /// transition (each change of a `ready` bit also goes to
    /// `st.ready_changes`), so a turn costs what changed instead of a scan over
    /// every `ProcState`.
    ready: RankSet,
    /// `ready` as the decision log's `Turn` deltas rebuild it: what the
    /// debug check at every turn compares `ready` against.
    #[cfg(debug_assertions)]
    rebuilt: tracedbg_trace::ReadySets,
    /// Run the delivery sweep on the next [`Engine::run`] (set by
    /// [`Engine::restore`], which can leave a deliverable receive
    /// undelivered).
    resweep: bool,
    /// Streaming sink that sees every record as it enters `collected`.
    tee: Option<Box<dyn TraceSink>>,
    /// Checkpoint plane (all inert unless `checkpoints` is on).
    checkpoints: bool,
    /// Take a snapshot when the decision log reaches this length.
    snapshot_at_decision: Option<usize>,
    pending_snapshot: Option<Box<EngineCheckpoint>>,
    /// `(records, decisions)` logged when this incarnation was launched
    /// or restored: where [`Engine::take_metrics`] starts counting.
    origin: (usize, usize),
}

impl Engine {
    /// Launch `programs` (one per rank) under `config`. Processes start
    /// ready but do not run until [`Engine::run`].
    pub fn launch(config: EngineConfig, programs: Vec<RankProgram>) -> Self {
        install_quiet_panic_hook();
        let n = programs.len();
        assert!(n > 0, "need at least one process");
        let st = EngineCheckpoint {
            n_ranks: n,
            states: RankTable::new((0..n).map(|_| ProcState::Ready(Reply::Proceed))),
            paused: vec![false; n],
            armed: RankTable::new((0..n).map(|_| Armed::default())),
            ranks: RankTable::new(programs.into_iter().enumerate().map(|(i, p)| {
                RankCell::Own(RankState {
                    task: TaskHarness::new(p.0),
                    recorder: Recorder::new(Rank::from(i), config.recorder.clone()),
                    mailbox: Mailbox::new(),
                })
            })),
            scheduler: Scheduler::new(&config.policy, n),
            matched: vec![0; n],
            replay: None,
            sites: config.sites.unwrap_or_default(),
            cost: config.cost,
            pending_coll: None,
            collected: ChunkLog::new(),
            faults: config.faults,
            ops: vec![0; n],
            decision_log: ChunkLog::new(),
            ready_changes: ReadyChanges::new(n),
        };
        let mut engine = Engine {
            st,
            waiting: RankSet::full(n),
            ready: RankSet::full(n),
            #[cfg(debug_assertions)]
            rebuilt: tracedbg_trace::ReadySets::new(n),
            resweep: false,
            tee: None,
            checkpoints: config.checkpoints,
            snapshot_at_decision: None,
            pending_snapshot: None,
            origin: (0, 0),
        };
        if let Some(log) = config.replay {
            engine.set_replay(Arc::new(log));
        }
        engine
    }

    /// Rebuild a live engine from a checkpoint: every rank resumes from its
    /// checkpointed frame stack and recorder — no re-execution — shared
    /// with the checkpoint until the rank next moves, so a restore copies
    /// a pointer per block of ranks and per log. `_programs` is ignored
    /// (the checkpoint *is* the program state), so pass `Vec::new()`
    /// rather than building programs to be dropped; the parameter stays
    /// only because `benchmark/` compiles against this signature. Restored
    /// engines keep checkpointing enabled, so checkpoints chain.
    pub fn restore(cp: &EngineCheckpoint, _programs: Vec<RankProgram>) -> Self {
        install_quiet_panic_hook();
        let mut engine = Engine {
            st: cp.clone(),
            waiting: RankSet::new(cp.n_ranks),
            ready: RankSet::new(cp.n_ranks),
            #[cfg(debug_assertions)]
            rebuilt: {
                let mut sets = tracedbg_trace::ReadySets::new(cp.n_ranks);
                cp.decision_log.iter().for_each(|p| sets.advance(p));
                sets
            },
            // A snapshot can land between a match becoming possible and
            // its decision being committed; the sweep re-delivers it.
            resweep: true,
            tee: None,
            checkpoints: true,
            snapshot_at_decision: None,
            pending_snapshot: None,
            origin: (cp.collected.len(), cp.decision_log.len()),
        };
        (engine.waiting, engine.ready) = engine.scan_ready();
        engine
    }

    /// Move `rank` to `state` — the one writer of `states` — and return
    /// the state it left.
    fn set_state(&mut self, rank: Rank, state: ProcState) -> ProcState {
        let waiting = matches!(state, ProcState::Ready(_));
        self.waiting.set(rank, waiting);
        self.set_ready(rank, waiting && !self.st.paused[rank.ix()]);
        std::mem::replace(self.st.states.get_mut(rank.ix()), state)
    }

    /// Put `rank` in or out of `ready`, noting a change for the next
    /// `Turn` point's delta.
    fn set_ready(&mut self, rank: Rank, ready: bool) {
        if self.ready.set(rank, ready) {
            self.st.ready_changes.push(rank);
        }
    }

    /// `(waiting, ready)` recomputed from scratch: what the two sets must
    /// equal.
    fn scan_ready(&self) -> (RankSet, RankSet) {
        let n = self.st.n_ranks;
        let (mut waiting, mut ready) = (RankSet::new(n), RankSet::new(n));
        let states = self.st.states.iter().zip(&self.st.paused);
        for (i, (s, &held)) in states.enumerate() {
            if matches!(s, ProcState::Ready(_)) {
                waiting.set(Rank::from(i), true);
                ready.set(Rank::from(i), !held);
            }
        }
        (waiting, ready)
    }

    /// `spec` as `rank`'s next match must satisfy it: narrowed to the
    /// recorded message while a replay log still covers that match.
    fn pinned(&self, rank: Rank, mut spec: MatchSpec) -> MatchSpec {
        let made = self.st.matched[rank.ix()];
        if let Some(m) = self.st.replay.as_ref().and_then(|log| log.pin(rank, made)) {
            spec.forced = Some((m.src, m.seq));
        }
        spec
    }

    /// Does some blocked receive have a message it could match? Never at
    /// a rest point of a run that was not just restored.
    fn has_deliverable_receive(&self) -> bool {
        self.st.states.iter().enumerate().any(|(i, s)| match s {
            ProcState::Blocked { spec, .. } => {
                let spec = self.pinned(Rank::from(i), *spec);
                !self.st.ranks[i].mailbox.candidates(&spec).is_empty()
            }
            _ => false,
        })
    }

    pub fn n_ranks(&self) -> usize {
        self.st.n_ranks
    }

    pub fn sites(&self) -> &SiteTable {
        &self.st.sites
    }

    /// Run until completion, deadlock, panic, or a debugger stop.
    pub fn run(&mut self) -> RunOutcome {
        // Re-deliver any receive that was mid-match when a checkpoint was
        // taken. Everywhere else the sweep would be a no-op — at every rest
        // point a blocked receive with candidates has already been
        // delivered — so a `step` in a wide session does not pay for it.
        if std::mem::take(&mut self.resweep) {
            for r in 0..self.st.n_ranks {
                self.try_match(Rank(r as u32));
            }
        }
        debug_assert!(!self.has_deliverable_receive());
        loop {
            debug_assert_eq!(
                self.scan_ready(),
                (self.waiting.clone(), self.ready.clone())
            );
            if self.ready.is_empty() {
                return self.stall_outcome();
            }
            self.maybe_snapshot();
            let p = self.st.scheduler.pick(&self.ready);
            let point = DecisionPoint {
                chosen: Decision::Turn { rank: p },
                alternatives: Alternatives::Turns(ReadyDelta::new(
                    &self.ready,
                    &mut self.st.ready_changes,
                )),
            };
            #[cfg(debug_assertions)]
            {
                self.rebuilt.advance(&point);
                debug_assert_eq!(self.rebuilt.ready(), &self.ready, "the Turn deltas");
            }
            self.st.decision_log.push(point);
            let reply = match self.set_state(p, ProcState::Running) {
                ProcState::Ready(r) => r,
                other => unreachable!("granted non-ready process in state {other:?}"),
            };
            // The grant is a function call: step the rank inline until its
            // next request. A rank a checkpoint shares is copied out here,
            // where its task runs, and where a message enters or leaves its
            // mailbox.
            let granted = self.st.ranks.get_mut(p.ix()).make_mut();
            let req = granted.task.resume(
                reply,
                &mut TaskEnv {
                    rank: p,
                    n_ranks: self.st.n_ranks,
                    cost: self.st.cost,
                    sites: &self.st.sites,
                    recorder: &mut granted.recorder,
                    armed: &self.st.armed[p.ix()],
                    tee: &mut self.tee,
                    collected: &mut self.st.collected,
                },
            );
            self.service(p, req);
        }
    }

    /// Classify the no-runnable-process situation.
    fn stall_outcome(&mut self) -> RunOutcome {
        // One pass over the processes: the first panic wins; a run whose
        // every process is gone completed; traps and pauses make a stop.
        let (mut traps, mut paused, mut gone) = (Vec::new(), Vec::new(), true);
        for (i, (s, &held)) in self.st.states.iter().zip(&self.st.paused).enumerate() {
            match s {
                ProcState::Panicked(m) => {
                    return RunOutcome::Panicked {
                        rank: Rank::from(i),
                        message: m.clone(),
                    }
                }
                // A crash-faulted process counts as gone: the fault itself
                // is not a violation; what matters is whether the peers
                // could still finish. A hang-faulted process, by contrast,
                // keeps the run incomplete.
                ProcState::Finished | ProcState::Faulted(FaultKind::Crash) => continue,
                ProcState::Trapped { marker } => traps.push(Marker::new(i as u32, *marker)),
                ProcState::Ready(_) if held => paused.push(Rank::from(i)),
                _ => {}
            }
            gone = false;
        }
        if gone {
            return RunOutcome::Completed;
        }
        if !traps.is_empty() || !paused.is_empty() {
            return RunOutcome::Stopped(StopReason { traps, paused });
        }
        // Genuine stall: everyone is blocked, in a collective, or finished.
        let blocked: Vec<(Rank, MatchSpec, u64)> = self
            .st
            .states
            .iter()
            .enumerate()
            .filter_map(|(i, s)| match s {
                ProcState::Blocked { spec, marker, .. } => {
                    let rank = Rank(i as u32);
                    Some((rank, self.pinned(rank, *spec), *marker))
                }
                ProcState::BlockedSend { dst, marker } => {
                    Some((Rank(i as u32), MatchSpec::new(Some(*dst), None), *marker))
                }
                ProcState::InCollective => Some((Rank(i as u32), MatchSpec::any(), 0)),
                // A hung process shows up as an orphan wait so the report
                // names it; a crashed one is simply absent.
                ProcState::Faulted(FaultKind::Hang) => Some((Rank(i as u32), MatchSpec::any(), 0)),
                _ => None,
            })
            .collect();
        RunOutcome::Deadlock(DeadlockReport::analyze(&blocked))
    }

    fn service(&mut self, rank: Rank, req: Request) {
        // Fault plane: runtime operations count toward the process's
        // silence threshold; the operation that crosses it is swallowed and
        // the process never runs again. Peers observe only the silence.
        if matches!(
            req,
            Request::Send { .. } | Request::Recv { .. } | Request::Collective { .. }
        ) {
            self.st.ops[rank.ix()] += 1;
            if let Some((after_ops, kind)) = self.st.faults.silence_for(rank) {
                if self.st.ops[rank.ix()] > after_ops {
                    self.set_state(rank, ProcState::Faulted(kind));
                    return;
                }
            }
        }
        match req {
            Request::Send {
                dst,
                tag,
                payload,
                t0,
                send_marker,
                site,
                mode,
            } => {
                let mailbox = &mut self.st.ranks.get_mut(dst.ix()).make_mut().mailbox;
                let seq = mailbox.next_seq(rank);
                let t_done = self.st.cost.send_done(t0);
                let arrival = self.st.cost.arrival(t_done, payload.len())
                    + self.st.faults.delay(rank, dst, seq);
                let env = Envelope {
                    src: rank,
                    dst,
                    tag,
                    seq,
                    arrival,
                    send_marker,
                    send_site: site,
                    synchronous: mode == SendMode::Synchronous,
                    payload,
                };
                mailbox.push(env);
                let state = match mode {
                    SendMode::Buffered => ProcState::Ready(Reply::SendDone { seq, t_done }),
                    SendMode::Synchronous => ProcState::BlockedSend {
                        dst,
                        marker: send_marker,
                    },
                };
                self.set_state(rank, state);
                self.try_match(dst);
            }
            Request::Recv { spec, t_post } => {
                let marker = self.st.ranks[rank.ix()].recorder.marker();
                self.set_state(
                    rank,
                    ProcState::Blocked {
                        spec,
                        t_post,
                        marker,
                    },
                );
                self.try_match(rank);
            }
            Request::Collective {
                kind,
                root,
                payload,
                op,
                t_enter,
            } => {
                let pc = self
                    .st
                    .pending_coll
                    .get_or_insert_with(|| PendingCollective::new(kind, root, op, self.st.n_ranks));
                assert_eq!(
                    pc.kind, kind,
                    "collective mismatch: {:?} entered {kind:?} while {:?} in progress",
                    rank, pc.kind
                );
                let complete = pc.join(CollEntry {
                    rank,
                    payload,
                    t_enter,
                });
                self.set_state(rank, ProcState::InCollective);
                if complete {
                    let pc = self.st.pending_coll.take().unwrap();
                    let t_done = pc.completion_time(self.st.cost.latency);
                    let results = pc.results();
                    for (i, result) in results.into_iter().enumerate() {
                        self.set_state(
                            Rank::from(i),
                            ProcState::Ready(Reply::CollDone { result, t_done }),
                        );
                    }
                }
            }
            Request::MarkerTrap { marker } => {
                self.set_state(rank, ProcState::Trapped { marker });
            }
            Request::Finished { .. } => {
                self.set_state(rank, ProcState::Finished);
            }
            Request::Panicked { message } => {
                self.set_state(rank, ProcState::Panicked(message));
            }
        }
    }

    /// If `dst` is blocked in a receive that can now match, deliver.
    fn try_match(&mut self, dst: Rank) {
        let (spec, t_post) = match &self.st.states[dst.ix()] {
            // Replay pinning: narrow this receive to the recorded match.
            ProcState::Blocked { spec, t_post, .. } => (self.pinned(dst, *spec), *t_post),
            _ => return,
        };
        let candidates = self.st.ranks[dst.ix()].mailbox.candidates(&spec);
        if candidates.is_empty() {
            return;
        }
        self.maybe_snapshot();
        let pick = self.st.scheduler.pick_candidate(dst, &candidates);
        self.st.decision_log.push(DecisionPoint {
            chosen: Decision::Match {
                dst,
                src: candidates[pick].src,
                seq: candidates[pick].seq,
            },
            alternatives: Alternatives::Matches(
                candidates
                    .iter()
                    .map(|c| Decision::Match {
                        dst,
                        src: c.src,
                        seq: c.seq,
                    })
                    .collect(),
            ),
        });
        let env = self
            .st
            .ranks
            .get_mut(dst.ix())
            .make_mut()
            .mailbox
            .take(candidates[pick]);
        self.st.matched[dst.ix()] += 1;
        let t_done = self.st.cost.recv_done(t_post, env.arrival);
        // A synchronous sender rendezvouses here: it completes at the
        // same instant the receive does.
        if env.synchronous {
            let sender = env.src;
            if matches!(self.st.states[sender.ix()], ProcState::BlockedSend { .. }) {
                self.set_state(
                    sender,
                    ProcState::Ready(Reply::SendDone {
                        seq: env.seq,
                        t_done,
                    }),
                );
            }
        }
        self.set_state(dst, ProcState::Ready(Reply::RecvDone { env, t_done }));
    }

    // ---- debugger interface ----

    /// Arm the marker threshold of one process (`None` disarms). The
    /// process traps at the first event whose marker reaches the value.
    pub fn set_threshold(&mut self, rank: Rank, threshold: Option<u64>) {
        // Unchanged is not written: a checkpoint keeps sharing the block.
        if self.st.armed[rank.ix()].threshold != threshold {
            self.st.armed.get_mut(rank.ix()).threshold = threshold;
        }
    }

    /// Arm a stopline: a rank behind its marker gets it as threshold (and
    /// leaves the trap it may be in), a rank already there is paused. On a
    /// fresh engine only count 0 — "stop before the first event" — is
    /// already there: there is no marker state 0 to trap on.
    pub fn arm_stopline(&mut self, markers: &MarkerVector) {
        for m in markers.iter() {
            if self.st.ranks[m.rank.ix()].recorder.marker() < m.count {
                self.set_threshold(m.rank, Some(m.count));
                self.resume_rank(m.rank);
            } else {
                self.set_paused(m.rank, true);
            }
        }
    }

    /// Clear every debugger pause.
    pub fn clear_pauses(&mut self) {
        self.st.paused.fill(false);
        self.ready.clone_from(&self.waiting);
        self.st.ready_changes.push_all();
    }

    /// Pause every process but `running`, whose pause flags stay as they
    /// are: the "rest hold" half of stepping a set of processes.
    pub fn pause_all_but(&mut self, running: impl IntoIterator<Item = Rank>) {
        let kept: Vec<(Rank, bool)> = running
            .into_iter()
            .map(|r| (r, self.st.paused[r.ix()]))
            .collect();
        self.st.paused.fill(true);
        self.ready.clear();
        self.st.ready_changes.push_all();
        for (r, paused) in kept {
            self.set_paused(r, paused);
        }
    }

    /// Disarm every threshold.
    pub fn clear_thresholds(&mut self) {
        for r in 0..self.st.n_ranks {
            self.set_threshold(Rank::from(r), None);
        }
    }

    /// Resume all trapped processes (thresholds stay as set; clear them
    /// first to avoid immediately re-trapping).
    pub fn resume_trapped(&mut self) {
        for r in 0..self.st.n_ranks {
            self.resume_rank(Rank::from(r));
        }
    }

    /// Resume a single trapped process (single-process `step`/`continue`).
    /// Returns `false` if the process was not trapped.
    pub fn resume_rank(&mut self, rank: Rank) -> bool {
        let trapped = self.is_trapped(rank);
        if trapped {
            self.set_state(rank, ProcState::Ready(Reply::Proceed));
        }
        trapped
    }

    /// Is this process currently stopped at a trap?
    pub fn is_trapped(&self, rank: Rank) -> bool {
        matches!(self.st.states[rank.ix()], ProcState::Trapped { .. })
    }

    /// Has this process finished?
    pub fn is_finished(&self, rank: Rank) -> bool {
        matches!(self.st.states[rank.ix()], ProcState::Finished)
    }

    /// Pause / unpause a process (debugger-initiated, turn-level).
    pub fn set_paused(&mut self, rank: Rank, paused: bool) {
        self.st.paused[rank.ix()] = paused;
        self.set_ready(rank, self.waiting.contains(rank) && !paused);
    }

    /// Current execution markers of every process.
    pub fn markers(&self) -> MarkerVector {
        self.st.markers()
    }

    /// Ranks currently stopped at traps.
    pub fn trapped(&self) -> Vec<Marker> {
        self.st
            .states
            .iter()
            .enumerate()
            .filter_map(|(i, s)| match s {
                ProcState::Trapped { marker } => Some(Marker::new(i as u32, *marker)),
                _ => None,
            })
            .collect()
    }

    /// Recent `UserMonitor` ring of a process (stop reports).
    pub fn recent_calls(&self, rank: Rank) -> Vec<tracedbg_instrument::RingEntry> {
        self.st.ranks[rank.ix()].recorder.monitor().ring().recent()
    }

    /// Arm a source-location breakpoint on every process.
    pub fn add_breakpoint(&mut self, site: tracedbg_trace::SiteId) {
        for r in 0..self.st.n_ranks {
            self.st.armed.get_mut(r).breaks.add_site(site);
        }
    }

    /// Arm a watchpoint on one process (or all, with `None`).
    pub fn add_watch(&mut self, rank: Option<Rank>, watch: tracedbg_instrument::Watch) {
        match rank {
            Some(r) => self.st.armed.get_mut(r.ix()).breaks.add_watch(watch),
            None => {
                for r in 0..self.st.n_ranks {
                    self.st.armed.get_mut(r).breaks.add_watch(watch.clone());
                }
            }
        }
    }

    /// Disarm all breakpoints and watchpoints everywhere.
    pub fn clear_breaks(&mut self) {
        for r in 0..self.st.n_ranks {
            if !self.st.armed[r].breaks.is_empty() {
                self.st.armed.get_mut(r).breaks.clear();
            }
        }
    }

    /// Why a process's most recent trap fired.
    pub fn trap_cause(&self, rank: Rank) -> Option<tracedbg_instrument::TrapCause> {
        self.st.ranks[rank.ix()].recorder.last_trap().cloned()
    }

    /// Everything traced so far, in the order it was recorded: the run's
    /// one log, which every kept record enters when it is recorded.
    pub fn collect_trace(&self) -> &ChunkLog<TraceRecord> {
        &self.st.collected
    }

    /// One rank's trace records so far, newest first: the run's log read
    /// backwards. Nothing is copied.
    pub fn records_newest_first(&self, rank: Rank) -> impl Iterator<Item = &TraceRecord> {
        self.st
            .collected
            .iter()
            .rev()
            .filter(move |r| r.rank == rank)
    }

    /// Attach a streaming trace sink: it sees every record from now on as
    /// it is recorded, exactly once, in the order
    /// [`Engine::collect_trace`] holds them; call
    /// [`Engine::detach_trace_sink`] to get it back and finish it.
    pub fn attach_trace_sink(&mut self, sink: Box<dyn tracedbg_trace::TraceSink>) {
        self.tee = Some(sink);
    }

    /// Detach the streaming sink attached by [`Engine::attach_trace_sink`].
    pub fn detach_trace_sink(&mut self) -> Option<Box<dyn tracedbg_trace::TraceSink>> {
        self.tee.take()
    }

    /// Collected trace as a queryable store: the log gathered into
    /// canonical order, each record copied once into the store, the log
    /// left as it is (a debugger stop goes on running).
    pub fn trace_store(&mut self) -> TraceStore {
        TraceStore::from_log(&self.st.collected, self.st.sites.clone(), self.st.n_ranks)
    }

    /// [`Engine::trace_store`] for a caller that is done with the engine:
    /// everything but the log is dropped, the log's `Vec` is taken (only
    /// chunks a live checkpoint still shares are copied) and put in
    /// canonical order where it lies.
    pub fn into_trace_store(self) -> TraceStore {
        let (log, sites, n_ranks) = self.into_log();
        TraceStore::from_owned_log(log, sites, n_ranks)
    }

    /// The run's log, site table and width; the rest of the engine (ranks,
    /// decision log, a pending snapshot) is dropped on return.
    fn into_log(mut self) -> (ChunkLog<TraceRecord>, SiteTable, usize) {
        drop(std::mem::take(&mut self.st.decision_log));
        let log = std::mem::take(&mut self.st.collected);
        (log, self.st.sites.clone(), self.st.n_ranks)
    }

    /// Record into the log buffers of `retired`, an engine this one
    /// replaces before running, emptied ([`ChunkLog::into_buffer`]): a
    /// fresh incarnation of a long run then grows into memory the process
    /// holds instead of faulting its logs in again.
    pub fn reuse_log_buffers(&mut self, mut retired: Engine) {
        let trace = std::mem::take(&mut retired.st.collected).into_buffer();
        let decisions = std::mem::take(&mut retired.st.decision_log).into_buffer();
        if self.st.collected.is_empty() && self.st.decision_log.is_empty() {
            self.st.collected = ChunkLog::with_buffer(trace);
            self.st.decision_log = ChunkLog::with_buffer(decisions);
        }
    }

    /// Consume a finished engine into what an exploration run keeps of
    /// it: the log as [`Engine::collect_trace`] holds it (arrival order)
    /// and the decision log as [`Engine::decision_points`] shows it,
    /// trimmed of its growth slack (a caller that keeps thousands of these
    /// should keep `len`, not `capacity`). Both are moved out, not cloned;
    /// the rest of the engine is dropped on return.
    pub fn into_log_and_decisions(mut self) -> (ChunkLog<TraceRecord>, Vec<DecisionPoint>) {
        let decisions = std::mem::take(&mut self.st.decision_log).into_vec();
        (std::mem::take(&mut self.st.collected), decisions)
    }

    /// [`Engine::into_log_and_decisions`], the log put in canonical order
    /// as [`Engine::into_trace_store`] puts it.
    pub fn into_trace_and_decisions(self) -> (TraceStore, Vec<DecisionPoint>) {
        let (sites, n_ranks) = (self.st.sites.clone(), self.st.n_ranks);
        let (log, decisions) = self.into_log_and_decisions();
        (TraceStore::from_owned_log(log, sites, n_ranks), decisions)
    }

    /// The receive-match history of this run, for replaying it later: the
    /// `Match` decisions of the decision log, by receiver.
    pub fn match_log(&self) -> ReplayLog {
        ReplayLog::from_decisions(self.st.n_ranks, &self.st.decision_log)
    }

    /// Undelivered messages per destination (unmatched sends, §4.4).
    pub fn undelivered(&self) -> Vec<(Rank, Vec<Envelope>)> {
        self.st
            .ranks
            .iter()
            .enumerate()
            .map(|(i, r)| {
                (
                    Rank(i as u32),
                    r.mailbox.undelivered().into_iter().cloned().collect(),
                )
            })
            .collect()
    }

    /// Per-process monitor invocation counts (Table 1 accounting).
    pub fn invocations(&self) -> Vec<u64> {
        self.st
            .ranks
            .iter()
            .map(|r| r.recorder.monitor().invocations())
            .collect()
    }

    // ---- explorer interface ----

    /// Every scheduling decision of the run so far, with the alternatives
    /// that were available at each point.
    pub fn decision_points(&self) -> &ChunkLog<DecisionPoint> {
        &self.st.decision_log
    }

    /// Just the chosen decisions — the schedule this run followed.
    pub fn schedule_log(&self) -> Vec<Decision> {
        self.st.decision_log.iter().map(|d| d.chosen).collect()
    }

    /// Under a scripted policy: did the script fail to apply at some point?
    pub fn schedule_diverged(&self) -> bool {
        self.st.scheduler.diverged()
    }

    /// Processes silenced by injected faults.
    pub fn faulted(&self) -> Vec<(Rank, FaultKind)> {
        self.st
            .states
            .iter()
            .enumerate()
            .filter_map(|(i, s)| match s {
                ProcState::Faulted(k) => Some((Rank(i as u32), *k)),
                _ => None,
            })
            .collect()
    }

    // ---- checkpoint interface ----

    /// Was this engine launched (or restored) with checkpointing on?
    pub fn checkpoints_enabled(&self) -> bool {
        self.checkpoints
    }

    /// Capture the full deterministic state of the run right now. Callable
    /// whenever the engine has control (between turns — i.e. whenever
    /// `run` has returned). Requires `EngineConfig::checkpoints`.
    ///
    /// The checkpoint shares every rank and every log chunk with the
    /// engine (both are sealed first), so the copy is a pointer per block of
    /// ranks and per log chunk, and whatever the engine does next un-shares
    /// only what it writes.
    pub fn snapshot(&mut self) -> EngineCheckpoint {
        assert!(
            self.checkpoints,
            "snapshot() requires EngineConfig.checkpoints"
        );
        self.st.share();
        self.st.clone()
    }

    /// Arrange for a snapshot to be taken automatically when the decision
    /// log reaches length `k` (the explorer checkpoints schedule prefixes
    /// this way). Collected with [`Engine::take_pending_snapshot`].
    pub fn set_snapshot_at(&mut self, k: usize) {
        assert!(
            self.checkpoints,
            "set_snapshot_at() requires EngineConfig.checkpoints"
        );
        self.snapshot_at_decision = Some(k);
    }

    /// The snapshot armed by [`Engine::set_snapshot_at`], if the run
    /// reached that decision depth.
    pub fn take_pending_snapshot(&mut self) -> Option<EngineCheckpoint> {
        self.pending_snapshot.take().map(|b| *b)
    }

    fn maybe_snapshot(&mut self) {
        if let Some(k) = self.snapshot_at_decision {
            if self.st.decision_log.len() == k && self.pending_snapshot.is_none() {
                self.pending_snapshot = Some(Box::new(self.snapshot()));
            }
        }
    }

    /// Structural digest of the engine's deterministic state — a cheap
    /// self-check that a restored-and-continued run converged to the same
    /// state as a straight run.
    pub fn digest(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        for (i, s) in self.st.states.iter().enumerate() {
            (i as u64).hash(&mut h);
            match s {
                ProcState::Ready(_) => 0u8.hash(&mut h),
                ProcState::Running => 1u8.hash(&mut h),
                ProcState::Blocked { marker, .. } => {
                    2u8.hash(&mut h);
                    marker.hash(&mut h);
                }
                ProcState::BlockedSend { dst, marker } => {
                    3u8.hash(&mut h);
                    dst.ix().hash(&mut h);
                    marker.hash(&mut h);
                }
                ProcState::InCollective => 4u8.hash(&mut h),
                ProcState::Trapped { marker } => {
                    5u8.hash(&mut h);
                    marker.hash(&mut h);
                }
                ProcState::Faulted(k) => {
                    6u8.hash(&mut h);
                    matches!(k, FaultKind::Crash).hash(&mut h);
                }
                ProcState::Finished => 7u8.hash(&mut h),
                ProcState::Panicked(m) => {
                    8u8.hash(&mut h);
                    m.hash(&mut h);
                }
            }
            self.st.ranks[i].recorder.marker().hash(&mut h);
        }
        for (dst, rank) in self.st.ranks.iter().enumerate() {
            for env in rank.mailbox.undelivered() {
                (env.src.ix(), env.dst.ix(), env.tag.0, env.seq, env.arrival).hash(&mut h);
            }
            for (src, sent) in rank.mailbox.sent_counts() {
                (src.ix(), dst, sent).hash(&mut h);
            }
        }
        self.st.ops.hash(&mut h);
        self.st.decision_log.len().hash(&mut h);
        self.st.matched.hash(&mut h);
        h.finish()
    }

    /// Force this run's remaining receive matches from `log` (§4.2
    /// replay). Valid at launch and on a restored engine: the log is
    /// indexed by the matches each rank has made, which the engine and its
    /// checkpoints carry, so whatever lies behind this state is skipped.
    /// Returns the recorded matches still ahead of this state: the work
    /// the coming replay actually pins.
    pub fn set_replay(&mut self, log: Arc<ReplayLog>) -> usize {
        let ahead = (0..self.st.n_ranks)
            .map(|r| {
                log.len_for(Rank::from(r))
                    .saturating_sub(self.st.matched[r] as usize)
            })
            .sum();
        self.st.replay = Some(log);
        ahead
    }

    /// The metrics of this incarnation — what it traced and decided since
    /// it was launched or restored — derived by [`crate::metrics::of_run`],
    /// whose doc says when they are exact. Always `Some`, and nothing is
    /// detached; the `Option` stays only because `benchmark/` compiles
    /// against it.
    pub fn take_metrics(&self) -> Option<EngineMetrics> {
        let (records, decisions) = self.origin;
        Some(crate::metrics::of_run(
            self.st.collected.iter().skip(records),
            self.st
                .decision_log
                .iter()
                .skip(decisions)
                .map(|p| &p.chosen),
            self.st.n_ranks,
        ))
    }
}

/// The logs go first: a long run's are a `Vec` each, megabytes, and
/// freeing them before the ranks' small blocks keeps the allocator from
/// handing them back to the system only for the next engine of the
/// process to fault them in again (a metered 1024-rank run read 1.2–1.3×
/// an unmetered one in `tests/width_scaling.rs` when they went last).
impl Drop for Engine {
    fn drop(&mut self) {
        drop(std::mem::take(&mut self.st.collected));
        drop(std::mem::take(&mut self.st.decision_log));
    }
}

static QUIET_PANICS: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

/// Suppress stderr noise from panics inside simulated processes. The
/// explorer turns this on: it drives hundreds of runs into assertion
/// failures on purpose, and every panic is already captured and reported
/// through [`RunOutcome::Panicked`].
pub fn set_quiet_panics(quiet: bool) {
    QUIET_PANICS.store(quiet, std::sync::atomic::Ordering::Relaxed);
}

/// Keeps panics raised inside simulated processes out of stderr while
/// [`set_quiet_panics`] is on; everything else goes to the previous hook.
fn install_quiet_panic_hook() {
    static HOOK: std::sync::Once = std::sync::Once::new();
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if crate::task::in_task_step()
                && QUIET_PANICS.load(std::sync::atomic::Ordering::Relaxed)
            {
                return;
            }
            prev(info);
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Message;
    use crate::payload::Payload;
    use crate::task::{OpResult, TaskOp, TaskView};
    use tracedbg_trace::{EventKind, Label, SiteId, Tag};

    fn cfg() -> EngineConfig {
        EngineConfig::with_recorder(RecorderConfig::full())
    }

    // A small straight-line vocabulary for test programs. The task state
    // is the list of messages received so far.
    type St = Vec<Message>;
    type P = Prog<St>;

    fn site(v: &TaskView<'_>) -> SiteId {
        v.site("test.rs", 1, "test")
    }

    fn rank(items: Vec<P>) -> RankProgram {
        RankProgram::task(St::new(), Prog::seq(items))
    }

    fn compute(cost_ns: u64) -> P {
        Prog::op(move |_, v| TaskOp::Compute {
            cost_ns,
            site: site(v),
        })
    }

    fn send_mode(dst: u32, tag: i32, value: i64, mode: SendMode) -> P {
        Prog::op(move |_, v| TaskOp::Send {
            dst: Rank(dst),
            tag: Tag(tag),
            payload: Payload::from_i64(value),
            site: site(v),
            mode,
        })
    }

    fn send(dst: u32, tag: i32, value: i64) -> P {
        send_mode(dst, tag, value, SendMode::Buffered)
    }

    fn ssend(dst: u32, tag: i32, value: i64) -> P {
        send_mode(dst, tag, value, SendMode::Synchronous)
    }

    fn recv(src: Option<u32>, tag: Option<i32>) -> P {
        Prog::op_bind(
            move |_, v| TaskOp::Recv {
                src: src.map(Rank),
                tag: tag.map(Tag),
                site: site(v),
            },
            |s: &mut St, r, _| s.push(r.message()),
        )
    }

    fn recv_from(src: u32, tag: i32) -> P {
        recv(Some(src), Some(tag))
    }

    fn probe(label: &'static str, value: impl Fn(&St) -> i64 + Send + Sync + 'static) -> P {
        let label = Label::new(label);
        Prog::op(move |s, v| TaskOp::Probe {
            label,
            value: value(s),
            site: site(v),
        })
    }

    fn check(f: impl Fn(&St) + Send + Sync + 'static) -> P {
        Prog::act(move |s, _| f(s))
    }

    fn repeat(n: i64, body: P) -> P {
        Prog::for_range(move |_, _| (0, n), |_, _| {}, body)
    }

    fn value(m: &Message) -> i64 {
        m.payload.to_i64().unwrap()
    }

    fn probes(e: &mut Engine) -> Vec<i64> {
        let store = e.trace_store();
        store
            .records()
            .iter()
            .filter(|r| r.kind == EventKind::Probe)
            .map(|r| r.args[0])
            .collect()
    }

    #[test]
    fn ping_pong_completes() {
        let p0 = rank(vec![
            send(1, 1, 42),
            recv_from(1, 2),
            check(|s| assert_eq!(value(&s[0]), 43)),
        ]);
        let p1 = rank(vec![
            recv_from(0, 1),
            Prog::op(|s: &mut St, v| TaskOp::Send {
                dst: Rank(0),
                tag: Tag(2),
                payload: Payload::from_i64(value(&s[0]) + 1),
                site: site(v),
                mode: SendMode::Buffered,
            }),
        ]);
        let mut e = Engine::launch(cfg(), vec![p0, p1]);
        let out = e.run();
        assert!(out.is_completed(), "{out:?}");
        let store = e.trace_store();
        assert_eq!(store.of_kind(EventKind::Send).len(), 2);
        assert_eq!(store.of_kind(EventKind::RecvDone).len(), 2);
    }

    #[test]
    fn recv_before_send_blocks_then_matches() {
        // P1 posts its receive long before P0 sends.
        let p0 = rank(vec![compute(1_000_000), send(1, 9, 7)]);
        let p1 = rank(vec![
            recv_from(0, 9),
            check(|s| assert_eq!(value(&s[0]), 7)),
        ]);
        let mut e = Engine::launch(cfg(), vec![p0, p1]);
        assert!(e.run().is_completed());
        let store = e.trace_store();
        // Receive completion must not precede send completion.
        let send = &store.records()[store.of_kind(EventKind::Send)[0].ix()];
        let recv = &store.records()[store.of_kind(EventKind::RecvDone)[0].ix()];
        assert!(recv.t_end >= send.t_end);
    }

    #[test]
    fn deadlock_detected_with_cycle() {
        let p0 = rank(vec![recv_from(1, 0)]);
        let p1 = rank(vec![recv_from(0, 0)]);
        let mut e = Engine::launch(cfg(), vec![p0, p1]);
        match e.run() {
            RunOutcome::Deadlock(rep) => {
                assert!(rep.is_cyclic());
                assert_eq!(rep.cycle, vec![Rank(0), Rank(1)]);
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn wildcard_recv_and_match_log() {
        let p0 = rank(vec![
            recv(None, Some(1)),
            recv(None, Some(1)),
            check(|s| {
                let mut got = vec![value(&s[0]), value(&s[1])];
                got.sort();
                assert_eq!(got, vec![10, 20]);
            }),
        ]);
        let p1 = rank(vec![send(0, 1, 10)]);
        let p2 = rank(vec![send(0, 1, 20)]);
        let mut e = Engine::launch(cfg(), vec![p0, p1, p2]);
        assert!(e.run().is_completed());
        let log = e.match_log();
        assert_eq!(log.len_for(Rank(0)), 2);
    }

    #[test]
    fn replay_forces_wildcard_matches() {
        // Record under one seed, replay under a different seed: the
        // wildcard receive order must follow the log, not the new seed.
        let make = || {
            let p0 = rank(vec![
                recv(None, None),
                recv(None, None),
                // Report the observed order via probes.
                probe("first", |s| s[0].src.0 as i64),
                probe("second", |s| s[1].src.0 as i64),
            ]);
            vec![p0, rank(vec![send(0, 0, 1)]), rank(vec![send(0, 0, 2)])]
        };
        let mut cfg1 = cfg();
        cfg1.policy = SchedPolicy::Seeded(1);
        let mut e1 = Engine::launch(cfg1, make());
        assert!(e1.run().is_completed());
        let recorded = probes(&mut e1);
        let log = e1.match_log();

        let mut cfg2 = cfg();
        cfg2.policy = SchedPolicy::Seeded(999);
        cfg2.replay = Some(log);
        let mut e2 = Engine::launch(cfg2, make());
        assert!(e2.run().is_completed());
        let replayed = probes(&mut e2);
        assert_eq!(recorded, replayed, "replay must pin wildcard matches");
    }

    fn ten_computes() -> Vec<RankProgram> {
        vec![rank(vec![repeat(10, compute(100))])]
    }

    #[test]
    fn threshold_trap_stops_and_resumes() {
        let mut e = Engine::launch(cfg(), ten_computes());
        e.set_threshold(Rank(0), Some(5));
        match e.run() {
            RunOutcome::Stopped(stop) => {
                assert_eq!(stop.traps, vec![Marker::new(0u32, 5)]);
            }
            other => panic!("expected stop, got {other:?}"),
        }
        assert_eq!(e.markers().get(Rank(0)), 5);
        e.clear_thresholds();
        e.resume_trapped();
        assert!(e.run().is_completed());
        // ProcStart + 10 computes + ProcEnd = 12 events
        assert_eq!(e.markers().get(Rank(0)), 12);
    }

    #[test]
    fn pause_stops_run() {
        let mut e = Engine::launch(cfg(), vec![rank(vec![compute(100)])]);
        e.set_paused(Rank(0), true);
        match e.run() {
            RunOutcome::Stopped(stop) => {
                assert_eq!(stop.paused, vec![Rank(0)]);
                assert!(stop.traps.is_empty());
            }
            other => panic!("{other:?}"),
        }
        e.set_paused(Rank(0), false);
        assert!(e.run().is_completed());
    }

    #[test]
    fn a_pause_reaches_the_turn_deltas() {
        use tracedbg_trace::ReadySets;
        let three = || {
            (0..3)
                .map(|_| rank(vec![compute(10), compute(10)]))
                .collect()
        };
        let mut e = Engine::launch(cfg(), three());
        e.set_paused(Rank(1), true);
        assert!(e.run().is_stopped());
        let held = e.decision_points().len();
        e.set_paused(Rank(1), false);
        assert!(e.run().is_completed());
        let mut sets = ReadySets::new(3);
        for (i, p) in e.decision_points().iter().enumerate() {
            sets.advance(p);
            let Decision::Turn { rank } = p.chosen else {
                continue;
            };
            assert!(sets.ready().contains(rank), "point {i}");
            assert_eq!(sets.ready().len(), p.alternatives.len(), "point {i}");
            assert_eq!(sets.ready().contains(Rank(1)), i >= held, "point {i}: P1");
        }
        assert!(e.decision_points().len() > held, "P1 ran after the release");
    }

    #[test]
    fn panic_is_reported() {
        let p0 = rank(vec![check(|_| panic!("boom at iteration 3"))]);
        let p1 = rank(vec![compute(10)]);
        let mut e = Engine::launch(cfg(), vec![p0, p1]);
        match e.run() {
            RunOutcome::Panicked { rank, message } => {
                assert_eq!(rank, Rank(0));
                assert!(message.contains("boom"), "{message}");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn ssend_rendezvous_completes_and_orders_times() {
        let p0 = rank(vec![ssend(1, 1, 5)]);
        let p1 = rank(vec![
            compute(1_000_000), // keep the sender waiting
            recv_from(0, 1),
            check(|s| assert_eq!(value(&s[0]), 5)),
        ]);
        let mut e = Engine::launch(cfg(), vec![p0, p1]);
        assert!(e.run().is_completed());
        let store = e.trace_store();
        let send = &store.records()[store.of_kind(EventKind::Send)[0].ix()];
        let recv = &store.records()[store.of_kind(EventKind::RecvDone)[0].ix()];
        // Rendezvous: the send completes no earlier than the receive
        // and waits out the receiver's long compute.
        assert_eq!(send.t_end, recv.t_end);
        assert!(send.t_end >= 1_000_000);
    }

    #[test]
    fn ssend_cycle_deadlocks() {
        // The send-side circular dependency of §4.4: both processes in
        // synchronous sends to each other, nobody receives.
        let mk = |peer: u32| rank(vec![ssend(peer, 0, 1), recv_from(peer, 0)]);
        let mut e = Engine::launch(cfg(), vec![mk(1), mk(0)]);
        match e.run() {
            RunOutcome::Deadlock(rep) => {
                assert!(rep.is_cyclic());
                assert_eq!(rep.cycle, vec![Rank(0), Rank(1)]);
            }
            other => panic!("expected send-send deadlock, got {other:?}"),
        }
    }

    #[test]
    fn buffered_sends_do_not_deadlock_same_pattern() {
        // The same exchange with buffered sends completes — the classic
        // reason "it works with small messages" bugs exist.
        let mk = |peer: u32| rank(vec![send(peer, 0, 1), recv_from(peer, 0)]);
        let mut e = Engine::launch(cfg(), vec![mk(1), mk(0)]);
        assert!(e.run().is_completed());
    }

    #[test]
    fn collectives_work_end_to_end() {
        use crate::collective::ReduceOp;
        use tracedbg_trace::CollKind;
        let collective = |kind, payload: fn(Rank) -> Payload, op, expect: fn(Payload)| {
            Prog::op_bind(
                move |_: &mut St, v| TaskOp::Collective {
                    kind,
                    root: Rank(0),
                    payload: payload(v.rank),
                    op,
                    site: site(v),
                },
                move |_, r: OpResult, _| expect(r.payload()),
            )
        };
        let make = || {
            rank(vec![
                collective(CollKind::Barrier, |_| Payload::empty(), None, |_| {}),
                collective(
                    CollKind::Bcast,
                    |r| {
                        if r == Rank(0) {
                            Payload::from_i64(7)
                        } else {
                            Payload::empty()
                        }
                    },
                    None,
                    |v| assert_eq!(v.to_i64(), Some(7)),
                ),
                collective(
                    CollKind::AllReduce,
                    |r| Payload::from_f64s(&[r.0 as f64]),
                    Some(ReduceOp::Sum),
                    |sum| assert_eq!(sum.to_f64s().unwrap(), vec![0.0 + 1.0 + 2.0]),
                ),
            ])
        };
        let mut e = Engine::launch(cfg(), vec![make(), make(), make()]);
        let out = e.run();
        assert!(out.is_completed(), "{out:?}");
        let store = e.trace_store();
        assert_eq!(
            store
                .records()
                .iter()
                .filter(|r| matches!(r.kind, EventKind::Collective(_)))
                .count(),
            9
        );
    }

    #[test]
    fn identical_runs_produce_identical_traces() {
        let make = || {
            let p0 = rank(vec![compute(500), send(1, 3, 1), recv_from(1, 4)]);
            let p1 = rank(vec![recv_from(0, 3), send(0, 4, 2)]);
            vec![p0, p1]
        };
        let run = || {
            let mut e = Engine::launch(cfg(), make());
            assert!(e.run().is_completed());
            e.collect_trace().clone().into_vec()
        };
        assert_eq!(run(), run(), "determinism: same program, same trace");
    }

    #[test]
    fn undelivered_messages_visible() {
        let p0 = rank(vec![send(1, 1, 5)]);
        let p1 = rank(vec![]); // never receives
        let mut e = Engine::launch(cfg(), vec![p0, p1]);
        assert!(e.run().is_completed());
        let und = e.undelivered();
        assert_eq!(und[1].1.len(), 1);
        assert_eq!(und[1].1[0].tag, Tag(1));
        assert_eq!(und[0].1.len(), 0);
    }

    #[test]
    fn scripted_schedule_reproduces_a_seeded_run() {
        // Record a seeded run's decisions, then re-execute them as a
        // script: the trace must be bit-identical even though the scripted
        // scheduler shares no RNG state with the recording.
        let make = || {
            let p0 = rank(vec![
                recv(None, None),
                recv(None, None),
                probe("order", |s| (s[0].src.0 * 10 + s[1].src.0) as i64),
            ]);
            let sender = |v: i64| rank(vec![compute(100), send(0, 0, v)]);
            vec![p0, sender(1), sender(2)]
        };
        let mut cfg1 = cfg();
        cfg1.policy = SchedPolicy::Seeded(42);
        let mut e1 = Engine::launch(cfg1, make());
        assert!(e1.run().is_completed());
        let script = e1.schedule_log();
        let recorded = e1.collect_trace();

        let mut cfg2 = cfg();
        cfg2.policy = SchedPolicy::Scripted(script);
        let mut e2 = Engine::launch(cfg2, make());
        assert!(e2.run().is_completed());
        assert!(!e2.schedule_diverged(), "script must apply cleanly");
        assert_eq!(recorded, e2.collect_trace(), "scripted replay is exact");
    }

    /// The receiver matches a directed receive from P1 first; while it
    /// holds no turn, P2 and P3 queue their sends. The first wildcard then
    /// sees two candidates — a real branch point.
    fn wildcard_fanin() -> Vec<RankProgram> {
        let p0 = rank(vec![
            recv_from(1, 0),
            recv(None, None),
            probe("first", |s| s[1].src.0 as i64),
            recv(None, None),
        ]);
        let sender = || rank(vec![send(0, 0, 1)]);
        vec![p0, sender(), sender(), sender()]
    }

    #[test]
    fn decision_log_marks_wildcard_branches() {
        let mut e = Engine::launch(cfg(), wildcard_fanin());
        assert!(e.run().is_completed());
        let branchy: Vec<_> = e
            .decision_points()
            .iter()
            .filter(|d| d.is_branch() && matches!(d.chosen, Decision::Match { .. }))
            .collect();
        assert_eq!(
            branchy.len(),
            1,
            "first wildcard has two candidates, second has one"
        );
        assert_eq!(branchy[0].alternatives.len(), 2);
        assert!(matches!(branchy[0].alternatives, Alternatives::Matches(_)));
    }

    #[test]
    fn delay_fault_reorders_wildcard_arrivals() {
        use tracedbg_trace::Fault;
        // The first wildcard of `wildcard_fanin` ties on arrival and picks
        // the lowest source (P2); delaying P2's message flips it to P3.
        let first_src = |faults: FaultPlan| -> i64 {
            let mut c = cfg();
            c.faults = faults;
            let mut e = Engine::launch(c, wildcard_fanin());
            assert!(e.run().is_completed());
            probes(&mut e)[0]
        };
        assert_eq!(first_src(FaultPlan::default()), 2);
        let delayed = FaultPlan::new(vec![Fault::Delay {
            src: Rank(2),
            dst: Rank(0),
            nth: 0,
            extra_ns: 50_000_000,
        }]);
        assert_eq!(first_src(delayed), 3, "delay fault must flip the match");
    }

    /// P1's first operation is a fault target; P0 either waits on it
    /// (`p0_waits`) or just computes.
    fn launch_with_p1_fault(p0_waits: bool, fault: tracedbg_trace::Fault) -> Engine {
        let p0 = rank(vec![if p0_waits {
            recv_from(1, 0)
        } else {
            compute(10)
        }]);
        let p1 = rank(vec![send(0, if p0_waits { 0 } else { 9 }, 1)]);
        let mut c = cfg();
        c.faults = FaultPlan::new(vec![fault]);
        Engine::launch(c, vec![p0, p1])
    }

    #[test]
    fn crash_fault_starves_peer_into_deadlock() {
        use tracedbg_trace::Fault;
        // P1 crashes on its very first operation: the send never happens.
        let mut e = launch_with_p1_fault(
            true,
            Fault::Crash {
                rank: Rank(1),
                after_ops: 0,
            },
        );
        match e.run() {
            RunOutcome::Deadlock(rep) => {
                assert!(!rep.is_cyclic(), "starvation, not a cycle");
                assert_eq!(rep.waits.len(), 1);
                assert_eq!(rep.waits[0].waiter, Rank(0));
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
        assert_eq!(e.faulted(), vec![(Rank(1), FaultKind::Crash)]);
    }

    #[test]
    fn crash_fault_alone_still_completes() {
        use tracedbg_trace::Fault;
        // Nobody depends on P1: its crash is not a failure.
        let mut e = launch_with_p1_fault(
            false,
            Fault::Crash {
                rank: Rank(1),
                after_ops: 0,
            },
        );
        assert!(e.run().is_completed());
    }

    #[test]
    fn hang_fault_prevents_completion() {
        use tracedbg_trace::Fault;
        let mut e = launch_with_p1_fault(
            false,
            Fault::Hang {
                rank: Rank(1),
                after_ops: 0,
            },
        );
        match e.run() {
            RunOutcome::Deadlock(rep) => {
                assert!(rep.waits.iter().any(|w| w.waiter == Rank(1)));
            }
            other => panic!("expected hang-induced stall, got {other:?}"),
        }
    }

    fn ckpt_cfg() -> EngineConfig {
        EngineConfig {
            checkpoints: true,
            ..cfg()
        }
    }

    #[test]
    fn snapshot_mid_run_restore_and_continue_is_byte_identical() {
        let mut straight = Engine::launch(ckpt_cfg(), wildcard_fanin());
        assert!(straight.run().is_completed());
        let want_digest = straight.digest();
        let want = straight.collect_trace();
        // Same run, but snapshot when the decision log reaches depth 5.
        let mut e = Engine::launch(ckpt_cfg(), wildcard_fanin());
        e.set_snapshot_at(5);
        assert!(e.run().is_completed());
        let cp = e.take_pending_snapshot().expect("snapshot at decision 5");
        assert_eq!(cp.decision_len(), 5);
        assert_eq!(e.collect_trace(), want, "snapshotting must not perturb");
        // Restore the prefix and run the rest: identical trace and state.
        let mut r = Engine::restore(&cp, Vec::new());
        assert!(r.run().is_completed());
        assert_eq!(r.collect_trace(), want, "restored run diverged");
        assert_eq!(r.digest(), want_digest);
    }

    #[test]
    fn snapshot_of_a_stop_restores_traps_and_continues_identically() {
        let mut e = Engine::launch(ckpt_cfg(), ten_computes());
        e.set_threshold(Rank(0), Some(5));
        assert!(e.run().is_stopped());
        let cp = e.snapshot();
        assert_eq!(cp.markers().get(Rank(0)), 5);
        e.clear_thresholds();
        e.resume_trapped();
        assert!(e.run().is_completed());
        let want_digest = e.digest();
        let want = e.collect_trace();
        // A restored stop *is* the stop: same trap, then same run.
        let mut r = Engine::restore(&cp, Vec::new());
        assert!(r.is_trapped(Rank(0)));
        match r.run() {
            RunOutcome::Stopped(st) => assert_eq!(st.traps, vec![Marker::new(0u32, 5)]),
            other => panic!("restored stop must re-report its stop, got {other:?}"),
        }
        r.clear_thresholds();
        r.resume_trapped();
        assert!(r.run().is_completed());
        assert_eq!(r.collect_trace(), want);
        assert_eq!(r.digest(), want_digest);
    }

    #[test]
    fn restored_engine_chains_further_checkpoints() {
        let mut e = Engine::launch(ckpt_cfg(), ten_computes());
        e.set_threshold(Rank(0), Some(3));
        assert!(e.run().is_stopped());
        let cp1 = e.snapshot();
        let mut r1 = Engine::restore(&cp1, Vec::new());
        assert!(r1.checkpoints_enabled());
        r1.set_threshold(Rank(0), Some(7));
        r1.resume_trapped();
        assert!(r1.run().is_stopped());
        let cp2 = r1.snapshot();
        assert_eq!(cp2.markers().get(Rank(0)), 7);
        let mut r2 = Engine::restore(&cp2, Vec::new());
        r2.clear_thresholds();
        r2.resume_trapped();
        assert!(r2.run().is_completed());
        assert_eq!(r2.markers().get(Rank(0)), 12);
    }

    #[test]
    #[should_panic(expected = "requires EngineConfig.checkpoints")]
    fn snapshot_requires_opt_in() {
        let mut e = Engine::launch(cfg(), vec![rank(vec![compute(1)])]);
        let _ = e.snapshot();
    }

    #[test]
    fn restore_replays_through_faults_identically() {
        use tracedbg_trace::Fault;
        // Crash P2 on its first op: the straight and restored runs must
        // agree on the resulting starvation deadlock and trace.
        let faults = FaultPlan::new(vec![Fault::Crash {
            rank: Rank(2),
            after_ops: 0,
        }]);
        let mut c = ckpt_cfg();
        c.faults = faults.clone();
        let mut straight = Engine::launch(c.clone(), wildcard_fanin());
        let straight_out = straight.run();
        let straight_faulted = straight.faulted();
        let want = straight.collect_trace();
        let mut e = Engine::launch(c, wildcard_fanin());
        e.set_snapshot_at(4);
        let _ = e.run();
        let cp = e.take_pending_snapshot().expect("snapshot");
        let mut r = Engine::restore(&cp, Vec::new());
        let r_out = r.run();
        assert_eq!(
            format!("{straight_out:?}"),
            format!("{r_out:?}"),
            "outcome must match"
        );
        assert_eq!(r.collect_trace(), want);
        assert_eq!(r.faulted(), straight_faulted);
    }

    #[test]
    fn trap_on_recv_post_stops_before_blocking() {
        // Threshold at the RecvPost marker: process stops *before* the
        // engine parks it in the mailbox wait.
        let p0 = rank(vec![recv_from(1, 0)]); // would deadlock
        let p1 = rank(vec![compute(10)]);
        let mut e = Engine::launch(cfg(), vec![p0, p1]);
        // P0 events: ProcStart(1), RecvPost(2)
        e.set_threshold(Rank(0), Some(2));
        match e.run() {
            RunOutcome::Stopped(st) => {
                assert_eq!(st.traps, vec![Marker::new(0u32, 2)]);
            }
            other => panic!("{other:?}"),
        }
    }
}
