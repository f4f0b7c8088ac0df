//! A deterministic message-passing runtime with debugger hooks.
//!
//! `mpsim` plays the role of MPI/PVM plus the process-control half of p2d2
//! in the paper's architecture. Simulated processes are resumable
//! state-machine tasks ([`task::Prog`] trees run by [`task::TaskInterp`])
//! that yield a [`task::TaskOp`] at every
//! send/recv/collective boundary (an MPI-flavoured vocabulary: tagged
//! sends, blocking receives with `ANY_SOURCE`/`ANY_TAG` wildcards,
//! collectives). A turn-taking [`Engine`] steps exactly one process at a
//! time, inline on its own thread, which makes a run a pure function of
//! the program and the scheduling seed — precisely the controlled-execution
//! property the paper's replay machinery requires.
//!
//! Debugger integration points:
//!
//! * every instrumentation event flows through the process's
//!   [`Recorder`](tracedbg_instrument::Recorder); when a debugger-armed
//!   marker threshold fires the process traps and the engine returns
//!   control ([`RunOutcome::Stopped`]);
//! * receive matches are recorded in the decision log
//!   ([`Engine::match_log`]) and can be forced on a later run
//!   ([`ReplayLog`]) — §4.2's nondeterminism control;
//! * a seeded perturbation mode randomizes scheduling and wildcard choice,
//!   standing in for the timing variation of a real cluster, so replay has
//!   genuine nondeterminism to defeat;
//! * when no process can run and none trapped, the engine produces a
//!   [`DeadlockReport`] with the wait-for cycle (the Figure 5 scenario);
//! * the engine itself can be checkpointed: [`EngineCheckpoint`] captures
//!   the full deterministic state of a run — every rank's frame stack
//!   included — and [`Engine::restore`] rebuilds a live engine from it by
//!   cloning, with nothing re-executed: O(delta) replay for undo, stoplines
//!   and prefix-shared schedule exploration, and the paper's §6 wish
//!   ("periodically checkpointing program states") under every scheduler
//!   (see [`checkpoint`]).

pub mod checkpoint;
pub mod clock;
pub mod collective;
pub mod deadlock;
pub mod engine;
pub mod fault;
pub mod mailbox;
pub mod message;
pub mod metrics;
pub mod ops;
pub mod payload;
pub mod record;
pub mod sched;
pub mod task;

pub use checkpoint::EngineCheckpoint;
pub use deadlock::{DeadlockReport, WaitForEdge};
pub use engine::{
    set_quiet_panics, Engine, EngineConfig, ProgramFactory, RankProgram, RunOutcome, StopReason,
    CLASS_COMPLETED, CLASS_DEADLOCK, CLASS_PANIC, CLASS_STOPPED,
};
pub use fault::{FaultKind, FaultPlan};
pub use mailbox::{Candidate, Mailbox};
pub use message::{Envelope, MatchSpec, Message};
pub use ops::SendMode;
pub use payload::Payload;
pub use record::{RecordedMatch, ReplayLog};
pub use sched::SchedPolicy;
pub use task::{OpResult, Prog, TaskInterp, TaskOp, TaskView};

// Re-export the vocabulary crates so workloads depend only on mpsim.
pub use tracedbg_instrument::{Recorder, RecorderConfig, Strategy};
pub use tracedbg_obs::{EngineMetrics, Histogram};
pub use tracedbg_trace::{
    Decision, DecisionPoint, Fault, Label, Marker, MarkerVector, Rank, ScheduleArtifact, SiteId,
    SiteKey, SiteTable, Tag, TraceRecord, TraceStore, ANY_SOURCE, ANY_TAG,
};
