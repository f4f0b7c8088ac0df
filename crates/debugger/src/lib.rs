//! The p2d2-style trace-driven debugger (§4).
//!
//! This crate assembles the substrates into the paper's contribution: a
//! state-based parallel debugger extended with trace-driven features —
//!
//! * **stoplines** ([`Stopline`]) — a breakpoint in the timeline: from a
//!   clicked time (vertical slice) or from a selected event's past/future
//!   frontier, mapped to one execution-marker threshold per process;
//! * **controlled replay** ([`Session::replay_to`]) — restart the target
//!   program, arm the `UserMonitor` thresholds, and force wildcard receive
//!   matches from the recorded history so the re-execution has identical
//!   event causality (§4.2);
//! * **parallel undo** ([`Session::undo`]) — return every process to its
//!   state at the previous debugger stop, implemented — as §6 says — "in
//!   straightforward manner by re-executing until an execution marker
//!   threshold is encountered";
//! * **O(delta) replay** — the session keeps one backlog of its stops
//!   (§6's "logarithmic backlog" of saved states): each entry is a stop's
//!   markers, the undo target, and may carry the engine checkpoint taken
//!   there; `replay_to`/`undo` restore the nearest dominated checkpoint
//!   and re-execute only the remaining delta instead of starting from
//!   process creation ([`SessionTelemetry::cache`] counts the lookups);
//! * **communication supervision** ([`HistoryReport`]) — unmatched
//!   sends/receives, circular-wait deadlocks, message races (§4.4);
//! * a text **command interface** ([`commands::CommandInterface`]) used by
//!   the scripted debugging sessions in the figure-reproduction harnesses.

pub mod analysis;
mod backlog;
pub mod commands;
pub mod procset;
pub mod schedule_replay;
pub mod session;
pub mod stopline;
#[cfg(test)]
mod testprog;

pub use analysis::HistoryReport;
pub use backlog::CacheLookupStats;
pub use commands::CommandInterface;
pub use procset::ProcSets;
pub use schedule_replay::{
    replay_schedule, replay_schedule_from_checkpoint, CheckpointReplay, ScheduleReplay,
};
pub use session::{ProgramFactory, Session, SessionConfig, SessionStatus, SessionTelemetry};
pub use stopline::Stopline;
