//! AIMS-style execution traces for trace-driven debugging.
//!
//! This crate is the shared vocabulary of the `tracedbg` workspace. It
//! defines:
//!
//! * process [`Rank`]s, message [`Tag`]s and interned source locations
//!   ([`SiteTable`]) — the identifiers every other crate speaks;
//! * [`Marker`]s — the paper's *execution markers* (§2): a per-process
//!   counter value that names a unique state of the execution and that the
//!   controlled-replay machinery tests against debugger-set thresholds;
//! * [`TraceRecord`]s — one record per executed instrumented construct,
//!   carrying the construct's location, the executing process, start/end
//!   simulated times, and (for message-passing constructs) the message tag
//!   and endpoints, exactly the schema of §3; a fixed-width `Copy` value
//!   whose probe name is an interned [`Label`];
//! * [`ChunkLog`] — the append-only log a run records its trace into as
//!   it goes (so the debugger has the trace *during* execution, the
//!   paper's extension of the AIMS monitor), whose copies (checkpoints)
//!   share every sealed chunk;
//! * [`TraceStore`] — that log put in canonical order: a queryable
//!   whole-program history;
//! * text and JSON trace file formats ([`file`]).
//!
//! Everything here is deliberately independent of the runtime: the trace is
//! plain data, so the analyses (`tracedbg-tracegraph`, `tracedbg-causality`)
//! and the visualizers consume it without linking the engine.

pub mod chunk_log;
pub mod diff;
pub mod event;
pub mod file;
pub mod history;
pub mod ids;
pub mod label;
pub mod loc;
pub mod marker;
pub mod query;
pub mod schedule;
pub mod source;
pub mod stats;

pub use chunk_log::ChunkLog;
pub use diff::{diff_traces, trace_digest, DiffMode, Divergence};
pub use event::{CollKind, EventKind, MsgInfo, TraceRecord};
pub use history::{EventId, TraceStore};
pub use ids::{ChannelId, Rank, SiteId, Tag, ANY_SOURCE, ANY_TAG};
pub use label::Label;
pub use loc::{SiteTable, SourceLoc};
pub use marker::{Marker, MarkerVector};
pub use query::EventQuery;
pub use schedule::{
    Alternatives, ArtifactMeta, Decision, DecisionPoint, Fault, RankSet, ReadyChanges, ReadyDelta,
    ReadySets, ScheduleArtifact,
};
pub use source::{
    materialize, CommEdge, EdgeDir, EventIter, Select, SourceError, TraceSink, TraceSource,
};
pub use stats::TraceStats;
