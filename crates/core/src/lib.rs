//! # tracedbg — trace-driven debugging of message passing programs
//!
//! A from-scratch Rust reproduction of Frumkin, Hood & Lopez,
//! *Trace-Driven Debugging of Message Passing Programs* (IPPS 1998): the
//! p2d2 debugger's trace-driven features — execution history collection,
//! time-space visualization, consistent **stoplines**, controlled
//! **replay**, parallel **undo**, and communication supervision — together
//! with every substrate they need, built on a deterministic message-
//! passing runtime.
//!
//! ## Quick start
//!
//! ```
//! use tracedbg::prelude::*;
//!
//! // A two-process program: P0 sends, P1 receives.
//! let factory: ProgramFactory = Box::new(|| {
//!     let p0 = Prog::op(|_: &mut (), v| TaskOp::Send {
//!         dst: Rank(1),
//!         tag: Tag(7),
//!         payload: Payload::from_i64(42),
//!         site: v.site("demo.rs", 3, "main"),
//!         mode: SendMode::Buffered,
//!     });
//!     let p1 = Prog::op_bind(
//!         |_: &mut (), v| TaskOp::Recv {
//!             src: Some(Rank(0)),
//!             tag: Some(Tag(7)),
//!             site: v.site("demo.rs", 7, "main"),
//!         },
//!         |_, m, _| assert_eq!(m.message().payload.to_i64(), Some(42)),
//!     );
//!     vec![RankProgram::task((), p0), RankProgram::task((), p1)]
//! });
//!
//! // Debug it: run, inspect the history, replay to a stopline.
//! let mut session = Session::launch(SessionConfig::default(), factory);
//! assert!(session.run().is_completed());
//! let trace = session.trace();
//! assert_eq!(trace.n_ranks(), 2);
//! let stopline = Stopline::vertical(&trace, trace.time_bounds().1 / 2);
//! session.replay_to(&stopline);
//! ```
//!
//! ## Crate map
//!
//! | Module | Crate | Paper section |
//! |---|---|---|
//! | [`trace`] | `tracedbg-trace` | §2–§3: records, markers, trace files |
//! | [`instrument`] | `tracedbg-instrument` | §2: AIMS / UserMonitor / PMPI strategies |
//! | [`mpsim`] | `tracedbg-mpsim` | runtime substrate + §4.2 record/replay |
//! | [`tracegraph`] | `tracedbg-tracegraph` | §3.2, §4.3: trace/call/comm/action graphs |
//! | [`causality`] | `tracedbg-causality` | §4.1: happens-before, frontiers, races |
//! | [`lint`] | `tracedbg-lint` | §4.4: rule-based communication supervision |
//! | [`analysis`] | `tracedbg-analysis` | static may-match / independence analysis |
//! | [`debugger`] | `tracedbg-debugger` | §4: stoplines, replay, undo, analysis |
//! | [`explore`] | `tracedbg-explore` | schedule exploration + fault injection |
//! | [`localize`] | `tracedbg-localize` | differential fault localization |
//! | [`profile`] | `tracedbg-profile` | critical-path & wait-state profiling |
//! | [`viz`] | `tracedbg-viz` | §3.1: NTV/VK time-space diagrams, DOT/VCG |
//! | [`workloads`] | `tracedbg-workloads` | evaluation programs (Strassen, fib, LU) |

pub use tracedbg_analysis as analysis;
pub use tracedbg_causality as causality;
pub use tracedbg_debugger as debugger;
pub use tracedbg_explore as explore;
pub use tracedbg_instrument as instrument;
pub use tracedbg_lint as lint;
pub use tracedbg_localize as localize;
pub use tracedbg_mpsim as mpsim;
pub use tracedbg_obs as obs;
pub use tracedbg_profile as profile;
pub use tracedbg_store as store;
pub use tracedbg_trace as trace;
pub use tracedbg_tracegraph as tracegraph;
pub use tracedbg_viz as viz;
pub use tracedbg_workloads as workloads;

/// The names most programs need.
pub mod prelude {
    pub use tracedbg_causality::{Frontier, HbIndex};
    pub use tracedbg_debugger::{
        replay_schedule, replay_schedule_from_checkpoint, CheckpointReplay, CommandInterface,
        HistoryReport, ProgramFactory, ScheduleReplay, Session, SessionConfig, SessionStatus,
        Stopline,
    };
    pub use tracedbg_explore::{
        ExploreConfig, ExploreReport, Explorer, Strategy as ExploreStrategy,
    };
    pub use tracedbg_instrument::{RecorderConfig, Strategy};
    pub use tracedbg_lint::{lint_script, lint_trace, Diagnostic, LintConfig, Severity};
    pub use tracedbg_localize::{LocalizeConfig, LocalizeReport};
    pub use tracedbg_mpsim::{
        Engine, EngineConfig, EngineMetrics, Payload, Prog, RankProgram, RunOutcome, SchedPolicy,
        SendMode, TaskOp,
    };
    pub use tracedbg_obs::{EventMetrics, MetricsReport, TimingMetrics};
    pub use tracedbg_profile::{
        perfetto_json, CriticalPath, ProfileInput, ProfileReport, WaitAnalysis,
    };
    pub use tracedbg_store::{DiskStore, SharedWriter, StoreOptions, StoreWriter};
    pub use tracedbg_trace::{
        materialize, ArtifactMeta, EventKind, EventQuery, Label, Marker, MarkerVector, Rank,
        ScheduleArtifact, Select, Tag, TraceRecord, TraceSink, TraceSource, TraceStats, TraceStore,
    };
    pub use tracedbg_tracegraph::{CallGraph, CommGraph, MessageMatching, TraceGraph};
    pub use tracedbg_viz::{
        render_ascii, render_rank_profile, render_svg, NtvView, TimelineModel, VkView,
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_compile() {
        use crate::prelude::*;
        let _ = Rank(0);
        let _ = Tag(1);
        let _ = SessionConfig::default();
    }
}
