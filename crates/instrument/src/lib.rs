//! The paper's three instrumentation strategies (§2).
//!
//! | Paper mechanism | Here | Granularity |
//! |---|---|---|
//! | AIMS source-to-source instrumentation (§2.1) | [`Strategy::Full`] + [`ConstructFilter`] | any construct, selectable |
//! | gcc `-p` + `uinst` → `UserMonitor` (§2.2) | [`UserMonitor`] inside [`Recorder`] | function entries / events, counter + threshold |
//! | PMPI profiling wrappers (§2.3) | [`Strategy::CommOnly`] | communication calls only |
//!
//! Every instrumentation point a process executes flows through its
//! [`Recorder::observe`]. The recorder
//!
//! 1. increments the process's **execution-marker counter** (the software-
//!    instruction-count idea: the counter value names the state),
//! 2. performs the `UserMonitor` bookkeeping — remembering the call site and
//!    the first two integer arguments in a small ring,
//! 3. tests the counter against the **debugger-set threshold** (an
//!    [`Armed`] the engine lends it, beside breakpoints) and reports a
//!    [`Disposition::Trap`] when it fires (this is how stoplines, replay and
//!    undo stop a process at an exact past state), and
//! 4. hands back the [`TraceRecord`](tracedbg_trace::TraceRecord) for the
//!    run's log if the active [`Strategy`] selects the construct.
//!
//! The hot path is a handful of arithmetic ops and one branch, mirroring the
//! paper's claim that `UserMonitor` overhead is small for typical programs
//! and only significant for pathological call densities (Table 1).

pub mod breakpoints;
pub mod config;
pub mod recorder;
pub mod user_monitor;

pub use breakpoints::{Armed, BreakSet, TrapCause, Watch, WatchCond};
pub use config::{ConstructFilter, RecorderConfig, Strategy};
pub use recorder::{Disposition, Recorder};
pub use user_monitor::{CallRing, RingEntry, UserMonitor, NO_THRESHOLD, RING_MAX};
