//! Target programs for the trace-driven debugger.
//!
//! These are the programs the paper's evaluation runs:
//!
//! * [`strassen`] — the distributed Strassen matrix multiply that is the
//!   running example of §3–§4 (Figures 3–7, 9), in a correct variant and
//!   the paper's buggy variant (`jres` where `jres+1` was meant, the
//!   "line 161" bug of Figure 7);
//! * [`fib`] — the recursive Fibonacci used as the worst-case
//!   instrumentation-overhead driver of Table 1;
//! * [`lu`] — a wavefront pipeline modeled on the NAS LU benchmark's
//!   communication structure (Figure 8);
//! * [`ring`], [`master_worker`] — additional stress/demo generators:
//!   a token ring, and a wildcard-receive master/worker pattern that
//!   exercises nondeterminism control and race detection;
//! * [`racy`] — intentionally schedule-sensitive patterns (wildcard race,
//!   orphaned receive) that `tracedbg explore` is expected to break.
//!
//! [`catalog`] is the name table over all of them: what `tracedbg run
//! <name>` resolves and what `tracedbg workloads` lists.

pub mod catalog;
pub mod fib;
pub mod heat;
pub mod lu;
pub mod master_worker;
pub mod matrix;
pub mod planted;
pub mod racy;
pub mod random_comm;
pub mod ring;
pub mod script;
pub mod scripts;
pub mod strassen;
pub mod wide;

pub use catalog::Workload;
pub use matrix::Matrix;
pub use racy::RacyConfig;
pub use script::{InstrumentLevel, Script};
pub use strassen::Variant;
