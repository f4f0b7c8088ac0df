//! Schedule-space exploration and fault injection.
//!
//! The paper's replay machinery (§4.2) defeats nondeterminism once a buggy
//! execution is in hand; this crate *finds* those executions. An
//! [`Explorer`] drives the `mpsim` engine through many interleavings of a
//! workload:
//!
//! * **random walk** — per-run seeds perturb turn order and wildcard
//!   matching, optionally combined with generated faults (message delays,
//!   process crash/hang);
//! * **systematic bounded-preemption search** — starting from the
//!   deterministic baseline, substitute alternatives at recorded decision
//!   points (turn grants, wildcard matches), depth-bounded by a preemption
//!   budget, with digest-based pruning of schedules already proven
//!   equivalent (a sleep-set-flavoured reduction: a schedule whose trace
//!   digest matches a visited one cannot expose a new outcome).
//!
//! Each run's decisions are recorded; when an **oracle** fires (deadlock,
//! process panic, lint error on the trace, replay divergence), the failing
//! decision sequence is **shrunk** by delta debugging ([`shrink::ddmin`])
//! and saved as a [`ScheduleArtifact`] that `tracedbg replay --schedule`
//! re-executes deterministically.
//!
//! Exploration runs fan out over a worker pool ([`pool::WorkerPool`]);
//! every run drives a private `mpsim` engine, and tasks are formed and
//! their results absorbed in deterministic task order, one window at a
//! time ([`pool::run_windowed`]) — so `jobs = N` reports exactly the
//! findings of `jobs = 1` at the same seed: search throughput scales with
//! cores without sacrificing reproducibility.
//!
//! Memory follows the window, not the frontier: the systematic queue
//! holds one decision log per absorbed run and builds a schedule only
//! when it dequeues it, and the window is [`WINDOW`] tasks on a pool
//! with worker threads but one task on a pool without (`jobs = 1`, or a
//! one-core box), so a sequential search keeps one run result alive.

pub mod explorer;
pub mod flight;
pub mod oracle;
pub mod pool;
pub mod runner;
pub mod shrink;

pub use explorer::{ExploreConfig, ExploreReport, Explorer, Finding, Strategy};
pub use oracle::Violation;
pub use pool::{run_windowed, RunTask, WorkerLoad, WINDOW};
pub use runner::{execute_task, ProgramSource, RunResult};

// The telemetry vocabulary explorers export through.
pub use tracedbg_obs::MetricsReport;
