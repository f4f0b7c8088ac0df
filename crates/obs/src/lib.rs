//! tracedbg-obs — offline telemetry for the tracedbg reproduction.
//!
//! The paper's AIMS monitors feed *statistics* — communication volume,
//! blocking time, intrusion overhead — alongside the trace itself, and
//! the NTV/VK views render them. This crate is that statistics plane:
//! counters, high-water gauges, fixed log-2-bucket [`Histogram`]s, a
//! bounded [`FlightRecorder`] span ring (what an explore finding's last
//! decisions render through), the [`MetricsReport`] JSON
//! schema every `tracedbg` surface exports through, and the [`sealed`]
//! envelope every digest-sealed report is written and loaded through.
//!
//! Design constraints (see DESIGN.md §10):
//!
//! * **Zero external deps** — only the in-tree compat `serde`/`serde_json`.
//! * **Determinism where it counts** — everything in
//!   [`EventMetrics`] derives from the executed event sequence alone and
//!   is byte-identical across `--jobs`; wall-clock facts live in
//!   [`TimingMetrics`], outside the digest.
//! * **No cost while a run executes** — the engine keeps no counters;
//!   `tracedbg_mpsim::metrics::of_run` derives a run's metrics after it,
//!   from its trace and decision log.

pub mod flight;
pub mod hist;
pub mod mad;
pub mod metrics;
pub mod report;
pub mod sealed;

pub use flight::{FlightRecorder, Span, SpanKind, FLIGHT_CAP};
pub use hist::{Histogram, HIST_BUCKETS};
pub use mad::{mad, mad_score, median, SCORE_CAP};
pub use metrics::EngineMetrics;
pub use report::{
    event_digest, CacheStats, ClassCount, CommandStat, EventMetrics, ExploreEvent, MetricsReport,
    TimingMetrics, WorkerStat, METRICS_SCHEMA_VERSION, METRICS_VERSION,
};
pub use sealed::fnv1a64;
