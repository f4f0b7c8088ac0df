//! The `MetricsReport` JSON schema — one shape for every producer.
//!
//! `tracedbg stats`, `tracedbg explore --metrics`, and the debugger's
//! `stats` command all export through this struct. The report is split in
//! two on purpose:
//!
//! * **`event`** — counters derived purely from the executed event
//!   sequence. Deterministic: byte-identical across `--jobs` at a fixed
//!   seed. `event_digest` (FNV-1a over the serialized `event` section)
//!   makes that contract checkable with a `grep`.
//! * **`timing`** — wall-clock and scheduling facts (walks/sec, worker
//!   utilization, cache behaviour). Honest about being nondeterministic;
//!   excluded from the digest.

use crate::metrics::EngineMetrics;
use crate::sealed::fnv1a64;
use serde::{Deserialize, Serialize};

/// Schema version of [`MetricsReport`].
pub const METRICS_VERSION: u32 = 1;

/// Schema revision of the report *shape*. Bumped whenever fields are
/// added, removed or change form (3: `engine.channels` holds per-source
/// rows of `[dst, msgs, bytes]` in place of two ranks × ranks matrices;
/// 4: `engine.flight_dropped` is gone, the engine keeps no span ring;
/// 5: `engine.snapshots` and `engine.replay_delta`, a debug session's
/// figures, and the explorer's count of prefix-pruned schedules, which
/// could not move, are gone), so a consumer can tell which fields to
/// expect.
pub const METRICS_SCHEMA_VERSION: u32 = 5;

/// Top-level telemetry export. Write-only: nothing in the tree decodes a
/// metrics report.
#[derive(Clone, Debug, Serialize)]
pub struct MetricsReport {
    pub version: u32,
    /// [`METRICS_SCHEMA_VERSION`] of the producer.
    pub schema_version: u32,
    /// Producing command: `"stats"`, `"explore"`, or `"debugger"`.
    pub source: String,
    pub workload: String,
    pub procs: u64,
    pub seed: u64,
    pub jobs: u64,
    /// Event-derived, deterministic counters.
    pub event: EventMetrics,
    /// FNV-1a 64 hex digest of the serialized `event` section.
    pub event_digest: String,
    /// Wall-clock facts; nondeterministic, excluded from the digest.
    pub timing: TimingMetrics,
}

impl MetricsReport {
    /// Assemble a report, computing `event_digest` from `event`.
    pub fn new(
        source: &str,
        workload: &str,
        procs: u64,
        seed: u64,
        jobs: u64,
        event: EventMetrics,
        timing: TimingMetrics,
    ) -> Self {
        let digest = event_digest(&event);
        MetricsReport {
            version: METRICS_VERSION,
            schema_version: METRICS_SCHEMA_VERSION,
            source: source.to_string(),
            workload: workload.to_string(),
            procs,
            seed,
            jobs,
            event,
            event_digest: digest,
            timing,
        }
    }

    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("MetricsReport serializes")
    }
}

/// Deterministic, event-derived counters.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct EventMetrics {
    /// Engine runs aggregated into `engine` (1 for `stats`).
    pub runs: u64,
    /// Summed per-run engine metrics.
    pub engine: EngineMetrics,
    /// Explorer-level event counters; absent outside `explore`.
    pub explore: Option<ExploreEvent>,
}

/// Explorer event counters — all derived from the deterministic
/// absorb-order aggregation, never from worker scheduling.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExploreEvent {
    /// Budgeted runs executed.
    pub runs_executed: u64,
    /// Auxiliary runs (shrinking, confirmation) beyond the budget.
    pub aux_runs: u64,
    /// Runs discarded as duplicate trace digests.
    pub digest_pruned: u64,
    /// Systematic alternatives never enqueued because a sleeping
    /// (independence-proven) decision covered them (DPOR sleep sets).
    pub runs_skipped_by_sleep_sets: u64,
    /// Independent rank pairs proven by the static analysis (0 when the
    /// explorer ran without independence facts).
    pub independence_pairs: u64,
    /// Oracle verdicts per violation class, sorted by class name.
    pub oracle_triggers: Vec<ClassCount>,
}

/// A (violation class, count) pair.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClassCount {
    pub class: String,
    pub count: u64,
}

/// Wall-clock / scheduling telemetry. Every field here may differ
/// between runs and job counts.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct TimingMetrics {
    pub wall_ms: u64,
    /// Runs per second over the whole exploration (0 outside explore).
    pub walks_per_sec: u64,
    /// Nanoseconds spent taking snapshots.
    pub snapshot_ns: u64,
    /// Per-worker load; worker 0 is the sequential path.
    pub workers: Vec<WorkerStat>,
    /// Debugger checkpoint-cache behaviour; absent outside the debugger.
    pub checkpoint_cache: Option<CacheStats>,
    /// Per-command timing, sorted by command name; debugger only.
    pub commands: Vec<CommandStat>,
}

/// One worker's share of a parallel exploration.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct WorkerStat {
    pub worker: u64,
    pub tasks: u64,
    pub busy_ms: u64,
    /// Busy time as a percentage of the whole run's wall clock.
    pub util_pct: u64,
}

/// Hit/miss behaviour of the debugger's checkpoint lookups.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    /// Restores actually performed from a cached checkpoint.
    pub restores: u64,
    /// Summed marker distance between restore targets and the
    /// checkpoints served (lower = less re-execution).
    pub restore_distance: u64,
    /// Nanoseconds spent restoring.
    pub restore_ns: u64,
}

/// Aggregate timing of one debugger command verb.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CommandStat {
    pub command: String,
    pub count: u64,
    pub total_ns: u64,
}

/// FNV-1a 64-bit hex digest of the serialized `event` section.
pub fn event_digest(event: &EventMetrics) -> String {
    let json = serde_json::to_string(event).expect("EventMetrics serializes");
    format!("{:016x}", fnv1a64(json.as_bytes()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_event() -> EventMetrics {
        let mut engine = EngineMetrics::new(2);
        engine.turns = 12;
        engine.msgs_sent[0] = 3;
        EventMetrics {
            runs: 1,
            engine,
            explore: None,
        }
    }

    #[test]
    fn digest_tracks_event_content_only() {
        let event = sample_event();
        let a = MetricsReport::new(
            "stats",
            "ring",
            2,
            7,
            1,
            event.clone(),
            TimingMetrics::default(),
        );
        let slow = TimingMetrics {
            wall_ms: 999_999,
            ..Default::default()
        };
        let b = MetricsReport::new("stats", "ring", 2, 7, 4, event, slow);
        assert_eq!(
            a.event_digest, b.event_digest,
            "timing must not affect digest"
        );
        let mut other = sample_event();
        other.engine.turns += 1;
        let c = MetricsReport::new("stats", "ring", 2, 7, 1, other, TimingMetrics::default());
        assert_ne!(a.event_digest, c.event_digest);
    }

    #[test]
    fn report_roundtrips_through_json() {
        let report = MetricsReport::new(
            "explore",
            "ring",
            4,
            42,
            4,
            EventMetrics {
                runs: 10,
                engine: EngineMetrics::new(4),
                explore: Some(ExploreEvent {
                    runs_executed: 10,
                    aux_runs: 2,
                    digest_pruned: 3,
                    runs_skipped_by_sleep_sets: 5,
                    independence_pairs: 4,
                    oracle_triggers: vec![ClassCount {
                        class: "deadlock".into(),
                        count: 1,
                    }],
                }),
            },
            TimingMetrics {
                wall_ms: 12,
                walks_per_sec: 800,
                workers: vec![WorkerStat {
                    worker: 0,
                    tasks: 10,
                    busy_ms: 11,
                    util_pct: 91,
                }],
                ..Default::default()
            },
        );
        let json = report.to_json();
        for key in [
            "\"version\"",
            "\"event\"",
            "\"event_digest\"",
            "\"timing\"",
            "\"match_latency\"",
            "\"channels\"",
            "\"oracle_triggers\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        // The top-level keys, in the order consumers have always read.
        let head = format!(
            "{{\"version\":1,\"schema_version\":5,\"source\":\"explore\",\"workload\":\"ring\",\
             \"procs\":4,\"seed\":42,\"jobs\":4,\"event\":{}",
            serde_json::to_string(&report.event).unwrap()
        );
        assert!(json.starts_with(&head), "{json}");
        // The digest covers exactly the `event` section's encoding.
        let tail = format!(",\"event_digest\":\"{}\",\"timing\":", report.event_digest);
        assert!(json[head.len()..].starts_with(&tail), "{json}");
    }

    #[test]
    fn fnv_vector() {
        // Known FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a64(b"a"), 0xaf63dc4c8601ec8c);
    }
}
