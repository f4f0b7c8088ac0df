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
use serde::{Deserialize, Serialize, Value};

/// Schema version of [`MetricsReport`].
pub const METRICS_VERSION: u32 = 1;

/// Schema revision of the report *shape*. Bumped whenever fields are
/// added; consumers (profile, the future `serve` daemon) use it to gate
/// feature probes while `extra` keeps unknown future fields intact.
pub const METRICS_SCHEMA_VERSION: u32 = 2;

/// Top-level telemetry export.
///
/// Serialization is hand-written (not derived) so a report produced by a
/// *newer* schema round-trips through an older binary: fields this
/// version does not know land in `extra` and are re-emitted verbatim,
/// after the known fields, in their original order.
#[derive(Clone, Debug)]
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
    /// Fields from a newer schema, preserved across a round trip.
    pub extra: Vec<(String, Value)>,
}

/// Keys [`MetricsReport`] owns; anything else goes to `extra`.
const REPORT_KEYS: [&str; 10] = [
    "version",
    "schema_version",
    "source",
    "workload",
    "procs",
    "seed",
    "jobs",
    "event",
    "event_digest",
    "timing",
];

impl Serialize for MetricsReport {
    fn to_value(&self) -> Value {
        let mut fields = vec![
            ("version".to_string(), self.version.to_value()),
            ("schema_version".to_string(), self.schema_version.to_value()),
            ("source".to_string(), self.source.to_value()),
            ("workload".to_string(), self.workload.to_value()),
            ("procs".to_string(), self.procs.to_value()),
            ("seed".to_string(), self.seed.to_value()),
            ("jobs".to_string(), self.jobs.to_value()),
            ("event".to_string(), self.event.to_value()),
            ("event_digest".to_string(), self.event_digest.to_value()),
            ("timing".to_string(), self.timing.to_value()),
        ];
        fields.extend(self.extra.iter().cloned());
        Value::Object(fields)
    }
}

impl Deserialize for MetricsReport {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let obj = v
            .as_object()
            .ok_or_else(|| serde::Error::msg("MetricsReport: expected object"))?;
        let field = |key: &str| -> Result<&Value, serde::Error> {
            obj.iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .ok_or_else(|| serde::Error::msg(format!("MetricsReport: missing field {key}")))
        };
        Ok(MetricsReport {
            version: u32::from_value(field("version")?)?,
            // Reports predating the field are schema revision 1.
            schema_version: match obj.iter().find(|(k, _)| k == "schema_version") {
                Some((_, v)) => u32::from_value(v)?,
                None => 1,
            },
            source: String::from_value(field("source")?)?,
            workload: String::from_value(field("workload")?)?,
            procs: u64::from_value(field("procs")?)?,
            seed: u64::from_value(field("seed")?)?,
            jobs: u64::from_value(field("jobs")?)?,
            event: EventMetrics::from_value(field("event")?)?,
            event_digest: String::from_value(field("event_digest")?)?,
            timing: TimingMetrics::from_value(field("timing")?)?,
            extra: obj
                .iter()
                .filter(|(k, _)| !REPORT_KEYS.contains(&k.as_str()))
                .cloned()
                .collect(),
        })
    }
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
            extra: Vec::new(),
        }
    }

    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("MetricsReport serializes")
    }

    pub fn from_json(s: &str) -> Result<Self, String> {
        serde_json::from_str(s).map_err(|e| format!("bad MetricsReport: {e:?}"))
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
    /// Sibling schedules skipped by prefix-hash pruning.
    pub prefix_pruned: u64,
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

/// FNV-1a over raw bytes — stable, dependency-free.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
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
                    prefix_pruned: 1,
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
            "\"oracle_triggers\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        let back = MetricsReport::from_json(&json).unwrap();
        assert_eq!(back.event, report.event);
        assert_eq!(back.event_digest, report.event_digest);
    }

    #[test]
    fn unknown_fields_round_trip() {
        // A report written by a hypothetical newer schema: two fields
        // this version has never heard of. Parsing must keep them and
        // re-serialization must emit them unchanged — the forward-compat
        // contract profile/serve consumers rely on.
        let mut report = MetricsReport::new(
            "stats",
            "ring",
            2,
            7,
            1,
            sample_event(),
            TimingMetrics::default(),
        );
        report.extra = vec![
            (
                "gpu_ms".to_string(),
                Value::Object(vec![("kernel".to_string(), Value::UInt(42))]),
            ),
            ("notes".to_string(), Value::Str("from v3".to_string())),
        ];
        let json = report.to_json();
        assert!(json.contains("\"gpu_ms\":{\"kernel\":42}"), "{json}");
        let back = MetricsReport::from_json(&json).unwrap();
        assert_eq!(back.extra, report.extra, "unknown fields preserved");
        assert_eq!(back.to_json(), json, "byte-identical round trip");
        assert_eq!(back.schema_version, METRICS_SCHEMA_VERSION);
    }

    #[test]
    fn schema_version_defaults_to_one_for_old_reports() {
        let report = MetricsReport::new(
            "stats",
            "ring",
            2,
            7,
            1,
            sample_event(),
            TimingMetrics::default(),
        );
        let json = report.to_json();
        assert!(json.contains("\"schema_version\":2"), "{json}");
        // Strip the field the way a v1 producer would never emit it.
        let old = json.replace("\"schema_version\":2,", "");
        let back = MetricsReport::from_json(&old).unwrap();
        assert_eq!(back.schema_version, 1);
    }

    #[test]
    fn fnv_vector() {
        // Known FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a64(b"a"), 0xaf63dc4c8601ec8c);
    }
}
