//! The `LocalizeReport` JSON schema.
//!
//! Everything in the report derives from the executed event sequences of
//! the failing run and its passing reference set — never from wall-clock
//! time, worker identity, or job count. `tracedbg localize --jobs N` must
//! produce a byte-identical report for every `N`; the `digest` field
//! (FNV-1a over the report serialized with `digest` zeroed, sealed and
//! checked by `tracedbg_obs::sealed`) makes that contract checkable with a
//! `grep`. The report deliberately has **no** `jobs` field.

use serde::{Deserialize, Serialize};
use tracedbg_obs::sealed::{self, Sealed};

/// Schema version of [`LocalizeReport`]. v2 added the wait-state blame
/// component to [`Suspect`].
pub const LOCALIZE_VERSION: u32 = 2;

/// Report verdicts.
pub const VERDICT_LOCALIZED: &str = "localized";
pub const VERDICT_CLEAN: &str = "clean";
pub const VERDICT_NO_REFERENCE: &str = "no-reference";

/// Where the failing run first departs from its nearest passing neighbor
/// on the engine decision log.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Divergence {
    /// Decision index of the first difference (= length of the longest
    /// common decision prefix over the reference set).
    pub index: usize,
    /// The failing run's decision at `index`, rendered; `"(end of run)"`
    /// when the failing run is a strict prefix of the reference.
    pub chosen: String,
    /// The nearest passing run's decision at `index`, rendered;
    /// `"(end of run)"` when the reference is a strict prefix.
    pub expected: String,
    /// Ranks implicated by the diverging decisions.
    pub ranks: Vec<u32>,
    /// Per-rank execution markers at the divergence point — a replayable
    /// stopline: `tracedbg replay --schedule F --to-suspect report.json`
    /// runs the failing schedule up to exactly this frontier.
    pub markers: Vec<u64>,
}

/// One ranked suspect process. All scores are in milli-units, normalized
/// to 0..=1000 within their component across ranks.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Suspect {
    pub rank: u32,
    /// Combined score:
    /// `(5*divergence + 3*graph + 2*anomaly + 2*blame) / 12`.
    pub score: u64,
    /// First-divergence component: 1000 for ranks implicated by the
    /// diverging decision, 0 otherwise.
    pub divergence: u64,
    /// Event-graph component: normalized `3*(missing+extra) + reordered`
    /// communication edges vs the nearest passing trace.
    pub graph: u64,
    /// Telemetry component: normalized sum of per-counter MAD scores vs
    /// the passing reference sample.
    pub anomaly: u64,
    /// Wait-state component: normalized ns of other ranks' waiting this
    /// rank caused in the failing trace (profile's blame vector).
    pub blame: u64,
    /// Human-readable contribution notes, deterministic order.
    pub evidence: Vec<String>,
}

/// Aggregated communication-edge differences for one channel.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChannelDiff {
    pub src: u32,
    pub dst: u32,
    pub tag: i32,
    /// Edges the passing trace has that the failing trace lacks.
    pub missing: u64,
    /// Edges the failing trace has that the passing trace lacks.
    pub extra: u64,
    /// Aligned receive positions where this channel swapped places with
    /// another — the signature of a wildcard race.
    pub reordered: u64,
}

/// Output of `tracedbg localize`: ranked suspects with their evidence.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct LocalizeReport {
    pub version: u32,
    /// Workload spec from the artifact (e.g. `planted-wildcard`).
    pub workload: String,
    /// [`VERDICT_LOCALIZED`], [`VERDICT_CLEAN`], or
    /// [`VERDICT_NO_REFERENCE`].
    pub verdict: String,
    /// Outcome of replaying the artifact: `class: detail`.
    pub failure: String,
    /// Passing reference runs the comparison used (after dedup).
    pub passing_runs: usize,
    pub divergence: Option<Divergence>,
    /// Suspects, highest score first (ties break toward lower ranks).
    pub suspects: Vec<Suspect>,
    /// Channel-level diffs vs the nearest passing trace, most-changed
    /// first.
    pub channels: Vec<ChannelDiff>,
    /// FNV-1a 64 of the report serialized with this field zeroed.
    pub digest: u64,
}

impl LocalizeReport {
    /// An empty report skeleton; callers fill findings, then [`seal`].
    ///
    /// [`seal`]: LocalizeReport::seal
    pub fn new(workload: &str, verdict: &str, failure: String) -> Self {
        LocalizeReport {
            version: LOCALIZE_VERSION,
            workload: workload.to_string(),
            verdict: verdict.to_string(),
            failure,
            passing_runs: 0,
            divergence: None,
            suspects: Vec::new(),
            channels: Vec::new(),
            digest: 0,
        }
    }

    /// Compute and store `digest` over the rest of the report.
    pub fn seal(&mut self) {
        sealed::seal(self);
    }

    /// Does `digest` match the rest of the report?
    pub fn digest_ok(&self) -> bool {
        sealed::digest_ok(self)
    }

    /// The top suspect's rank, if any.
    pub fn top_suspect(&self) -> Option<u32> {
        self.suspects.first().map(|s| s.rank)
    }

    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("LocalizeReport serializes")
    }

    /// Parse a report, refusing another schema version or a broken digest.
    pub fn from_json(s: &str) -> Result<Self, String> {
        sealed::load(s, Self::NAME)
    }
}

impl Sealed for LocalizeReport {
    const NAME: &'static str = "LocalizeReport";
    const VERSION: u32 = LOCALIZE_VERSION;
    fn version(&self) -> u32 {
        self.version
    }
    fn digest(&mut self) -> &mut u64 {
        &mut self.digest
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    pub(crate) fn sample() -> LocalizeReport {
        let mut r = LocalizeReport::new("planted-wildcard", VERDICT_LOCALIZED, "panic: x".into());
        r.passing_runs = 3;
        r.divergence = Some(Divergence {
            index: 2,
            chosen: "turn P2".into(),
            expected: "turn P1".into(),
            ranks: vec![1, 2],
            markers: vec![4, 1, 1, 0],
        });
        r.suspects.push(Suspect {
            rank: 2,
            score: 900,
            divergence: 1000,
            graph: 800,
            anomaly: 700,
            blame: 1000,
            evidence: vec!["diverging decision names P2".into()],
        });
        r.channels.push(ChannelDiff {
            src: 2,
            dst: 0,
            tag: 40,
            missing: 0,
            extra: 0,
            reordered: 1,
        });
        r.seal();
        r
    }

    #[test]
    fn json_roundtrip_preserves_the_report() {
        let r = sample();
        let back = LocalizeReport::from_json(&r.to_json()).unwrap();
        assert_eq!(back, r);
        assert!(back.digest_ok());
    }

    #[test]
    fn digest_pins_the_findings() {
        let mut r = sample();
        assert!(r.digest_ok());
        r.suspects[0].score = 1;
        assert!(!r.digest_ok(), "tampered findings must break the digest");
        r.seal();
        assert!(r.digest_ok());
    }

    #[test]
    fn version_mismatch_rejected() {
        let mut r = sample();
        r.version = 99;
        let err = LocalizeReport::from_json(&r.to_json()).unwrap_err();
        assert!(err.contains("version"), "{err}");
    }

    #[test]
    fn top_suspect_reads_the_head_of_the_ranking() {
        assert_eq!(sample().top_suspect(), Some(2));
        let empty = LocalizeReport::new("x", VERDICT_CLEAN, "completed".into());
        assert_eq!(empty.top_suspect(), None);
    }
}
