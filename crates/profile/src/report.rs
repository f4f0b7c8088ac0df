//! The `ProfileReport` JSON schema.
//!
//! Like `LocalizeReport`, everything in the report derives from the trace
//! records alone — never from wall-clock time, worker identity, or job
//! count — so `tracedbg profile` is byte-identical for every input plane
//! (a workload run, `.trc` text, `.tbin`, DiskStore directory) that
//! delivers the same records, but for the fields naming the input. The `digest` field (FNV-1a over the
//! report serialized with `digest` zeroed, sealed and checked by
//! `tracedbg_obs::sealed`) makes that contract checkable with a `grep`.
//! The report deliberately has **no** `jobs` field.

use crate::path::CriticalPath;
use crate::wait::WaitAnalysis;
use serde::{Deserialize, Serialize};
use tracedbg_causality::HbIndex;
use tracedbg_obs::sealed::{self, Sealed};
use tracedbg_trace::{SiteId, SiteTable, TraceStore};
use tracedbg_tracegraph::MessageMatching;

/// Schema version of [`ProfileReport`].
pub const PROFILE_VERSION: u32 = 1;

/// Detailed wait entries kept in the report (aggregates always cover the
/// full set; the count of dropped entries is recorded, never silent).
pub const WAITS_CAP: usize = 64;

/// Detailed critical-path steps kept in the report (the terminal end of
/// the path; `frontier_markers` and `critical_path_len` always cover the
/// whole path).
pub const PATH_CAP: usize = 512;

/// Per-rank time accounting, all in simulated ns.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct RankProfile {
    pub rank: u32,
    /// Span minus classified waiting (saturating).
    pub busy: u64,
    /// Time this rank spent in classified waits.
    pub wait: u64,
    /// Wait cost *blamed on* this rank (the localize blame signal).
    pub blamed: u64,
    /// Last event end (trace end for stalled ranks) minus trace start.
    pub span: u64,
    /// Critical-path contribution of this rank.
    pub path: u64,
}

/// Aggregate cost of one wait-state kind.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct WaitKindTotal {
    pub kind: String,
    pub count: u64,
    pub cost: u64,
}

/// One classified blocked interval (the top-cost subset).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct WaitEntry {
    pub kind: String,
    /// Waiting rank and its execution marker at the waiting construct.
    pub rank: u32,
    pub marker: u64,
    pub t_from: u64,
    pub t_to: u64,
    pub cost: u64,
    /// The rank/site whose behavior caused the wait.
    pub cause_rank: u32,
    pub cause_site: String,
}

/// One critical-path step.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct PathStep {
    pub rank: u32,
    pub marker: u64,
    pub kind: String,
    pub site: String,
    pub t_start: u64,
    pub t_end: u64,
    /// Exclusive ns this step adds to the path.
    pub contribution: u64,
}

/// Critical-path share of one source site.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SiteShare {
    pub site: String,
    pub contribution: u64,
    /// Share of `critical_path_len` in milli-units (0..=1000).
    pub share_millis: u64,
}

/// Output of `tracedbg profile`.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ProfileReport {
    pub version: u32,
    /// Input plane: `workload`, `schedule`, `trace`, or `store`.
    pub source: String,
    /// Workload spec, or the input path for anonymous traces.
    pub workload: String,
    pub procs: usize,
    pub seed: u64,
    /// Trace records profiled.
    pub events: usize,
    /// Simulated makespan (max t_end - min t_start), ns.
    pub makespan: u64,
    /// Length of the critical path, ns. Invariant:
    /// `critical_path_len <= makespan <= busy_total + wait_total`.
    pub critical_path_len: u64,
    /// Σ per-rank busy, ns.
    pub busy_total: u64,
    /// Σ per-rank wait, ns.
    pub wait_total: u64,
    /// Always 0 (the engine keeps no span ring); goes with the next
    /// `PROFILE_VERSION` bump.
    pub flight_dropped: u64,
    pub ranks: Vec<RankProfile>,
    /// Per-kind totals over *all* waits, keyed by kind, sorted by kind.
    pub wait_kinds: Vec<WaitKindTotal>,
    /// Top-cost waits (at most [`WAITS_CAP`]), cost-descending.
    pub waits: Vec<WaitEntry>,
    /// Waits dropped by the cap (aggregates still include them).
    pub waits_truncated: u64,
    /// Terminal steps of the critical path (at most [`PATH_CAP`]).
    pub path: Vec<PathStep>,
    /// Path steps dropped by the cap.
    pub path_truncated: u64,
    /// Path contribution per site, contribution-descending.
    pub path_sites: Vec<SiteShare>,
    /// Per-rank markers of the causal past of the path's terminal event —
    /// a consistent cut `tracedbg replay --to-critical-path` arms as a
    /// stopline.
    pub frontier_markers: Vec<u64>,
    /// Per-rank blamed wait cost, ns — localize's fourth ranked signal.
    pub blame: Vec<u64>,
    /// FNV-1a 64 of the report serialized with this field zeroed.
    pub digest: u64,
}

/// Provenance of the trace being profiled, carried into the report.
#[derive(Clone, Copy, Debug)]
pub struct ProfileInput<'a> {
    pub source: &'a str,
    pub workload: &'a str,
    pub procs: usize,
    pub seed: u64,
    /// Always 0 ([`ProfileReport::flight_dropped`]).
    pub flight_dropped: u64,
}

fn site_name(sites: &SiteTable, id: SiteId) -> String {
    match sites.resolve(id) {
        Some(loc) => format!("{}:{} {}", loc.file, loc.line, loc.func),
        None => "?".to_string(),
    }
}

impl ProfileReport {
    /// Profile `store` end to end: classify waits, extract the critical
    /// path, account per-rank time, and seal the digest.
    pub fn build(store: &TraceStore, input: ProfileInput<'_>) -> Self {
        let n = store.n_ranks();
        let sites = store.sites();
        let matching = MessageMatching::build(store);
        let waits = WaitAnalysis::build(store, &matching);
        let path = CriticalPath::build(store, &matching);
        let (t_lo, t_hi) = store.time_bounds();
        let makespan = if store.is_empty() { 0 } else { t_hi - t_lo };

        // Per-rank extent: last event end, pushed to trace end for ranks
        // holding an unmatched receive (they are stuck, not finished).
        let mut end = vec![t_lo; n];
        for id in store.ids() {
            let r = store.record(id);
            let e = &mut end[r.rank.ix()];
            *e = (*e).max(r.t_end);
        }
        for u in &matching.unmatched_recvs {
            end[u.rank.ix()] = t_hi;
        }

        let path_per_rank = path.per_rank(store);
        let mut ranks = Vec::with_capacity(n);
        let (mut busy_total, mut wait_total) = (0u64, 0u64);
        for r in 0..n {
            let span = end[r].saturating_sub(t_lo);
            let wait = waits.waited[r];
            let busy = span.saturating_sub(wait);
            busy_total += busy;
            wait_total += wait;
            ranks.push(RankProfile {
                rank: r as u32,
                busy,
                wait,
                blamed: waits.blame[r],
                span,
                path: path_per_rank[r],
            });
        }

        let wait_kinds = waits
            .per_kind
            .iter()
            .map(|(k, &(count, cost))| WaitKindTotal {
                kind: k.to_string(),
                count,
                cost,
            })
            .collect();

        // Top waits by cost; ties break toward the canonical event order
        // so the selection is byte-stable.
        let mut by_cost: Vec<&crate::wait::WaitInterval> = waits.waits.iter().collect();
        by_cost.sort_by_key(|w| (std::cmp::Reverse(w.cost()), w.event.ix()));
        let waits_truncated = by_cost.len().saturating_sub(WAITS_CAP) as u64;
        let wait_entries = by_cost
            .into_iter()
            .take(WAITS_CAP)
            .map(|w| {
                let rec = store.record(w.event);
                WaitEntry {
                    kind: w.kind.to_string(),
                    rank: w.rank.0,
                    marker: rec.marker,
                    t_from: w.t_from,
                    t_to: w.t_to,
                    cost: w.cost(),
                    cause_rank: w.cause_rank.0,
                    cause_site: site_name(sites, w.cause_site),
                }
            })
            .collect();

        // Site shares over the whole path; the detailed step list keeps
        // the terminal end (the part a debugging session replays toward).
        let mut share: std::collections::BTreeMap<String, u64> = std::collections::BTreeMap::new();
        for (i, &id) in path.steps.iter().enumerate() {
            let rec = store.record(id);
            *share.entry(site_name(sites, rec.site)).or_insert(0) += path.contributions[i];
        }
        let mut path_sites: Vec<SiteShare> = share
            .into_iter()
            .map(|(site, contribution)| SiteShare {
                site,
                contribution,
                share_millis: (contribution * 1000).checked_div(path.len).unwrap_or(0),
            })
            .collect();
        path_sites.sort_by(|a, b| {
            b.contribution
                .cmp(&a.contribution)
                .then_with(|| a.site.cmp(&b.site))
        });

        let path_truncated = path.steps.len().saturating_sub(PATH_CAP) as u64;
        let skip = path.steps.len().saturating_sub(PATH_CAP);
        let path_steps = path
            .steps
            .iter()
            .enumerate()
            .skip(skip)
            .map(|(i, &id)| {
                let rec = store.record(id);
                PathStep {
                    rank: rec.rank.0,
                    marker: rec.marker,
                    kind: rec.kind.code().to_string(),
                    site: site_name(sites, rec.site),
                    t_start: rec.t_start,
                    t_end: rec.t_end,
                    contribution: path.contributions[i],
                }
            })
            .collect();

        let frontier_markers = match path.terminal() {
            Some(t) => HbIndex::build(store, &matching).past_markers(t),
            None => vec![0; n],
        };

        let mut report = ProfileReport {
            version: PROFILE_VERSION,
            source: input.source.to_string(),
            workload: input.workload.to_string(),
            procs: input.procs,
            seed: input.seed,
            events: store.len(),
            makespan,
            critical_path_len: path.len,
            busy_total,
            wait_total,
            flight_dropped: input.flight_dropped,
            ranks,
            wait_kinds,
            waits: wait_entries,
            waits_truncated,
            path: path_steps,
            path_truncated,
            path_sites,
            frontier_markers,
            blame: waits.blame.clone(),
            digest: 0,
        };
        report.seal();
        report
    }

    /// Compute and store `digest` over the rest of the report.
    pub fn seal(&mut self) {
        sealed::seal(self);
    }

    /// Does `digest` match the rest of the report?
    pub fn digest_ok(&self) -> bool {
        sealed::digest_ok(self)
    }

    /// Ranks sorted by blamed cost, highest first (ties toward lower
    /// ranks) — the "who caused the waiting" ranking.
    pub fn blame_ranking(&self) -> Vec<u32> {
        let mut ranked: Vec<(u64, u32)> = self
            .blame
            .iter()
            .enumerate()
            .map(|(r, &b)| (b, r as u32))
            .collect();
        ranked.sort_by_key(|&(b, r)| (std::cmp::Reverse(b), r));
        ranked.into_iter().map(|(_, r)| r).collect()
    }

    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("ProfileReport serializes")
    }

    /// Parse a report, refusing another schema version or a broken digest.
    pub fn from_json(s: &str) -> Result<Self, String> {
        sealed::load(s, Self::NAME)
    }
}

impl Sealed for ProfileReport {
    const NAME: &'static str = "ProfileReport";
    const VERSION: u32 = PROFILE_VERSION;
    fn version(&self) -> u32 {
        self.version
    }
    fn digest(&mut self) -> &mut u64 {
        &mut self.digest
    }
}
