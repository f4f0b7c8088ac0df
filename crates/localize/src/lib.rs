//! tracedbg-localize — differential fault localization over exploration
//! artifacts.
//!
//! The paper's workflow ends where a failing interleaving is reproduced;
//! this crate answers the next question a debugging session asks: *which
//! process should I look at first?* Given a failing [`ScheduleArtifact`],
//! the localizer replays it, harvests a reference set of passing
//! schedules of the same workload, and ranks suspect processes by
//! combining four independent comparisons (DESIGN.md §13):
//!
//! 1. **First divergence** — the longest common prefix between the
//!    failing decision log and each passing run's log; the decision at
//!    the frontier names the ranks whose scheduling choice separated
//!    failure from success, and its marker vector is a replayable
//!    stopline (`tracedbg replay --to-suspect`).
//! 2. **Event-graph diff** — per-rank [`CommEdge`] sequences of the
//!    failing trace vs the *nearest* passing trace (the one with the
//!    longest common prefix): missing, extra, and reordered send/receive
//!    edges ([`graph`]).
//! 3. **Telemetry anomaly** — per-rank engine counters of the failing
//!    run scored against the passing sample by median-absolute-deviation
//!    ([`tracedbg_obs::mad_score`]).
//! 4. **Wait-state blame** — the failing trace's classified waits
//!    (late-sender, wait-at-collective, fault stalls) attributed to the
//!    rank that *caused* each one ([`tracedbg_profile::blame_vector`],
//!    DESIGN.md §15).
//!
//! Every output is a pure function of executed event sequences, so the
//! [`LocalizeReport`] is byte-identical across `--jobs` — the same
//! determinism contract (and digest idiom) as `MetricsReport`.
//!
//! [`CommEdge`]: tracedbg_trace::CommEdge

pub mod graph;
pub mod report;
mod suspects;

use std::collections::BTreeSet;
use tracedbg_explore::explorer::splitmix64;
use tracedbg_explore::pool::WorkerPool;
use tracedbg_explore::{execute_task, run_windowed, ProgramSource, RunResult, RunTask};
use tracedbg_mpsim::metrics::of_run;
use tracedbg_mpsim::{Engine, EngineConfig, RecorderConfig, SchedPolicy};
use tracedbg_obs::{mad_score, median, EngineMetrics};
use tracedbg_trace::schedule::{Decision, ScheduleArtifact};
use tracedbg_trace::TraceSource;

pub use graph::{diff_channels, diff_rank, diff_ranks, ChannelKey, RankDiff};
pub use report::{
    ChannelDiff, Divergence, LocalizeReport, Suspect, LOCALIZE_VERSION, VERDICT_CLEAN,
    VERDICT_LOCALIZED, VERDICT_NO_REFERENCE,
};

/// Outcome class string for a clean run (re-exported for gating).
pub use tracedbg_explore::runner::CLASS_COMPLETED;

/// Component weights of the combined suspect score, in twelfths.
pub const WEIGHT_DIVERGENCE: u64 = 5;
pub const WEIGHT_GRAPH: u64 = 3;
pub const WEIGHT_ANOMALY: u64 = 2;
pub const WEIGHT_BLAME: u64 = 2;

/// How a localization is collected.
#[derive(Clone, Copy, Debug)]
pub struct LocalizeConfig {
    /// Passing reference schedules to attempt (the round-robin baseline
    /// plus `runs - 1` seeded random schedules).
    pub runs: usize,
    /// Seed for the reference schedules.
    pub seed: u64,
    /// Worker threads for the reference harvest (`0` = available
    /// parallelism). Never affects report bytes.
    pub jobs: usize,
}

impl Default for LocalizeConfig {
    fn default() -> Self {
        LocalizeConfig {
            runs: 8,
            seed: 0,
            jobs: 1,
        }
    }
}

fn decision_ranks(d: &Decision) -> Vec<u32> {
    match d {
        Decision::Turn { rank } => vec![rank.0],
        Decision::Match { dst, src, .. } => {
            let mut v = vec![dst.0, src.0];
            v.sort_unstable();
            v.dedup();
            v
        }
    }
}

fn common_prefix(a: &[Decision], b: &[Decision]) -> usize {
    a.iter().zip(b.iter()).take_while(|(x, y)| x == y).count()
}

/// Marker frontier of the failing schedule at decision depth `k`,
/// obtained by re-running the script to a snapshot at `k`.
fn divergence_markers(source: &ProgramSource, artifact: &ScheduleArtifact, k: usize) -> Vec<u64> {
    let mut engine = Engine::launch(
        EngineConfig {
            recorder: RecorderConfig::full(),
            ..EngineConfig::for_artifact(artifact)
        },
        source(),
    );
    engine
        .run_to_snapshot(k)
        .map(|cp| cp.markers().counts().to_vec())
        .unwrap_or_default()
}

/// A named per-rank counter extractor over engine metrics.
type CounterGet = (&'static str, fn(&EngineMetrics, usize) -> u64);

/// The per-rank counters the anomaly component compares.
const COUNTERS: [CounterGet; 5] = [
    ("blocked_turns", |m, r| {
        m.blocked_turns.get(r).copied().unwrap_or(0)
    }),
    ("queue_hwm", |m, r| m.queue_hwm.get(r).copied().unwrap_or(0)),
    ("msgs_sent", |m, r| m.msgs_sent.get(r).copied().unwrap_or(0)),
    ("recvs", |m, r| m.recvs.get(r).copied().unwrap_or(0)),
    ("bytes_sent", |m, r| {
        m.bytes_sent.get(r).copied().unwrap_or(0)
    }),
];

/// What the reference harvest keeps of the passing runs: everything the
/// report reads, folded in as each run arrives, so a run's trace, decision
/// points and channel matrices die with its window.
struct Harvest {
    /// Distinct passing traces seen.
    runs: usize,
    /// Deepest common decision prefix with the failing run.
    prefix: usize,
    /// The first run reaching `prefix`: the nearest passing neighbor.
    nearest: Option<RunResult>,
    /// One sample per passing run of every counter on every rank, at
    /// `counter * nprocs + rank`.
    samples: Vec<Vec<u64>>,
}

impl Harvest {
    fn absorb(&mut self, failing: &[Decision], nprocs: usize, res: RunResult) {
        self.runs += 1;
        let m = of_run(res.log().iter(), &res.decisions, nprocs);
        for (c, (_, get)) in COUNTERS.iter().enumerate() {
            for r in 0..nprocs {
                self.samples[c * nprocs + r].push(get(&m, r));
            }
        }
        let prefix = common_prefix(failing, &res.decisions);
        if self.nearest.is_none() || prefix > self.prefix {
            self.prefix = prefix;
            self.nearest = Some(res);
        }
    }
}

/// Per-rank anomaly scores (summed milli-MADs) of the failing run's
/// counters against the passing `samples` (laid out as in [`Harvest`]),
/// with evidence strings for counters at least two MADs out.
fn anomaly_scores(
    failing: &EngineMetrics,
    samples: &[Vec<u64>],
    nprocs: usize,
) -> (Vec<u64>, Vec<Vec<String>>) {
    let mut scores = vec![0u64; nprocs];
    let mut evidence = vec![Vec::new(); nprocs];
    for (c, (name, get)) in COUNTERS.iter().enumerate() {
        for r in 0..nprocs {
            let sample = &samples[c * nprocs + r];
            let x = get(failing, r);
            let s = mad_score(x, sample);
            scores[r] += s;
            if s >= 2000 {
                evidence[r].push(format!(
                    "{name} {x} vs passing median {} ({}.{:03} MADs out)",
                    median(sample),
                    s / 1000,
                    s % 1000
                ));
            }
        }
    }
    (scores, evidence)
}

fn normalize(v: &mut [u64]) {
    let max = v.iter().copied().max().unwrap_or(0);
    if max == 0 {
        return;
    }
    for x in v.iter_mut() {
        *x = *x * 1000 / max;
    }
}

/// Localize a failing artifact against fresh passing references.
///
/// `source` must instantiate the same workload the artifact was recorded
/// from. The report is deterministic in `(artifact, cfg.runs, cfg.seed)`
/// and byte-identical across `cfg.jobs`.
pub fn localize(
    source: &ProgramSource,
    artifact: &ScheduleArtifact,
    cfg: &LocalizeConfig,
) -> LocalizeReport {
    localize_with_trace(source, artifact, cfg, None)
}

/// [`localize`], with the failing run's trace supplied externally.
///
/// When `failing_trace` is given, the event-graph diff (component 2)
/// reads it through [`TraceSource`] instead of the replay's in-memory
/// store — so a `tracedbg ingest` store directory or a recorded `.trc`
/// file works without materializing anything. Divergence and anomaly
/// analysis still come from the replay, which also validates that the
/// artifact reproduces its failure.
pub fn localize_with_trace(
    source: &ProgramSource,
    artifact: &ScheduleArtifact,
    cfg: &LocalizeConfig,
    failing_trace: Option<&dyn TraceSource>,
) -> LocalizeReport {
    // 1. Reproduce the failure under the artifact's script + faults.
    let failing = execute_task(
        source,
        &RunTask {
            policy: EngineConfig::for_artifact(artifact).policy,
            faults: artifact.faults.clone(),
            from: None,
        },
    );
    let failure = format!("{}: {}", failing.class, failing.detail);
    if failing.class == CLASS_COMPLETED {
        let mut r = LocalizeReport::new(&artifact.workload, VERDICT_CLEAN, failure);
        r.seal();
        return r;
    }

    // 2. Harvest passing references: the deterministic baseline plus
    //    seeded random schedules, all fault-free. Results come back in
    //    task order regardless of jobs (the pool's determinism contract).
    let tasks: Vec<RunTask> = (0..cfg.runs.max(1))
        .map(|i| {
            let policy = if i == 0 {
                SchedPolicy::RoundRobin
            } else {
                SchedPolicy::Seeded(splitmix64(cfg.seed.wrapping_add(i as u64)))
            };
            RunTask {
                policy,
                faults: Vec::new(),
                from: None,
            }
        })
        .collect();
    //    Only the first completed run of each trace digest counts, and
    //    of those only what the report reads outlives its window.
    let nprocs = artifact.procs.max(failing.store().n_ranks());
    let mut harvest = Harvest {
        runs: 0,
        prefix: 0,
        nearest: None,
        samples: vec![Vec::new(); COUNTERS.len() * nprocs],
    };
    let mut seen = BTreeSet::new();
    std::thread::scope(|scope| {
        let pool = WorkerPool::new(scope, cfg.jobs, source);
        run_windowed(&pool, tasks, |_, _, res| {
            if res.class == CLASS_COMPLETED && seen.insert(res.digest) {
                harvest.absorb(&failing.decisions, nprocs, res);
            }
        });
    });

    // 3. First divergence: deepest common decision prefix; the first run
    //    reaching it is the nearest passing neighbor.
    let k = harvest.prefix;
    let Some(nearest) = harvest.nearest else {
        let mut r = LocalizeReport::new(&artifact.workload, VERDICT_NO_REFERENCE, failure);
        r.seal();
        return r;
    };
    let render = |log: &[Decision], i: usize| {
        log.get(i)
            .map(|d| d.to_string())
            .unwrap_or_else(|| "(end of run)".to_string())
    };
    let mut div_ranks: BTreeSet<u32> = BTreeSet::new();
    for log in [&failing.decisions, &nearest.decisions] {
        if let Some(d) = log.get(k) {
            div_ranks.extend(decision_ranks(d));
        }
    }
    let divergence = Divergence {
        index: k,
        chosen: render(&failing.decisions, k),
        expected: render(&nearest.decisions, k),
        ranks: div_ranks.iter().copied().collect(),
        markers: divergence_markers(source, artifact, k),
    };
    let mut div_score = vec![0u64; nprocs];
    for &r in &div_ranks {
        if (r as usize) < nprocs {
            div_score[r as usize] = 1000;
        }
    }

    // 4. Event-graph diff vs the nearest passing trace.
    let failing_src: &dyn TraceSource = failing_trace.unwrap_or(failing.store());
    let rank_diffs = diff_ranks(failing_src, nearest.store()).unwrap_or_default();
    let mut graph_score: Vec<u64> = (0..nprocs)
        .map(|r| rank_diffs.get(r).map_or(0, |d| d.score()))
        .collect();
    let graph_evidence: Vec<Option<String>> = (0..nprocs)
        .map(|r| {
            let d = rank_diffs.get(r).copied().unwrap_or_default();
            (d.score() > 0).then(|| {
                format!(
                    "comm edges vs nearest passing: {} missing, {} extra, {} reordered",
                    d.missing, d.extra, d.reordered
                )
            })
        })
        .collect();
    let channel_diffs = diff_channels(failing_src, nearest.store()).unwrap_or_default();

    // 5. Telemetry anomaly vs the passing sample.
    let (mut mad_scores, mad_evidence) = if harvest.samples.iter().any(|s| !s.is_empty()) {
        let fm = of_run(failing.log().iter(), &failing.decisions, nprocs);
        anomaly_scores(&fm, &harvest.samples, nprocs)
    } else {
        (vec![0; nprocs], vec![Vec::new(); nprocs])
    };

    // 6. Wait-state blame: who *caused* the failing run's waiting. A
    //    pure function of the failing trace, so `--jobs` and input-plane
    //    byte-identity are preserved for free.
    let mut blame_ns = tracedbg_profile::blame_vector(failing.store());
    blame_ns.resize(nprocs, 0);
    let mut blame_score = blame_ns.clone();

    // 7. Normalize components and combine.
    normalize(&mut graph_score);
    normalize(&mut mad_scores);
    normalize(&mut blame_score);
    let mut suspects: Vec<Suspect> = (0..nprocs)
        .map(|r| {
            let divergence = div_score[r];
            let graph = graph_score[r];
            let anomaly = mad_scores[r];
            let blame = blame_score[r];
            let mut evidence = Vec::new();
            if divergence > 0 {
                evidence.push(format!(
                    "first diverging decision (index {k}) involves rank {r}"
                ));
            }
            if let Some(e) = &graph_evidence[r] {
                evidence.push(e.clone());
            }
            evidence.extend(mad_evidence[r].iter().cloned());
            if blame > 0 {
                evidence.push(format!(
                    "wait-state blame: caused {}ns of other ranks' waiting",
                    blame_ns[r]
                ));
            }
            Suspect {
                rank: r as u32,
                score: (WEIGHT_DIVERGENCE * divergence
                    + WEIGHT_GRAPH * graph
                    + WEIGHT_ANOMALY * anomaly
                    + WEIGHT_BLAME * blame)
                    / 12,
                divergence,
                graph,
                anomaly,
                blame,
                evidence,
            }
        })
        .filter(|s| s.score > 0)
        .collect();
    suspects.sort_by(|a, b| b.score.cmp(&a.score).then(a.rank.cmp(&b.rank)));

    let mut channels: Vec<ChannelDiff> = channel_diffs
        .into_iter()
        .filter(|(_, d)| d.missing + d.extra + d.reordered > 0)
        .map(|((src, dst, tag), d)| ChannelDiff {
            src,
            dst,
            tag,
            missing: d.missing,
            extra: d.extra,
            reordered: d.reordered,
        })
        .collect();
    channels.sort_by(|a, b| {
        (b.missing + b.extra + b.reordered, a.src, a.dst, a.tag).cmp(&(
            a.missing + a.extra + a.reordered,
            b.src,
            b.dst,
            b.tag,
        ))
    });

    let mut report = LocalizeReport::new(&artifact.workload, VERDICT_LOCALIZED, failure);
    report.passing_runs = harvest.runs;
    report.divergence = Some(divergence);
    report.suspects = suspects;
    report.channels = channels;
    report.seal();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use tracedbg_trace::Rank;

    #[test]
    fn decision_ranks_cover_both_shapes() {
        assert_eq!(decision_ranks(&Decision::Turn { rank: Rank(3) }), vec![3]);
        assert_eq!(
            decision_ranks(&Decision::Match {
                dst: Rank(0),
                src: Rank(2),
                seq: 1
            }),
            vec![0, 2]
        );
    }

    #[test]
    fn common_prefix_measures_agreement() {
        let a = [
            Decision::Turn { rank: Rank(0) },
            Decision::Turn { rank: Rank(1) },
        ];
        let b = [
            Decision::Turn { rank: Rank(0) },
            Decision::Turn { rank: Rank(2) },
        ];
        assert_eq!(common_prefix(&a, &b), 1);
        assert_eq!(common_prefix(&a, &a), 2);
        assert_eq!(common_prefix(&a, &[]), 0);
    }

    #[test]
    fn normalize_scales_to_milli_units() {
        let mut v = vec![0, 5, 10];
        normalize(&mut v);
        assert_eq!(v, vec![0, 500, 1000]);
        let mut z = vec![0, 0];
        normalize(&mut z);
        assert_eq!(z, vec![0, 0]);
    }
}
