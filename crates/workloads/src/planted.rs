//! Planted-bug corpus for the fault-localization plane.
//!
//! Each workload hides a schedule- or delay-dependent bug in ONE known
//! rank (`PlantedConfig::bug_rank`), completes cleanly under the
//! deterministic round-robin baseline, and fails when the schedule (or an
//! injected delay) exposes the planted rank's faulty behavior. That makes
//! them ground truth for `tracedbg localize`: the localizer must rank the
//! planted rank at (or near) the top, and the accuracy tests in
//! `crates/localize/tests/known_bugs.rs` pin exactly that.
//!
//! * [`planted_wildcard_factory`] — the master treats whichever worker reports
//!   first as the "leader"; the planted rank's report is poison in that
//!   role. Any schedule that lets the planted rank's send land first
//!   panics the master — the racy-wildcard shape with a parameterized
//!   culprit.
//! * [`planted_orphan_factory`] — after the first report the master requests an
//!   acknowledgment from the reporting worker. The planted rank's reply
//!   code is missing (it swallows the request), so a schedule where it
//!   reports first orphans the master's directed receive: a non-cyclic
//!   deadlock awaiting exactly the planted rank.
//! * [`planted_pipeline_factory`] — a fan-in merge pipeline whose planted stage
//!   merges its producers' streams with a full wildcard instead of
//!   alternating directed receives. The merged order is then arrival
//!   order; one delayed producer message reorders the stream and the
//!   sink's ordering assertion fires ranks away from where the bug lives
//!   — a delay-sensitive bug with a clean baseline.
//!
//! All three are task-backed ([`RankProgram::task`]), so the localizer's
//! many exploratory re-runs never spawn per-rank threads.

use tracedbg_mpsim::task::TaskOp;
use tracedbg_mpsim::{Payload, Prog, Rank, RankProgram, SendMode, SiteId, SiteKey, Tag};
use tracedbg_trace::Label;

pub const TAG_DATA: Tag = Tag(40);
pub const TAG_REQ: Tag = Tag(42);
pub const TAG_ACK: Tag = Tag(43);

/// Data tokens each pipeline producer emits.
pub const PIPELINE_TOKENS: u64 = 4;

/// Parameters for the planted-bug patterns.
#[derive(Clone, Copy, Debug)]
pub struct PlantedConfig {
    /// Total processes; at least 4 (master/source + 3 others).
    pub nprocs: usize,
    /// The rank carrying the planted bug. Must be a worker (1..nprocs);
    /// for the pipeline it must be an interior stage (1..nprocs-1).
    pub bug_rank: u32,
    /// Simulated work (ns) the fast worker does; slower ranks do four
    /// times as much, which is why the baseline schedule stays clean.
    pub work: u64,
}

impl Default for PlantedConfig {
    fn default() -> Self {
        PlantedConfig {
            nprocs: 4,
            bug_rank: 2,
            work: 50_000,
        }
    }
}

impl PlantedConfig {
    fn check(&self) {
        assert!(self.nprocs >= 4, "planted patterns need 4+ processes");
        assert!(
            (1..self.nprocs as u32).contains(&self.bug_rank),
            "bug_rank must be a worker rank"
        );
    }
}

/// Per-rank task state shared by every planted pattern.
#[derive(Clone)]
struct PState {
    cfg: PlantedConfig,
    rank: usize,
    /// Innermost program site (master/worker/stage body).
    site: SiteId,
    /// Secondary site (the orphan worker interns two).
    wsite: SiteId,
    /// Source of the first wildcard match (masters only).
    first: Rank,
    /// Generic loop cursor.
    k: i64,
    /// In-flight payload (pipeline stages).
    tok: Payload,
}

fn state(cfg: &PlantedConfig, rank: usize) -> PState {
    PState {
        cfg: *cfg,
        rank,
        site: SiteId(0),
        wsite: SiteId(0),
        first: Rank(0),
        k: 0,
        tok: Payload::empty(),
    }
}

/// The reporting body shared by both handshake patterns: compute (worker 1
/// is fastest), then report to the master. Interns its own site into
/// `wsite`, matching the thread version's nested `reporting_worker`.
fn reporting_body() -> Prog<PState> {
    Prog::seq(vec![
        Prog::act({
            let key = SiteKey::new("planted.c", 40, "worker");
            move |s: &mut PState, v| s.wsite = v.site_of(key)
        }),
        Prog::op(|s: &mut PState, _| TaskOp::Compute {
            cost_ns: s.cfg.work * if s.rank == 1 { 1 } else { 4 },
            site: s.wsite,
        }),
        Prog::op(|s: &mut PState, _| TaskOp::Send {
            dst: Rank(0),
            tag: TAG_DATA,
            payload: Payload::from_i64(s.rank as i64),
            site: s.wsite,
            mode: SendMode::Buffered,
        }),
    ])
}

/// Drain the remaining `nprocs - 2` reports with wildcard receives.
fn drain_rest() -> Prog<PState> {
    Prog::for_range(
        |s: &PState, _| (0, s.cfg.nprocs as i64 - 2),
        |_s: &mut PState, _| {},
        Prog::op(|s: &mut PState, _| TaskOp::Recv {
            src: None,
            tag: Some(TAG_DATA),
            site: s.site,
        }),
    )
}

/// The ranks of `cfg`, rank `r` running `prog(r)`.
fn ranks(cfg: &PlantedConfig, prog: impl Fn(usize) -> Prog<PState>) -> Vec<RankProgram> {
    (0..cfg.nprocs)
        .map(|r| RankProgram::task(state(cfg, r), prog(r)))
        .collect()
}

/// Wildcard leader election with a poison candidate: panics at the master
/// whenever the planted rank's report is matched first. A reusable factory
/// for sessions, the explorer, and the localizer: the programs are built
/// once, with the factory, and every call shares them.
pub fn planted_wildcard_factory(cfg: PlantedConfig) -> impl Fn() -> Vec<RankProgram> + Send + Sync {
    let leader = Label::new("leader");
    cfg.check();
    let master = Prog::seq(vec![
        Prog::act({
            let key = SiteKey::new("planted.c", 10, "master");
            move |s: &mut PState, v| s.site = v.site_of(key)
        }),
        Prog::op_bind(
            |s: &mut PState, _| TaskOp::Recv {
                src: None,
                tag: Some(TAG_DATA),
                site: s.site,
            },
            |s, r, _| s.first = r.message().src,
        ),
        Prog::op(move |s: &mut PState, _| TaskOp::Probe {
            label: leader,
            value: s.first.0 as i64,
            site: s.site,
        }),
        // The planted bug lives in `bug_rank`: its report is unusable as
        // a leader, but nothing stops it from arriving first.
        Prog::act(|s: &mut PState, _| {
            assert_ne!(
                s.first,
                Rank(s.cfg.bug_rank),
                "rank {} elected leader with a poison report",
                s.cfg.bug_rank
            );
        }),
        drain_rest(),
    ]);
    let worker = reporting_body();
    move || ranks(&cfg, |r| if r == 0 { &master } else { &worker }.clone())
}

/// Request/acknowledge handshake where the planted rank never replies:
/// deadlocks (orphaned directed receive) whenever it reports first. The
/// programs are built once, with the factory.
pub fn planted_orphan_factory(cfg: PlantedConfig) -> impl Fn() -> Vec<RankProgram> + Send + Sync {
    let reporter = Label::new("reporter");
    cfg.check();
    let master = Prog::seq(vec![
        Prog::act({
            let key = SiteKey::new("planted.c", 20, "master");
            move |s: &mut PState, v| s.site = v.site_of(key)
        }),
        Prog::op_bind(
            |s: &mut PState, _| TaskOp::Recv {
                src: None,
                tag: Some(TAG_DATA),
                site: s.site,
            },
            |s, r, _| s.first = r.message().src,
        ),
        Prog::op(move |s: &mut PState, _| TaskOp::Probe {
            label: reporter,
            value: s.first.0 as i64,
            site: s.site,
        }),
        Prog::for_range(
            |s: &PState, _| (1, s.cfg.nprocs as i64),
            |s: &mut PState, r| s.k = r,
            Prog::op(|s: &mut PState, _| TaskOp::Send {
                dst: Rank(s.k as u32),
                tag: TAG_REQ,
                payload: Payload::from_i64(0),
                site: s.site,
                mode: SendMode::Buffered,
            }),
        ),
        // Orphaned if `first` is the planted rank: its ACK never comes.
        Prog::op(|s: &mut PState, _| TaskOp::Recv {
            src: Some(s.first),
            tag: Some(TAG_ACK),
            site: s.site,
        }),
        drain_rest(),
    ]);
    let worker = Prog::seq(vec![
        Prog::act({
            let key = SiteKey::new("planted.c", 30, "worker");
            move |s: &mut PState, v| s.site = v.site_of(key)
        }),
        reporting_body(),
        Prog::op(|s: &mut PState, _| TaskOp::Recv {
            src: Some(Rank(0)),
            tag: Some(TAG_REQ),
            site: s.site,
        }),
        // The planted bug: `bug_rank` swallows the request.
        Prog::when(
            |s: &PState, _| s.rank as u32 != s.cfg.bug_rank,
            Prog::op(|s: &mut PState, _| TaskOp::Send {
                dst: Rank(0),
                tag: TAG_ACK,
                payload: Payload::from_i64(s.rank as i64),
                site: s.site,
                mode: SendMode::Buffered,
            }),
        ),
    ]);
    move || ranks(&cfg, |r| if r == 0 { &master } else { &worker }.clone())
}

/// Fan-in merge pipeline with a wildcard-receiving planted stage: ranks
/// `0..bug_rank` produce interleaved token streams, the planted stage
/// merges them, relay stages pass the merged stream on, and the sink
/// asserts it arrives in token order. A correct merge would alternate
/// directed receives across the producers; the planted wildcard instead
/// takes whatever arrives first, so a delayed producer message reorders
/// the stream and the sink panics ranks away from the bug. The programs
/// are built once, with the factory.
pub fn planted_pipeline_factory(cfg: PlantedConfig) -> impl Fn() -> Vec<RankProgram> + Send + Sync {
    cfg.check();
    let last = cfg.nprocs - 1;
    assert!(
        (2..last as u32).contains(&cfg.bug_rank),
        "pipeline bug_rank must be an interior merge stage fed by 2+ producers"
    );
    let nprods = cfg.bug_rank as usize;
    let total = nprods as u64 * PIPELINE_TOKENS;
    let step = cfg.work / 4;
    let producer = Prog::seq(vec![
        Prog::act({
            let key = SiteKey::new("planted.c", 50, "producer");
            move |s: &mut PState, v| s.site = v.site_of(key)
        }),
        // Producer `p` owns token ids `p, p + nprods, ...`; the pacing
        // staggers emission so token `i` arrives at the merge stage at
        // roughly `i * step` — globally ordered across producers.
        Prog::op(move |s: &mut PState, _| TaskOp::Compute {
            cost_ns: s.rank as u64 * step + 1,
            site: s.site,
        }),
        Prog::for_range(
            |_s: &PState, _| (0, PIPELINE_TOKENS as i64),
            |s: &mut PState, k| s.k = k,
            Prog::seq(vec![
                Prog::op(move |s: &mut PState, _| TaskOp::Send {
                    dst: Rank(s.cfg.bug_rank),
                    tag: TAG_DATA,
                    payload: Payload::from_i64(s.rank as i64 + s.k * nprods as i64),
                    site: s.site,
                    mode: SendMode::Buffered,
                }),
                Prog::op(move |s: &mut PState, _| TaskOp::Compute {
                    cost_ns: nprods as u64 * step,
                    site: s.site,
                }),
            ]),
        ),
    ]);
    let merge = Prog::seq(vec![
        Prog::act({
            let key = SiteKey::new("planted.c", 60, "merge");
            move |s: &mut PState, v| s.site = v.site_of(key)
        }),
        Prog::for_range(
            move |_s: &PState, _| (0, total as i64),
            |_s: &mut PState, _| {},
            Prog::seq(vec![
                // The planted bug: the merge receives with a full wildcard
                // instead of alternating directed receives per producer, so
                // the merged order is whatever arrival order happens to be.
                Prog::op_bind(
                    |s: &mut PState, _| TaskOp::Recv {
                        src: None,
                        tag: Some(TAG_DATA),
                        site: s.site,
                    },
                    |s, r, _| s.tok = r.message().payload,
                ),
                Prog::op(|s: &mut PState, _| TaskOp::Send {
                    dst: Rank(s.cfg.bug_rank + 1),
                    tag: TAG_DATA,
                    payload: s.tok.clone(),
                    site: s.site,
                    mode: SendMode::Buffered,
                }),
            ]),
        ),
    ]);
    let relay = Prog::seq(vec![
        Prog::act({
            let key = SiteKey::new("planted.c", 65, "relay");
            move |s: &mut PState, v| s.site = v.site_of(key)
        }),
        Prog::for_range(
            move |_s: &PState, _| (0, total as i64),
            |_s: &mut PState, _| {},
            Prog::seq(vec![
                Prog::op_bind(
                    |s: &mut PState, _| TaskOp::Recv {
                        src: Some(Rank(s.rank as u32 - 1)),
                        tag: Some(TAG_DATA),
                        site: s.site,
                    },
                    |s, r, _| s.tok = r.message().payload,
                ),
                Prog::op(|s: &mut PState, _| TaskOp::Send {
                    dst: Rank(s.rank as u32 + 1),
                    tag: TAG_DATA,
                    payload: s.tok.clone(),
                    site: s.site,
                    mode: SendMode::Buffered,
                }),
            ]),
        ),
    ]);
    let sink = Prog::seq(vec![
        Prog::act({
            let key = SiteKey::new("planted.c", 70, "sink");
            move |s: &mut PState, v| s.site = v.site_of(key)
        }),
        Prog::for_range(
            move |_s: &PState, _| (0, total as i64),
            |s: &mut PState, k| s.k = k,
            Prog::op_bind(
                |s: &mut PState, _| TaskOp::Recv {
                    src: Some(Rank(s.rank as u32 - 1)),
                    tag: Some(TAG_DATA),
                    site: s.site,
                },
                |s, r, _| {
                    let v = r.message().payload.to_i64().unwrap();
                    assert_eq!(v, s.k, "pipeline stream corrupted");
                },
            ),
        ),
    ]);
    move || {
        ranks(&cfg, |r| {
            if r < nprods {
                &producer
            } else if r == nprods {
                &merge
            } else if r < last {
                &relay
            } else {
                &sink
            }
            .clone()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tracedbg_mpsim::{
        Decision, Engine, EngineConfig, FaultPlan, RecorderConfig, RunOutcome, SchedPolicy,
    };
    use tracedbg_trace::schedule::Fault;

    fn run(programs: Vec<RankProgram>, policy: SchedPolicy, faults: Vec<Fault>) -> RunOutcome {
        let mut e = Engine::launch(
            EngineConfig {
                policy,
                recorder: RecorderConfig::full(),
                faults: FaultPlan::new(faults),
                ..Default::default()
            },
            programs,
        );
        e.run()
    }

    #[test]
    fn all_three_complete_under_the_baseline_schedule() {
        let cfg = PlantedConfig::default();
        for progs in [
            planted_wildcard_factory(cfg)(),
            planted_orphan_factory(cfg)(),
            planted_pipeline_factory(cfg)(),
        ] {
            assert!(run(progs, SchedPolicy::RoundRobin, vec![]).is_completed());
        }
    }

    #[test]
    fn wildcard_panics_when_the_planted_rank_reports_first() {
        tracedbg_mpsim::set_quiet_panics(true);
        let cfg = PlantedConfig::default();
        let script = vec![Decision::Turn {
            rank: Rank(cfg.bug_rank),
        }];
        match run(
            planted_wildcard_factory(cfg)(),
            SchedPolicy::Scripted(script),
            vec![],
        ) {
            RunOutcome::Panicked { rank, message } => {
                assert_eq!(rank, Rank(0));
                assert!(message.contains("poison report"), "{message}");
            }
            other => panic!("expected the planted race to fire, got {other:?}"),
        }
    }

    #[test]
    fn orphan_deadlocks_awaiting_exactly_the_planted_rank() {
        let cfg = PlantedConfig::default();
        let script = vec![Decision::Turn {
            rank: Rank(cfg.bug_rank),
        }];
        match run(
            planted_orphan_factory(cfg)(),
            SchedPolicy::Scripted(script),
            vec![],
        ) {
            RunOutcome::Deadlock(rep) => {
                assert!(!rep.is_cyclic());
                assert_eq!(rep.waits.len(), 1);
                assert_eq!(rep.waits[0].waiter, Rank(0));
                assert_eq!(rep.waits[0].awaited, Some(Rank(cfg.bug_rank)));
            }
            other => panic!("expected the orphaned receive, got {other:?}"),
        }
    }

    #[test]
    fn pipeline_corrupts_when_a_merge_token_is_delayed() {
        tracedbg_mpsim::set_quiet_panics(true);
        let cfg = PlantedConfig::default();
        // Delay producer 0's second token past its successors: the
        // planted wildcard merges by arrival, so the stream reorders.
        let fault = Fault::Delay {
            src: Rank(0),
            dst: Rank(cfg.bug_rank),
            nth: 1,
            extra_ns: cfg.work * 2,
        };
        match run(
            planted_pipeline_factory(cfg)(),
            SchedPolicy::RoundRobin,
            vec![fault],
        ) {
            RunOutcome::Panicked { rank, message } => {
                assert_eq!(rank, Rank((cfg.nprocs - 1) as u32), "fails at the sink");
                assert!(message.contains("corrupted"), "{message}");
            }
            other => panic!("expected the delayed token to corrupt the stream, got {other:?}"),
        }
    }

    #[test]
    fn scales_beyond_four_processes() {
        let cfg = PlantedConfig {
            nprocs: 6,
            bug_rank: 3,
            ..Default::default()
        };
        for progs in [
            planted_wildcard_factory(cfg)(),
            planted_orphan_factory(cfg)(),
            planted_pipeline_factory(cfg)(),
        ] {
            assert!(run(progs, SchedPolicy::RoundRobin, vec![]).is_completed());
        }
    }
}
