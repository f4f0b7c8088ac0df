//! Intentionally racy workloads — the explorer's prey.
//!
//! Both patterns complete cleanly under the deterministic round-robin
//! scheduler but hide a schedule-dependent bug behind a wildcard receive;
//! `tracedbg explore` must drive the runtime into the failing
//! interleavings and hand back minimal replayable schedules.
//!
//! * [`wildcard_race`] — the master assumes its first `ANY_SOURCE` message
//!   comes from worker 1 (who is "obviously" fastest). Any schedule that
//!   lets another worker's send land first fires the assertion: a classic
//!   wildcard-receive race ending in a panic.
//! * [`orphan_deadlock`] — the master takes one wildcard message, then
//!   issues a *directed* receive for a follow-up from that same source.
//!   Only worker 1 ever sends a follow-up; if the wildcard matches anyone
//!   else, the directed receive waits forever — a schedule-dependent,
//!   non-cyclic deadlock (the orphaned-receive shape of §4.4).
//!
//! Both patterns are task-backed ([`RankProgram::task`]): the explorer
//! re-instantiates them once per schedule, and resumable tasks make that
//! instantiation thread-spawn-free.

use tracedbg_mpsim::task::TaskOp;
use tracedbg_mpsim::{Payload, Prog, Rank, RankProgram, SendMode, SiteId, SiteKey, Tag};
use tracedbg_trace::Label;

const TAG_DATA: Tag = Tag(30);

/// Parameters for the racy patterns.
#[derive(Clone, Copy, Debug)]
pub struct RacyConfig {
    /// Total processes (master + nprocs-1 workers); at least 3.
    pub nprocs: usize,
    /// Simulated work (ns) worker 1 does before sending; the others do
    /// four times as much, which is why the "worker 1 is first" assumption
    /// *usually* holds.
    pub work: u64,
}

impl Default for RacyConfig {
    fn default() -> Self {
        RacyConfig {
            nprocs: 3,
            work: 50_000,
        }
    }
}

/// Per-rank task state shared by masters and workers of both patterns.
#[derive(Clone)]
struct RacyState {
    cfg: RacyConfig,
    rank: usize,
    site: SiteId,
    /// Source of the first wildcard match (masters only).
    first: Rank,
    /// Loop cursor for the workers' extra sends.
    k: i64,
}

fn state(cfg: &RacyConfig, rank: usize) -> RacyState {
    RacyState {
        cfg: *cfg,
        rank,
        site: SiteId(0),
        first: Rank(0),
        k: 0,
    }
}

/// The worker program: compute (worker 1 is fastest), report to the
/// master, then `extra_sends` follow-ups.
fn worker_prog(extra_sends: usize) -> Prog<RacyState> {
    Prog::seq(vec![
        Prog::act({
            let key = SiteKey::new("racy.c", 40, "worker");
            move |s: &mut RacyState, v| s.site = v.site_of(key)
        }),
        Prog::op(|s: &mut RacyState, _| TaskOp::Compute {
            cost_ns: s.cfg.work * if s.rank == 1 { 1 } else { 4 },
            site: s.site,
        }),
        Prog::op(|s: &mut RacyState, _| TaskOp::Send {
            dst: Rank(0),
            tag: TAG_DATA,
            payload: Payload::from_i64(s.rank as i64),
            site: s.site,
            mode: SendMode::Buffered,
        }),
        Prog::for_range(
            move |_s: &RacyState, _| (0, extra_sends as i64),
            |s: &mut RacyState, k| s.k = k,
            Prog::op(|s: &mut RacyState, _| TaskOp::Send {
                dst: Rank(0),
                tag: TAG_DATA,
                payload: Payload::from_i64(100 + s.k),
                site: s.site,
                mode: SendMode::Buffered,
            }),
        ),
    ])
}

/// Drain the remaining `nprocs - 2` reports with wildcard receives.
fn drain_rest() -> Prog<RacyState> {
    Prog::for_range(
        |s: &RacyState, _| (0, s.cfg.nprocs as i64 - 2),
        |_s: &mut RacyState, _| {},
        Prog::op(|s: &mut RacyState, _| TaskOp::Recv {
            src: None,
            tag: Some(TAG_DATA),
            site: s.site,
        }),
    )
}

/// The wildcard-race pattern: assertion failure on "wrong" match order.
pub fn wildcard_race(cfg: &RacyConfig) -> Vec<RankProgram> {
    let first_src = Label::new("first_src");
    assert!(
        cfg.nprocs >= 3,
        "racy patterns need a master and 2+ workers"
    );
    let master = Prog::seq(vec![
        Prog::act({
            let key = SiteKey::new("racy.c", 12, "master");
            move |s: &mut RacyState, v| s.site = v.site_of(key)
        }),
        Prog::op_bind(
            |s: &mut RacyState, _| TaskOp::Recv {
                src: None,
                tag: Some(TAG_DATA),
                site: s.site,
            },
            |s, r, _| s.first = r.message().src,
        ),
        Prog::op(move |s: &mut RacyState, _| TaskOp::Probe {
            label: first_src,
            value: s.first.0 as i64,
            site: s.site,
        }),
        // The bug: worker 1 is assumed fastest, but nothing enforces it.
        Prog::act(|s: &mut RacyState, _| {
            assert_eq!(s.first, Rank(1), "master assumed worker 1 reports first");
        }),
        drain_rest(),
    ]);
    let worker = worker_prog(0);
    (0..cfg.nprocs)
        .map(|r| {
            let prog = if r == 0 {
                master.clone()
            } else {
                worker.clone()
            };
            RankProgram::task(state(cfg, r), prog)
        })
        .collect()
}

/// A reusable factory for sessions and the explorer.
pub fn wildcard_race_factory(cfg: RacyConfig) -> impl Fn() -> Vec<RankProgram> + Send + Sync {
    move || wildcard_race(&cfg)
}

/// The orphaned-receive pattern: schedule-dependent non-cyclic deadlock.
pub fn orphan_deadlock(cfg: &RacyConfig) -> Vec<RankProgram> {
    let first_src = Label::new("first_src");
    assert!(
        cfg.nprocs >= 3,
        "racy patterns need a master and 2+ workers"
    );
    let master = Prog::seq(vec![
        Prog::act({
            let key = SiteKey::new("racy.c", 24, "master");
            move |s: &mut RacyState, v| s.site = v.site_of(key)
        }),
        Prog::op_bind(
            |s: &mut RacyState, _| TaskOp::Recv {
                src: None,
                tag: Some(TAG_DATA),
                site: s.site,
            },
            |s, r, _| s.first = r.message().src,
        ),
        Prog::op(move |s: &mut RacyState, _| TaskOp::Probe {
            label: first_src,
            value: s.first.0 as i64,
            site: s.site,
        }),
        // The bug: only worker 1 sends a follow-up message, but the
        // directed receive targets whoever happened to match first.
        Prog::op(|s: &mut RacyState, _| TaskOp::Recv {
            src: Some(s.first),
            tag: Some(TAG_DATA),
            site: s.site,
        }),
        drain_rest(),
    ]);
    (0..cfg.nprocs)
        .map(|r| {
            let prog = if r == 0 {
                master.clone()
            } else {
                worker_prog(if r == 1 { 1 } else { 0 })
            };
            RankProgram::task(state(cfg, r), prog)
        })
        .collect()
}

/// A reusable factory for sessions and the explorer.
pub fn orphan_deadlock_factory(cfg: RacyConfig) -> impl Fn() -> Vec<RankProgram> + Send + Sync {
    move || orphan_deadlock(&cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tracedbg_mpsim::{Decision, Engine, EngineConfig, RecorderConfig, RunOutcome, SchedPolicy};

    fn run(programs: Vec<RankProgram>, policy: SchedPolicy) -> RunOutcome {
        let mut e = Engine::launch(
            EngineConfig {
                policy,
                recorder: RecorderConfig::full(),
                ..Default::default()
            },
            programs,
        );
        e.run()
    }

    #[test]
    fn wildcard_race_completes_deterministically() {
        let cfg = RacyConfig::default();
        assert!(run(wildcard_race(&cfg), SchedPolicy::RoundRobin).is_completed());
    }

    #[test]
    fn wildcard_race_panics_when_worker2_goes_first() {
        tracedbg_mpsim::set_quiet_panics(true);
        let cfg = RacyConfig::default();
        // One scheduling decision is enough: give worker 2 the first turn,
        // so its message is already queued when the master's wildcard posts.
        let script = vec![Decision::Turn { rank: Rank(2) }];
        match run(wildcard_race(&cfg), SchedPolicy::Scripted(script)) {
            RunOutcome::Panicked { rank, message } => {
                assert_eq!(rank, Rank(0));
                assert!(message.contains("worker 1"), "{message}");
            }
            other => panic!("expected the race to fire, got {other:?}"),
        }
    }

    #[test]
    fn orphan_deadlock_completes_deterministically() {
        let cfg = RacyConfig::default();
        assert!(run(orphan_deadlock(&cfg), SchedPolicy::RoundRobin).is_completed());
    }

    #[test]
    fn orphan_deadlock_stalls_when_worker2_goes_first() {
        let cfg = RacyConfig::default();
        let script = vec![Decision::Turn { rank: Rank(2) }];
        match run(orphan_deadlock(&cfg), SchedPolicy::Scripted(script)) {
            RunOutcome::Deadlock(rep) => {
                assert!(!rep.is_cyclic(), "orphaned receive, not a cycle");
                assert_eq!(rep.waits.len(), 1);
                assert_eq!(rep.waits[0].waiter, Rank(0));
                assert_eq!(rep.waits[0].awaited, Some(Rank(2)));
            }
            other => panic!("expected orphan deadlock, got {other:?}"),
        }
    }

    #[test]
    fn scales_beyond_three_processes() {
        let cfg = RacyConfig {
            nprocs: 6,
            ..Default::default()
        };
        assert!(run(wildcard_race(&cfg), SchedPolicy::RoundRobin).is_completed());
        assert!(run(orphan_deadlock(&cfg), SchedPolicy::RoundRobin).is_completed());
    }
}
