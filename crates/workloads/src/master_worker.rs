//! A master/worker pool with wildcard receives.
//!
//! The master hands out work items and collects results with
//! `MPI_ANY_SOURCE` receives — the nondeterministic construct §4.2's
//! replay control exists for. Under a perturbed scheduling seed the result
//! arrival order varies run to run; under replay it is pinned. Completion
//! order is recorded via probes so tests (and the replay ablation bench)
//! can compare orders across runs. Task-backed ([`RankProgram::task`]).

use tracedbg_mpsim::task::TaskOp;
use tracedbg_mpsim::{Payload, Prog, Rank, RankProgram, SendMode, SiteId, SiteKey, Tag};
use tracedbg_trace::Label;

const TAG_WORK: Tag = Tag(30);
const TAG_RESULT: Tag = Tag(31);
const TAG_STOP: Tag = Tag(32);

/// Pool parameters.
#[derive(Clone, Copy, Debug)]
pub struct PoolConfig {
    pub nprocs: usize,
    pub tasks: usize,
    /// Base simulated cost per task (ns); task `i` costs
    /// `base_cost * (1 + i % 3)` so workers finish out of order.
    pub base_cost: u64,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            nprocs: 4,
            tasks: 9,
            base_cost: 50_000,
        }
    }
}

/// Per-rank task state for both roles.
#[derive(Clone)]
struct PoolState {
    cfg: PoolConfig,
    rank: usize,
    site: SiteId,
    // Master bookkeeping.
    next_task: usize,
    outstanding: usize,
    done: usize,
    src: Rank,
    w: i64,
    // Worker bookkeeping.
    task: i64,
    stopped: bool,
}

fn master_prog() -> Prog<PoolState> {
    let completed_by = Label::new("completed_by");
    let hand_out = Prog::seq(vec![
        Prog::op(|s: &mut PoolState, _| TaskOp::Send {
            dst: s.src,
            tag: TAG_WORK,
            payload: Payload::from_i64(s.next_task as i64),
            site: s.site,
            mode: SendMode::Buffered,
        }),
        Prog::act(|s: &mut PoolState, _| {
            s.next_task += 1;
            s.outstanding += 1;
        }),
    ]);
    Prog::seq(vec![
        Prog::act({
            let key = SiteKey::new("pool.c", 10, "master");
            move |s: &mut PoolState, v| s.site = v.site_of(key)
        }),
        Prog::scope(
            |s: &mut PoolState, _| (s.site, [s.cfg.tasks as i64, 0]),
            Prog::seq(vec![
                // Prime every worker with one task.
                Prog::for_range(
                    |s: &PoolState, _| (1, s.cfg.nprocs as i64),
                    |s: &mut PoolState, w| s.w = w,
                    Prog::when(
                        |s: &PoolState, _| s.next_task < s.cfg.tasks,
                        Prog::seq(vec![
                            Prog::act(|s: &mut PoolState, _| s.src = Rank(s.w as u32)),
                            hand_out.clone(),
                        ]),
                    ),
                ),
                // Collect results with wildcard receives; keep the
                // pipeline full.
                Prog::while_loop(
                    |s: &PoolState, _| s.done < s.cfg.tasks,
                    Prog::seq(vec![
                        Prog::op_bind(
                            |s: &mut PoolState, _| TaskOp::Recv {
                                src: None,
                                tag: Some(TAG_RESULT),
                                site: s.site,
                            },
                            |s, m, _| {
                                s.src = m.message().src;
                                s.done += 1;
                                s.outstanding -= 1;
                            },
                        ),
                        // Record the nondeterministic completion order.
                        Prog::op(move |s: &mut PoolState, _| TaskOp::Probe {
                            label: completed_by,
                            value: s.src.0 as i64,
                            site: s.site,
                        }),
                        Prog::when(
                            |s: &PoolState, _| s.next_task < s.cfg.tasks,
                            hand_out.clone(),
                        ),
                    ]),
                ),
                Prog::act(|s: &mut PoolState, _| assert_eq!(s.outstanding, 0)),
                // Dismiss the pool.
                Prog::for_range(
                    |s: &PoolState, _| (1, s.cfg.nprocs as i64),
                    |s: &mut PoolState, w| s.w = w,
                    Prog::op(|s: &mut PoolState, _| TaskOp::Send {
                        dst: Rank(s.w as u32),
                        tag: TAG_STOP,
                        payload: Payload::empty(),
                        site: s.site,
                        mode: SendMode::Buffered,
                    }),
                ),
            ]),
        ),
    ])
}

fn worker_prog() -> Prog<PoolState> {
    Prog::seq(vec![
        Prog::act({
            let key = SiteKey::new("pool.c", 40, "worker");
            move |s: &mut PoolState, v| s.site = v.site_of(key)
        }),
        Prog::scope(
            |s: &mut PoolState, _| (s.site, [s.rank as i64, 0]),
            Prog::while_loop(
                |s: &PoolState, _| !s.stopped,
                Prog::seq(vec![
                    Prog::op_bind(
                        |s: &mut PoolState, _| TaskOp::Recv {
                            src: Some(Rank(0)),
                            tag: None,
                            site: s.site,
                        },
                        |s, m, _| {
                            let m = m.message();
                            if m.tag == TAG_STOP {
                                s.stopped = true;
                            } else {
                                s.task = m.payload.to_i64().unwrap();
                            }
                        },
                    ),
                    Prog::when(
                        |s: &PoolState, _| !s.stopped,
                        Prog::seq(vec![
                            Prog::op(|s: &mut PoolState, _| TaskOp::Compute {
                                cost_ns: s.cfg.base_cost * (1 + s.task as u64 % 3),
                                site: s.site,
                            }),
                            Prog::op(|s: &mut PoolState, _| TaskOp::Send {
                                dst: Rank(0),
                                tag: TAG_RESULT,
                                payload: Payload::from_i64(s.task),
                                site: s.site,
                                mode: SendMode::Buffered,
                            }),
                        ]),
                    ),
                ]),
            ),
        ),
    ])
}

/// Build the pool programs.
pub fn programs(cfg: &PoolConfig) -> Vec<RankProgram> {
    assert!(cfg.nprocs >= 2);
    let master = master_prog();
    let worker = worker_prog();
    (0..cfg.nprocs)
        .map(|r| {
            RankProgram::task(
                PoolState {
                    cfg: *cfg,
                    rank: r,
                    site: SiteId(0),
                    next_task: 0,
                    outstanding: 0,
                    done: 0,
                    src: Rank(0),
                    w: 0,
                    task: 0,
                    stopped: false,
                },
                if r == 0 {
                    master.clone()
                } else {
                    worker.clone()
                },
            )
        })
        .collect()
}

/// A reusable factory for debugger sessions.
pub fn factory(cfg: PoolConfig) -> impl Fn() -> Vec<RankProgram> + Send + Sync {
    move || programs(&cfg)
}

/// Extract the completion order recorded by the master's probes.
pub fn completion_order(store: &tracedbg_trace::TraceStore) -> Vec<u32> {
    store
        .by_rank(Rank(0))
        .iter()
        .map(|&id| store.record(id))
        .filter(|r| r.label.map(Label::as_str) == Some("completed_by"))
        .map(|r| r.args[0] as u32)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tracedbg_mpsim::{Engine, EngineConfig, RecorderConfig, SchedPolicy};

    fn run_with(
        policy: SchedPolicy,
        replay: Option<tracedbg_mpsim::ReplayLog>,
    ) -> (Vec<u32>, tracedbg_mpsim::ReplayLog) {
        let cfg = PoolConfig::default();
        let mut e = Engine::launch(
            EngineConfig {
                policy,
                recorder: RecorderConfig::full(),
                replay,
                ..Default::default()
            },
            programs(&cfg),
        );
        assert!(e.run().is_completed());
        let store = e.trace_store();
        (completion_order(&store), e.match_log())
    }

    #[test]
    fn all_tasks_complete() {
        let (order, _) = run_with(SchedPolicy::RoundRobin, None);
        assert_eq!(order.len(), PoolConfig::default().tasks);
    }

    #[test]
    fn replay_pins_wildcard_order_across_seeds() {
        let (order1, log) = run_with(SchedPolicy::Seeded(3), None);
        // Different seed, forced by the recorded log: same order.
        let (order2, _) = run_with(SchedPolicy::Seeded(1234), Some(log));
        assert_eq!(order1, order2);
    }

    #[test]
    fn different_seeds_can_differ() {
        // Not guaranteed for every seed pair, but these differ (and if the
        // pattern were fully deterministic the replay test above would be
        // vacuous).
        let orders: Vec<Vec<u32>> = (0..8)
            .map(|s| run_with(SchedPolicy::Seeded(s), None).0)
            .collect();
        assert!(
            orders.windows(2).any(|w| w[0] != w[1]),
            "expected some seed-dependent variation: {orders:?}"
        );
    }
}
