//! A token ring: deterministic pattern for replay/trace tests.

use tracedbg_mpsim::task::TaskOp;
use tracedbg_mpsim::{Payload, Prog, Rank, RankProgram, SendMode, SiteId, Tag};

const TAG_TOKEN: Tag = Tag(20);

/// Ring parameters.
#[derive(Clone, Copy, Debug)]
pub struct RingConfig {
    pub nprocs: usize,
    pub rounds: usize,
    /// Simulated work between forwards (ns).
    pub hop_cost: u64,
    /// Number of distinct token tags. `0` (and `1`) keep the classic
    /// single `Tag(20)`; with a stride `k`, round `r` circulates on
    /// `Tag(20 + r % k)` — gives tag-indexed queries real selectivity on
    /// large rings (the store bench workload).
    pub tag_stride: usize,
}

impl Default for RingConfig {
    fn default() -> Self {
        RingConfig {
            nprocs: 4,
            rounds: 3,
            hop_cost: 10_000,
            tag_stride: 0,
        }
    }
}

/// Per-rank task state: config + identity, plus the loop cursor and the
/// in-flight token.
#[derive(Clone)]
struct RingState {
    cfg: RingConfig,
    rank: usize,
    site: SiteId,
    round: i64,
    tok: Payload,
}

impl RingState {
    fn next(&self) -> Rank {
        Rank(((self.rank + 1) % self.cfg.nprocs) as u32)
    }
    fn prev(&self) -> Rank {
        Rank(((self.rank + self.cfg.nprocs - 1) % self.cfg.nprocs) as u32)
    }
    fn tag(&self) -> Tag {
        if self.cfg.tag_stride > 1 {
            Tag(TAG_TOKEN.0 + (self.round as usize % self.cfg.tag_stride) as i32)
        } else {
            TAG_TOKEN
        }
    }
}

fn node_prog() -> Prog<RingState> {
    Prog::seq(vec![
        Prog::act(|s: &mut RingState, v| s.site = v.site("ring.c", 12, "ring")),
        Prog::scope(
            |s: &mut RingState, _| (s.site, [s.rank as i64, s.cfg.rounds as i64]),
            Prog::for_range(
                |s: &RingState, _| (0, s.cfg.rounds as i64),
                |s: &mut RingState, i| s.round = i,
                Prog::if_else(
                    |s: &RingState, _| s.rank == 0,
                    // Rank 0 injects the token, then waits for it to return.
                    Prog::seq(vec![
                        Prog::op(|s: &mut RingState, _| TaskOp::Compute {
                            cost_ns: s.cfg.hop_cost,
                            site: s.site,
                        }),
                        Prog::op(|s: &mut RingState, _| TaskOp::Send {
                            dst: s.next(),
                            tag: s.tag(),
                            payload: Payload::from_i64(s.round),
                            site: s.site,
                            mode: SendMode::Buffered,
                        }),
                        Prog::op_bind(
                            |s: &mut RingState, _| TaskOp::Recv {
                                src: Some(s.prev()),
                                tag: Some(s.tag()),
                                site: s.site,
                            },
                            |s, tok, _| {
                                assert_eq!(tok.message().payload.to_i64(), Some(s.round));
                            },
                        ),
                    ]),
                    Prog::seq(vec![
                        Prog::op_bind(
                            |s: &mut RingState, _| TaskOp::Recv {
                                src: Some(s.prev()),
                                tag: Some(s.tag()),
                                site: s.site,
                            },
                            |s, tok, _| s.tok = tok.message().payload,
                        ),
                        Prog::op(|s: &mut RingState, _| TaskOp::Compute {
                            cost_ns: s.cfg.hop_cost,
                            site: s.site,
                        }),
                        Prog::op(|s: &mut RingState, _| TaskOp::Send {
                            dst: s.next(),
                            tag: s.tag(),
                            payload: s.tok.clone(),
                            site: s.site,
                            mode: SendMode::Buffered,
                        }),
                    ]),
                ),
            ),
        ),
    ])
}

/// Build the ring programs.
pub fn programs(cfg: &RingConfig) -> Vec<RankProgram> {
    assert!(cfg.nprocs >= 2);
    let prog = node_prog();
    (0..cfg.nprocs)
        .map(|r| {
            RankProgram::task(
                RingState {
                    cfg: *cfg,
                    rank: r,
                    site: SiteId(0),
                    round: 0,
                    tok: Payload::empty(),
                },
                prog.clone(),
            )
        })
        .collect()
}

/// A reusable factory for debugger sessions.
pub fn factory(cfg: RingConfig) -> impl Fn() -> Vec<RankProgram> + Send + Sync {
    move || programs(&cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tracedbg_mpsim::{Engine, EngineConfig, RecorderConfig};
    use tracedbg_trace::EventKind;

    #[test]
    fn ring_completes_all_rounds() {
        let cfg = RingConfig::default();
        let mut e = Engine::launch(
            EngineConfig::with_recorder(RecorderConfig::full()),
            programs(&cfg),
        );
        assert!(e.run().is_completed());
        let store = e.trace_store();
        assert_eq!(
            store.of_kind(EventKind::Send).len(),
            cfg.nprocs * cfg.rounds
        );
        assert_eq!(
            store.of_kind(EventKind::RecvDone).len(),
            cfg.nprocs * cfg.rounds
        );
    }

    #[test]
    fn two_node_ring() {
        let cfg = RingConfig {
            nprocs: 2,
            rounds: 5,
            hop_cost: 100,
            tag_stride: 0,
        };
        let mut e = Engine::launch(
            EngineConfig::with_recorder(RecorderConfig::comm_only()),
            programs(&cfg),
        );
        assert!(e.run().is_completed());
    }

    #[test]
    fn tag_stride_spreads_rounds_over_distinct_tags() {
        let cfg = RingConfig {
            nprocs: 3,
            rounds: 8,
            hop_cost: 100,
            tag_stride: 4,
        };
        let mut e = Engine::launch(
            EngineConfig::with_recorder(RecorderConfig::comm_only()),
            programs(&cfg),
        );
        assert!(e.run().is_completed());
        let store = e.trace_store();
        let mut tags: Vec<i32> = store
            .records()
            .iter()
            .filter(|r| r.kind == EventKind::Send)
            .filter_map(|r| r.msg.as_ref().map(|m| m.tag.0))
            .collect();
        let sends = tags.len();
        tags.sort();
        tags.dedup();
        assert_eq!(tags, vec![20, 21, 22, 23]);
        // Each tag carries exactly rounds/stride of the traffic.
        assert_eq!(sends, cfg.rounds * cfg.nprocs);
    }
}
