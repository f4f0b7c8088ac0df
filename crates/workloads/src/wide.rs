//! Wide-rank workload generators: communication patterns sized for
//! thousands of ranks on the task engine.
//!
//! Three shapes exercise the scheduler at scale:
//!
//! * a **1024-rank token ring** (just [`crate::ring`] with a wide
//!   config — re-exported here as [`wide_ring`] for discoverability),
//! * a **2D stencil halo exchange** on a `p × p` process grid (32×32 =
//!   1024 ranks): each step every rank sends its value to its N/S/E/W
//!   neighbours with buffered sends, then posts directed receives —
//!   deadlock-free by construction because no send ever blocks,
//! * a **butterfly reduction** over `2^k` ranks: `log2(n)` stages, at
//!   stage `s` rank `r` exchanges with partner `r ^ (1 << s)` and
//!   accumulates; after the last stage *every* rank holds the global
//!   sum (an allreduce without a root).

use tracedbg_mpsim::task::TaskOp;
use tracedbg_mpsim::{Payload, Prog, Rank, RankProgram, SendMode, SiteId, SiteKey, Tag};
use tracedbg_trace::Label;

use crate::ring::{self, RingConfig};

// Tags: the stencil alternates two tags across steps so a fast
// neighbour's step-`k+1` halo can never match a slow rank's step-`k`
// receive; the butterfly gives every stage its own tag.
const TAG_HALO: i32 = 40;
const TAG_BFLY: i32 = 60;

/// A 1024-rank ring config (`rounds` small so a full run stays cheap).
pub fn wide_ring_config(nprocs: usize, rounds: usize) -> RingConfig {
    RingConfig {
        nprocs,
        rounds,
        hop_cost: 0,
        tag_stride: 0,
    }
}

/// Task-backed programs for a wide ring (thin wrapper over
/// [`crate::ring::programs`]).
pub fn wide_ring(nprocs: usize, rounds: usize) -> Vec<RankProgram> {
    ring::programs(&wide_ring_config(nprocs, rounds))
}

// ---------------------------------------------------------------------------
// 2D stencil halo exchange
// ---------------------------------------------------------------------------

/// Stencil parameters: a `p × p` rank grid iterated for `steps` halo
/// exchanges.
#[derive(Clone, Copy, Debug)]
pub struct StencilConfig {
    /// Grid side; the workload uses `p * p` ranks.
    pub p: usize,
    /// Number of halo-exchange steps.
    pub steps: usize,
}

impl Default for StencilConfig {
    fn default() -> Self {
        StencilConfig { p: 32, steps: 4 }
    }
}

#[derive(Clone)]
struct StencilState {
    cfg: StencilConfig,
    rank: usize,
    site: SiteId,
    /// N/S/W/E neighbours that exist for this rank, in fixed order.
    nbrs: Vec<Rank>,
    step: i64,
    /// Neighbour cursor within the current send/recv sweep.
    ni: i64,
    /// The cell value carried across steps.
    val: i64,
    /// Halo accumulator for the step in flight.
    acc: i64,
}

impl StencilState {
    fn tag(&self) -> Tag {
        // Two alternating tags: step k+1 halos can never satisfy a
        // step-k receive even though sends are buffered (and channel
        // FIFO already orders same-tag traffic).
        Tag(TAG_HALO + (self.step % 2) as i32)
    }
}

fn stencil_neighbors(p: usize, rank: usize) -> Vec<Rank> {
    let (row, col) = (rank / p, rank % p);
    let mut nbrs = Vec::with_capacity(4);
    if row > 0 {
        nbrs.push(Rank(((row - 1) * p + col) as u32)); // north
    }
    if row + 1 < p {
        nbrs.push(Rank(((row + 1) * p + col) as u32)); // south
    }
    if col > 0 {
        nbrs.push(Rank((row * p + col - 1) as u32)); // west
    }
    if col + 1 < p {
        nbrs.push(Rank((row * p + col + 1) as u32)); // east
    }
    nbrs
}

fn stencil_prog() -> Prog<StencilState> {
    let stencil_val = Label::new("stencil_val");
    Prog::seq(vec![
        Prog::act({
            let key = SiteKey::new("stencil.c", 17, "halo_exchange");
            move |s: &mut StencilState, v| s.site = v.site_of(key)
        }),
        Prog::scope(
            |s: &mut StencilState, _| (s.site, [s.rank as i64, s.cfg.steps as i64]),
            Prog::for_range(
                |s: &StencilState, _| (0, s.cfg.steps as i64),
                |s: &mut StencilState, i| {
                    s.step = i;
                    s.acc = s.val;
                },
                Prog::seq(vec![
                    // Phase 1: buffered sends to every existing
                    // neighbour — never blocks, so the exchange is
                    // deadlock-free regardless of scheduling order.
                    Prog::for_range(
                        |s: &StencilState, _| (0, s.nbrs.len() as i64),
                        |s: &mut StencilState, i| s.ni = i,
                        Prog::op(|s: &mut StencilState, _| TaskOp::Send {
                            dst: s.nbrs[s.ni as usize],
                            tag: s.tag(),
                            payload: Payload::from_i64(s.val),
                            site: s.site,
                            mode: SendMode::Buffered,
                        }),
                    ),
                    // Phase 2: directed receives, one per neighbour,
                    // in the same fixed order.
                    Prog::for_range(
                        |s: &StencilState, _| (0, s.nbrs.len() as i64),
                        |s: &mut StencilState, i| s.ni = i,
                        Prog::op_bind(
                            |s: &mut StencilState, _| TaskOp::Recv {
                                src: Some(s.nbrs[s.ni as usize]),
                                tag: Some(s.tag()),
                                site: s.site,
                            },
                            |s, m, _| {
                                s.acc += m.message().payload.to_i64().unwrap_or(0);
                            },
                        ),
                    ),
                    // Jacobi-style relaxation on integers: the new
                    // cell value is the mean of self + halo.
                    Prog::act(|s: &mut StencilState, _| {
                        s.val = s.acc / (s.nbrs.len() as i64 + 1);
                    }),
                ]),
            ),
        ),
        Prog::op(move |s: &mut StencilState, _| TaskOp::Probe {
            label: stencil_val,
            value: s.val,
            site: s.site,
        }),
    ])
}

/// The `p × p` stencil programs (task-backed), from a factory that builds
/// the program once.
pub fn stencil_factory(cfg: StencilConfig) -> impl Fn() -> Vec<RankProgram> + Send + Sync {
    assert!(cfg.p >= 2, "stencil needs at least a 2x2 grid");
    let prog = stencil_prog();
    move || {
        (0..cfg.p * cfg.p)
            .map(|r| {
                RankProgram::task(
                    StencilState {
                        cfg,
                        rank: r,
                        site: SiteId(0),
                        nbrs: stencil_neighbors(cfg.p, r),
                        step: 0,
                        ni: 0,
                        // A corner spike so the relaxation has a gradient
                        // to diffuse.
                        val: if r == 0 { 1 << 20 } else { 0 },
                        acc: 0,
                    },
                    prog.clone(),
                )
            })
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Butterfly reduction
// ---------------------------------------------------------------------------

/// Butterfly parameters: `nprocs` must be a power of two.
#[derive(Clone, Copy, Debug)]
pub struct ButterflyConfig {
    pub nprocs: usize,
}

impl Default for ButterflyConfig {
    fn default() -> Self {
        ButterflyConfig { nprocs: 1024 }
    }
}

#[derive(Clone)]
struct BflyState {
    nprocs: usize,
    rank: usize,
    site: SiteId,
    stage: i64,
    acc: i64,
}

impl BflyState {
    fn partner(&self) -> Rank {
        Rank((self.rank ^ (1usize << self.stage)) as u32)
    }
    fn tag(&self) -> Tag {
        Tag(TAG_BFLY + self.stage as i32)
    }
}

fn bfly_prog() -> Prog<BflyState> {
    let bfly_sum = Label::new("bfly_sum");
    Prog::seq(vec![
        Prog::act({
            let key = SiteKey::new("butterfly.c", 9, "allreduce");
            move |s: &mut BflyState, v| s.site = v.site_of(key)
        }),
        Prog::scope(
            |s: &mut BflyState, _| (s.site, [s.rank as i64, s.nprocs.trailing_zeros() as i64]),
            Prog::for_range(
                |s: &BflyState, _| (0, s.nprocs.trailing_zeros() as i64),
                |s: &mut BflyState, i| s.stage = i,
                Prog::seq(vec![
                    // Buffered send to the stage partner, then the
                    // matching directed receive: symmetric, so both
                    // sides progress without blocking on the send.
                    Prog::op(|s: &mut BflyState, _| TaskOp::Send {
                        dst: s.partner(),
                        tag: s.tag(),
                        payload: Payload::from_i64(s.acc),
                        site: s.site,
                        mode: SendMode::Buffered,
                    }),
                    Prog::op_bind(
                        |s: &mut BflyState, _| TaskOp::Recv {
                            src: Some(s.partner()),
                            tag: Some(s.tag()),
                            site: s.site,
                        },
                        |s, m, _| {
                            s.acc += m.message().payload.to_i64().unwrap_or(0);
                        },
                    ),
                ]),
            ),
        ),
        Prog::op(move |s: &mut BflyState, _| TaskOp::Probe {
            label: bfly_sum,
            value: s.acc,
            site: s.site,
        }),
    ])
}

/// Build the butterfly programs (task-backed). Every rank starts with
/// value `rank + 1`, so the reduced sum is `n * (n + 1) / 2`.
/// The factory builds the program once.
pub fn butterfly_factory(cfg: ButterflyConfig) -> impl Fn() -> Vec<RankProgram> + Send + Sync {
    assert!(
        cfg.nprocs >= 2 && cfg.nprocs.is_power_of_two(),
        "butterfly needs a power-of-two rank count"
    );
    let prog = bfly_prog();
    move || {
        (0..cfg.nprocs)
            .map(|r| {
                RankProgram::task(
                    BflyState {
                        nprocs: cfg.nprocs,
                        rank: r,
                        site: SiteId(0),
                        stage: 0,
                        acc: r as i64 + 1,
                    },
                    prog.clone(),
                )
            })
            .collect()
    }
}

/// The global sum every rank must hold after the reduction.
pub fn butterfly_expected_sum(nprocs: usize) -> i64 {
    (nprocs as i64) * (nprocs as i64 + 1) / 2
}

#[cfg(test)]
mod tests {
    use super::*;
    use tracedbg_mpsim::{Engine, EngineConfig, RecorderConfig, SchedPolicy};
    use tracedbg_trace::EventKind;

    fn run(programs: Vec<RankProgram>) -> tracedbg_trace::TraceStore {
        let mut e = Engine::launch(
            EngineConfig::with_recorder(RecorderConfig::full()),
            programs,
        );
        assert!(e.run().is_completed(), "wide workload must not deadlock");
        e.trace_store()
    }

    #[test]
    fn stencil_small_grid_is_deadlock_free() {
        let cfg = StencilConfig { p: 4, steps: 3 };
        let store = run(stencil_factory(cfg)());
        // Every rank sends one halo per neighbour per step.
        let expected_sends: usize = (0..cfg.p * cfg.p)
            .map(|r| stencil_neighbors(cfg.p, r).len())
            .sum::<usize>()
            * cfg.steps;
        assert_eq!(store.of_kind(EventKind::Send).len(), expected_sends);
        assert_eq!(store.of_kind(EventKind::RecvDone).len(), expected_sends);
    }

    #[test]
    fn stencil_diffuses_the_corner_spike() {
        let cfg = StencilConfig { p: 4, steps: 6 };
        let store = run(stencil_factory(cfg)());
        let probes: Vec<i64> = store
            .records()
            .iter()
            .filter(|r| r.kind == EventKind::Probe)
            .map(|r| r.args[0])
            .collect();
        assert_eq!(probes.len(), cfg.p * cfg.p);
        // The spike has spread: more than one rank holds a nonzero
        // value, and nobody still holds the full spike.
        assert!(probes.iter().filter(|&&v| v > 0).count() > 1);
        assert!(probes.iter().all(|&v| v < 1 << 20));
    }

    #[test]
    fn stencil_is_seed_independent() {
        let cfg = StencilConfig { p: 3, steps: 4 };
        let collect = |seed: u64| {
            let mut e = Engine::launch(
                EngineConfig {
                    policy: SchedPolicy::Seeded(seed),
                    recorder: RecorderConfig::full(),
                    ..Default::default()
                },
                stencil_factory(cfg)(),
            );
            assert!(e.run().is_completed());
            let store = e.trace_store();
            store
                .records()
                .iter()
                .filter(|r| r.kind == EventKind::Probe)
                .map(|r| r.args[0])
                .collect::<Vec<i64>>()
        };
        // All receives are directed, so the numeric outcome cannot
        // depend on the schedule.
        assert_eq!(collect(3), collect(999));
    }

    #[test]
    fn butterfly_every_rank_holds_global_sum() {
        let cfg = ButterflyConfig { nprocs: 16 };
        let store = run(butterfly_factory(cfg)());
        let expected = butterfly_expected_sum(cfg.nprocs);
        let probes: Vec<i64> = store
            .records()
            .iter()
            .filter(|r| r.kind == EventKind::Probe)
            .map(|r| r.args[0])
            .collect();
        assert_eq!(probes.len(), cfg.nprocs);
        assert!(probes.iter().all(|&v| v == expected));
    }

    #[test]
    fn butterfly_256_ranks() {
        let cfg = ButterflyConfig { nprocs: 256 };
        let store = run(butterfly_factory(cfg)());
        let expected = butterfly_expected_sum(cfg.nprocs);
        assert!(store
            .records()
            .iter()
            .filter(|r| r.kind == EventKind::Probe)
            .all(|r| r.args[0] == expected));
        // log2(256) = 8 stages, one send per rank per stage.
        assert_eq!(store.of_kind(EventKind::Send).len(), 256 * 8);
    }

    /// The headline scale test: 1024 ranks of each shape complete.
    /// Cheap on the task engine — no OS threads are spawned.
    #[test]
    fn wide_1024_rank_workloads_complete() {
        // 32x32 stencil, one step.
        let store = run(stencil_factory(StencilConfig { p: 32, steps: 1 })());
        assert_eq!(
            store
                .records()
                .iter()
                .filter(|r| r.kind == EventKind::Probe)
                .count(),
            1024
        );
        // 1024-rank butterfly (10 stages).
        let store = run(butterfly_factory(ButterflyConfig { nprocs: 1024 })());
        let expected = butterfly_expected_sum(1024);
        assert!(store
            .records()
            .iter()
            .filter(|r| r.kind == EventKind::Probe)
            .all(|r| r.args[0] == expected));
        // 1024-rank ring, one round.
        let store = run(wide_ring(1024, 1));
        assert_eq!(store.of_kind(EventKind::Send).len(), 1024);
    }
}
