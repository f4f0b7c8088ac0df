//! Seeded random communication patterns — the fuzzing workload.
//!
//! A pattern is a global sequence of transfers `(src, dst, tag, value)`;
//! each rank executes its slice of the sequence in order (sends buffered,
//! receives exact-source). Because a receive for transfer *k* waits only
//! on a send that precedes every later op of its sender, the dependency
//! order strictly decreases along any wait chain — patterns are
//! **deadlock-free by construction**, which makes them ideal inputs for
//! property tests (every run must complete; every vertical cut must be
//! consistent; matching must be a bijection). Task-backed: the jitter RNG
//! is part of the snapshot, so a restored rank draws the same stream.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::{Arc, OnceLock};
use tracedbg_mpsim::task::TaskOp;
use tracedbg_mpsim::{Payload, Prog, Rank, RankProgram, SendMode, SiteId, Tag};
use tracedbg_trace::Label;

/// One point-to-point transfer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Transfer {
    pub src: u32,
    pub dst: u32,
    pub tag: i32,
    pub value: i64,
}

/// A generated pattern; every launch of it shares its parts.
#[derive(Clone, Debug)]
pub struct Pattern {
    pub nprocs: usize,
    pub transfers: Arc<[Transfer]>,
    /// Rank `r`'s transfers (those it sends or receives), in pattern
    /// order, as indices into `transfers`: lane `r`.
    lanes: Arc<[Vec<u32>]>,
}

/// Generate a random pattern: `n_transfers` transfers between distinct
/// ranks with small tags, plus per-transfer compute jitter derived from
/// the same seed at execution time.
pub fn generate(seed: u64, nprocs: usize, n_transfers: usize) -> Pattern {
    assert!(nprocs >= 2);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let transfers: Arc<[Transfer]> = (0..n_transfers)
        .map(|i| {
            let src = rng.gen_range(0..nprocs as u32);
            let mut dst = rng.gen_range(0..nprocs as u32 - 1);
            if dst >= src {
                dst += 1;
            }
            Transfer {
                src,
                dst,
                tag: rng.gen_range(0..4),
                value: i as i64,
            }
        })
        .collect();
    // Each lane sized first, so the lanes take no more than they hold.
    let mut sizes = vec![0; nprocs];
    for t in transfers.iter() {
        sizes[t.src as usize] += 1;
        sizes[t.dst as usize] += 1;
    }
    let mut lanes: Vec<Vec<u32>> = sizes.into_iter().map(Vec::with_capacity).collect();
    for (i, t) in (0..).zip(transfers.iter()) {
        lanes[t.src as usize].push(i);
        lanes[t.dst as usize].push(i);
    }
    let lanes = lanes.into();
    Pattern {
        nprocs,
        transfers,
        lanes,
    }
}

/// Per-rank task state: the shared pattern, a cursor into the rank's
/// lane, the jitter RNG (cloned into snapshots mid-stream), and the last
/// received value.
#[derive(Clone)]
struct CommState {
    pat: Pattern,
    rank: usize,
    site: SiteId,
    rng: ChaCha8Rng,
    i: i64,
    got: i64,
}

impl CommState {
    fn cur(&self) -> Transfer {
        self.pat.transfers[self.pat.lanes[self.rank][self.i as usize] as usize]
    }
}

/// The program every rank of every pattern runs, built on first use.
fn pattern_prog() -> &'static Prog<CommState> {
    static PROG: OnceLock<Prog<CommState>> = OnceLock::new();
    PROG.get_or_init(|| {
        let got = Label::new("got");
        Prog::seq(vec![
            Prog::act(|s: &mut CommState, v| {
                s.site = v.site("random.comm", s.rank as u32 + 1, "pattern")
            }),
            Prog::for_range(
                |s: &CommState, _| (0, s.pat.lanes[s.rank].len() as i64),
                |s: &mut CommState, i| s.i = i,
                // A transfer of the lane is a send of this rank's or else a
                // receive.
                Prog::if_else(
                    |s: &CommState, _| s.cur().src as usize == s.rank,
                    Prog::seq(vec![
                        Prog::op(|s: &mut CommState, _| TaskOp::Compute {
                            cost_ns: s.rng.gen_range(0..5_000),
                            site: s.site,
                        }),
                        Prog::op(|s: &mut CommState, _| TaskOp::Send {
                            dst: Rank(s.cur().dst),
                            tag: Tag(s.cur().tag),
                            payload: Payload::from_i64(s.cur().value),
                            site: s.site,
                            mode: SendMode::Buffered,
                        }),
                    ]),
                    Prog::seq(vec![
                        Prog::op_bind(
                            |s: &mut CommState, _| TaskOp::Recv {
                                src: Some(Rank(s.cur().src)),
                                tag: Some(Tag(s.cur().tag)),
                                site: s.site,
                            },
                            |s, m, _| s.got = m.message().payload.to_i64().unwrap(),
                        ),
                        // Per-(src,dst,tag) FIFO: values on the same
                        // (src,tag) lane arrive in pattern order, but the
                        // payload always identifies the transfer.
                        Prog::op(move |s: &mut CommState, _| TaskOp::Probe {
                            label: got,
                            value: s.got,
                            site: s.site,
                        }),
                    ]),
                ),
            ),
        ])
    })
}

/// Build the per-rank programs executing a pattern: each rank holds the
/// pattern's shared parts and its own cursor and RNG.
pub fn programs(pattern: &Pattern, jitter_seed: u64) -> Vec<RankProgram> {
    (0..pattern.nprocs)
        .map(|r| {
            RankProgram::task(
                CommState {
                    pat: pattern.clone(),
                    rank: r,
                    site: SiteId(0),
                    rng: ChaCha8Rng::seed_from_u64(jitter_seed ^ r as u64),
                    i: 0,
                    got: 0,
                },
                pattern_prog().clone(),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tracedbg_mpsim::{Engine, EngineConfig, RecorderConfig};
    use tracedbg_trace::EventKind;

    #[test]
    fn patterns_always_complete() {
        for seed in 0..10 {
            let pat = generate(seed, 4, 30);
            let mut e = Engine::launch(
                EngineConfig::with_recorder(RecorderConfig::full()),
                programs(&pat, seed),
            );
            let out = e.run();
            assert!(out.is_completed(), "seed {seed}: {out:?}");
            let store = e.trace_store();
            assert_eq!(store.of_kind(EventKind::Send).len(), 30);
            assert_eq!(store.of_kind(EventKind::RecvDone).len(), 30);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        assert_eq!(generate(7, 5, 20).transfers, generate(7, 5, 20).transfers);
        assert_ne!(generate(7, 5, 20).transfers, generate(8, 5, 20).transfers);
    }

    #[test]
    fn src_ne_dst_always() {
        let pat = generate(3, 6, 200);
        assert!(pat.transfers.iter().all(|t| t.src != t.dst));
        assert!(pat
            .transfers
            .iter()
            .all(|t| (t.src as usize) < 6 && (t.dst as usize) < 6));
    }
}
