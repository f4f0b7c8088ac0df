//! A checkpoint shares every rank and log chunk with the engine it was
//! taken from, so nothing the engine does next may write through to it.
//! At a stop at a sampled depth (decision index k) the engine is
//! snapshotted and a deep copy of the snapshot is set aside as the oracle
//! ([`EngineCheckpoint::deep_clone`]). The engine is then driven on the way
//! a debugger drives it: thresholds, a breakpoint and a watchpoint armed
//! and cleared, single ranks stepped while the rest hold (which delivers
//! into and out of mailboxes the snapshot shares), more snapshots taken
//! along the way, the trace gathered, and the run finished. Then each
//! snapshot is restored twice, one copy after the other, and each copy is
//! run on, first with what was armed still armed and then disarmed to the
//! end: both must go exactly where the restored oracle goes — where the
//! armed run stops, the outcome, digest, trace and decision log.
//!
//! The workloads are small stand-ins for the benchmark's: a 16–100-rank
//! five-point stencil (more than one block of ranks from 65 on, so a
//! write in one block is checked against the blocks beside it), a seeded 8-rank transfer pattern of 400 messages
//! with wildcard receives, and a 16-rank wildcard fan-in with a planted
//! ordering bug, each under zero to two crash, hang or delay faults on
//! the first eight ranks (drawn by the one fault-plan generator in test
//! code, `tests/oracle/faults.rs`).

/// The one generator of fault plans in test code, shared with the
/// determinism oracle.
#[path = "../../../../tests/oracle/faults.rs"]
mod faults;

use super::*;
use crate::engine::{Engine, EngineConfig, RankProgram};
use crate::fault::FaultPlan;
use crate::ops::SendMode;
use crate::payload::Payload;
use crate::sched::SchedPolicy;
use crate::task::{Prog, TaskOp, TaskView};
use faults::faults_on;
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use tracedbg_instrument::{RecorderConfig, Watch, WatchCond};
use tracedbg_trace::{Fault, Label, SiteId, Tag};

fn site(v: &TaskView<'_>) -> SiteId {
    v.site("prop_cow.rs", v.rank.0 + 1, "rank")
}

fn value(r: crate::task::OpResult) -> i64 {
    r.message().payload.to_i64().unwrap()
}

/// Per-rank state of every workload here.
#[derive(Clone, Default)]
struct St {
    rank: u32,
    /// Peers (stencil neighbours, fan-in workers).
    peers: Vec<u32>,
    /// Loop index.
    i: i64,
    acc: i64,
}

fn ranks(n: usize, peers: impl Fn(u32) -> Vec<u32>, prog: &Prog<St>) -> Vec<RankProgram> {
    (0..n as u32)
        .map(|rank| {
            let st = St {
                rank,
                peers: peers(rank),
                ..St::default()
            };
            RankProgram::task(st, prog.clone())
        })
        .collect()
}

fn probe() -> Prog<St> {
    let label = Label::new("acc");
    Prog::op(move |s: &mut St, v| TaskOp::Probe {
        label,
        value: s.acc,
        site: site(v),
    })
}

/// A `p`×`p` five-point stencil: every step each rank computes, sends its
/// value to each neighbour and receives one from each, inside a scope;
/// every third rank asks for a trace flush each step (a no-op: its
/// records are already collected).
fn stencil(p: usize, steps: i64) -> Vec<RankProgram> {
    let peer = |s: &St| s.peers[s.i as usize];
    let each_peer = |body: Prog<St>| {
        Prog::for_range(
            |s: &St, _| (0, s.peers.len() as i64),
            |s: &mut St, i| s.i = i,
            body,
        )
    };
    let step = Prog::seq(vec![
        Prog::op(|s: &mut St, v| TaskOp::Compute {
            cost_ns: 100 + 7 * s.rank as u64,
            site: site(v),
        }),
        each_peer(Prog::op(move |s: &mut St, v| TaskOp::Send {
            dst: Rank(peer(s)),
            tag: Tag(1),
            payload: Payload::from_i64(s.acc),
            site: site(v),
            mode: SendMode::Buffered,
        })),
        each_peer(Prog::op_bind(
            move |s: &mut St, v| TaskOp::Recv {
                src: Some(Rank(peer(s))),
                tag: Some(Tag(1)),
                site: site(v),
            },
            |s: &mut St, r, _| s.acc = s.acc.wrapping_mul(3).wrapping_add(value(r)),
        )),
        probe(),
        Prog::when(
            |s: &St, _| s.rank % 3 == 0,
            Prog::op(|_: &mut St, _| TaskOp::FlushTrace),
        ),
    ]);
    let prog = Prog::scope(
        |s: &mut St, v| (site(v), [s.rank as i64, 0]),
        Prog::seq(vec![
            Prog::act(|s: &mut St, _| s.acc = s.rank as i64),
            Prog::for_range(move |_, _| (0, steps), |_, _| {}, step),
        ]),
    );
    let neighbours = |r: u32| {
        let (p, (x, y)) = (p as u32, (r % p as u32, r / p as u32));
        let mut out = Vec::new();
        if y > 0 {
            out.push(r - p);
        }
        if x > 0 {
            out.push(r - 1);
        }
        if x + 1 < p {
            out.push(r + 1);
        }
        if y + 1 < p {
            out.push(r + p);
        }
        out
    };
    ranks(p * p, neighbours, &prog)
}

/// A seeded pattern of `n_transfers` transfers among 8 ranks, executed in
/// pattern order by every rank; odd tags are received from any source.
/// Deadlock-free: a receive only waits on sends that precede it in the
/// pattern.
fn random(seed: u64, n_transfers: usize) -> Vec<RankProgram> {
    const N: u32 = 8;
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let pattern: Arc<[(u32, u32, i32)]> = (0..n_transfers)
        .map(|_| {
            let src = rng.gen_range(0..N);
            let dst = (src + rng.gen_range(1..N)) % N;
            (src, dst, rng.gen_range(0..4))
        })
        .collect();
    // Each closure owns a handle on the pattern; `at` reads the current
    // transfer.
    let on = |f: fn(&St, (u32, u32, i32)) -> bool| {
        let pattern = pattern.clone();
        move |s: &St, _: &TaskView<'_>| f(s, pattern[s.i as usize])
    };
    let (sends, recvs) = (pattern.clone(), pattern.clone());
    let body = Prog::seq(vec![
        Prog::when(
            on(|s, (src, _, _)| src == s.rank),
            Prog::op(move |s: &mut St, v| {
                let (_, dst, tag) = sends[s.i as usize];
                TaskOp::Send {
                    dst: Rank(dst),
                    tag: Tag(tag),
                    payload: Payload::from_i64(s.i),
                    site: site(v),
                    mode: SendMode::Buffered,
                }
            }),
        ),
        Prog::when(
            on(|s, (_, dst, _)| dst == s.rank),
            Prog::seq(vec![
                Prog::op_bind(
                    move |s: &mut St, v| {
                        let (src, _, tag) = recvs[s.i as usize];
                        TaskOp::Recv {
                            src: (tag % 2 == 0).then_some(Rank(src)),
                            tag: Some(Tag(tag)),
                            site: site(v),
                        }
                    },
                    |s: &mut St, r, _| s.acc = s.acc.wrapping_add(value(r)),
                ),
                probe(),
            ]),
        ),
    ]);
    let len = pattern.len() as i64;
    let prog = Prog::for_range(move |_, _| (0, len), |s: &mut St, i| s.i = i, body);
    ranks(N as usize, |_| Vec::new(), &prog)
}

/// Rank 0 takes one report from each of `n - 1` workers by wildcard
/// receive, then releases them — all but rank 2 when rank 2's report came
/// first (the planted bug: rank 2 then waits forever). Rank 1 works four
/// times faster than the rest, so round robin leaves the bug dormant.
fn planted_wildcard(n: usize) -> Vec<RankProgram> {
    let master = Prog::seq(vec![
        Prog::for_range(
            |s: &St, _| (0, s.peers.len() as i64),
            |s: &mut St, i| s.i = i,
            Prog::op_bind(
                |_: &mut St, v| TaskOp::Recv {
                    src: None,
                    tag: Some(Tag(7)),
                    site: site(v),
                },
                |s: &mut St, r, _| {
                    let from = r.message().src.0 as i64;
                    if s.i == 0 {
                        s.acc = from;
                    }
                },
            ),
        ),
        probe(),
        Prog::for_range(
            |s: &St, _| (0, s.peers.len() as i64),
            |s: &mut St, i| s.i = i,
            Prog::when(
                |s: &St, _| !(s.acc == 2 && s.peers[s.i as usize] == 2),
                Prog::op(|s: &mut St, v| TaskOp::Send {
                    dst: Rank(s.peers[s.i as usize]),
                    tag: Tag(8),
                    payload: Payload::from_i64(s.i),
                    site: site(v),
                    mode: SendMode::Buffered,
                }),
            ),
        ),
    ]);
    let worker = Prog::seq(vec![
        Prog::op(|s: &mut St, v| TaskOp::Compute {
            cost_ns: if s.rank == 1 { 1_000 } else { 4_000 },
            site: site(v),
        }),
        Prog::op(|s: &mut St, v| TaskOp::Send {
            dst: Rank(0),
            tag: Tag(7),
            payload: Payload::from_i64(s.rank as i64),
            site: site(v),
            mode: SendMode::Buffered,
        }),
        Prog::op_bind(
            |_: &mut St, v| TaskOp::Recv {
                src: Some(Rank(0)),
                tag: Some(Tag(8)),
                site: site(v),
            },
            |s: &mut St, r, _| s.acc = value(r),
        ),
        probe(),
    ]);
    let prog = Prog::if_else(|s: &St, _| s.rank == 0, master, worker);
    let peers = |r: u32| {
        if r == 0 {
            (1..n as u32).collect()
        } else {
            Vec::new()
        }
    };
    ranks(n, peers, &prog)
}

/// How a run goes on from a state: where it stops with what was armed
/// still armed, then how it ends disarmed, its digest, trace and decision
/// log.
type Ending = (String, String, u64, Vec<TraceRecord>, Vec<DecisionPoint>);

/// Release every rank and run on: first with whatever is armed still armed
/// (where that stops depends on it), then disarmed, to the end.
fn finish(e: &mut Engine) -> Ending {
    e.clear_pauses();
    e.resume_trapped();
    let armed = format!("{:?}", e.run());
    e.clear_thresholds();
    e.clear_breaks();
    e.clear_pauses();
    e.resume_trapped();
    let outcome = format!("{:?}", e.run());
    let trace = e.collect_trace().clone().into_vec();
    let decisions = e.decision_points().clone().into_vec();
    (armed, outcome, e.digest(), trace, decisions)
}

/// Step `rank` alone by one event while the rest hold.
fn step(e: &mut Engine, rank: Rank) {
    e.pause_all_but([rank]);
    e.set_threshold(rank, Some(e.markers().get(rank) + 1));
    e.resume_rank(rank);
    let _ = e.run();
    e.clear_pauses();
    e.set_threshold(rank, None);
}

/// The snapshots a [`drive`] took and how the driven run ended.
struct Driven {
    /// Taken with a breakpoint and a watchpoint armed, and its deep copy.
    armed: (EngineCheckpoint, EngineCheckpoint),
    /// Taken mid-run, if the run got that far.
    mid: Option<EngineCheckpoint>,
    ending: Ending,
}

/// What a debugger does to a stopped engine after a snapshot: disarm the
/// stop's thresholds, arm a breakpoint and a watchpoint, step ranks alone
/// while the rest hold (each armed and disarmed in turn), snapshot with
/// the breakpoint and watchpoint still armed, step on, disarm, gather the
/// trace, and run to the end, snapshotting once more `later` decisions on
/// (which may fall between a message's arrival and its match).
fn drive(e: &mut Engine, steps: &[u32], later: usize) -> Driven {
    let n = e.n_ranks() as u32;
    e.clear_thresholds();
    e.add_breakpoint(SiteId(0));
    e.add_watch(None, Watch::new("acc", WatchCond::Change));
    let (before, after) = steps.split_at(steps.len() / 2);
    before.iter().for_each(|r| step(e, Rank(r % n)));
    let armed = e.snapshot();
    let armed = (armed.deep_clone(), armed);
    after.iter().for_each(|r| step(e, Rank(r % n)));
    e.clear_breaks();
    let _ = e.collect_trace();
    e.clear_pauses();
    e.resume_trapped();
    let mid = e.run_to_snapshot(e.decision_points().len() + later).ok();
    Driven {
        armed,
        mid,
        ending: finish(e),
    }
}

/// Restore `cp` twice, one copy after the other, and check that each goes
/// on as `want` does.
fn restores_end_as(cp: &EngineCheckpoint, want: &Ending, case: &str) {
    for copy in ["first", "second"] {
        let got = finish(&mut Engine::restore(cp, Vec::new()));
        prop_assert_eq!(&got.0, &want.0, "{} restore, {}: armed stop", copy, case);
        prop_assert_eq!(&got.1, &want.1, "{} restore, {}: outcome", copy, case);
        prop_assert_eq!(got.2, want.2, "{} restore, {}: digest", copy, case);
        prop_assert!(got.3 == want.3, "{} restore, {}: trace", copy, case);
        prop_assert!(got.4 == want.4, "{} restore, {}: decision log", copy, case);
    }
}

/// Stop a run of `programs` at `num/den` of every rank's history, snapshot
/// it, drive the engine on, and compare two restores of each snapshot
/// with the restored deep copy taken beside it — or, for the snapshot the
/// drive took mid-run, with the driven engine's own ending. `false` when
/// the run ended (a fault, a deadlock) before the stop, so nothing was
/// checked.
fn isolated(
    programs: &dyn Fn() -> Vec<RankProgram>,
    seed: u64,
    faults: &[Fault],
    (num, den): (u64, u64),
    (steps, later): &(Vec<u32>, usize),
) -> bool {
    let cfg = || EngineConfig {
        policy: SchedPolicy::Seeded(seed),
        recorder: RecorderConfig::full(),
        faults: FaultPlan::new(faults.to_vec()),
        ..Default::default()
    };
    let mut straight = Engine::launch(cfg(), programs());
    let _ = straight.run();
    let end = straight.markers();
    let mut live = Engine::launch(cfg(), programs());
    for m in end.iter() {
        live.set_threshold(m.rank, Some((m.count * num / den).max(1)));
    }
    if !live.run().is_stopped() {
        return false;
    }
    let cp = live.snapshot();
    let oracle = cp.deep_clone();
    let driven = drive(&mut live, steps, *later);
    let case = format!(
        "seed {seed}, stop at {num}/{den}, steps {steps:?} then {later}, faults {faults:?}"
    );
    let restored = |cp: &EngineCheckpoint| finish(&mut Engine::restore(cp, Vec::new()));
    let want = restored(&oracle);
    prop_assert!(!want.3.is_empty());
    restores_end_as(&cp, &want, &format!("stop, {case}"));
    let (oracle, armed) = &driven.armed;
    restores_end_as(armed, &restored(oracle), &format!("armed, {case}"));
    if let Some(mid) = &driven.mid {
        restores_end_as(mid, &driven.ending, &format!("mid-run, {case}"));
    }
    true
}

fn arb_depth() -> impl Strategy<Value = (u64, u64)> {
    (1u64..8).prop_map(|num| (num, 8))
}

/// Ranks to step, then how many decisions later to snapshot mid-run.
fn arb_drive() -> impl Strategy<Value = (Vec<u32>, usize)> {
    (proptest::collection::vec(0u32..128, 1..10), 0usize..40)
}

/// A fixed case across a block boundary: 81 ranks, stepping the last rank
/// of the first block, the first of the second, and one deeper in.
#[test]
fn a_write_in_one_block_of_ranks_leaves_the_other_blocks_shared() {
    const { assert!(BLOCK < 81) };
    let steps = vec![BLOCK as u32 - 1, BLOCK as u32, 80, 3];
    assert!(isolated(&|| stencil(9, 3), 5, &[], (1, 2), &(steps, 7)));
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn stencil_checkpoints_are_isolated(
        p in 4usize..=10,
        seed in 0u64..1024,
        faults in faults_on(8),
        depth in arb_depth(),
        drive in arb_drive(),
    ) {
        let checked = isolated(&|| stencil(p, 3), seed, &faults, depth, &drive);
        prop_assert!(checked || !faults.is_empty(), "a fault-free stencil reaches every stop");
    }

    #[test]
    fn random_pattern_checkpoints_are_isolated(
        pattern in 0u64..1024,
        seed in 0u64..1024,
        faults in faults_on(8),
        depth in arb_depth(),
        drive in arb_drive(),
    ) {
        let checked = isolated(&|| random(pattern, 400), seed, &faults, depth, &drive);
        prop_assert!(checked || !faults.is_empty(), "a fault-free pattern reaches every stop");
    }

    #[test]
    fn planted_wildcard_checkpoints_are_isolated(
        seed in 0u64..1024,
        faults in faults_on(8),
        depth in arb_depth(),
        drive in arb_drive(),
    ) {
        isolated(&|| planted_wildcard(16), seed, &faults, depth, &drive);
    }
}
