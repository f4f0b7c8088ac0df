//! The one generator of fault plans in test code. The determinism oracle
//! (`tests/oracle.rs`) draws its cases' plans here, and so does every
//! property test that runs under faults, through a `#[path]` module.
#![allow(dead_code)] // every test binary uses its own subset

use proptest::prelude::TestRng;
use proptest::strategy::FnStrategy;
use tracedbg_trace::schedule::Fault;
use tracedbg_trace::Rank;

pub fn crash(rank: u32, after_ops: u64) -> Fault {
    let rank = Rank(rank);
    Fault::Crash { rank, after_ops }
}

pub fn hang(rank: u32, after_ops: u64) -> Fault {
    let rank = Rank(rank);
    Fault::Hang { rank, after_ops }
}

pub fn delay(src: u32, dst: u32, nth: u64, extra_ns: u64) -> Fault {
    let (src, dst) = (Rank(src), Rank(dst));
    Fault::Delay {
        src,
        dst,
        nth,
        extra_ns,
    }
}

/// Zero to two faults on ranks below `procs`; half of them delays, which
/// only move time.
pub fn arb_faults(rng: &mut TestRng, procs: u32) -> Vec<Fault> {
    let n = [0, 0, 0, 1, 1, 2][rng.below(6) as usize];
    let mut draw = |k: u32| rng.below(k.into()) as u32;
    let faults = (0..n).map(|_| match draw(4) {
        0 => crash(draw(procs), draw(12).into()),
        1 => hang(draw(procs), draw(12).into()),
        _ => delay(
            draw(procs),
            draw(procs),
            draw(3).into(),
            1 + draw(5_000) as u64,
        ),
    });
    faults.collect()
}

/// A plan at a time, for a `proptest!` argument.
pub fn faults_on(procs: u32) -> FnStrategy<impl Fn(&mut TestRng) -> Vec<Fault>> {
    FnStrategy::new(move |rng: &mut TestRng| arb_faults(rng, procs))
}
