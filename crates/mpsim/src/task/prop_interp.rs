//! `TaskInterp` against a recursive reference evaluator: for generated
//! program shapes the frame-stack interpreter must yield the same ops and
//! end in the same state as a plain recursive walk of the same shape, and
//! a `snapshot()` taken at any yield must continue to the same suffix.

use super::*;
use proptest::prelude::*;
use proptest::strategy::FnStrategy;

#[derive(Clone, Debug, PartialEq)]
struct St {
    acc: i64,
    /// Iterations all `While` loops together may still run.
    budget: u32,
}

/// What a program does, as data: [`build`] turns it into a `Prog`,
/// [`eval`] runs it directly.
#[derive(Clone, Debug)]
enum Shape {
    Seq(Vec<Shape>),
    Act(i64),
    /// Yields `Compute` — or `Nop` when `acc` is a multiple of `nop_every`.
    Op {
        nop_every: i64,
        bind: bool,
    },
    Scope(u32, Box<Shape>),
    If(i64, Box<Shape>, Box<Shape>),
    When(i64, Box<Shape>),
    For(i64, i64, Box<Shape>),
    While(Box<Shape>),
    /// Built when reached; the closure also touches the state.
    Gen(Box<Shape>),
}

#[derive(Clone, Debug, PartialEq)]
enum Seen {
    Compute(u64),
    Enter(u32, i64),
    Exit(u32),
}

fn mix(acc: i64, k: i64) -> i64 {
    acc.wrapping_mul(31).wrapping_add(k)
}

fn divides(m: i64, acc: i64) -> bool {
    acc.rem_euclid(m) == 0
}

fn build(shape: &Shape) -> Prog<St> {
    match shape {
        Shape::Seq(items) => Prog::seq(items.iter().map(build).collect()),
        Shape::Act(k) => {
            let k = *k;
            Prog::act(move |s: &mut St, _| s.acc = mix(s.acc, k))
        }
        Shape::Op { nop_every, bind } => {
            let m = *nop_every;
            let emit = move |s: &mut St, _: &TaskView<'_>| {
                if divides(m, s.acc) {
                    s.acc = mix(s.acc, 1);
                    TaskOp::Nop
                } else {
                    TaskOp::Compute {
                        cost_ns: s.acc as u64,
                        site: SiteId(0),
                    }
                }
            };
            if *bind {
                Prog::op_bind(emit, |s, _, _| s.acc = mix(s.acc, 2))
            } else {
                Prog::op(emit)
            }
        }
        Shape::Scope(site, body) => {
            let site = *site;
            Prog::scope(move |s: &mut St, _| (SiteId(site), [s.acc, 0]), build(body))
        }
        Shape::If(m, then, els) => {
            let m = *m;
            Prog::if_else(move |s: &St, _| divides(m, s.acc), build(then), build(els))
        }
        Shape::When(m, then) => {
            let m = *m;
            Prog::when(move |s: &St, _| divides(m, s.acc), build(then))
        }
        Shape::For(start, end, body) => {
            let range = (*start, *end);
            Prog::for_range(
                move |_, _| range,
                |s: &mut St, i| s.acc = mix(s.acc, i),
                build(body),
            )
        }
        Shape::While(body) => Prog::while_loop(
            |s: &St, _| s.budget > 0,
            Prog::seq(vec![Prog::act(|s: &mut St, _| s.budget -= 1), build(body)]),
        ),
        Shape::Gen(inner) => {
            let inner = (**inner).clone();
            Prog::gen(move |s: &mut St, _| {
                s.acc = mix(s.acc, 3);
                build(&inner)
            })
        }
    }
}

/// The reference: a recursive walk, ops appended to `out`.
fn eval(shape: &Shape, s: &mut St, out: &mut Vec<Seen>) {
    match shape {
        Shape::Seq(items) => items.iter().for_each(|i| eval(i, s, out)),
        Shape::Act(k) => s.acc = mix(s.acc, *k),
        Shape::Op { nop_every, bind } => {
            if divides(*nop_every, s.acc) {
                s.acc = mix(s.acc, 1);
            } else {
                out.push(Seen::Compute(s.acc as u64));
                if *bind {
                    s.acc = mix(s.acc, 2);
                }
            }
        }
        Shape::Scope(site, body) => {
            out.push(Seen::Enter(*site, s.acc));
            eval(body, s, out);
            out.push(Seen::Exit(*site));
        }
        Shape::If(m, then, els) => {
            let branch = if divides(*m, s.acc) { then } else { els };
            eval(branch, s, out);
        }
        Shape::When(m, then) => {
            if divides(*m, s.acc) {
                eval(then, s, out);
            }
        }
        Shape::For(start, end, body) => {
            for i in *start..*end {
                s.acc = mix(s.acc, i);
                eval(body, s, out);
            }
        }
        Shape::While(body) => {
            while s.budget > 0 {
                s.budget -= 1;
                eval(body, s, out);
            }
        }
        Shape::Gen(inner) => {
            s.acc = mix(s.acc, 3);
            eval(inner, s, out);
        }
    }
}

fn arb_shape(rng: &mut TestRng, depth: u32) -> Shape {
    let sub = |rng: &mut TestRng| Box::new(arb_shape(rng, depth - 1));
    let modulus = |rng: &mut TestRng| 1 + rng.below(3) as i64;
    match if depth == 0 {
        rng.below(2)
    } else {
        rng.below(9)
    } {
        0 => Shape::Act(rng.below(7) as i64),
        1 => Shape::Op {
            nop_every: 1 + rng.below(4) as i64,
            bind: rng.below(2) == 0,
        },
        // Empty, single and nested sequences.
        2 => Shape::Seq((0..rng.below(4)).map(|_| *sub(rng)).collect()),
        3 => Shape::Scope(rng.below(5) as u32, sub(rng)),
        4 => Shape::If(modulus(rng), sub(rng), sub(rng)),
        5 => Shape::When(modulus(rng), sub(rng)),
        // Zero-trip (`start == end`) and backwards (`start > end`) ranges.
        6 => Shape::For(rng.below(3) as i64, rng.below(4) as i64, sub(rng)),
        7 => Shape::While(sub(rng)),
        _ => Shape::Gen(sub(rng)),
    }
}

fn seen(op: TaskOp) -> Option<Seen> {
    match op {
        TaskOp::Compute { cost_ns, .. } => Some(Seen::Compute(cost_ns)),
        TaskOp::Enter { site, args } => Some(Seen::Enter(site.0, args[0])),
        TaskOp::Exit { site } => Some(Seen::Exit(site.0)),
        TaskOp::Done => None,
        _ => panic!("the interpreter yielded an op no shape emits (a Nop is skipped inside it)"),
    }
}

fn drain(task: &mut dyn TaskProgram, view: &TaskView<'_>) -> Vec<Seen> {
    std::iter::from_fn(|| seen(task.next(OpResult::None, view))).collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    #[test]
    fn interp_matches_the_recursive_reference(
        shape in FnStrategy::new(|rng: &mut TestRng| {
            Shape::Seq((0..3 + rng.below(4)).map(|_| arb_shape(rng, 4)).collect())
        }),
        acc in 0i64..50,
    ) {
        let start = St { acc, budget: 5 };
        let mut want_state = start.clone();
        let mut want = Vec::new();
        eval(&shape, &mut want_state, &mut want);

        let sites = SiteTable::new();
        let view = TaskView { rank: Rank(0), n_ranks: 1, sites: &sites };
        let mut interp = TaskInterp::new(start, build(&shape));
        let mut got = Vec::new();
        while let Some(op) = seen(interp.next(OpResult::None, &view)) {
            got.push(op);
            let suffix = drain(&mut *interp.snapshot(), &view);
            prop_assert_eq!(&suffix[..], &want[got.len()..], "snapshot after {} ops of {:?}", got.len(), shape);
        }
        prop_assert_eq!(&got, &want, "{:?}", shape);
        prop_assert_eq!(&interp.state, &want_state, "{:?}", shape);
        prop_assert!(interp.stack.is_empty());
    }
}
