//! Soundness of the static analysis: the may-match relation is an
//! over-approximation of *every* dynamic execution. Whatever the
//! scheduler does — seeded match races, injected delays, crashes, hangs
//! — every message the engine actually matches must fall inside the
//! statically computed may-match relation, and ranks the analysis calls
//! independent must never exchange a message. Underneath that sits the
//! evaluator: on generated arithmetic the value the analysis folds a peer
//! expression to is the value the engine computes for it, rank by rank.

use proptest::prelude::*;
use proptest::strategy::FnStrategy;
use tracedbg_analysis::{analyze, Peers, SiteOp};
use tracedbg_mpsim::{Engine, EngineConfig, FaultPlan, RecorderConfig, SchedPolicy};
use tracedbg_trace::{Fault, Rank};
use tracedbg_tracegraph::MessageMatching;
use tracedbg_workloads::script::{parse, programs};
use tracedbg_workloads::scripts::{builtin, builtins};

#[derive(Clone, Debug)]
struct Case {
    name: &'static str,
    nprocs: usize,
    seed: u64,
    faults: Vec<Fault>,
}

fn rank_below(rng: &mut TestRng, nprocs: usize) -> Rank {
    Rank(rng.below(nprocs as u64) as u32)
}

/// Random case: builtin script, process count near its minimum, seed for
/// the match-racing scheduler, and 0–2 injected faults (delay/crash/hang)
/// targeting in-range ranks.
fn case_strategy() -> impl Strategy<Value = Case> {
    FnStrategy::new(|rng: &mut TestRng| {
        let b = builtins()[rng.below(builtins().len() as u64) as usize];
        let nprocs = b.min_procs + rng.below(3) as usize;
        let seed = rng.next_u64();
        let faults = (0..rng.below(3))
            .map(|_| match rng.below(3) {
                0 => Fault::Delay {
                    src: rank_below(rng, nprocs),
                    dst: rank_below(rng, nprocs),
                    nth: rng.below(3),
                    extra_ns: (1 + rng.below(4)) * 1_000_000,
                },
                1 => Fault::Crash {
                    rank: rank_below(rng, nprocs),
                    after_ops: rng.below(8),
                },
                _ => Fault::Hang {
                    rank: rank_below(rng, nprocs),
                    after_ops: rng.below(8),
                },
            })
            .collect();
        Case {
            name: b.name,
            nprocs,
            seed,
            faults,
        }
    })
}

/// Non-vacuity guard for the property below: a fault-free run of every
/// builtin actually produces matched messages, so the quantifier ranges
/// over something real.
#[test]
fn fault_free_runs_produce_matches() {
    for b in builtins() {
        let parsed = b.parse();
        let mut engine = Engine::launch(
            EngineConfig {
                policy: SchedPolicy::Seeded(1),
                recorder: RecorderConfig::full(),
                ..Default::default()
            },
            programs(&parsed, b.min_procs, &b.file()),
        );
        let _ = engine.run();
        let store = engine.trace_store();
        let matching = MessageMatching::build(&store);
        assert!(
            !matching.matched.is_empty(),
            "{}: no dynamic matches to check soundness against",
            b.name
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn dynamic_matches_stay_inside_static_may_match(case in case_strategy()) {
        tracedbg_mpsim::set_quiet_panics(true);
        let b = builtin(case.name).unwrap();
        let parsed = b.parse();
        let file = b.file();
        let a = analyze(&parsed, case.nprocs, &file);
        prop_assert!(a.graph.complete, "builtin scripts analyze completely");

        let mut engine = Engine::launch(
            EngineConfig {
                policy: SchedPolicy::Seeded(case.seed),
                recorder: RecorderConfig::full(),
                faults: FaultPlan::new(case.faults.clone()),
                ..Default::default()
            },
            programs(&parsed, case.nprocs, &file),
        );
        // Faulted/racy runs may panic, deadlock, or complete — soundness
        // must hold for the matches of *any* outcome.
        let _ = engine.run();
        let store = engine.trace_store();
        let matching = MessageMatching::build(&store);

        for m in &matching.matched {
            let src = m.info.src.0 as usize;
            let dst = m.info.dst.0 as usize;
            let sloc = store.sites().resolve(store.record(m.send).site);
            let rloc = store.sites().resolve(store.record(m.recv).site);
            let (Some(sloc), Some(rloc)) = (sloc, rloc) else {
                prop_assert!(false, "scripted sites always resolve");
                unreachable!();
            };
            prop_assert_eq!(&sloc.file, &a.graph.file);
            prop_assert_eq!(&rloc.file, &a.graph.file);
            prop_assert!(
                a.may_match_lines(src, sloc.line, dst, rloc.line),
                "{}@{} procs, seed {}, faults {:?}: dynamic match \
                 {}:{} -> {}:{} escapes the static may-match relation",
                case.name, case.nprocs, case.seed, case.faults,
                src, sloc.line, dst, rloc.line,
            );
            prop_assert!(
                a.may_match.rank_may_comm(src, dst),
                "{}: ranks {} -> {} exchanged a message the rank-level \
                 comm relation excludes",
                case.name, src, dst,
            );
            // Independence soundness: independent rank pairs never
            // exchange messages in any execution.
            let key = (src.min(dst), src.max(dst));
            prop_assert!(
                !a.independence.pairs().contains(&key),
                "{}: ranks {:?} are declared independent yet communicated",
                case.name, key,
            );
        }
    }
}

/// A peer expression over `rank`, `nprocs`, constants -8..=8 and `+ - * %`,
/// nested up to `depth` deep — negative intermediates and zero divisors
/// included.
fn gen_expr(rng: &mut TestRng, depth: u32) -> String {
    if depth == 0 || rng.below(4) == 0 {
        return match rng.below(4) {
            0 => "rank".to_string(),
            1 => "nprocs".to_string(),
            // The grammar has no unary minus.
            _ => match rng.below(17) as i64 - 8 {
                c if c < 0 => format!("( 0 - {} )", -c),
                c => c.to_string(),
            },
        };
    }
    let op = ["+", "-", "*", "%"][rng.below(4) as usize];
    format!(
        "( {} {op} {} )",
        gen_expr(rng, depth - 1),
        gen_expr(rng, depth - 1)
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Static = dynamic on the evaluator. Every rank probes `E`, then
    /// sends to it: the probe records what the engine computed before an
    /// out-of-range value can kill the rank with `bad rank`, and a rank
    /// with no probe died evaluating `E` — of `modulo by zero`, the only
    /// way a closed expression has no value. The analysis must report
    /// exactly that value as the send's one destination, and ⊤ exactly on
    /// the ranks that died.
    #[test]
    fn folded_peer_equals_the_value_the_engine_computes(
        case in FnStrategy::new(|rng: &mut TestRng| {
            (gen_expr(rng, 4), 2 + rng.below(4) as usize)
        })
    ) {
        tracedbg_mpsim::set_quiet_panics(true);
        let (expr, nprocs) = case;
        let src = format!("fn main\n  trace \"p\" {expr}\n  send {expr} tag 1 0\nend\n");
        let parsed = parse(&src).expect("generated script parses");
        let a = analyze(&parsed, nprocs, "diff.sdl");

        let mut engine = Engine::launch(
            EngineConfig::with_recorder(RecorderConfig::full()),
            programs(&parsed, nprocs, "diff.sdl"),
        );
        let _ = engine.run();
        let store = engine.trace_store();
        for rank in 0..nprocs {
            let probed = store
                .records()
                .iter()
                .find(|r| r.rank == Rank(rank as u32) && r.label.as_deref() == Some("p"))
                .map(|r| r.args[0]);
            let site = a.graph.site_at(rank, 3).expect("every rank reaches the send");
            let SiteOp::Send { dst, .. } = &a.graph.sites[site].op else {
                unreachable!("line 3 is the send");
            };
            let want = match probed {
                Some(v) => Peers::Set([v].into()),
                None => Peers::Top,
            };
            prop_assert_eq!(dst, &want, "`{}` on rank {} of {}", expr, rank, nprocs);
        }
    }
}
