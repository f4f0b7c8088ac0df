//! Soundness of the static analysis: the may-match relation is an
//! over-approximation of *every* dynamic execution. Whatever the
//! scheduler does — seeded match races, injected delays, crashes, hangs
//! — every message the engine actually matches must fall inside the
//! statically computed may-match relation, and ranks the analysis calls
//! independent must never exchange a message. The cases are random SDL
//! programs and corpus scripts under faults, from the one generator of
//! cases (`tests/oracle/cases.rs`). Underneath that sits the evaluator: on
//! generated arithmetic the value the analysis folds a peer expression to
//! is the value the engine computes for it, rank by rank.

#[path = "../../../tests/oracle/cases.rs"]
mod cases;

use cases::arb_case;
use proptest::prelude::*;
use proptest::strategy::FnStrategy;
use tracedbg_analysis::{analyze, Peers, SiteOp};
use tracedbg_mpsim::{Engine, EngineConfig, RecorderConfig, SchedPolicy};
use tracedbg_trace::{Label, Rank};
use tracedbg_tracegraph::MessageMatching;
use tracedbg_workloads::script::{parse, programs};
use tracedbg_workloads::scripts::builtins;

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
    fn dynamic_matches_stay_inside_static_may_match(case in arb_case()) {
        tracedbg_mpsim::set_quiet_panics(true);
        let parsed = parse(&case.source).expect("the case parses");
        let a = analyze(&parsed, case.procs, &case.file);
        prop_assert!(a.graph.complete, "cases analyze completely: {}", case);

        let mut engine = Engine::launch(case.config(), programs(&parsed, case.procs, &case.file));
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
                prop_assert!(false, "scripted sites always resolve: {}", case);
                unreachable!();
            };
            prop_assert_eq!(&sloc.file, &a.graph.file);
            prop_assert_eq!(&rloc.file, &a.graph.file);
            prop_assert!(
                a.may_match_lines(src, sloc.line, dst, rloc.line),
                "dynamic match {}:{} -> {}:{} escapes the static may-match \
                 relation, case {}",
                src, sloc.line, dst, rloc.line, case,
            );
            prop_assert!(
                a.may_match.rank_may_comm(src, dst),
                "ranks {} -> {} exchanged a message the rank-level comm \
                 relation excludes, case {}",
                src, dst, case,
            );
            // Independence soundness: independent rank pairs never
            // exchange messages in any execution.
            let key = (src.min(dst), src.max(dst));
            prop_assert!(
                !a.independence.pairs().contains(&key),
                "ranks {:?} are declared independent yet communicated, case {}",
                key, case,
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
                .find(|r| r.rank == Rank(rank as u32) && r.label.map(Label::as_str) == Some("p"))
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
