//! Recursive Fibonacci — the Table 1 worst-case overhead driver.
//!
//! Every call enters an instrumented function scope, so `fib(n)` drives
//! `2·fib(n+1)-1` `UserMonitor` invocations of enter events (plus exits) —
//! the paper measured 18,454,930 calls for fib(34) and 29,860,704 for
//! fib(35). The closed form for the number of calls is
//! [`fib_call_count`].
//!
//! Task-backed: the call is function 0 of the program's function table and
//! recurses through [`Prog::call`], with explicit argument/value stacks in
//! [`FibState`] standing in for the call's locals — which is what lets a
//! checkpoint capture a recursion mid-flight as plain data.

use tracedbg_mpsim::task::TaskOp;
use tracedbg_mpsim::{Prog, RankProgram};
use tracedbg_trace::Label;
use tracedbg_trace::SiteId;

/// Uninstrumented reference implementation.
pub fn fib_plain(n: u64) -> u64 {
    if n < 2 {
        n
    } else {
        fib_plain(n - 1) + fib_plain(n - 2)
    }
}

/// Number of calls the recursive computation of `fib(n)` makes
/// (`2·fib(n+1) − 1`): Table 1's "Number of calls" row.
pub fn fib_call_count(n: u64) -> u64 {
    2 * fib_plain(n + 1) - 1
}

/// Task state: the instrumented site plus explicit arg/value stacks that
/// stand in for a native call's locals.
#[derive(Clone)]
struct FibState {
    site: SiteId,
    args: Vec<u64>,
    vals: Vec<u64>,
}

/// One instrumented call: expects its argument on top of `args`, pops it
/// and pushes `fib(n)` onto `vals`. Each call enters a function scope
/// carrying `n` as the first monitored argument (the §2.2 contract).
/// It is function 0: the two recursive calls are `Prog::call(0)`.
fn fib_call() -> Prog<FibState> {
    Prog::scope(
        |s: &mut FibState, _| (s.site, [*s.args.last().unwrap() as i64, 0]),
        Prog::if_else(
            |s: &FibState, _| *s.args.last().unwrap() < 2,
            Prog::act(|s: &mut FibState, _| {
                let n = s.args.pop().unwrap();
                s.vals.push(n);
            }),
            Prog::seq(vec![
                Prog::act(|s: &mut FibState, _| {
                    let n = *s.args.last().unwrap();
                    s.args.push(n - 1);
                }),
                Prog::call(0),
                Prog::act(|s: &mut FibState, _| {
                    let n = *s.args.last().unwrap();
                    s.args.push(n - 2);
                }),
                Prog::call(0),
                Prog::act(|s: &mut FibState, _| {
                    let b = s.vals.pop().unwrap();
                    let a = s.vals.pop().unwrap();
                    s.args.pop();
                    s.vals.push(a + b);
                }),
            ]),
        ),
    )
}

/// A single-process program computing `fib(n)` under instrumentation.
pub fn program(n: u64) -> RankProgram {
    let fib_result = Label::new("fib_result");
    let main = Prog::seq(vec![
        Prog::act(move |s: &mut FibState, v| {
            s.site = v.site("fib.c", 11, "fib");
            s.args.push(n);
        }),
        Prog::call(0),
        Prog::op(move |s: &mut FibState, v| {
            let check_site = v.site("fib.c", 30, "main");
            TaskOp::Probe {
                label: fib_result,
                value: *s.vals.last().unwrap() as i64,
                site: check_site,
            }
        }),
    ]);
    RankProgram::task(
        FibState {
            site: SiteId(0),
            args: Vec::new(),
            vals: Vec::new(),
        },
        Prog::with_functions(vec![fib_call()], main),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use tracedbg_mpsim::{Engine, EngineConfig, RecorderConfig};
    use tracedbg_trace::EventKind;

    #[test]
    fn plain_values() {
        assert_eq!(fib_plain(0), 0);
        assert_eq!(fib_plain(1), 1);
        assert_eq!(fib_plain(10), 55);
        assert_eq!(fib_plain(20), 6765);
    }

    #[test]
    fn call_count_closed_form() {
        // Count actual calls with a counter-instrumented recursion.
        fn count(n: u64, c: &mut u64) -> u64 {
            *c += 1;
            if n < 2 {
                n
            } else {
                count(n - 1, c) + count(n - 2, c)
            }
        }
        for n in 0..15 {
            let mut c = 0;
            count(n, &mut c);
            assert_eq!(fib_call_count(n), c, "n={n}");
        }
    }

    #[test]
    fn traced_fib_matches_and_counts_monitor_calls() {
        let mut e = Engine::launch(
            EngineConfig::with_recorder(RecorderConfig::markers_only()),
            vec![program(12)],
        );
        assert!(e.run().is_completed());
        // MarkersOnly still counts invocations: enter+exit per call, plus
        // ProcStart/ProcEnd and the result probe.
        let calls = fib_call_count(12);
        assert_eq!(e.invocations()[0], 2 * calls + 3);
    }

    #[test]
    fn traced_fib_result_probe() {
        let mut e = Engine::launch(
            EngineConfig::with_recorder(RecorderConfig::full()),
            vec![program(10)],
        );
        assert!(e.run().is_completed());
        let store = e.trace_store();
        let probe = store
            .records()
            .iter()
            .find(|r| r.kind == EventKind::Probe)
            .unwrap();
        assert_eq!(probe.args[0], 55);
        // Full tracing records every call: FnEnter count = calls + 1
        // (main's probe scope is not a FnEnter).
        assert_eq!(
            store.of_kind(EventKind::FnEnter).len() as u64,
            fib_call_count(10)
        );
    }
}
