//! A finding's `flight` lines, rendered from what its run keeps (decision
//! log, trace, outcome) through obs's [`FlightRecorder`]: one `turn` or
//! `match` per decision point, and after a rank's turn the `block`,
//! `panic` or `fault` its request led to.

use crate::runner::RunResult;
use std::collections::HashMap;
use tracedbg_mpsim::FaultPlan;
use tracedbg_obs::{FlightRecorder, Span, SpanKind};
use tracedbg_trace::schedule::{Decision, Fault};
use tracedbg_trace::{EventKind, Rank};

/// The `flight` lines of `run`, which ran under `faults`. A `match` is
/// timed at its `RecvDone` (a matched receiver resumes before a run with
/// no debugger stop returns). A receive blocked if its `Match` is not the
/// point right after its rank's last `Turn`, or if it is never done.
pub fn render(run: &RunResult, faults: &[Fault]) -> Vec<String> {
    let n = run.n_ranks();
    // Each completed receive, by `(dst, src, seq)`, and each rank's open
    // one, as `(posted, named source)`: a rank's records are in program
    // order in the run's log.
    let (mut done, mut open) = (HashMap::new(), vec![None; n]);
    for rec in run.log().iter() {
        match (rec.kind, rec.msg) {
            (EventKind::RecvPost, _) => {
                let from = u64::try_from(rec.args[0]).unwrap_or(u64::MAX);
                open[rec.rank.ix()] = Some((rec.t_start, from));
            }
            (EventKind::RecvDone, Some(m)) => {
                let post = open[rec.rank.ix()].take().expect("a RecvPost before");
                done.insert((m.dst, m.src, m.seq), (post, rec.t_end));
            }
            _ => {}
        }
    }
    let span = |i: usize, sim_time, kind, [a, b, c]: [u64; 3]| Span {
        decision: i as u64 + 1,
        sim_time,
        kind,
        a,
        b,
        c,
    };
    let (mut spans, mut last_turn) = (Vec::new(), vec![0; n]);
    for (i, p) in run.points.iter().enumerate() {
        let s = match p.chosen {
            Decision::Turn { rank } => {
                last_turn[rank.ix()] = i;
                span(i, 0, SpanKind::Turn, [rank.ix() as u64, 0, 0])
            }
            Decision::Match { dst, src, seq } => {
                let ((posted, from), t_done) = done[&(dst, src, seq)];
                let (turn, ids) = (last_turn[dst.ix()], [dst.ix() as u64, src.ix() as u64, seq]);
                if turn + 1 != i {
                    spans.push(span(turn, posted, SpanKind::Block, [ids[0], from, 0]));
                }
                span(i, t_done, SpanKind::Match, ids)
            }
        };
        spans.push(s);
    }
    // How each rank the run stopped ended its last turn. A fault cuts the
    // op past the plan's threshold, a receive one included.
    let plan = FaultPlan::new(faults.to_vec());
    for (r, &turn) in last_turn.iter().enumerate() {
        let rank = Rank::from(r);
        let silenced = run.faulted.contains(&rank).then(|| plan.silence_for(rank));
        if let Some(Some((after_ops, _))) = silenced {
            spans.push(span(turn, 0, SpanKind::Fault, [r as u64, after_ops + 1, 0]));
        } else if let Some((posted, from)) = open[r] {
            spans.push(span(turn, posted, SpanKind::Block, [r as u64, from, 0]));
        } else if run.panicked == Some(rank) {
            spans.push(span(turn, 0, SpanKind::Panic, [r as u64, 0, 0]));
        }
    }
    // What followed a turn comes after its line: `Turn` and `Match` are
    // the first kinds declared.
    spans.sort_by_key(|s| (s.decision, s.kind as u8));
    let mut ring = FlightRecorder::new();
    spans.into_iter().for_each(|s| ring.record(s));
    ring.dump()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{execute, CLASS_DEADLOCK};
    use tracedbg_mpsim::SchedPolicy;
    use tracedbg_workloads::script;

    /// Rank 1 crashes at its second operation, the reply, and leaves rank
    /// 0 waiting for it: every kind of line a deadlock can show but the
    /// panic's.
    #[test]
    fn a_faulted_run_shows_its_turns_match_block_and_fault() {
        let pingpong = script::parse(
            "fn main
               if rank == 0
                 send 1 tag 1 1
                 recv from 1 tag 2 into r
               else
                 recv from 0 tag 1 into x
                 send 0 tag 2 2
               end
             end",
        )
        .expect("pingpong script");
        let source: crate::ProgramSource =
            Box::new(move || script::programs(&pingpong, 2, "flight.sdl"));
        let faults = [Fault::Crash {
            rank: Rank(1),
            after_ops: 1,
        }];
        let run = execute(&source, SchedPolicy::RoundRobin, &faults);
        assert_eq!(run.class, CLASS_DEADLOCK);
        assert_eq!(
            render(&run, &faults),
            [
                "d1      t0        turn  rank=0",
                "d2      t0        turn  rank=1",
                "d3      t54800    match dst=1 src=0 seq=0",
                "d4      t0        turn  rank=0",
                "d4      t2000     block rank=0 from=1",
                "d5      t0        turn  rank=1",
                "d5      t0        fault rank=1 op=2 delay=0",
            ]
        );
    }
}
