//! A finding's `flight` lines, rendered from what its run keeps (decision
//! log, trace, outcome): one `turn` or `match` line per decision point,
//! and after a rank's turn the `block`, `fault` or `panic` its request led
//! to. A line is keyed by decision index and simulated time, never wall
//! clock, so a finding's lines are byte-identical whichever worker or job
//! count produced it.

use crate::runner::RunResult;
use std::collections::HashMap;
use std::fmt::Arguments;
use tracedbg_mpsim::FaultPlan;
use tracedbg_trace::schedule::{Decision, Fault};
use tracedbg_trace::{EventKind, Rank};

/// How many lines a finding keeps: the newest.
const KEPT: usize = 64;

/// The kinds of line, in the order one decision's lines go: its `turn`
/// or `match`, then what followed.
const KINDS: [&str; 5] = ["turn", "match", "block", "fault", "panic"];

/// One line before it is kept or dropped: the decision it follows
/// (0-based), its kind's place in [`KINDS`], and its text.
type Line = (usize, usize, String);

/// The `kind` line after decision `i` at simulated time `t`.
fn line(i: usize, t: u64, kind: &str, args: Arguments) -> Line {
    let place = KINDS.iter().position(|k| *k == kind).expect("a kind");
    (i, place, format!("d{:<6} t{t:<8} {kind:<5} {args}", i + 1))
}

/// `rank` blocked in the turn after decision `i`, in a receive posted at
/// `t` from `from` (`None`: any source).
fn block(i: usize, t: u64, rank: usize, from: Option<u64>) -> Line {
    match from {
        Some(from) => line(i, t, "block", format_args!("rank={rank} from={from}")),
        None => line(i, t, "block", format_args!("rank={rank} from=*")),
    }
}

/// The newest [`KEPT`] of `lines` in decision order, behind a note of how
/// many were dropped, if any.
fn newest(mut lines: Vec<Line>) -> Vec<String> {
    lines.sort_by_key(|&(i, place, _)| (i, place));
    let dropped = lines.len().saturating_sub(KEPT);
    let note = (dropped > 0).then(|| format!("... {dropped} earlier spans dropped"));
    let kept = lines.drain(dropped..).map(|(.., text)| text);
    note.into_iter().chain(kept).collect()
}

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
                let from = u64::try_from(rec.args[0]).ok();
                open[rec.rank.ix()] = Some((rec.t_start, from));
            }
            (EventKind::RecvDone, Some(m)) => {
                let post = open[rec.rank.ix()].take().expect("a RecvPost before");
                done.insert((m.dst, m.src, m.seq), (post, rec.t_end));
            }
            _ => {}
        }
    }
    let (mut lines, mut last_turn) = (Vec::new(), vec![0; n]);
    for (i, p) in run.points.iter().enumerate() {
        match p.chosen {
            Decision::Turn { rank } => {
                last_turn[rank.ix()] = i;
                lines.push(line(i, 0, "turn", format_args!("rank={}", rank.ix())));
            }
            Decision::Match { dst, src, seq } => {
                let ((posted, from), t_done) = done[&(dst, src, seq)];
                let turn = last_turn[dst.ix()];
                if turn + 1 != i {
                    lines.push(block(turn, posted, dst.ix(), from));
                }
                let (d, s) = (dst.ix(), src.ix());
                lines.push(line(
                    i,
                    t_done,
                    "match",
                    format_args!("dst={d} src={s} seq={seq}"),
                ));
            }
        }
    }
    // How each rank the run stopped ended its last turn. A fault cuts the
    // op past the plan's threshold, a receive one included.
    let plan = FaultPlan::new(faults.to_vec());
    for (r, &turn) in last_turn.iter().enumerate() {
        let rank = Rank::from(r);
        let silenced = run.faulted.contains(&rank).then(|| plan.silence_for(rank));
        if let Some(Some((after_ops, _))) = silenced {
            let op = after_ops + 1;
            lines.push(line(
                turn,
                0,
                "fault",
                format_args!("rank={r} op={op} delay=0"),
            ));
        } else if let Some((posted, from)) = open[r] {
            lines.push(block(turn, posted, r, from));
        } else if run.panicked == Some(rank) {
            lines.push(line(turn, 0, "panic", format_args!("rank={r}")));
        }
    }
    newest(lines)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{execute, CLASS_DEADLOCK};
    use tracedbg_mpsim::SchedPolicy;
    use tracedbg_workloads::script;

    /// `n` turn lines, after decisions `0..n`.
    fn turns(n: usize) -> Vec<Line> {
        (0..n)
            .map(|i| line(i, 0, "turn", format_args!("rank={i}")))
            .collect()
    }

    #[test]
    fn ring_keeps_the_newest_cap_spans() {
        let kept = newest(turns(KEPT + 6));
        assert_eq!(kept.len(), 1 + KEPT);
        let want: Vec<String> = turns(KEPT + 6).drain(6..).map(|(.., t)| t).collect();
        assert_eq!(kept[1..], want, "the newest, oldest first");
    }

    #[test]
    fn dump_notes_dropped_spans() {
        let kept = newest(turns(KEPT + 3));
        assert_eq!(kept.len(), 1 + KEPT);
        assert_eq!(kept[0], "... 3 earlier spans dropped");
    }

    #[test]
    fn render_is_stable_per_kind() {
        let at = |l: Line| l.2;
        let turn = line(0, 0, "turn", format_args!("rank=2"));
        assert_eq!(at(turn), "d1      t0        turn  rank=2");
        let m = line(6, 120, "match", format_args!("dst=1 src=0 seq=3"));
        assert_eq!(at(m), "d7      t120      match dst=1 src=0 seq=3");
        assert_eq!(
            at(block(1, 30, 4, Some(0))),
            "d2      t30       block rank=4 from=0"
        );
        assert_eq!(
            at(block(1, 30, 4, None)),
            "d2      t30       block rank=4 from=*"
        );
        let f = line(2, 0, "fault", format_args!("rank=1 op=2 delay=0"));
        assert_eq!(at(f), "d3      t0        fault rank=1 op=2 delay=0");
        let panic = line(3, 0, "panic", format_args!("rank=4"));
        assert_eq!(at(panic), "d4      t0        panic rank=4");
    }

    #[test]
    fn dropped_counter_is_exact_across_the_capacity_edge() {
        for n in 0..=KEPT {
            assert_eq!(newest(turns(n)).len(), n, "no drop line up to the cap");
        }
        // The capacity edge: one line more drops exactly one.
        assert_eq!(newest(turns(KEPT + 1))[0], "... 1 earlier spans dropped");
        let kept = newest(turns(KEPT + 100));
        assert_eq!(kept.len(), 1 + KEPT);
        assert_eq!(kept[0], "... 100 earlier spans dropped");
        assert!(kept[1].starts_with("d101 "), "{}", kept[1]);
    }

    #[test]
    fn under_capacity_dump_has_no_drop_line() {
        let kept = newest(vec![line(0, 0, "panic", format_args!("rank=2"))]);
        assert_eq!(kept, ["d1      t0        panic rank=2"]);
    }

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
