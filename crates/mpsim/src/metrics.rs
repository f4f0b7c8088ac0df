//! A run's metrics, derived after it from its trace and decision log (the
//! engine keeps no counters; AIMS, too, computes its statistics from the
//! trace file, §3).

use tracedbg_obs::EngineMetrics;
use tracedbg_trace::schedule::Decision;
use tracedbg_trace::{EventKind, TraceRecord};

/// The [`EngineMetrics`] of one run of `nprocs` ranks, derived from its kept
/// trace `records` (each rank's in marker order) and its `decisions`:
/// sends, bytes and channels count `Send` records, receives `RecvPost`
/// records (so a receive a fault swallowed counts); turns, matches and
/// match latency — the turns since the receiving rank's last own turn,
/// 0 without one — walk the decisions. The engine services one request
/// per `Turn`, so a rank's k-th turn issued its k-th `Send`/`RecvPost`/
/// `Collective` record: the same walk raises a `Send`'s `dst` queue
/// there and lowers it at each `Match`, for `queue_hwm`.
///
/// Exact when the run kept every communication record (full recorder,
/// no synchronous send still waiting at its end) and no rank trapped:
/// a trap is a turn that issued no request. One pass over each input,
/// which threads a list per rank through one array.
pub fn of_run<'a>(
    records: impl IntoIterator<Item = &'a TraceRecord>,
    decisions: impl IntoIterator<Item = &'a Decision>,
    nprocs: usize,
) -> EngineMetrics {
    /// The end of a rank's list.
    const END: u32 = u32::MAX;
    // A request that moves no queue raises queue `nprocs`, which no
    // rank reads: the walk then takes no branch on it.
    let no_queue = nprocs as u32;
    let mut m = EngineMetrics::new(nprocs);
    // Record pass: the trace counters, and per rank its requests in
    // issue order, each as the queue it raised and the rank's next.
    let records = records.into_iter();
    let mut issued: Vec<(u32, u32)> = Vec::with_capacity(records.size_hint().0);
    let (mut next, mut last) = (vec![END; nprocs], vec![END; nprocs]);
    // (`for_each`: a chained or skipped log folds as fast as a slice.)
    records.for_each(|rec| {
        let r = rec.rank.ix();
        let raised = match (rec.kind, &rec.msg) {
            (EventKind::Send, Some(msg)) => {
                m.count_send(r, msg.dst.0, msg.bytes.into());
                msg.dst.0
            }
            (EventKind::RecvPost, _) => {
                m.recvs[r] += 1;
                no_queue
            }
            (EventKind::Collective(_), _) => no_queue,
            _ => return,
        };
        let i = issued.len() as u32;
        issued.push((raised, END));
        match last[r] {
            END => next[r] = i,
            tail => issued[tail as usize].1 = i,
        }
        last[r] = i;
    });
    // Decision walk; `next` is each rank's next unissued request.
    let (mut depth, mut hwm) = (vec![0u64; nprocs + 1], vec![0u64; nprocs + 1]);
    // The turn number of each rank's last own turn; 0: none yet.
    let mut posted = vec![0u64; nprocs];
    decisions.into_iter().for_each(|d| match *d {
        Decision::Turn { rank } => {
            let r = rank.ix();
            m.turns += 1;
            posted[r] = m.turns;
            if next[r] != END {
                let (raised, after) = issued[next[r] as usize];
                next[r] = after;
                let q = raised as usize;
                depth[q] += 1;
                hwm[q] = hwm[q].max(depth[q]);
            }
        }
        Decision::Match { dst, .. } => {
            let q = dst.ix();
            let latency = match std::mem::take(&mut posted[q]) {
                0 => 0,
                t => m.turns - t,
            };
            m.matches += 1;
            m.blocked_turns[q] += latency;
            m.match_latency.record(latency);
            depth[q] = depth[q].saturating_sub(1);
        }
    });
    hwm.truncate(nprocs);
    m.queue_hwm = hwm;
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use tracedbg_trace::{MsgInfo, Rank, Tag};

    fn rec(rank: u32, kind: EventKind, to: Option<u32>) -> TraceRecord {
        let r = TraceRecord::basic(Rank(rank), kind, 0, 0);
        match to {
            Some(dst) => r.with_msg(MsgInfo {
                src: Rank(rank),
                dst: Rank(dst),
                tag: Tag(0),
                bytes: 8,
                seq: 0,
            }),
            None => r,
        }
    }

    fn turn(rank: u32) -> Decision {
        Decision::Turn { rank: Rank(rank) }
    }

    fn matched(dst: u32, src: u32, seq: u64) -> Decision {
        Decision::Match {
            dst: Rank(dst),
            src: Rank(src),
            seq,
        }
    }

    #[test]
    fn two_sends_queued_before_the_receive_reach_depth_two() {
        use EventKind::*;
        // Rank 0 sends twice to rank 1 before rank 1 posts a receive.
        let records = [
            rec(0, ProcStart, None),
            rec(1, ProcStart, None),
            rec(0, Send, Some(1)),
            rec(1, RecvPost, None),
            rec(0, Send, Some(1)),
            rec(0, ProcEnd, None),
            rec(1, RecvDone, Some(1)),
            rec(1, RecvPost, None),
            rec(1, RecvDone, Some(1)),
            rec(1, ProcEnd, None),
        ];
        let decisions = [
            turn(0), // issues send 1
            turn(0), // issues send 2
            turn(1), // posts receive 1: message 1 is waiting
            matched(1, 0, 0),
            turn(0), // finishes
            turn(1), // posts receive 2: message 2 is waiting
            matched(1, 0, 1),
            turn(1), // finishes
        ];
        let m = of_run(&records, &decisions, 2);
        assert_eq!(m.queue_hwm, [0, 2]);
        assert_eq!((m.turns, m.matches), (6, 2));
        assert_eq!(
            (&m.msgs_sent[..], &m.bytes_sent[..]),
            (&[2, 0][..], &[16, 0][..])
        );
        assert_eq!(m.recvs, [0, 2]);
        assert_eq!(m.channels(), [vec![(1, 2, 16)], vec![]]);
        assert_eq!(m.blocked_turns, [0, 0], "both messages were waiting");
        assert_eq!(m.match_latency.count, 2);
    }

    #[test]
    fn a_receive_posted_first_waits_the_turns_until_its_match() {
        use EventKind::*;
        let records = [
            rec(1, ProcStart, None),
            rec(1, RecvPost, None),
            rec(2, ProcStart, None),
            rec(2, ProcEnd, None),
            rec(0, ProcStart, None),
            rec(0, Send, Some(1)),
        ];
        // Rank 1 posts, rank 2 runs to its end, then rank 0 sends.
        let decisions = [turn(1), turn(2), turn(0), matched(1, 0, 0)];
        let m = of_run(&records, &decisions, 3);
        assert_eq!(m.blocked_turns, [0, 2, 0]);
        assert_eq!((m.match_latency.sum, m.match_latency.max), (2, 2));
        assert_eq!(m.queue_hwm, [0, 1, 0]);
    }

    #[test]
    fn a_fault_swallowed_receive_is_counted() {
        use EventKind::*;
        // The post was written, then the engine swallowed the request: the
        // rank never runs again and nothing matches.
        let records = [rec(0, ProcStart, None), rec(0, RecvPost, None)];
        let m = of_run(&records, &[turn(0)], 1);
        assert_eq!(m.recvs, [1]);
        assert_eq!((m.turns, m.matches), (1, 0));
        assert_eq!(m.blocked_turns, [0]);
    }

    #[test]
    fn an_empty_run_is_all_zeros() {
        assert_eq!(of_run(&[], &[], 3), EngineMetrics::new(3));
    }
}
