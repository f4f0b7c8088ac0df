//! Event-derived engine metrics.
//!
//! Everything in [`EngineMetrics`] is a pure function of the engine's
//! decision/event sequence — never of wall-clock time, worker identity,
//! or job count. That is the determinism contract the `--jobs` byte-
//! identity check in `verify.sh` pins down: summing the per-run metrics
//! of the same task set in task order yields the same aggregate no
//! matter how the runs were scheduled.

use crate::hist::Histogram;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;

/// One channel's counters in its source rank's row: `(dst, msgs, bytes)`.
pub type ChannelCount = (u32, u64, u64);

/// Per-rank / per-channel counters gathered by an `mpsim` engine run.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct EngineMetrics {
    /// Scheduler turns granted, total.
    pub turns: u64,
    /// Messages matched (send paired with receive), total.
    pub matches: u64,
    /// Snapshots taken.
    pub snapshots: u64,
    /// Messages sent, per source rank.
    pub msgs_sent: Vec<u64>,
    /// Payload bytes sent, per source rank.
    pub bytes_sent: Vec<u64>,
    /// Receives posted, per rank.
    pub recvs: Vec<u64>,
    /// Turns the rank spent blocked in recv before its match arrived
    /// (sum over all matched receives; a never-matched block — deadlock —
    /// is not counted).
    pub blocked_turns: Vec<u64>,
    /// Mailbox queue-depth high-water mark, per destination rank.
    pub queue_hwm: Vec<u64>,
    /// Per source rank, the channels that carried a message: a row of
    /// `(dst, msgs, bytes)` sorted by `dst`, with no zero entries. Rows
    /// grow with the channels a run used, not with the rank count.
    channels: Vec<Vec<ChannelCount>>,
    /// Distribution of match latency in turns (0 = message was already
    /// waiting when the receive was posted).
    pub match_latency: Histogram,
    /// Distribution of replay-delta lengths (decisions re-executed per
    /// delta replay).
    pub replay_delta: Histogram,
}

impl EngineMetrics {
    pub fn new(nprocs: usize) -> Self {
        EngineMetrics {
            turns: 0,
            matches: 0,
            snapshots: 0,
            msgs_sent: vec![0; nprocs],
            bytes_sent: vec![0; nprocs],
            recvs: vec![0; nprocs],
            blocked_turns: vec![0; nprocs],
            queue_hwm: vec![0; nprocs],
            channels: vec![Vec::new(); nprocs],
            match_latency: Histogram::new(),
            replay_delta: Histogram::new(),
        }
    }

    pub fn nprocs(&self) -> usize {
        self.msgs_sent.len()
    }

    /// Count one message of `bytes` payload bytes from `src` to `dst`.
    #[inline]
    pub fn count_send(&mut self, src: usize, dst: u32, bytes: u64) {
        self.msgs_sent[src] += 1;
        self.bytes_sent[src] += bytes;
        let row = &mut self.channels[src];
        match row.binary_search_by_key(&dst, |c| c.0) {
            Ok(i) => {
                row[i].1 += 1;
                row[i].2 += bytes;
            }
            Err(i) => row.insert(i, (dst, 1, bytes)),
        }
    }

    /// Per source rank, the `dst`-sorted `(dst, msgs, bytes)` row of every
    /// channel that carried a message.
    pub fn channels(&self) -> &[Vec<ChannelCount>] {
        &self.channels
    }

    /// Fold another engine's metrics into this one. Counters sum;
    /// high-water marks take the max; histograms merge bucket-wise.
    /// Merging across different process counts widens to the larger.
    pub fn merge(&mut self, other: &EngineMetrics) {
        let n = self.nprocs().max(other.nprocs());
        self.widen(n);
        self.turns += other.turns;
        self.matches += other.matches;
        self.snapshots += other.snapshots;
        for r in 0..other.nprocs() {
            self.msgs_sent[r] += other.msgs_sent[r];
            self.bytes_sent[r] += other.bytes_sent[r];
            self.recvs[r] += other.recvs[r];
            self.blocked_turns[r] += other.blocked_turns[r];
            self.queue_hwm[r] = self.queue_hwm[r].max(other.queue_hwm[r]);
            merge_row(&mut self.channels[r], &other.channels[r]);
        }
        self.match_latency.merge(&other.match_latency);
        self.replay_delta.merge(&other.replay_delta);
    }

    fn widen(&mut self, n: usize) {
        if self.nprocs() >= n {
            return;
        }
        self.msgs_sent.resize(n, 0);
        self.bytes_sent.resize(n, 0);
        self.recvs.resize(n, 0);
        self.blocked_turns.resize(n, 0);
        self.queue_hwm.resize(n, 0);
        self.channels.resize(n, Vec::new());
    }

    /// Total messages across ranks.
    pub fn total_msgs(&self) -> u64 {
        self.msgs_sent.iter().sum()
    }

    /// Total payload bytes across ranks.
    pub fn total_bytes(&self) -> u64 {
        self.bytes_sent.iter().sum()
    }
}

/// Fold `theirs` into `mine`, two `dst`-sorted rows, in one pass over both.
fn merge_row(mine: &mut Vec<ChannelCount>, theirs: &[ChannelCount]) {
    if theirs.is_empty() {
        return;
    }
    let old = std::mem::take(mine);
    mine.reserve(old.len() + theirs.len());
    let (mut i, mut j) = (0, 0);
    while i < old.len() && j < theirs.len() {
        let (a, b) = (old[i], theirs[j]);
        match a.0.cmp(&b.0) {
            Ordering::Less => {
                mine.push(a);
                i += 1;
            }
            Ordering::Greater => {
                mine.push(b);
                j += 1;
            }
            Ordering::Equal => {
                mine.push((a.0, a.1 + b.1, a.2 + b.2));
                i += 1;
                j += 1;
            }
        }
    }
    mine.extend_from_slice(&old[i..]);
    mine.extend_from_slice(&theirs[j..]);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Metrics over `n` ranks with one `count_send` per `(src, dst, bytes)`.
    fn sent(n: usize, sends: &[(usize, u32, u64)]) -> EngineMetrics {
        let mut m = EngineMetrics::new(n);
        for &(src, dst, bytes) in sends {
            m.count_send(src, dst, bytes);
        }
        m
    }

    #[test]
    fn count_send_keeps_rows_sorted_without_zeros() {
        let m = sent(4, &[(0, 3, 8), (0, 1, 4), (0, 3, 8), (2, 0, 1)]);
        assert_eq!(
            m.channels(),
            [vec![(1, 1, 4), (3, 2, 16)], vec![], vec![(0, 1, 1)], vec![]]
        );
        assert_eq!(m.msgs_sent, [3, 0, 1, 0]);
        assert_eq!(m.bytes_sent, [20, 0, 1, 0]);
    }

    #[test]
    fn merge_sums_counters_and_maxes_hwm() {
        let mut a = sent(3, &[(0, 1, 8), (0, 2, 8), (0, 2, 8)]);
        a.turns = 10;
        a.queue_hwm[1] = 5;
        let mut b = sent(3, &[(0, 0, 1), (0, 2, 4), (1, 0, 2)]);
        b.turns = 7;
        b.queue_hwm[1] = 2;
        a.merge(&b);
        assert_eq!(a.turns, 17);
        assert_eq!(a.msgs_sent, [5, 1, 0]);
        assert_eq!(a.bytes_sent, [29, 2, 0]);
        assert_eq!(a.queue_hwm[1], 5, "hwm merges by max");
        assert_eq!(
            a.channels(),
            [
                vec![(0, 1, 1), (1, 1, 8), (2, 3, 20)],
                vec![(0, 1, 2)],
                vec![]
            ]
        );
    }

    #[test]
    fn merge_of_disjoint_rows_interleaves_them_in_dst_order() {
        let odd = sent(6, &[(0, 1, 1), (0, 4, 1)]);
        let even = sent(6, &[(0, 0, 2), (0, 3, 2), (0, 5, 2)]);
        let mut a = odd.clone();
        a.merge(&even);
        assert_eq!(
            a.channels()[0],
            [(0, 1, 2), (1, 1, 1), (3, 1, 2), (4, 1, 1), (5, 1, 2)]
        );
        let mut b = even;
        b.merge(&odd);
        assert_eq!(a, b, "merge order does not show");
    }

    #[test]
    fn merge_widens_to_the_larger_rank_count() {
        let mut a = sent(2, &[(0, 1, 1)]);
        a.merge(&sent(3, &[(2, 0, 4), (0, 2, 3)]));
        assert_eq!(a.nprocs(), 3);
        assert_eq!(a.msgs_sent, [2, 0, 1]);
        assert_eq!(
            a.channels(),
            [vec![(1, 1, 1), (2, 1, 3)], vec![], vec![(0, 1, 4)]]
        );
        // A narrower source leaves the extra rows as they are.
        a.merge(&sent(1, &[]));
        assert_eq!(a.nprocs(), 3);
        assert_eq!(a.channels()[2], [(0, 1, 4)]);
    }
}
