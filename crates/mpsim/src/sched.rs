//! Turn scheduling policies.
//!
//! The engine always runs exactly one process at a time; the policy decides
//! which runnable process gets the next turn. `RoundRobin` gives the
//! deterministic baseline; `Seeded` perturbs both turn order and wildcard
//! message choice, standing in for real-cluster timing variation so that
//! replay (which pins wildcard matches) has actual nondeterminism to
//! defeat; `Scripted` follows a recorded decision sequence exactly — the
//! explorer's schedule artifacts replay through it.

use crate::mailbox::Candidate;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;
use tracedbg_trace::schedule::{Decision, RankSet};
use tracedbg_trace::Rank;

/// Scheduling policy.
#[derive(Clone, Debug, Default)]
pub enum SchedPolicy {
    /// Deterministic: cycle through ranks starting after the last granted.
    #[default]
    RoundRobin,
    /// Seeded pseudo-random choice among runnable processes and among
    /// wildcard match candidates.
    Seeded(u64),
    /// Follow a recorded decision sequence; once it is exhausted, fall back
    /// to deterministic round-robin (so a shrunk prefix is still a complete
    /// schedule). If a scripted decision cannot be honoured the scheduler
    /// abandons the script and flags [`Scheduler::diverged`].
    Scripted(Vec<Decision>),
}

/// Instantiated scheduler state. The script is shared, so a checkpoint of
/// the scheduler copies a cursor, not the schedule.
#[derive(Clone)]
pub struct Scheduler {
    policy_is_random: bool,
    rng: ChaCha8Rng,
    last: usize,
    script: Option<Arc<[Decision]>>,
    cursor: usize,
    diverged: bool,
}

impl Scheduler {
    pub fn new(policy: &SchedPolicy, n_ranks: usize) -> Self {
        let (policy_is_random, seed, script) = match policy {
            SchedPolicy::RoundRobin => (false, 0, None),
            SchedPolicy::Seeded(s) => (true, *s, None),
            SchedPolicy::Scripted(d) => (false, 0, Some(Arc::from(d.as_slice()))),
        };
        Scheduler {
            policy_is_random,
            rng: ChaCha8Rng::seed_from_u64(seed),
            last: n_ranks.saturating_sub(1),
            script,
            cursor: 0,
            diverged: false,
        }
    }

    /// Did a scripted decision fail to apply? (Exhausting the script is not
    /// divergence — the round-robin tail is part of the artifact contract.)
    pub fn diverged(&self) -> bool {
        self.diverged
    }

    /// How many scripted decisions have been consumed.
    pub fn cursor(&self) -> usize {
        self.cursor
    }

    /// Follow `script` from the cursor on. The cursor, the last rank
    /// granted and the divergence flag stay as they are, so a scheduler
    /// that has taken `script`'s first `cursor` decisions becomes the one
    /// a launch under `script` has at that point.
    pub fn set_script(&mut self, script: &[Decision]) {
        self.script = Some(Arc::from(script));
    }

    /// Next scripted decision, unless the script diverged or ran out.
    fn scripted_next(&self) -> Option<Decision> {
        if self.diverged {
            None
        } else {
            self.script.as_ref()?.get(self.cursor).copied()
        }
    }

    /// Choose the next process from the non-empty `ready` set: the
    /// scripted rank if it is ready; under the seeded policy the
    /// `gen_range(0..len)`-th ready rank in ascending order; otherwise the
    /// first ready rank strictly after `last` in cyclic order.
    pub fn pick(&mut self, ready: &RankSet) -> Rank {
        if let Some(d) = self.scripted_next() {
            match d {
                Decision::Turn { rank } if ready.contains(rank) => {
                    self.cursor += 1;
                    self.last = rank.ix();
                    return rank;
                }
                _ => self.diverged = true,
            }
        }
        if self.policy_is_random {
            let i = self.rng.gen_range(0..ready.len());
            ready.nth(i).expect("index drawn below the set's size")
        } else {
            let r = ready
                .next_cyclic(Rank(self.last as u32))
                .expect("pick from an empty ready set");
            self.last = r.ix();
            r
        }
    }

    /// The scan over a runnable slice that [`Scheduler::pick`] replaced —
    /// kept as the oracle of the equivalence property test.
    #[cfg(test)]
    fn pick_by_scan(&mut self, runnable: &[Rank], n: usize) -> Rank {
        assert!(!runnable.is_empty());
        if let Some(d) = self.scripted_next() {
            match d {
                Decision::Turn { rank } if runnable.contains(&rank) => {
                    self.cursor += 1;
                    self.last = rank.ix();
                    return rank;
                }
                _ => self.diverged = true,
            }
        }
        if self.policy_is_random {
            let i = self.rng.gen_range(0..runnable.len());
            runnable[i]
        } else {
            // First runnable strictly after `last` in cyclic order.
            let mut best: Option<(usize, Rank)> = None;
            for &r in runnable {
                let dist = (r.ix() + n - (self.last + 1) % n) % n;
                match best {
                    Some((d, _)) if d <= dist => {}
                    _ => best = Some((dist, r)),
                }
            }
            let (_, r) = best.unwrap();
            self.last = r.ix();
            r
        }
    }

    /// Choose among the match candidates of a receive on `dst`.
    /// Deterministic policy: earliest arrival, then lowest source rank.
    /// Random policy: uniform. Scripted: the recorded `(src, seq)`.
    pub fn pick_candidate(&mut self, dst: Rank, cands: &[Candidate]) -> usize {
        assert!(!cands.is_empty());
        if let Some(d) = self.scripted_next() {
            match d {
                Decision::Match { dst: sd, src, seq } if sd == dst => {
                    if let Some(i) = cands.iter().position(|c| c.src == src && c.seq == seq) {
                        self.cursor += 1;
                        return i;
                    }
                    self.diverged = true;
                }
                _ => self.diverged = true,
            }
        }
        if self.policy_is_random {
            self.rng.gen_range(0..cands.len())
        } else {
            let mut best = 0;
            for (i, c) in cands.iter().enumerate() {
                if (c.arrival, c.src) < (cands[best].arrival, cands[best].src) {
                    best = i;
                }
            }
            best
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn set(n: usize, ranks: impl IntoIterator<Item = u32>) -> RankSet {
        RankSet::from_ranks(n, ranks.into_iter().map(Rank))
    }

    fn cand(src: u32, arrival: u64, seq: u64) -> Candidate {
        Candidate {
            src: Rank(src),
            pos: 0,
            arrival,
            seq,
        }
    }

    #[test]
    fn round_robin_cycles_fairly() {
        let mut s = Scheduler::new(&SchedPolicy::RoundRobin, 4);
        let all = set(4, 0..4);
        let picks: Vec<u32> = (0..8).map(|_| s.pick(&all).0).collect();
        assert_eq!(picks, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn round_robin_skips_non_runnable() {
        let mut s = Scheduler::new(&SchedPolicy::RoundRobin, 4);
        assert_eq!(s.pick(&set(4, [2, 3])), Rank(2));
        assert_eq!(s.pick(&set(4, [1, 3])), Rank(3));
        assert_eq!(s.pick(&set(4, [1, 2])), Rank(1));
    }

    #[test]
    fn seeded_is_reproducible() {
        let all = set(6, 0..6);
        let run = |seed| {
            let mut s = Scheduler::new(&SchedPolicy::Seeded(seed), 6);
            (0..20).map(|_| s.pick(&all).0).collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8), "different seeds should differ");
    }

    #[test]
    fn deterministic_candidate_pick_prefers_earliest_then_lowest() {
        let mut s = Scheduler::new(&SchedPolicy::RoundRobin, 4);
        let cands = vec![cand(0, 20, 0), cand(3, 10, 0), cand(1, 10, 0)];
        assert_eq!(s.pick_candidate(Rank(9), &cands), 2);
    }

    #[test]
    fn scripted_follows_then_falls_back_to_round_robin() {
        let script = vec![
            Decision::Turn { rank: Rank(2) },
            Decision::Match {
                dst: Rank(0),
                src: Rank(1),
                seq: 5,
            },
        ];
        let mut s = Scheduler::new(&SchedPolicy::Scripted(script), 3);
        let all = set(3, 0..3);
        assert_eq!(s.pick(&all), Rank(2));
        let cands = vec![cand(2, 10, 0), cand(1, 20, 5)];
        assert_eq!(s.pick_candidate(Rank(0), &cands), 1);
        assert!(!s.diverged());
        assert_eq!(s.cursor(), 2);
        // Script exhausted: deterministic round-robin continues after P2.
        assert_eq!(s.pick(&all), Rank(0));
        assert!(!s.diverged(), "exhaustion is not divergence");
    }

    #[test]
    fn scripted_divergence_flagged_and_abandoned() {
        let script = vec![
            Decision::Turn { rank: Rank(2) },
            Decision::Turn { rank: Rank(0) },
        ];
        let mut s = Scheduler::new(&SchedPolicy::Scripted(script), 3);
        // P2 is not runnable: the script cannot be honoured.
        assert_eq!(s.pick(&set(3, [0, 1])), Rank(0));
        assert!(s.diverged());
        // The rest of the script is ignored; fallback stays deterministic.
        assert_eq!(s.pick(&set(3, [0, 1])), Rank(1));
        assert_eq!(s.cursor(), 0);
    }

    /// One generated case: a rank count, a policy, and the ready set of
    /// each successive turn (as raw draws, reduced modulo `n` on use).
    fn arb_case() -> impl Strategy<Value = (usize, SchedPolicy, Vec<Vec<u32>>)> {
        let turn = prop_oneof![
            // Sparse, dense and single-rank ready sets.
            proptest::collection::vec(any::<u32>(), 1..4),
            proptest::collection::vec(any::<u32>(), 1..200),
        ];
        (
            1usize..131,
            0u32..3,
            any::<u64>(),
            proptest::collection::vec(any::<u32>(), 0..12),
            proptest::collection::vec(turn, 1..24),
        )
            .prop_map(|(n, policy, seed, script, turns)| {
                let policy = match policy {
                    0 => SchedPolicy::RoundRobin,
                    1 => SchedPolicy::Seeded(seed),
                    // Scripts name ranks that are often not ready
                    // (divergence), end early (exhaustion), and now and
                    // then hold a Match where a Turn is due.
                    _ => SchedPolicy::Scripted(
                        script
                            .iter()
                            .map(|&x| {
                                let rank = Rank(x % n as u32);
                                if x % 11 == 0 {
                                    Decision::Match {
                                        dst: rank,
                                        src: rank,
                                        seq: 0,
                                    }
                                } else {
                                    Decision::Turn { rank }
                                }
                            })
                            .collect(),
                    ),
                };
                (n, policy, turns)
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

        /// The bitset pick is the slice scan it replaced: same rank every
        /// turn, same cursor and divergence flag, for every policy, across
        /// the 64- and 128-rank word boundaries.
        #[test]
        fn bitset_pick_equals_reference_scan(case in arb_case()) {
            let (n, policy, turns) = case;
            let mut fast = Scheduler::new(&policy, n);
            let mut reference = Scheduler::new(&policy, n);
            for draws in &turns {
                let ready = set(n, draws.iter().map(|x| x % n as u32));
                let runnable: Vec<Rank> = ready.iter().collect();
                let got = fast.pick(&ready);
                prop_assert_eq!(got, reference.pick_by_scan(&runnable, n));
                prop_assert!(ready.contains(got));
                prop_assert_eq!(fast.cursor(), reference.cursor());
                prop_assert_eq!(fast.diverged(), reference.diverged());
            }
        }
    }
}
