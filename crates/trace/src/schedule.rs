//! Schedule artifacts — serialized scheduling decision sequences.
//!
//! The engine's nondeterminism is confined to two choice points: which
//! runnable process is granted the next turn, and which candidate message a
//! wildcard receive matches. A [`Decision`] names one resolved choice; the
//! ordered sequence of every decision a run made, together with the fault
//! plan that was active, is a complete *schedule artifact*
//! ([`ScheduleArtifact`]): re-executing the program under the same decision
//! sequence regenerates the identical execution. The explorer records an
//! artifact for every failing interleaving it finds, shrinks it, and the
//! debugger replays it (`tracedbg replay --schedule`) — MAD-style event
//! manipulation made reproducible.
//!
//! Artifacts are plain data (serde/JSON) so they can be committed as a
//! regression corpus and replayed by any later build.

use crate::ids::Rank;
use serde::{Deserialize, Serialize};
use std::fmt;

/// One resolved scheduling choice.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Decision {
    /// The scheduler granted `rank` the next turn.
    Turn { rank: Rank },
    /// A receive on `dst` matched the message `(src, seq)`.
    Match { dst: Rank, src: Rank, seq: u64 },
}

impl fmt::Display for Decision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Decision::Turn { rank } => write!(f, "turn {rank:?}"),
            Decision::Match { dst, src, seq } => write!(f, "match {dst:?} <- {src:?}#{seq}"),
        }
    }
}

/// A set of ranks as a bitset: one inline word for runs of up to 64
/// ranks (no allocation — the explorer launches thousands of 8–16 rank
/// engines), a boxed word slice beyond. The engine keeps its ready set in
/// one and copies it into every `Turn` decision point, so membership,
/// insertion and removal are O(1) and everything else is O(ranks/64).
#[derive(Clone, Debug)]
pub struct RankSet(Words);

#[derive(Clone, Debug)]
enum Words {
    One(u64),
    Many(Box<[u64]>),
}

impl RankSet {
    /// The empty set with room for ranks `0..n_ranks`.
    pub fn new(n_ranks: usize) -> Self {
        RankSet(if n_ranks <= 64 {
            Words::One(0)
        } else {
            Words::Many(vec![0; n_ranks.div_ceil(64)].into())
        })
    }

    /// The set holding exactly `ranks` (each below `n_ranks`).
    pub fn from_ranks(n_ranks: usize, ranks: impl IntoIterator<Item = Rank>) -> Self {
        let mut set = RankSet::new(n_ranks);
        for r in ranks {
            set.set(r, true);
        }
        set
    }

    fn words(&self) -> &[u64] {
        match &self.0 {
            Words::One(w) => std::slice::from_ref(w),
            Words::Many(ws) => ws,
        }
    }

    /// Add (`true`) or remove (`false`) `rank`, which must be below the
    /// `n_ranks` the set was created with.
    #[inline]
    pub fn set(&mut self, rank: Rank, member: bool) {
        let word = match &mut self.0 {
            Words::One(w) => {
                assert!(rank.0 < 64, "{rank:?} outside a one-word rank set");
                w
            }
            Words::Many(ws) => &mut ws[rank.ix() / 64],
        };
        let bit = 1u64 << (rank.0 % 64);
        if member {
            *word |= bit;
        } else {
            *word &= !bit;
        }
    }

    #[inline]
    pub fn contains(&self, rank: Rank) -> bool {
        self.words()
            .get(rank.ix() / 64)
            .is_some_and(|w| w & (1u64 << (rank.0 % 64)) != 0)
    }

    /// Number of members (a popcount per word).
    pub fn len(&self) -> usize {
        self.words().iter().map(|w| w.count_ones() as usize).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.words().iter().all(|&w| w == 0)
    }

    /// Members in ascending rank order.
    pub fn iter(&self) -> impl Iterator<Item = Rank> + '_ {
        self.words().iter().enumerate().flat_map(|(i, &w)| {
            std::iter::successors((w != 0).then_some(w), |&w| {
                let rest = w & (w - 1);
                (rest != 0).then_some(rest)
            })
            .map(move |w| Rank((i * 64) as u32 + w.trailing_zeros()))
        })
    }

    /// The `k`-th member in ascending order (`k < len()`).
    pub fn nth(&self, mut k: usize) -> Option<Rank> {
        for (i, &w) in self.words().iter().enumerate() {
            let ones = w.count_ones() as usize;
            if k < ones {
                let mut w = w;
                for _ in 0..k {
                    w &= w - 1;
                }
                return Some(Rank((i * 64) as u32 + w.trailing_zeros()));
            }
            k -= ones;
        }
        None
    }

    /// Lowest member at or above `start`.
    fn first_from(&self, start: usize) -> Option<Rank> {
        let words = self.words();
        let mut i = start / 64;
        let mut w = *words.get(i)? & (!0u64 << (start % 64));
        loop {
            if w != 0 {
                return Some(Rank((i * 64) as u32 + w.trailing_zeros()));
            }
            i += 1;
            w = *words.get(i)?;
        }
    }

    /// The first member strictly after `after` in cyclic rank order
    /// (wrapping to the lowest member) — the round-robin successor.
    pub fn next_cyclic(&self, after: Rank) -> Option<Rank> {
        self.first_from(after.ix() + 1)
            .or_else(|| self.first_from(0))
    }
}

/// Sets are equal when they hold the same ranks, whatever `n_ranks` each
/// was sized for.
impl PartialEq for RankSet {
    fn eq(&self, other: &Self) -> bool {
        let (a, b) = (self.words(), other.words());
        let k = a.len().min(b.len());
        a[..k] == b[..k] && a[k..].iter().chain(&b[k..]).all(|&w| w == 0)
    }
}

impl Eq for RankSet {}

/// Every admissible choice at one decision point, in the order the
/// explorer enumerates them: the ready ranks of a `Turn` point (ascending
/// rank), or the candidate messages of a `Match` point (ascending source).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Alternatives {
    Turns(RankSet),
    Matches(Box<[Decision]>),
}

impl Alternatives {
    pub fn len(&self) -> usize {
        match self {
            Alternatives::Turns(ready) => ready.len(),
            Alternatives::Matches(cands) => cands.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The choices as [`Decision`]s, in enumeration order.
    pub fn iter(&self) -> impl Iterator<Item = Decision> + '_ {
        let (ready, cands): (Option<&RankSet>, &[Decision]) = match self {
            Alternatives::Turns(ready) => (Some(ready), &[]),
            Alternatives::Matches(cands) => (None, cands),
        };
        ready
            .into_iter()
            .flat_map(RankSet::iter)
            .map(|rank| Decision::Turn { rank })
            .chain(cands.iter().copied())
    }
}

/// A decision together with every alternative that was available at that
/// point — the branch structure systematic exploration enumerates.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DecisionPoint {
    pub chosen: Decision,
    /// All admissible choices at this point (includes `chosen`).
    pub alternatives: Alternatives,
}

impl DecisionPoint {
    /// Was there an actual choice here?
    pub fn is_branch(&self) -> bool {
        self.alternatives.len() > 1
    }
}

/// An injected fault. Delays stay within MPI legality (they shift arrival
/// times, which only biases wildcard matching); crash/hang silence a
/// process after its first `after_ops` runtime operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Fault {
    /// Add `extra_ns` to the arrival time of the `nth` message (0-based
    /// send sequence) from `src` to `dst`.
    Delay {
        src: Rank,
        dst: Rank,
        nth: u64,
        extra_ns: u64,
    },
    /// Process `rank` crashes (stops servicing, peers see silence) at its
    /// `after_ops + 1`-th runtime operation.
    Crash { rank: Rank, after_ops: u64 },
    /// Process `rank` hangs (alive but never progresses) at its
    /// `after_ops + 1`-th runtime operation.
    Hang { rank: Rank, after_ops: u64 },
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Fault::Delay {
                src,
                dst,
                nth,
                extra_ns,
            } => write!(f, "delay {src:?}->{dst:?} #{nth} by {extra_ns}ns"),
            Fault::Crash { rank, after_ops } => write!(f, "crash {rank:?} after {after_ops} ops"),
            Fault::Hang { rank, after_ops } => write!(f, "hang {rank:?} after {after_ops} ops"),
        }
    }
}

/// Current artifact format version (bump on incompatible change).
pub const ARTIFACT_VERSION: u32 = 1;

/// Provenance of an artifact: how the exploration that produced it was
/// configured and how long it took. Purely informational — replay ignores
/// it — and optional, so artifacts written by older builds still parse.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ArtifactMeta {
    /// Worker threads the exploration ran with (resolved: never 0).
    pub jobs: u64,
    /// Exploration run budget that was configured.
    pub runs: u64,
    /// Wall-clock duration of the whole exploration, in milliseconds.
    pub wall_ms: u64,
    /// tracedbg version that wrote the artifact.
    pub version: String,
}

/// A complete, replayable description of one explored execution.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ScheduleArtifact {
    pub version: u32,
    /// Workload spec as the CLI understands it (e.g. `racy-wildcard`,
    /// `script:path`).
    pub workload: String,
    /// Process count the workload was instantiated with.
    pub procs: usize,
    /// Workload seed (some workloads generate their pattern from it).
    pub seed: u64,
    /// Faults that were injected into the run.
    pub faults: Vec<Fault>,
    /// The decision sequence. A replay follows it to the end, then falls
    /// back to the deterministic policy — so a shrunk prefix remains a
    /// complete schedule.
    pub decisions: Vec<Decision>,
    /// Failure class this artifact reproduces (`deadlock`, `panic`,
    /// `lint`, `divergence`), if any.
    pub failure: Option<String>,
    /// Run provenance (absent in artifacts from older builds; replay
    /// ignores it either way).
    pub meta: Option<ArtifactMeta>,
    /// Flight-recorder dump of the confirming run — the last engine
    /// decisions before the failure, rendered one span per line. Attached
    /// to deadlock/panic artifacts; absent elsewhere and in artifacts from
    /// older builds.
    pub flight: Option<Vec<String>>,
}

impl ScheduleArtifact {
    pub fn new(workload: impl Into<String>, procs: usize, seed: u64) -> Self {
        ScheduleArtifact {
            version: ARTIFACT_VERSION,
            workload: workload.into(),
            procs,
            seed,
            faults: Vec::new(),
            decisions: Vec::new(),
            failure: None,
            meta: None,
            flight: None,
        }
    }

    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("artifact serialization cannot fail")
    }

    pub fn from_json(s: &str) -> Result<Self, String> {
        let a: ScheduleArtifact =
            serde_json::from_str(s).map_err(|e| format!("bad schedule artifact: {e:?}"))?;
        if a.version != ARTIFACT_VERSION {
            return Err(format!(
                "schedule artifact version {} unsupported (expected {})",
                a.version, ARTIFACT_VERSION
            ));
        }
        Ok(a)
    }
}

impl fmt::Display for ScheduleArtifact {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} procs={} seed={} faults={} decisions={}",
            self.workload,
            self.procs,
            self.seed,
            self.faults.len(),
            self.decisions.len()
        )?;
        if let Some(cls) = &self.failure {
            write!(f, " failure={cls}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn artifact_json_roundtrip() {
        let mut a = ScheduleArtifact::new("racy-wildcard", 3, 7);
        a.faults.push(Fault::Delay {
            src: Rank(1),
            dst: Rank(0),
            nth: 0,
            extra_ns: 99_000,
        });
        a.faults.push(Fault::Crash {
            rank: Rank(2),
            after_ops: 3,
        });
        a.decisions.push(Decision::Turn { rank: Rank(0) });
        a.decisions.push(Decision::Match {
            dst: Rank(0),
            src: Rank(2),
            seq: 0,
        });
        a.failure = Some("deadlock".into());
        let json = a.to_json();
        let back = ScheduleArtifact::from_json(&json).unwrap();
        assert_eq!(back, a);
    }

    #[test]
    fn artifact_without_meta_or_flight_still_parses() {
        // An artifact exactly as a pre-telemetry build wrote it: no `meta`,
        // no `flight` keys at all. Committed regression corpora must stay
        // replayable.
        let old = r#"{"version":1,"workload":"ring","procs":4,"seed":9,
            "faults":[],"decisions":[{"Turn":{"rank":1}}],"failure":"deadlock"}"#;
        let a = ScheduleArtifact::from_json(old).unwrap();
        assert_eq!(a.workload, "ring");
        assert_eq!(a.decisions.len(), 1);
        assert!(a.meta.is_none());
        assert!(a.flight.is_none());
    }

    #[test]
    fn artifact_meta_and_flight_roundtrip() {
        let mut a = ScheduleArtifact::new("ring", 4, 0);
        a.meta = Some(ArtifactMeta {
            jobs: 4,
            runs: 64,
            wall_ms: 123,
            version: "0.1.0".into(),
        });
        a.flight = vec!["d1 t0 turn rank=0".to_string()].into();
        let back = ScheduleArtifact::from_json(&a.to_json()).unwrap();
        assert_eq!(back, a);
        assert_eq!(back.meta.as_ref().unwrap().jobs, 4);
        assert_eq!(back.flight.as_ref().unwrap().len(), 1);
    }

    #[test]
    fn unknown_fields_in_artifact_json_are_ignored() {
        // Forward compatibility: a *newer* build may add fields; this build
        // must still load the decisions it understands.
        let future = r#"{"version":1,"workload":"ring","procs":2,"seed":0,
            "faults":[],"decisions":[],"failure":null,"meta":null,
            "flight":null,"some_future_field":{"x":1}}"#;
        let a = ScheduleArtifact::from_json(future).unwrap();
        assert_eq!(a.procs, 2);
    }

    #[test]
    fn version_mismatch_rejected() {
        let mut a = ScheduleArtifact::new("ring", 4, 0);
        a.version = 999;
        let err = ScheduleArtifact::from_json(&a.to_json()).unwrap_err();
        assert!(err.contains("version"), "{err}");
    }

    #[test]
    fn decision_display() {
        let t = Decision::Turn { rank: Rank(3) };
        let m = Decision::Match {
            dst: Rank(0),
            src: Rank(2),
            seq: 5,
        };
        assert_eq!(format!("{t}"), "turn P3");
        assert_eq!(format!("{m}"), "match P0 <- P2#5");
    }

    #[test]
    fn branch_detection() {
        let d = Decision::Turn { rank: Rank(0) };
        let single = DecisionPoint {
            chosen: d,
            alternatives: Alternatives::Turns(RankSet::from_ranks(2, [Rank(0)])),
        };
        assert!(!single.is_branch());
        let multi = DecisionPoint {
            chosen: d,
            alternatives: Alternatives::Turns(RankSet::from_ranks(2, [Rank(0), Rank(1)])),
        };
        assert!(multi.is_branch());
    }

    fn ranks(set: &RankSet) -> Vec<u32> {
        set.iter().map(|r| r.0).collect()
    }

    #[test]
    fn rank_set_len_is_popcount_and_iteration_ascends() {
        // n = 1, 64 (one full word), 65 (first heap word boundary), 130.
        for n in [1usize, 64, 65, 130] {
            let mut set = RankSet::new(n);
            assert!(set.is_empty());
            assert_eq!(set.len(), 0);
            assert_eq!(set.nth(0), None);
            assert_eq!(set.next_cyclic(Rank(0)), None);
            // Insert descending; iteration must still ascend.
            let members: Vec<u32> = (0..n as u32)
                .filter(|r| r % 3 == 0 || *r == n as u32 - 1)
                .collect();
            for &r in members.iter().rev() {
                set.set(Rank(r), true);
            }
            assert_eq!(set.len(), members.len(), "n={n}");
            assert_eq!(ranks(&set), members, "n={n}");
            for (k, &r) in members.iter().enumerate() {
                assert_eq!(set.nth(k), Some(Rank(r)), "n={n} k={k}");
                assert!(set.contains(Rank(r)));
            }
            assert_eq!(set.nth(members.len()), None);
            assert!(!set.contains(Rank(n as u32)), "out of range is absent");
            // Full set, then drain it one rank at a time.
            for r in 0..n as u32 {
                set.set(Rank(r), true);
            }
            assert_eq!(set.len(), n);
            assert_eq!(ranks(&set), (0..n as u32).collect::<Vec<_>>());
            for r in 0..n as u32 {
                set.set(Rank(r), false);
                assert_eq!(set.len(), n - 1 - r as usize);
            }
            assert!(set.is_empty());
        }
    }

    #[test]
    fn rank_set_next_cyclic_wraps_across_words() {
        let set = RankSet::from_ranks(130, [Rank(3), Rank(63), Rank(64), Rank(129)]);
        assert_eq!(set.next_cyclic(Rank(0)), Some(Rank(3)));
        assert_eq!(set.next_cyclic(Rank(3)), Some(Rank(63)));
        assert_eq!(set.next_cyclic(Rank(63)), Some(Rank(64)));
        assert_eq!(set.next_cyclic(Rank(64)), Some(Rank(129)));
        assert_eq!(set.next_cyclic(Rank(129)), Some(Rank(3)), "wraps");
        let one = RankSet::from_ranks(64, [Rank(63)]);
        assert_eq!(one.next_cyclic(Rank(63)), Some(Rank(63)), "sole member");
    }

    #[test]
    fn rank_set_equality_is_by_members() {
        let a = RankSet::from_ranks(64, [Rank(1), Rank(40)]);
        let mut b = RankSet::from_ranks(65, [Rank(40), Rank(1)]);
        assert_eq!(a, b, "capacity does not take part");
        assert_eq!(a, a.clone());
        b.set(Rank(64), true);
        assert_ne!(a, b);
        assert_eq!(RankSet::new(130), RankSet::new(1));
    }

    #[test]
    fn alternatives_iterate_as_decisions_in_order() {
        let turns = Alternatives::Turns(RankSet::from_ranks(70, [Rank(65), Rank(2)]));
        assert_eq!(turns.len(), 2);
        assert_eq!(
            turns.iter().collect::<Vec<_>>(),
            vec![
                Decision::Turn { rank: Rank(2) },
                Decision::Turn { rank: Rank(65) }
            ]
        );
        let m = |src| Decision::Match {
            dst: Rank(0),
            src: Rank(src),
            seq: 7,
        };
        let matches = Alternatives::Matches(vec![m(1), m(4)].into());
        assert_eq!(matches.len(), 2);
        assert_eq!(matches.iter().collect::<Vec<_>>(), vec![m(1), m(4)]);
        assert_ne!(turns, matches);
        assert_eq!(matches, matches.clone());
        assert!(Alternatives::Turns(RankSet::new(8)).is_empty());
    }
}
