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
use std::num::NonZeroU32;

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
/// one and the explorer rebuilds each `Turn` point's set in one
/// ([`ReadySets`]). Membership, insertion, removal and the size are O(1);
/// iteration and the cyclic successor are O(ranks/64).
#[derive(Debug)]
pub struct RankSet {
    words: Words,
    len: usize,
}

/// `clone_from` copies into the room the set already has when it fits.
impl Clone for RankSet {
    fn clone(&self) -> Self {
        RankSet {
            words: self.words.clone(),
            len: self.len,
        }
    }

    fn clone_from(&mut self, source: &Self) {
        match (&mut self.words, &source.words) {
            (Words::One(w), Words::One(v)) => *w = *v,
            (Words::Many(ws), Words::Many(vs)) if ws.len() == vs.len() => ws.copy_from_slice(vs),
            (words, _) => *words = source.words.clone(),
        }
        self.len = source.len;
    }
}

#[derive(Clone, Debug)]
enum Words {
    One(u64),
    Many(Box<[u64]>),
}

impl RankSet {
    /// The empty set with room for ranks `0..n_ranks`.
    pub fn new(n_ranks: usize) -> Self {
        let words = if n_ranks <= 64 {
            Words::One(0)
        } else {
            Words::Many(vec![0; n_ranks.div_ceil(64)].into())
        };
        RankSet { words, len: 0 }
    }

    /// Every rank `0..n_ranks`.
    pub fn full(n_ranks: usize) -> Self {
        let mut set = RankSet::new(n_ranks);
        set.fill(n_ranks);
        set
    }

    /// Make the set exactly `0..n_ranks`, which must fit its room.
    fn fill(&mut self, n_ranks: usize) {
        let words = match &mut self.words {
            Words::One(w) => std::slice::from_mut(w),
            Words::Many(ws) => &mut ws[..],
        };
        for (i, w) in words.iter_mut().enumerate() {
            *w = match n_ranks.saturating_sub(i * 64) {
                0 => 0,
                k if k >= 64 => !0,
                k => (1u64 << k) - 1,
            };
        }
        self.len = n_ranks;
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
        match &self.words {
            Words::One(w) => std::slice::from_ref(w),
            Words::Many(ws) => ws,
        }
    }

    /// Make the set equal `other` (of the same room), pushing each rank
    /// whose membership changed onto `changed`, ascending.
    fn become_pushing_changes(&mut self, other: &RankSet, changed: &mut Vec<Rank>) {
        let words = match &mut self.words {
            Words::One(w) => std::slice::from_mut(w),
            Words::Many(ws) => &mut ws[..],
        };
        for (i, (w, &v)) in words.iter_mut().zip(other.words()).enumerate() {
            let mut diff = *w ^ v;
            while diff != 0 {
                changed.push(Rank((i * 64) as u32 + diff.trailing_zeros()));
                diff &= diff - 1;
            }
            *w = v;
        }
        self.len = other.len;
    }

    /// Add (`true`) or remove (`false`) `rank`, which must be below the
    /// `n_ranks` the set was created with. Returns whether membership
    /// changed.
    #[inline]
    pub fn set(&mut self, rank: Rank, member: bool) -> bool {
        let word = match &mut self.words {
            Words::One(w) => {
                assert!(rank.0 < 64, "{rank:?} outside a one-word rank set");
                w
            }
            Words::Many(ws) => &mut ws[rank.ix() / 64],
        };
        let bit = 1u64 << (rank.0 % 64);
        let changed = (*word & bit != 0) != member;
        if changed {
            *word ^= bit;
            if member {
                self.len += 1;
            } else {
                self.len -= 1;
            }
        }
        changed
    }

    /// Remove every member, keeping the room.
    pub fn clear(&mut self) {
        self.fill(0);
    }

    #[inline]
    pub fn contains(&self, rank: Rank) -> bool {
        self.words()
            .get(rank.ix() / 64)
            .is_some_and(|w| w & (1u64 << (rank.0 % 64)) != 0)
    }

    /// Number of members.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
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

/// A `Turn` point's ready set as what changed: how many ranks were ready,
/// and the ranks whose ready bit flipped since the previous `Turn` point
/// of the same run (ascending, each once). The first `Turn` point's
/// predecessor is the launch, where every rank is ready. Up to two flips
/// are stored inline; a longer list (a collective completing, a debugger
/// pausing every rank) is boxed. [`ReadySets`] rebuilds the full set.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReadyDelta {
    ready: NonZeroU32,
    flipped: Flipped,
}

#[derive(Clone, Debug, PartialEq, Eq)]
enum Flipped {
    /// Up to two ranks; an empty slot holds [`Flipped::NONE`].
    Few([u32; 2]),
    Many(Box<[Rank]>),
}

impl Flipped {
    const NONE: u32 = u32::MAX;
}

impl ReadyDelta {
    /// The delta of a `Turn` point whose ready set is `ready` (not
    /// empty): the ranks `changes` noted whose bit differs from the last
    /// `Turn` point's set. `changes` moves on to `ready` and is left empty.
    /// Costs the ranks noted, not the width of the run: each is checked
    /// once against the last point's set, and only a delta of more than
    /// two ranks is sorted and boxed. After [`ReadyChanges::push_all`] it
    /// compares the whole set instead, a word at a time.
    #[inline]
    pub fn new(ready: &RankSet, changes: &mut ReadyChanges) -> Self {
        let count = u32::try_from(ready.len())
            .ok()
            .and_then(NonZeroU32::new)
            .expect("a Turn point has between 1 and u32::MAX ready ranks");
        let ReadyChanges {
            base,
            few,
            more,
            all,
        } = changes;
        let few = std::mem::replace(few, [Flipped::NONE; 2]);
        let mut kept = [Flipped::NONE; 2];
        let mut n = 0;
        if std::mem::take(all) {
            more.clear();
            base.become_pushing_changes(ready, more);
        } else {
            // Each noted rank is compared with the last point's set and
            // that set updated, so a rank noted twice is kept at most once.
            let mut changed = |r: Rank| base.set(r, ready.contains(r));
            for r in few {
                if r != Flipped::NONE && changed(Rank(r)) {
                    kept[n] = r;
                    n += 1;
                }
            }
            more.retain(|&r| changed(r));
        }
        let flipped = if n + more.len() <= 2 {
            for (slot, r) in kept[n..].iter_mut().zip(more.iter()) {
                *slot = r.0;
            }
            if kept[1] < kept[0] {
                kept.swap(0, 1);
            }
            Flipped::Few(kept)
        } else {
            more.extend(kept[..n].iter().map(|&r| Rank(r)));
            more.sort_unstable();
            Flipped::Many(more.as_slice().into())
        };
        more.clear();
        ReadyDelta {
            ready: count,
            flipped,
        }
    }

    /// How many ranks were ready.
    pub fn len(&self) -> usize {
        self.ready.get() as usize
    }

    /// Never: a `Turn` point has a ready rank to grant.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The ranks whose ready bit flipped since the previous `Turn` point,
    /// ascending.
    pub fn flipped(&self) -> impl Iterator<Item = Rank> + '_ {
        let (few, many): (&[u32], &[Rank]) = match &self.flipped {
            Flipped::Few(few) => (few, &[]),
            Flipped::Many(many) => (&[], many),
        };
        few.iter()
            .take_while(|&&r| r != Flipped::NONE)
            .map(|&r| Rank(r))
            .chain(many.iter().copied())
    }
}

/// What the engine keeps to store each `Turn` point as a [`ReadyDelta`]:
/// the ready set the last `Turn` point stored, and the ranks whose ready
/// bit changed since, in the order they changed. A rank that changes back
/// at once (the granted rank leaving the ready set and returning) cancels
/// out; the first two are inline, so a run whose turns change one or two
/// ranks allocates nothing for them, and later ones go to a `Vec` that is
/// kept for reuse.
#[derive(Clone, Debug)]
pub struct ReadyChanges {
    /// The ready set of the last `Turn` point; every rank at launch.
    base: RankSet,
    /// The first two ranks noted; an empty slot holds [`Flipped::NONE`],
    /// and the second is empty whenever the first is.
    few: [u32; 2],
    /// Ranks noted past the first two.
    more: Vec<Rank>,
    /// Any rank may have changed ([`ReadyChanges::push_all`]).
    all: bool,
}

impl ReadyChanges {
    /// No change yet from the launch of `n_ranks`, where every rank is
    /// ready.
    pub fn new(n_ranks: usize) -> Self {
        ReadyChanges {
            base: RankSet::full(n_ranks),
            few: [Flipped::NONE; 2],
            more: Vec::new(),
            all: false,
        }
    }

    /// Note that the ready bit of any rank may have changed, as when a
    /// debugger holds or releases every rank at once: the next point
    /// compares the whole set, in place of a note per rank.
    pub fn push_all(&mut self) {
        self.all = true;
    }

    /// Note that `rank`'s ready bit changed.
    #[inline]
    pub fn push(&mut self, rank: Rank) {
        if let Some(&last) = self.more.last() {
            if last == rank {
                self.more.pop();
            } else {
                self.more.push(rank);
            }
            return;
        }
        match &mut self.few {
            [a, _] if *a == Flipped::NONE => *a = rank.0,
            [a, b] if *b == Flipped::NONE => {
                if *a == rank.0 {
                    *a = Flipped::NONE;
                } else {
                    *b = rank.0;
                }
            }
            [_, b] if *b == rank.0 => *b = Flipped::NONE,
            _ => self.more.push(rank),
        }
    }
}

/// Every admissible choice at one decision point: the ready ranks of a
/// `Turn` point, stored as the change from the previous one, or the
/// candidate messages of a `Match` point (ascending source).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Alternatives {
    Turns(ReadyDelta),
    Matches(Box<[Decision]>),
}

impl Alternatives {
    pub fn len(&self) -> usize {
        match self {
            Alternatives::Turns(delta) => delta.len(),
            Alternatives::Matches(cands) => cands.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
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

// A decision log holds one of these per decision: a `Turn` point's
// alternatives stay inline, whatever the width of the run.
const _: () = assert!(std::mem::size_of::<DecisionPoint>() <= 48);

impl DecisionPoint {
    /// Was there an actual choice here?
    pub fn is_branch(&self) -> bool {
        self.alternatives.len() > 1
    }
}

/// The ready sets of one run's `Turn` points, rebuilt by walking its
/// decision log forward from the first point: start with every rank
/// ready, as at launch, and [`ReadySets::advance`] past each point in
/// order. A point costs its flips, not the width of the run.
#[derive(Clone, Debug)]
pub struct ReadySets {
    ready: RankSet,
    n_ranks: usize,
    /// How many points it has advanced past.
    walked: usize,
}

impl ReadySets {
    /// The set before a run's first point: every one of `n_ranks` ready.
    pub fn new(n_ranks: usize) -> Self {
        ReadySets {
            ready: RankSet::full(n_ranks),
            n_ranks,
            walked: 0,
        }
    }

    /// Back to the set before the first point.
    pub fn reset(&mut self) {
        self.ready.fill(self.n_ranks);
        self.walked = 0;
    }

    /// Move to point `p`, the point after the last one advanced past: a
    /// `Turn` point's flips are applied; a `Match` point changes nothing.
    pub fn advance(&mut self, p: &DecisionPoint) {
        self.walked += 1;
        if let Alternatives::Turns(delta) = &p.alternatives {
            for r in delta.flipped() {
                let member = !self.ready.contains(r);
                self.ready.set(r, member);
            }
            debug_assert_eq!(self.ready.len(), delta.len(), "{p:?}");
        }
    }

    /// Advance past the points of `log` (whose first `walked` points it
    /// has advanced past already) up to and including point `i`.
    pub fn advance_through(&mut self, log: &[DecisionPoint], i: usize) {
        for p in &log[self.walked..=i] {
            self.advance(p);
        }
    }

    /// The ready set of the last `Turn` point advanced past.
    pub fn ready(&self) -> &RankSet {
        &self.ready
    }

    /// The choices at `p`, the last point advanced past, as [`Decision`]s
    /// in the order the explorer enumerates them: ascending rank for a
    /// `Turn` point, the recorded candidates for a `Match` point.
    pub fn alternatives<'a>(&'a self, p: &'a DecisionPoint) -> impl Iterator<Item = Decision> + 'a {
        let (ready, cands): (Option<&RankSet>, &[Decision]) = match &p.alternatives {
            Alternatives::Turns(_) => (Some(&self.ready), &[]),
            Alternatives::Matches(cands) => (None, cands),
        };
        ready
            .into_iter()
            .flat_map(RankSet::iter)
            .map(|rank| Decision::Turn { rank })
            .chain(cands.iter().copied())
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

    /// A run as the engine logs it: the live ready set, and the changes
    /// noted since the last `Turn` point.
    struct Log {
        ready: RankSet,
        changes: ReadyChanges,
    }

    impl Log {
        fn new(n_ranks: usize) -> Self {
            Log {
                ready: RankSet::full(n_ranks),
                changes: ReadyChanges::new(n_ranks),
            }
        }

        /// Flip the ready bit of each of `flips` in order, then log a
        /// `Turn` point granting `rank`.
        fn turn(&mut self, rank: u32, flips: &[u32]) -> DecisionPoint {
            for &r in flips {
                let member = !self.ready.contains(Rank(r));
                self.ready.set(Rank(r), member);
                self.changes.push(Rank(r));
            }
            DecisionPoint {
                chosen: Decision::Turn { rank: Rank(rank) },
                alternatives: Alternatives::Turns(ReadyDelta::new(&self.ready, &mut self.changes)),
            }
        }
    }

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
        assert!(!Log::new(2).turn(0, &[1]).is_branch());
        assert!(Log::new(2).turn(0, &[]).is_branch());
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
    fn rank_set_clone_from_copies_the_members() {
        let mut a = RankSet::full(130);
        a.clone_from(&RankSet::from_ranks(130, [Rank(7), Rank(128)]));
        assert_eq!(ranks(&a), [7, 128]);
        assert_eq!(a.len(), 2);
        let mut one = RankSet::new(8);
        one.clone_from(&RankSet::from_ranks(130, [Rank(100)]));
        assert_eq!((ranks(&one), one.len()), (vec![100], 1));
    }

    #[test]
    fn rank_set_full_and_clear_keep_the_size() {
        for n in [1usize, 63, 64, 65, 128, 130] {
            let mut set = RankSet::full(n);
            assert_eq!(set.len(), n);
            assert_eq!(ranks(&set), (0..n as u32).collect::<Vec<_>>(), "n={n}");
            assert!(!set.set(Rank(0), true), "already a member");
            assert!(set.set(Rank(0), false));
            assert!(!set.set(Rank(0), false), "already gone");
            set.clear();
            assert!(set.is_empty() && set.iter().next().is_none());
        }
    }

    #[test]
    fn a_delta_keeps_the_ranks_that_end_flipped() {
        let net = |flips: &[u32]| {
            let mut log = Log::new(80);
            let p = log.turn(79, flips);
            assert_eq!(p.alternatives.len(), log.ready.len());
            let again = log.turn(79, &[]);
            let Alternatives::Turns(d) = again.alternatives else {
                unreachable!()
            };
            assert_eq!(d.flipped().count(), 0, "nothing changed since");
            let Alternatives::Turns(d) = p.alternatives else {
                unreachable!()
            };
            d.flipped().map(|r| r.0).collect::<Vec<_>>()
        };
        assert_eq!(net(&[5, 2, 5]), [2]);
        assert_eq!(net(&[7, 7, 7, 1]), [1, 7]);
        assert_eq!(net(&[9, 4]), [4, 9]);
        assert!(net(&[4, 9, 9, 4]).is_empty());
        assert_eq!(net(&[1, 2, 3, 3, 2]), [1]);
        assert_eq!(net(&[3, 1, 2, 1, 5, 3]), [2, 5]);
        assert!(net(&[]).is_empty());
        let many: Vec<u32> = (0..70).rev().collect();
        assert_eq!(net(&many), (0..70).collect::<Vec<_>>());
        let back_and_forth: Vec<u32> = (0..70).chain(0..70).collect();
        assert!(net(&back_and_forth).is_empty());
    }

    #[test]
    fn alternatives_iterate_as_decisions_in_order() {
        // Ranks 2 and 65 of 70 stay ready.
        let mut log = Log::new(70);
        let gone: Vec<u32> = (0..70).filter(|&r| r != 2 && r != 65).rev().collect();
        let turns = log.turn(65, &gone);
        assert_eq!(turns.alternatives.len(), 2);
        let mut sets = ReadySets::new(70);
        sets.advance(&turns);
        assert_eq!(
            sets.alternatives(&turns).collect::<Vec<_>>(),
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
        let matches = DecisionPoint {
            chosen: m(4),
            alternatives: Alternatives::Matches(vec![m(1), m(4)].into()),
        };
        sets.advance(&matches);
        assert_eq!(matches.alternatives.len(), 2);
        assert_eq!(
            sets.alternatives(&matches).collect::<Vec<_>>(),
            vec![m(1), m(4)]
        );
        assert_ne!(turns.alternatives, matches.alternatives);
        assert_eq!(matches.alternatives, matches.alternatives.clone());
        assert!(!turns.alternatives.is_empty());
    }

    #[test]
    fn a_bulk_change_is_found_by_comparing_the_whole_set() {
        let flipped = |p: &DecisionPoint| match &p.alternatives {
            Alternatives::Turns(d) => d.flipped().map(|r| r.0).collect::<Vec<_>>(),
            Alternatives::Matches(_) => unreachable!(),
        };
        let mut log = Log::new(130);
        // Hold every rank but P64, then release them all.
        log.ready = RankSet::from_ranks(130, [Rank(64)]);
        log.changes.push_all();
        let held = log.turn(64, &[3]);
        assert_eq!(held.alternatives.len(), 2);
        let others: Vec<u32> = (0..130).filter(|&r| r != 64 && r != 3).collect();
        assert_eq!(flipped(&held), others);
        log.ready.clone_from(&RankSet::full(130));
        log.changes.push_all();
        assert_eq!(flipped(&log.turn(64, &[])), others);
        // Held and released between two points: nothing changed.
        log.ready.clear();
        log.changes.push_all();
        log.ready.clone_from(&RankSet::full(130));
        log.changes.push(Rank(9));
        assert!(flipped(&log.turn(64, &[])).is_empty());
        let mut sets = ReadySets::new(130);
        let mut log = Log::new(130);
        log.ready.clear();
        log.ready.set(Rank(129), true);
        log.changes.push_all();
        let p = log.turn(129, &[]);
        sets.advance(&p);
        assert_eq!(sets.ready(), &log.ready);
    }

    #[test]
    fn ready_sets_rebuild_each_turn_point_from_its_flips() {
        let m = |src| Decision::Match {
            dst: Rank(0),
            src: Rank(src),
            seq: 7,
        };
        // 70 ranks, all ready at launch; P65 is granted and leaves, then
        // P2 blocks and P65 comes back, then every rank but P65 flips at
        // once: P2 returns, the rest leave.
        let rest: Vec<u32> = (0..70).filter(|&r| r != 65).collect();
        let mut log = Log::new(70);
        let points = [
            log.turn(65, &[]),
            log.turn(2, &[65]),
            DecisionPoint {
                chosen: m(4),
                alternatives: Alternatives::Matches(vec![m(1), m(4)].into()),
            },
            log.turn(65, &[2, 65, 2, 65, 65, 2]),
            log.turn(65, &rest),
        ];
        let mut sets = ReadySets::new(70);
        let mut seen = Vec::new();
        for p in &points {
            sets.advance(p);
            let alts: Vec<Decision> = sets.alternatives(p).collect();
            assert_eq!(alts.len(), p.alternatives.len(), "{p:?}");
            assert!(alts.contains(&p.chosen));
            seen.push(alts);
        }
        assert_eq!(
            seen[2],
            vec![m(1), m(4)],
            "a match point lists its candidates"
        );
        assert!(seen[1].contains(&Decision::Turn { rank: Rank(2) }));
        assert!(!seen[1].contains(&Decision::Turn { rank: Rank(65) }));
        assert_eq!(
            seen[4],
            vec![
                Decision::Turn { rank: Rank(2) },
                Decision::Turn { rank: Rank(65) }
            ]
        );
        sets.reset();
        assert_eq!(sets.ready(), &RankSet::full(70));
    }

    #[test]
    fn a_turn_point_fits_in_48_bytes_however_wide_the_run() {
        let d = Log::new(70).turn(0, &(1..70).collect::<Vec<_>>());
        assert!(matches!(&d.alternatives, Alternatives::Turns(t) if t.flipped().count() == 69));
        assert!(std::mem::size_of::<DecisionPoint>() <= 48);
        assert!(std::mem::size_of::<ReadyDelta>() <= 24);
    }
}
