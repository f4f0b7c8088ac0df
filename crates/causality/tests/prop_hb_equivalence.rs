//! Equivalence of the on-demand cones with the dense tables they replaced.
//!
//! `dense` below is the previous `HbIndex`: a vector clock *and* an
//! earliest-successor vector per event (two events × ranks tables), built
//! by a forward and a reverse sweep, and the previous `detect_races` loop
//! over it. It lives here, as a test oracle, and nowhere else. Generated
//! traces mix exact-source transfers, tag-selective and wildcard receives
//! with competing senders, full barriers, and a truncation point that can
//! leave some ranks without their last collective instance or a send
//! without its receive.

use proptest::prelude::*;
use std::collections::VecDeque;
use tracedbg_causality::{detect_races, HbIndex, MessageRace, VectorClock};
use tracedbg_trace::{
    CollKind, EventId, EventKind, MsgInfo, Rank, SiteTable, Tag, TraceRecord, TraceStore,
};
use tracedbg_tracegraph::MessageMatching;

mod dense {
    use super::*;

    pub const NO_SUCC: u64 = u64::MAX;

    pub struct DenseHb {
        clocks: Vec<VectorClock>,
        succ_min: Vec<Vec<u64>>,
    }

    impl DenseHb {
        pub fn build(store: &TraceStore, matching: &MessageMatching) -> Self {
            let n_ranks = store.n_ranks();
            let n_events = store.len();
            let lane = |r: usize| store.by_rank(Rank(r as u32));
            let rank_of = |id: EventId| store.record(id).rank.ix();
            let mut send_of = vec![None::<EventId>; n_events];
            let mut recv_of = vec![None::<EventId>; n_events];
            for m in &matching.matched {
                send_of[m.recv.ix()] = Some(m.send);
                recv_of[m.send.ix()] = Some(m.recv);
            }
            let mut coll_instance = vec![None::<usize>; n_events];
            let mut instances: Vec<Vec<EventId>> = Vec::new();
            for r in 0..n_ranks {
                let colls = lane(r)
                    .iter()
                    .filter(|id| matches!(store.record(**id).kind, EventKind::Collective(_)));
                for (i, &id) in colls.enumerate() {
                    coll_instance[id.ix()] = Some(i);
                    if instances.len() <= i {
                        instances.resize(i + 1, Vec::new());
                    }
                    instances[i].push(id);
                }
            }

            // ---- forward sweep: vector clocks ----
            let mut clocks: Vec<Option<VectorClock>> = vec![None; n_events];
            let mut cursor = vec![0usize; n_ranks];
            let prev_clock = |clocks: &Vec<Option<VectorClock>>, r: usize, cur: usize| {
                if cur == 0 {
                    VectorClock::zero(n_ranks)
                } else {
                    clocks[lane(r)[cur - 1].ix()].clone().unwrap()
                }
            };
            let mut progressed = true;
            while progressed {
                progressed = false;
                for r in 0..n_ranks {
                    while cursor[r] < lane(r).len() {
                        let id = lane(r)[cursor[r]];
                        if let Some(i) = coll_instance[id.ix()] {
                            let ready = instances[i].iter().all(|&pid| {
                                let pr = rank_of(pid);
                                cursor[pr] < lane(pr).len() && lane(pr)[cursor[pr]] == pid
                            });
                            if !ready {
                                break;
                            }
                            let mut merged = VectorClock::zero(n_ranks);
                            for &pid in &instances[i] {
                                let pr = rank_of(pid);
                                merged.merge(&prev_clock(&clocks, pr, cursor[pr]));
                            }
                            for &pid in &instances[i] {
                                merged.inc(rank_of(pid));
                            }
                            for &pid in &instances[i] {
                                clocks[pid.ix()] = Some(merged.clone());
                                cursor[rank_of(pid)] += 1;
                            }
                            progressed = true;
                            continue;
                        }
                        if let Some(send) = send_of[id.ix()] {
                            if clocks[send.ix()].is_none() {
                                break;
                            }
                        }
                        let mut vc = prev_clock(&clocks, r, cursor[r]);
                        if let Some(send) = send_of[id.ix()] {
                            vc.merge(clocks[send.ix()].as_ref().unwrap());
                        }
                        vc.inc(r);
                        clocks[id.ix()] = Some(vc);
                        cursor[r] += 1;
                        progressed = true;
                    }
                }
            }
            assert!(
                (0..n_ranks).all(|r| cursor[r] == lane(r).len()),
                "generated trace is not causal"
            );
            let clocks: Vec<VectorClock> = clocks.into_iter().map(Option::unwrap).collect();

            // ---- reverse sweep: earliest causal successors ----
            let mut succ_min: Vec<Option<Vec<u64>>> = vec![None; n_events];
            let mut rcursor: Vec<isize> =
                (0..n_ranks).map(|r| lane(r).len() as isize - 1).collect();
            let next_succ = |succ_min: &Vec<Option<Vec<u64>>>, r: usize, cur: isize| {
                if (cur as usize) + 1 < lane(r).len() {
                    succ_min[lane(r)[cur as usize + 1].ix()].clone().unwrap()
                } else {
                    vec![NO_SUCC; n_ranks]
                }
            };
            let mut progressed = true;
            while progressed {
                progressed = false;
                for r in 0..n_ranks {
                    while rcursor[r] >= 0 {
                        let id = lane(r)[rcursor[r] as usize];
                        if let Some(i) = coll_instance[id.ix()] {
                            let ready = instances[i].iter().all(|&pid| {
                                let pr = rank_of(pid);
                                rcursor[pr] >= 0 && lane(pr)[rcursor[pr] as usize] == pid
                            });
                            if !ready {
                                break;
                            }
                            let mut s = vec![NO_SUCC; n_ranks];
                            for &pid in &instances[i] {
                                let pr = rank_of(pid);
                                let ns = next_succ(&succ_min, pr, rcursor[pr]);
                                for (a, b) in s.iter_mut().zip(&ns) {
                                    *a = (*a).min(*b);
                                }
                            }
                            for &pid in &instances[i] {
                                let pr = rank_of(pid);
                                s[pr] = s[pr].min(store.record(pid).marker);
                            }
                            for &pid in &instances[i] {
                                succ_min[pid.ix()] = Some(s.clone());
                                rcursor[rank_of(pid)] -= 1;
                            }
                            progressed = true;
                            continue;
                        }
                        if let Some(recv) = recv_of[id.ix()] {
                            if succ_min[recv.ix()].is_none() {
                                break;
                            }
                        }
                        let mut s = next_succ(&succ_min, r, rcursor[r]);
                        if let Some(recv) = recv_of[id.ix()] {
                            let rs = succ_min[recv.ix()].as_ref().unwrap();
                            for (a, b) in s.iter_mut().zip(rs) {
                                *a = (*a).min(*b);
                            }
                        }
                        s[r] = s[r].min(store.record(id).marker);
                        succ_min[id.ix()] = Some(s);
                        rcursor[r] -= 1;
                        progressed = true;
                    }
                }
            }
            DenseHb {
                clocks,
                succ_min: succ_min.into_iter().map(Option::unwrap).collect(),
            }
        }

        pub fn clock(&self, e: EventId) -> &VectorClock {
            &self.clocks[e.ix()]
        }

        pub fn happens_before(&self, store: &TraceStore, a: EventId, b: EventId) -> bool {
            if a == b {
                return false;
            }
            let ra = store.record(a).rank.ix();
            self.clocks[a.ix()].get(ra) <= self.clocks[b.ix()].get(ra)
                && self.clocks[a.ix()].le(&self.clocks[b.ix()])
        }

        pub fn past_markers(&self, e: EventId) -> Vec<u64> {
            self.clocks[e.ix()].components().to_vec()
        }

        pub fn future_markers(&self, e: EventId) -> Vec<u64> {
            self.succ_min[e.ix()].clone()
        }
    }

    /// The previous race loop: every send of the trace rescanned per
    /// wildcard receive, two dense happens-before queries per candidate.
    pub fn detect_races(
        store: &TraceStore,
        matching: &MessageMatching,
        hb: &DenseHb,
    ) -> Vec<MessageRace> {
        let mut races = Vec::new();
        let sends: Vec<EventId> = store.of_kind(EventKind::Send);
        for r in 0..store.n_ranks() {
            let rank = Rank(r as u32);
            let mut pending: VecDeque<(bool, i64)> = VecDeque::new();
            for &id in store.by_rank(rank) {
                let rec = store.record(id);
                match rec.kind {
                    EventKind::RecvPost => pending.push_back((rec.args[0] < 0, rec.args[1])),
                    EventKind::RecvDone => {
                        let Some((true, want_tag)) = pending.pop_front() else {
                            continue;
                        };
                        let Some(m) = matching.match_of_recv(id) else {
                            continue;
                        };
                        let mut alternatives = Vec::new();
                        for &s in &sends {
                            let info = store.record(s).msg.unwrap();
                            if info.dst != rank || info.src == m.info.src {
                                continue;
                            }
                            if want_tag >= 0 && info.tag.0 as i64 != want_tag {
                                continue;
                            }
                            if hb.happens_before(store, id, s) {
                                continue;
                            }
                            if let Some(other) = matching.match_of_send(s) {
                                if hb.happens_before(store, other.recv, id) || other.recv == id {
                                    continue;
                                }
                            }
                            alternatives.push(s);
                        }
                        if !alternatives.is_empty() {
                            races.push(MessageRace {
                                recv: id,
                                actual_send: m.send,
                                alternatives,
                            });
                        }
                    }
                    _ => {}
                }
            }
        }
        races
    }
}

/// xorshift64*: the generator must not depend on the proptest shim's
/// strategies for its inner choices.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        (self.0.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 33) as usize % n
    }
}

/// Generate a causal trace by simulating one legal interleaving: sends go
/// into per-channel in-flight queues, a receive takes the head of a queue
/// (or the first message with a wanted tag), a barrier emits one record on
/// every rank. Records carry a global tick as `t_start`, so canonical
/// order is generation order and cutting the record list at `keep`
/// permille is a consistent truncation.
fn generate(seed: u64, n_ranks: usize, n_ops: usize, keep: usize) -> TraceStore {
    let mut rng = Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
    let mut recs: Vec<TraceRecord> = Vec::new();
    let mut marker = vec![0u64; n_ranks];
    let mut seq = vec![0u64; n_ranks * n_ranks];
    // In-flight messages per (src, dst), in send order.
    let mut flight: Vec<VecDeque<MsgInfo>> = vec![VecDeque::new(); n_ranks * n_ranks];
    let mut emit = |recs: &mut Vec<TraceRecord>,
                    rank: usize,
                    kind: EventKind,
                    decorate: &dyn Fn(TraceRecord) -> TraceRecord| {
        marker[rank] += 1;
        let t = recs.len() as u64;
        let rec = TraceRecord::basic(rank as u32, kind, marker[rank], t).with_span(t, t + 1);
        recs.push(decorate(rec));
    };
    let plain = |rec: TraceRecord| rec;
    for _ in 0..n_ops {
        match rng.below(10) {
            0 => {
                for r in 0..n_ranks {
                    emit(
                        &mut recs,
                        r,
                        EventKind::Collective(CollKind::Barrier),
                        &plain,
                    );
                }
            }
            1 => emit(&mut recs, rng.below(n_ranks), EventKind::Compute, &plain),
            2..=5 => {
                // A few hot destinations make senders compete.
                let dst = rng.below(n_ranks.min(3));
                let src = (dst + 1 + rng.below(n_ranks - 1)) % n_ranks;
                let ch = src * n_ranks + dst;
                let info = MsgInfo {
                    src: Rank(src as u32),
                    dst: Rank(dst as u32),
                    tag: Tag(1 + rng.below(2) as i32),
                    bytes: 8,
                    seq: seq[ch],
                };
                seq[ch] += 1;
                flight[ch].push_back(info);
                emit(&mut recs, src, EventKind::Send, &|rec| rec.with_msg(info));
            }
            _ => {
                let busy: Vec<usize> = (0..n_ranks * n_ranks)
                    .filter(|&ch| !flight[ch].is_empty())
                    .collect();
                if busy.is_empty() {
                    continue;
                }
                let ch = busy[rng.below(busy.len())];
                let (src, dst) = (ch / n_ranks, ch % n_ranks);
                // Tag-selective receives may overtake within a channel.
                let (at, want_tag) = if rng.below(3) == 0 {
                    let at = rng.below(flight[ch].len());
                    let tag = flight[ch][at].tag;
                    let first = flight[ch].iter().position(|m| m.tag == tag).unwrap();
                    (first, tag.0 as i64)
                } else {
                    (0, -1)
                };
                let info = flight[ch].remove(at).unwrap();
                let want_src = if rng.below(3) == 0 { src as i64 } else { -1 };
                emit(&mut recs, dst, EventKind::RecvPost, &|rec| {
                    rec.with_args(want_src, want_tag)
                });
                emit(&mut recs, dst, EventKind::RecvDone, &|rec| {
                    rec.with_msg(info)
                });
            }
        }
    }
    recs.truncate((recs.len() * keep).div_ceil(1000));
    TraceStore::build(recs, SiteTable::new(), n_ranks)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    #[test]
    fn cones_equal_the_dense_tables(
        seed in 0u64..1_000_000,
        n_ranks in 2usize..25,
        n_ops in 1usize..160,
        keep in 400usize..1400,
    ) {
        let store = generate(seed, n_ranks, n_ops, keep.min(1000));
        let matching = MessageMatching::build(&store);
        let dense = dense::DenseHb::build(&store, &matching);
        let hb = HbIndex::build(&store, &matching);
        prop_assert_eq!(hb.check_causal(), Ok(()));
        for e in store.ids() {
            prop_assert_eq!(hb.past_markers(e), dense.past_markers(e), "past of {:?}", e);
            prop_assert_eq!(hb.future_markers(e), dense.future_markers(e), "future of {:?}", e);
            prop_assert_eq!(&hb.clock(e), dense.clock(e), "clock of {:?}", e);
        }
        // All pairs on small traces; on larger ones every `a` against an
        // evenly spaced sample of `b` (one cone walk per pair).
        let stride = if store.len() <= 64 { 1 } else { 1 + store.len() / 32 };
        for b in store.ids().step_by(stride) {
            for a in store.ids() {
                prop_assert_eq!(
                    hb.happens_before(a, b),
                    dense.happens_before(&store, a, b),
                    "{:?} -> {:?}", a, b
                );
            }
        }
        prop_assert_eq!(
            detect_races(&store, &matching, &hb),
            dense::detect_races(&store, &matching, &dense)
        );
    }
}

#[test]
fn generator_covers_the_interesting_shapes() {
    let (mut races, mut both_ways, mut truncated_instances, mut lost) = (0, 0, 0, 0);
    for seed in 0..200u64 {
        let n_ranks = 2 + (seed as usize % 23);
        let store = generate(seed, n_ranks, 120, 600 + (seed as usize % 5) * 100);
        let matching = MessageMatching::build(&store);
        let hb = HbIndex::build(&store, &matching);
        races += detect_races(&store, &matching, &hb).len();
        lost += matching.unmatched_sends.len();
        for instance in tracedbg_causality::collective_instances(&store) {
            if instance.len() < n_ranks {
                truncated_instances += 1;
            }
            if let [a, b, ..] = instance[..] {
                both_ways += (hb.happens_before(a, b) && hb.happens_before(b, a)) as usize;
            }
        }
    }
    assert!(races > 100, "races: {races}");
    assert!(
        both_ways > 100,
        "same-instance pairs ordered both ways: {both_ways}"
    );
    assert!(
        truncated_instances > 10,
        "truncated instances: {truncated_instances}"
    );
    assert!(lost > 100, "unmatched sends: {lost}");
}
