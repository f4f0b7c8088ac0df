//! Property tests: mailbox matching preserves the MPI non-overtaking
//! invariant under arbitrary operation sequences, and hands every
//! message over with the bytes it was sent with, its payload held inline
//! (up to 22 bytes) or shared (longer).

use proptest::prelude::*;
use tracedbg_mpsim::{Envelope, Mailbox, MatchSpec, Payload};
use tracedbg_trace::{Rank, SiteId, Tag};

#[derive(Clone, Debug)]
enum Op {
    /// Deposit a message of `len` bytes from `src` with `tag`.
    Push { src: u32, tag: i32, len: usize },
    /// Attempt a receive with the given spec; deterministic candidate
    /// choice (earliest arrival, lowest source).
    Recv { src: Option<u32>, tag: Option<i32> },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u32..4, 0i32..3, prop_oneof![0usize..=22, 23usize..=64])
            .prop_map(|(src, tag, len)| Op::Push { src, tag, len }),
        (
            prop_oneof![Just(None), (0u32..4).prop_map(Some)],
            prop_oneof![Just(None), (0i32..3).prop_map(Some)],
        )
            .prop_map(|(src, tag)| Op::Recv { src, tag }),
    ]
}

/// The payload of message `seq` from `src`: `len` bytes that tell it
/// apart from every other message of the run.
fn payload(src: u32, seq: u64, len: usize) -> Payload {
    Payload::from(
        (0..len)
            .map(|i| (src as usize * 31 + seq as usize * 7 + i) as u8)
            .collect::<Vec<u8>>(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn non_overtaking_invariant(ops in proptest::collection::vec(arb_op(), 1..80)) {
        let mut mb = Mailbox::new();
        let mut next_seq = [0u64; 4];
        let mut arrival = 0u64;
        let mut taken = 0u64;
        let mut sent = std::collections::HashMap::new();
        let mut cands = Vec::new();
        // Last delivered seq per (src, tag).
        let mut last_delivered: std::collections::HashMap<(u32, i32), u64> =
            Default::default();
        for op in &ops {
            match op {
                Op::Push { src, tag, len } => {
                    arrival += 7;
                    let seq = next_seq[*src as usize];
                    next_seq[*src as usize] += 1;
                    sent.insert((*src, seq), *len);
                    mb.push(Envelope {
                        src: Rank(*src),
                        dst: Rank(0),
                        tag: Tag(*tag),
                        seq,
                        arrival,
                        send_marker: 0,
                        send_site: SiteId::UNKNOWN,
                        synchronous: false,
                        payload: payload(*src, seq, *len),
                    });
                }
                Op::Recv { src, tag } => {
                    let spec = MatchSpec::new(src.map(Rank), tag.map(Tag));
                    mb.candidates(&spec, &mut cands);
                    // At most one candidate per source.
                    let mut seen = std::collections::HashSet::new();
                    for c in &cands {
                        prop_assert!(seen.insert(c.src), "two candidates from one source");
                    }
                    if let Some(best) = cands.iter().min_by_key(|c| (c.arrival, c.src)) {
                        let env = mb.take(*best);
                        taken += 1;
                        // Non-overtaking: messages on one (src, tag) lane
                        // are delivered in send order.
                        let k = (env.src.0, env.tag.0);
                        if let Some(prev) = last_delivered.get(&k) {
                            prop_assert!(env.seq > *prev,
                                "delivered {} after {} on {:?}", env.seq, prev, k);
                        }
                        last_delivered.insert(k, env.seq);
                        // The spec admitted what we took, and the bytes
                        // are the ones sent.
                        prop_assert!(spec.admits(&env));
                        let len = sent[&(env.src.0, env.seq)];
                        prop_assert_eq!(&env.payload, &payload(env.src.0, env.seq, len));
                        prop_assert_eq!(env.payload.len(), len);
                    }
                }
            }
        }
        // Conservation: pushes == deliveries + still pending.
        let pushed: u64 = next_seq.iter().sum();
        prop_assert_eq!(mb.undelivered().len() as u64, pushed - taken);
    }

    #[test]
    fn wildcard_candidates_superset_of_specific(
        ops in proptest::collection::vec(arb_op(), 1..40),
        src in 0u32..4,
    ) {
        let mut mb = Mailbox::new();
        let mut next_seq = [0u64; 4];
        for (i, op) in ops.iter().enumerate() {
            if let Op::Push { src, tag, len } = op {
                let seq = next_seq[*src as usize];
                next_seq[*src as usize] += 1;
                mb.push(Envelope {
                    src: Rank(*src),
                    dst: Rank(0),
                    tag: Tag(*tag),
                    seq,
                    arrival: i as u64,
                    send_marker: 0,
                    send_site: SiteId::UNKNOWN,
                    synchronous: false,
                    payload: payload(*src, seq, *len),
                });
            }
        }
        // Any message matchable by (src, ANY) is also matchable by
        // (ANY, ANY)'s candidate set for that source.
        let (mut specific, mut wild) = (Vec::new(), Vec::new());
        mb.candidates(&MatchSpec::new(Some(Rank(src)), None), &mut specific);
        mb.candidates(&MatchSpec::any(), &mut wild);
        for c in &specific {
            prop_assert!(
                wild.iter().any(|w| w.src == c.src && w.seq == c.seq),
                "specific candidate missing from wildcard set"
            );
        }
    }
}
