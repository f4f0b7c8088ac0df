//! Property tests: both trace file formats round-trip arbitrary records.

use proptest::prelude::*;
use std::io::Cursor;
use tracedbg_trace::file::{read_binary, read_text, write_binary, write_text, TraceFile};
use tracedbg_trace::{EventKind, MsgInfo, Rank, SiteId, SiteTable, Tag, TraceRecord};

fn arb_kind() -> impl Strategy<Value = EventKind> {
    let all = EventKind::all();
    (0..all.len()).prop_map(move |i| all[i])
}

fn arb_label() -> impl Strategy<Value = Option<String>> {
    prop_oneof![
        Just(None),
        // No newlines (the text format is line-oriented); allow spaces
        // and punctuation.
        "[ -~]{0,40}".prop_map(Some),
    ]
}

fn arb_msg() -> impl Strategy<Value = Option<MsgInfo>> {
    prop_oneof![
        Just(None),
        (
            0u32..16,
            0u32..16,
            -2i32..100,
            0u32..1_000_000,
            0u64..10_000
        )
            .prop_map(|(src, dst, tag, bytes, seq)| Some(MsgInfo {
                src: Rank(src),
                dst: Rank(dst),
                tag: Tag(tag),
                bytes,
                seq,
            })),
    ]
}

prop_compose! {
    fn arb_record()(
        rank in 0u32..16,
        kind in arb_kind(),
        marker in 0u64..1_000_000,
        t0 in 0u64..1_000_000_000,
        dt in 0u64..1_000_000,
        site in prop_oneof![Just(SiteId::UNKNOWN), (0u32..50).prop_map(SiteId)],
        a0 in any::<i64>(),
        a1 in any::<i64>(),
        msg in arb_msg(),
        label in arb_label(),
    ) -> TraceRecord {
        TraceRecord {
            rank: Rank(rank),
            kind,
            marker,
            t_start: t0,
            t_end: t0 + dt,
            site,
            msg,
            args: [a0, a1],
            label,
        }
    }
}

fn arb_file() -> impl Strategy<Value = TraceFile> {
    (
        proptest::collection::vec(arb_record(), 0..60),
        proptest::collection::vec(
            ("[a-z./]{1,12}", 0u32..5000, "[A-Za-z_][A-Za-z0-9_]{0,10}"),
            0..10,
        ),
        0usize..16,
    )
        .prop_map(|(records, site_specs, n_ranks)| {
            let sites = SiteTable::new();
            for (f, l, fun) in site_specs {
                sites.site(&f, l, &fun);
            }
            TraceFile::new(records, sites, n_ranks)
        })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn text_roundtrip(f in arb_file()) {
        // The text format stores labels trimmed; empty labels read back as
        // absent. Normalize the expectation the same way.
        let expected: Vec<TraceRecord> = f.records.iter().cloned().map(|mut r| {
            if let Some(l) = r.label.take() {
                let t = l.trim_end().to_string();
                r.label = if t.is_empty() { None } else { Some(t) };
            }
            r
        }).collect();
        let mut buf = Vec::new();
        write_text(&mut buf, &f).unwrap();
        let back = read_text(Cursor::new(&buf)).unwrap();
        prop_assert_eq!(back.n_ranks, f.n_ranks);
        prop_assert_eq!(back.records.len(), expected.len());
        for (b, e) in back.records.iter().zip(&expected) {
            prop_assert_eq!(b, e);
        }
        prop_assert_eq!(back.sites.len(), f.sites.len());
    }

    #[test]
    fn binary_roundtrip(f in arb_file()) {
        let mut buf = Vec::new();
        write_binary(&mut buf, &f).unwrap();
        let back = read_binary(Cursor::new(&buf)).unwrap();
        prop_assert_eq!(back.n_ranks, f.n_ranks);
        prop_assert_eq!(back.records, f.records.clone());
        prop_assert_eq!(back.sites.snapshot(), f.sites.snapshot());
    }

    #[test]
    fn markers_at_time_is_monotone(
        f in arb_file(),
        t1 in 0u64..2_000_000_000,
        t2 in 0u64..2_000_000_000,
    ) {
        let store = f.into_store();
        let (lo, hi) = (t1.min(t2), t1.max(t2));
        let early = store.markers_at_time(lo);
        let late = store.markers_at_time(hi);
        for (a, b) in early.counts().iter().zip(late.counts()) {
            prop_assert!(a <= b, "cut must grow with time");
        }
    }
}
