//! Query-equivalence battery: the on-disk store is a pure index, never a
//! filter. For arbitrary seeded workloads (with crash/hang/delay faults)
//! and arbitrary segment sizes, every store query — `events`, `by_rank`,
//! `by_tag`, `by_construct`, `by_time_window` — must return a sequence
//! byte-identical to the same selection over the in-memory reference
//! [`TraceStore`]. Both ingestion paths are pinned: the one-shot
//! `ingest_store` conversion and the streaming `TraceSink` the engine
//! writes through while the run executes.

mod common;

use common::{fanin_programs, scratch_dir, NPROCS};
use proptest::prelude::*;
use tracedbg_mpsim::{Engine, EngineConfig, FaultPlan, Rank, RecorderConfig, SchedPolicy, Tag};
use tracedbg_store::{ingest_store, DiskStore, SharedWriter, StoreOptions, StoreWriter};
use tracedbg_trace::schedule::Fault;
use tracedbg_trace::{EventKind, TraceRecord, TraceSource, TraceStore};

fn arb_faults() -> impl Strategy<Value = Vec<Fault>> {
    let w = 1u32..NPROCS as u32;
    prop_oneof![
        Just(Vec::new()),
        (w.clone(), 0u64..6).prop_map(|(r, k)| vec![Fault::Crash {
            rank: Rank(r),
            after_ops: k,
        }]),
        (w.clone(), 0u64..6).prop_map(|(r, k)| vec![Fault::Hang {
            rank: Rank(r),
            after_ops: k,
        }]),
        (w, 0u64..4, 1u64..500).prop_map(|(src, nth, extra_ns)| vec![Fault::Delay {
            src: Rank(src),
            dst: Rank(0),
            nth,
            extra_ns,
        }]),
    ]
}

/// Reference answers computed by linear scan over the in-memory store.
fn ref_by_rank(store: &TraceStore, rank: Rank) -> Vec<TraceRecord> {
    if rank.ix() >= store.n_ranks() {
        return Vec::new();
    }
    store
        .by_rank(rank)
        .iter()
        .map(|id| store.record(*id).clone())
        .collect()
}

fn ref_by_tag(store: &TraceStore, tag: Tag) -> Vec<TraceRecord> {
    store
        .records()
        .iter()
        .filter(|r| r.msg.as_ref().is_some_and(|m| m.tag == tag))
        .cloned()
        .collect()
}

fn ref_by_kind(store: &TraceStore, kind: EventKind) -> Vec<TraceRecord> {
    store
        .records()
        .iter()
        .filter(|r| r.kind == kind)
        .cloned()
        .collect()
}

fn ref_window(store: &TraceStore, lo: u64, hi: u64) -> Vec<TraceRecord> {
    store
        .records()
        .iter()
        .filter(|r| r.t_start <= hi && r.t_end >= lo)
        .cloned()
        .collect()
}

fn assert_equivalent(disk: &DiskStore, reference: &TraceStore) {
    assert_eq!(disk.n_events(), reference.len() as u64);
    assert_eq!(disk.n_ranks(), reference.n_ranks());
    assert_eq!(disk.time_bounds(), reference.time_bounds());
    assert_eq!(
        disk.sites().snapshot(),
        reference.sites().snapshot(),
        "site tables diverged"
    );
    let src: &dyn TraceSource = disk;
    assert_eq!(
        src.events().unwrap(),
        reference.records().to_vec(),
        "full canonical scan diverged"
    );
    // One rank past the end: empty, not an error.
    for r in 0..=reference.n_ranks() {
        let rank = Rank(r as u32);
        assert_eq!(
            src.by_rank(rank).unwrap(),
            ref_by_rank(reference, rank),
            "by_rank({}) diverged",
            r
        );
    }
    let mut tags: Vec<Tag> = reference
        .records()
        .iter()
        .filter_map(|r| r.msg.as_ref().map(|m| m.tag))
        .collect();
    tags.sort();
    tags.dedup();
    tags.push(Tag(12345)); // absent tag: empty, not an error
    for tag in tags {
        assert_eq!(
            src.by_tag(tag).unwrap(),
            ref_by_tag(reference, tag),
            "by_tag({}) diverged",
            tag.0
        );
    }
    for kind in EventKind::all() {
        assert_eq!(
            src.by_construct(kind).unwrap(),
            ref_by_kind(reference, kind),
            "by_construct({}) diverged",
            kind.code()
        );
    }
    let (lo, hi) = reference.time_bounds();
    let mid = lo + (hi - lo) / 2;
    let windows = [
        (lo, hi),
        (lo, mid),
        (mid, hi),
        (mid, mid),
        (hi + 1, hi + 100), // beyond the end: empty
        (0, 0),
        // Late: everything before it is skipped on its peeked span, not
        // decoded, and must be skipped exactly as the linear scan does.
        (hi - (hi - lo) / 8, hi),
        (hi, hi),
        // Inverted (`lo > hi`): by the same rule, the events that start
        // no later than the second bound and end no earlier than the first.
        (hi, lo),
        (mid + 1, mid),
    ];
    for (wlo, whi) in windows {
        assert_eq!(
            src.by_time_window(wlo, whi).unwrap(),
            ref_window(reference, wlo, whi),
            "by_time_window({}, {}) diverged",
            wlo,
            whi
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn disk_queries_match_linear_scan(
        seed in 0u64..1024,
        rounds in 1i64..4,
        segment_events in 4usize..64,
        faults in arb_faults(),
    ) {
        let cfg = || EngineConfig {
            policy: SchedPolicy::Seeded(seed),
            recorder: RecorderConfig::full(),
            faults: FaultPlan::new(faults.clone()),
            ..Default::default()
        };
        let opts = StoreOptions { segment_events };

        // Streaming path: the engine writes through the sink while it
        // runs; nothing is re-fed afterwards.
        let stream_dir = scratch_dir("stream");
        let shared = SharedWriter::new(StoreWriter::create(&stream_dir, opts).unwrap());
        let mut engine = Engine::launch(cfg(), fanin_programs(rounds, 3));
        engine.attach_trace_sink(Box::new(shared.clone()));
        let _ = engine.run();
        let reference = engine.trace_store();
        engine.detach_trace_sink();
        shared.finish(reference.sites(), reference.n_ranks()).unwrap();
        let streamed = DiskStore::open(&stream_dir).unwrap();
        assert_equivalent(&streamed, &reference);
        streamed.verify().unwrap();

        // One-shot path: ingest the already-built reference store.
        let ingest_dir = scratch_dir("ingest");
        let ingested = ingest_store(&reference, &ingest_dir, opts).unwrap();
        assert_equivalent(&ingested, &reference);

        drop(streamed);
        drop(ingested);
        let _ = std::fs::remove_dir_all(&stream_dir);
        let _ = std::fs::remove_dir_all(&ingest_dir);
    }
}
