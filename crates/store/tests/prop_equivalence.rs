//! Query-equivalence battery: the on-disk store is a pure index, never a
//! filter. For arbitrary seeded workloads (with crash/hang/delay faults)
//! and arbitrary segment sizes, every store query — `events`, `by_rank`,
//! `by_tag`, `by_construct`, `by_time_window` — must return a sequence
//! byte-identical to the same selection over the in-memory reference
//! [`TraceStore`]. Every way of writing a store gives one image per
//! trace: the records the engine tees into a [`SharedWriter`], the
//! finished store through `ingest_store`, and any shuffle of its records
//! through `ingest_records` are written byte for byte alike. A store an
//! older writer left in arrival order (a committed fixture) still answers
//! every selection.

mod common;

use common::{fanin_programs, scratch_dir, NPROCS};
use proptest::prelude::*;
use std::path::Path;
use tracedbg_mpsim::{Engine, EngineConfig, FaultPlan, Rank, RecorderConfig, SchedPolicy, Tag};
use tracedbg_store::{
    ingest_records, ingest_store, DiskStore, SharedWriter, StoreOptions, StoreWriter,
};
use tracedbg_trace::file::read_text;
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
        .map(|id| *store.record(*id))
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

/// Every file of a store directory, by name.
fn files(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let p = e.unwrap().path();
            let name = p.file_name().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read(&p).unwrap())
        })
        .collect();
    files.sort();
    files
}

fn assert_same_files(a: &Path, b: &Path, what: &str) {
    let (a, b) = (files(a), files(b));
    let names = |f: &[(String, Vec<u8>)]| f.iter().map(|(n, _)| n.clone()).collect::<Vec<_>>();
    assert_eq!(names(&a), names(&b), "{what}: different files");
    for ((name, x), (_, y)) in a.iter().zip(&b) {
        assert!(x == y, "{what}: {name} differs");
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

        // The tee: the engine pushes each record it flushes, in arrival
        // order; the store is written when the writer finishes.
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

        // One-shot path: ingest the already-built reference store. One
        // trace, one image: the tee wrote the same bytes.
        let ingest_dir = scratch_dir("ingest");
        let ingested = ingest_store(&reference, &ingest_dir, opts).unwrap();
        assert_equivalent(&ingested, &reference);
        assert_same_files(&stream_dir, &ingest_dir, "tee vs ingest_store");

        drop(streamed);
        drop(ingested);
        let _ = std::fs::remove_dir_all(&stream_dir);
        let _ = std::fs::remove_dir_all(&ingest_dir);
    }

    /// The records of a trace in any order write the store their
    /// canonical order writes.
    #[test]
    fn any_shuffle_writes_the_canonical_image(
        seed in 0u64..1024,
        rounds in 1i64..4,
        segment_events in 4usize..64,
        shuffle in any::<u64>(),
    ) {
        let cfg = EngineConfig {
            policy: SchedPolicy::Seeded(seed),
            recorder: RecorderConfig::full(),
            ..Default::default()
        };
        let mut engine = Engine::launch(cfg, fanin_programs(rounds, 3));
        let _ = engine.run();
        let reference = engine.trace_store();
        let mut records = reference.records().to_vec();
        // Fisher-Yates over a xorshift stream.
        let mut x = shuffle | 1;
        for i in (1..records.len()).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            records.swap(i, (x % (i as u64 + 1)) as usize);
        }
        let opts = StoreOptions { segment_events };
        let (sites, n_ranks) = (reference.sites(), reference.n_ranks());
        let canonical_dir = scratch_dir("canonical");
        let shuffled_dir = scratch_dir("shuffled");
        ingest_records(reference.records(), sites, n_ranks, &canonical_dir, opts).unwrap();
        ingest_records(&records, sites, n_ranks, &shuffled_dir, opts).unwrap();
        assert_same_files(&canonical_dir, &shuffled_dir, "shuffled vs canonical");
        let _ = std::fs::remove_dir_all(&canonical_dir);
        let _ = std::fs::remove_dir_all(&shuffled_dir);
    }
}

/// `fixtures/ring-tee` is the store `tracedbg run ring --procs 4 --store`
/// wrote when the tee wrote frames in arrival order: its ids are not
/// canonical positions, so every selection goes through the reader's
/// permutation. It must keep answering as the golden ring trace does.
#[test]
fn an_arrival_order_store_answers_as_its_trace() {
    let manifest = env!("CARGO_MANIFEST_DIR");
    let fixture = Path::new(manifest).join("tests/fixtures/ring-tee");
    let golden = Path::new(manifest).join("../../tests/golden/ring.trc");
    let text = std::fs::read_to_string(golden).unwrap();
    let reference = read_text(text.as_bytes()).unwrap().into_store();
    let disk = DiskStore::open(&fixture).unwrap();
    let by_id: Vec<TraceRecord> = (0..disk.n_events())
        .map(|id| disk.fetch(id).unwrap())
        .collect();
    assert_ne!(
        by_id,
        reference.records(),
        "the fixture's canonical order is the identity: it covers nothing"
    );
    assert_equivalent(&disk, &reference);
    disk.verify().unwrap();
}
