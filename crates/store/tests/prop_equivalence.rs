//! Query-equivalence battery: the on-disk store is a pure index, never a
//! filter. For generated cases (random SDL programs and corpus scripts
//! under crash/hang/delay faults, from the one generator of cases in
//! `tests/oracle/cases.rs`) and arbitrary segment sizes, every store query
//! — `events`, `by_rank`, `by_tag`, `by_construct`, `by_time_window` —
//! must return a sequence byte-identical to the same selection over the
//! in-memory reference [`TraceStore`]. Every way of writing a store gives
//! one image per trace: the records a debugger session hands a detached
//! [`SharedWriter`], the finished store through `ingest_store`, and any
//! shuffle of its records through `ingest_records` are written byte for
//! byte alike. A store an older writer left in arrival order (a committed
//! fixture) still answers every selection.

#[path = "../../../tests/oracle/cases.rs"]
mod cases;
mod common;

use cases::arb_case;
use common::scratch_dir;
use proptest::prelude::*;
use std::path::Path;
use tracedbg_debugger::{Session, SessionConfig};
use tracedbg_mpsim::{Engine, Rank, Tag};
use tracedbg_store::{
    ingest_records, ingest_store, DiskStore, SharedWriter, StoreOptions, StoreWriter,
};
use tracedbg_trace::file::read_text;
use tracedbg_trace::{EventKind, Select, TraceRecord, TraceSource, TraceStore};
use tracedbg_workloads::script;

/// Every selection of `disk` equals the linear scan of `reference`.
fn assert_equivalent(disk: &DiskStore, reference: &TraceStore, what: &str) {
    let got = (disk.n_events(), disk.n_ranks(), disk.time_bounds());
    let want = (
        reference.len() as u64,
        reference.n_ranks(),
        reference.time_bounds(),
    );
    assert_eq!(got, want, "{what}: events, ranks, time bounds");
    let same_sites = disk.sites().snapshot() == reference.sites().snapshot();
    assert!(same_sites, "{what}: site tables diverged");
    // One rank past the end and an absent tag: empty, not an error.
    let ranks = (0..=reference.n_ranks() as u32).map(|r| Select::Rank(Rank(r)));
    let mut tags: Vec<Tag> = reference
        .records()
        .iter()
        .filter_map(|r| r.msg.map(|m| m.tag))
        .collect();
    tags.sort();
    tags.dedup();
    let tags = tags.into_iter().chain([Tag(12345)]).map(Select::Tag);
    let kinds = EventKind::all().into_iter().map(Select::Kind);
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
    let windows = windows.map(|(a, b)| Select::TimeWindow(a, b));
    let src: &dyn TraceSource = disk;
    for sel in [Select::All]
        .into_iter()
        .chain(ranks)
        .chain(tags)
        .chain(kinds)
        .chain(windows)
    {
        let got: Result<Vec<_>, _> = src.select(sel).unwrap().collect();
        let want: Vec<_> = reference
            .records()
            .iter()
            .filter(|r| selects(sel, r))
            .copied()
            .collect();
        assert_eq!(got.unwrap(), want, "{what}: {sel:?} diverged");
    }
}

/// Whether the linear scan of a selection keeps `r`.
fn selects(sel: Select, r: &TraceRecord) -> bool {
    match sel {
        Select::All => true,
        Select::Rank(rank) => r.rank == rank,
        Select::Tag(tag) => r.msg.is_some_and(|m| m.tag == tag),
        Select::Kind(kind) => r.kind == kind,
        Select::TimeWindow(lo, hi) => r.t_start <= hi && r.t_end >= lo,
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
        case in arb_case(),
        segment_events in 4usize..64,
    ) {
        tracedbg_mpsim::set_quiet_panics(true);
        let opts = StoreOptions { segment_events };
        let what = format!("segments of {segment_events}, case {case}");

        // The tee: a session hands a detached sink each record its run
        // logged, in arrival order; the store is written when the writer
        // finishes.
        let stream_dir = scratch_dir("stream");
        let shared = SharedWriter::new(StoreWriter::create(&stream_dir, opts).unwrap());
        let run = case.config();
        let cfg = SessionConfig {
            policy: run.policy,
            recorder: run.recorder,
            faults: run.faults,
            ..Default::default()
        };
        let parsed = script::parse(&case.source).expect("the case parses");
        let (procs, file) = (case.procs, case.file.clone());
        let factory = Box::new(move || script::programs(&parsed, procs, &file));
        let mut session = Session::launch(cfg, factory);
        session.attach_trace_sink(Box::new(shared.clone()));
        session.run();
        let reference = session.trace();
        session.detach_trace_sink();
        shared.finish(reference.sites(), reference.n_ranks()).unwrap();
        let streamed = DiskStore::open(&stream_dir).unwrap();
        assert_equivalent(&streamed, &reference, &format!("tee, {what}"));
        streamed.verify().unwrap();

        // One-shot path: ingest the already-built reference store. One
        // trace, one image: the tee wrote the same bytes.
        let ingest_dir = scratch_dir("ingest");
        let ingested = ingest_store(&reference, &ingest_dir, opts).unwrap();
        assert_equivalent(&ingested, &reference, &format!("ingest_store, {what}"));
        assert_same_files(&stream_dir, &ingest_dir, &format!("tee vs ingest_store, {what}"));

        drop(streamed);
        drop(ingested);
        let _ = std::fs::remove_dir_all(&stream_dir);
        let _ = std::fs::remove_dir_all(&ingest_dir);
    }

    /// The records of a trace in any order write the store their
    /// canonical order writes.
    #[test]
    fn any_shuffle_writes_the_canonical_image(
        case in arb_case(),
        segment_events in 4usize..64,
        shuffle in any::<u64>(),
    ) {
        tracedbg_mpsim::set_quiet_panics(true);
        let mut engine = Engine::launch(case.config(), case.programs());
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
        let what = format!("shuffle {shuffle} vs canonical, segments of {segment_events}, case {case}");
        assert_same_files(&canonical_dir, &shuffled_dir, &what);
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
    assert_equivalent(&disk, &reference, "ring-tee");
    disk.verify().unwrap();
}
