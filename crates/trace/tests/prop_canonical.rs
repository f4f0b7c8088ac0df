//! The canonical order has one definition: a stable merge of the arriving
//! records' ascending runs. These properties hold every way of building a
//! store — from one vector, from a log it clones out of, from a log it
//! consumes — to a stable sort by `(t_start, rank, marker)`, on the shape
//! the engine hands over (per-rank flushes, many equal keys), on shuffled
//! input and on every golden trace re-cut into per-rank flushes.

use proptest::prelude::*;
use tracedbg_trace::file::read_text;
use tracedbg_trace::{ChunkLog, EventKind, Rank, SiteTable, TraceRecord, TraceStore};

/// What the merge must equal: a stable sort, so records with one key stay
/// in arrival order (every record carries its arrival index in `args[0]`,
/// which the comparison sees).
fn stable_sorted(records: &[TraceRecord]) -> Vec<TraceRecord> {
    let mut want = records.to_vec();
    want.sort_by_key(|rec| (rec.t_start, rec.rank, rec.marker));
    want
}

/// Records with the given keys, numbered in arrival order; every third one
/// carries a label, which the owned form must move along.
fn numbered(keys: &[(u64, u32, u64)]) -> Vec<TraceRecord> {
    keys.iter()
        .enumerate()
        .map(|(i, &(t, rank, marker))| {
            let rec =
                TraceRecord::basic(rank, EventKind::Compute, marker, t).with_args(i as i64, 0);
            if i % 3 == 0 {
                rec.with_label(format!("r{i}"))
            } else {
                rec
            }
        })
        .collect()
}

/// A log holding `flushes` appended in order, as the engine collects
/// them: each flush a log of its own, sealed after `seal_at` entries when
/// that is inside it.
fn log_of(flushes: &[Vec<TraceRecord>], seal_at: usize) -> ChunkLog<TraceRecord> {
    let mut log = ChunkLog::new();
    for flush in flushes {
        let mut part = ChunkLog::new();
        for (i, rec) in flush.iter().enumerate() {
            if i == seal_at {
                part.seal();
            }
            part.push(rec.clone());
        }
        log.append(part);
    }
    log
}

/// Every way of building a store from `flushes` yields `stable_sorted`.
fn check_all_forms(flushes: &[Vec<TraceRecord>], seal_at: usize) {
    let all: Vec<TraceRecord> = flushes.concat();
    let want = stable_sorted(&all);
    let built = TraceStore::build(all, SiteTable::new(), 0);
    assert_eq!(built.records(), want.as_slice(), "TraceStore::build");
    let log = log_of(flushes, seal_at);
    let cloned = TraceStore::from_log(&log, SiteTable::new(), 0);
    assert_eq!(cloned.records(), want.as_slice(), "TraceStore::from_log");
    // A checkpoint sharing the log's chunks: those are cloned, not moved.
    let mut shared = log.clone();
    shared.seal();
    let kept = shared.clone();
    let moved = TraceStore::from_log_owned(shared, SiteTable::new(), 0);
    assert_eq!(
        moved.records(),
        want.as_slice(),
        "TraceStore::from_log_owned (shared)"
    );
    assert_eq!(kept.len(), want.len());
    let owned = TraceStore::from_log_owned(log, SiteTable::new(), 0);
    assert_eq!(
        owned.records(),
        want.as_slice(),
        "TraceStore::from_log_owned"
    );
}

fn arb_key() -> impl Strategy<Value = (u64, u32, u64)> {
    // Small ranges, so keys repeat often.
    (0u64..12, 0u32..3, 0u64..4)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    /// The engine's shape: a concatenation of ascending runs.
    #[test]
    fn concatenated_ascending_runs(
        runs in proptest::collection::vec(proptest::collection::vec(arb_key(), 0..40), 0..9),
        seal_at in 0usize..50,
    ) {
        let mut sorted_runs = runs;
        for run in &mut sorted_runs {
            run.sort_unstable();
        }
        let records = numbered(&sorted_runs.concat());
        let mut flushes = Vec::new();
        let mut rest = records.as_slice();
        for run in &sorted_runs {
            let (head, tail) = rest.split_at(run.len());
            flushes.push(head.to_vec());
            rest = tail;
        }
        check_all_forms(&flushes, seal_at);
    }

    /// Input in no order at all, in one flush or cut anywhere.
    #[test]
    fn shuffled_input(
        keys in proptest::collection::vec(arb_key(), 0..300),
        cut in 1usize..64,
        seal_at in 0usize..70,
    ) {
        let records = numbered(&keys);
        check_all_forms(std::slice::from_ref(&records), seal_at);
        let flushes: Vec<Vec<TraceRecord>> = records.chunks(cut).map(<[_]>::to_vec).collect();
        check_all_forms(&flushes, seal_at);
    }
}

/// Every golden trace, re-cut as the engine would hand it over (one flush
/// per rank, ranks in reverse), merges back to the order it was written in.
#[test]
fn golden_traces_cut_into_per_rank_flushes() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden");
    let mut seen = 0;
    for entry in std::fs::read_dir(dir).expect("golden dir") {
        let path = entry.expect("golden entry").path();
        if path.extension() != Some("trc".as_ref()) {
            continue;
        }
        let text = std::fs::read(&path).expect("golden trace");
        let file = read_text(text.as_slice()).expect("golden trace parses");
        let mut records = file.records;
        for (i, rec) in records.iter_mut().enumerate() {
            rec.args[1] = i as i64;
        }
        let n_ranks = records.iter().map(|r| r.rank.ix() + 1).max().unwrap_or(0);
        let flushes: Vec<Vec<TraceRecord>> = (0..n_ranks)
            .rev()
            .map(|r| {
                records
                    .iter()
                    .filter(|rec| rec.rank == Rank(r as u32))
                    .cloned()
                    .collect()
            })
            .collect();
        for seal_at in [0, 7, 256] {
            check_all_forms(&flushes, seal_at);
        }
        seen += 1;
    }
    assert!(seen >= 10, "only {seen} golden traces found");
}
