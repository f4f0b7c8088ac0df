//! The canonical order has one definition: a permutation of the arriving
//! records. These properties hold every way of building a store — one
//! vector reordered in place, and for an engine's log also the log copied
//! out of and the log consumed and reordered in place (also one whose
//! chunks a checkpoint shares, which must come through unchanged) — to a
//! stable sort by `(t_start, rank, marker)`: on concatenated ascending
//! runs with many equal keys, on shuffled input, on rank histories
//! interleaved at random, and on every golden trace re-cut into per-rank
//! runs.

use proptest::prelude::*;
use tracedbg_trace::file::read_text;
use tracedbg_trace::{ChunkLog, EventKind, Label, Rank, SiteTable, TraceRecord, TraceStore};

/// What the canonical order must equal: a stable sort, so records with one key stay
/// in arrival order (every record carries its arrival index in `args[0]`,
/// which the comparison sees).
fn stable_sorted(records: &[TraceRecord]) -> Vec<TraceRecord> {
    let mut want = records.to_vec();
    want.sort_by_key(|rec| (rec.t_start, rec.rank, rec.marker));
    want
}

/// Records with the given keys, numbered in arrival order; every third one
/// carries a label, which reordering must carry along.
fn numbered(keys: &[(u64, u32, u64)]) -> Vec<TraceRecord> {
    keys.iter()
        .enumerate()
        .map(|(i, &(t, rank, marker))| {
            let rec =
                TraceRecord::basic(rank, EventKind::Compute, marker, t).with_args(i as i64, 0);
            if i % 3 == 0 {
                rec.with_label(Label::new(&format!("r{i}")))
            } else {
                rec
            }
        })
        .collect()
}

/// `records` pushed onto a log in arrival order, sealed (as a checkpoint
/// seals it) every `seal_every` entries when that is not 0.
fn log_of(records: &[TraceRecord], seal_every: usize) -> ChunkLog<TraceRecord> {
    let mut log = ChunkLog::new();
    for (i, rec) in records.iter().enumerate() {
        if seal_every > 0 && i > 0 && i % seal_every == 0 {
            log.seal();
        }
        log.push(*rec);
    }
    log
}

/// Every way of building a store from `all`, read in order, yields
/// `stable_sorted`. Any records: a vector reordered in place
/// (`TraceStore::build`). An engine's log (`engine_log`: each rank's
/// records in marker order, ranks interleaved as they arrive): also the
/// log copied out of (`from_log`) and the log consumed and reordered in
/// place (`from_owned_log`) — in one piece, and cut into chunks that a
/// held copy (a checkpoint) shares, which must come through unchanged.
fn check_all_forms(all: &[TraceRecord], seal_every: usize, engine_log: bool) {
    let want = stable_sorted(all);
    let built = TraceStore::build(all.to_vec(), SiteTable::new(), 0);
    assert_eq!(built.records(), want.as_slice(), "TraceStore::build");
    if !engine_log {
        return;
    }
    let mut last = std::collections::HashMap::new();
    for rec in all {
        let prev = last.insert(rec.rank, rec.marker);
        assert!(prev < Some(rec.marker), "not an engine's log: {rec:?}");
    }

    let whole = log_of(all, 0);
    let copied = TraceStore::from_log(&whole, SiteTable::new(), 0);
    assert_eq!(copied.records(), want.as_slice(), "TraceStore::from_log");
    let consumed = TraceStore::from_owned_log(whole, SiteTable::new(), 0);
    assert_eq!(consumed.records(), want.as_slice(), "consumed, one piece");

    let mut shared = log_of(all, seal_every);
    shared.seal();
    let kept = shared.clone();
    let from_shared = TraceStore::from_log(&shared, SiteTable::new(), 0);
    assert_eq!(
        from_shared.records(),
        want.as_slice(),
        "TraceStore::from_log (shared)"
    );
    let consumed = TraceStore::from_owned_log(shared, SiteTable::new(), 0);
    assert_eq!(consumed.records(), want.as_slice(), "consumed, shared");
    assert!(kept.iter().eq(all.iter()), "the held copy is unchanged");
}

/// `t`, or with `wide` and from 2 on a time near `u64::MAX` (in the same
/// order): times then span more bits than a packed 64-bit key has room
/// for, so the permutation takes its index sort.
fn widen(t: u64, wide: bool) -> u64 {
    if wide && t >= 2 {
        u64::MAX - 64 + t
    } else {
        t
    }
}

fn arb_key() -> impl Strategy<Value = (u64, u32, u64)> {
    // Small ranges, so keys repeat often.
    (0u64..12, 0u32..3, 0u64..4)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    /// A concatenation of ascending runs (one run per rank, say).
    #[test]
    fn concatenated_ascending_runs(
        runs in proptest::collection::vec(proptest::collection::vec(arb_key(), 0..40), 0..9),
        seal_every in 0usize..50,
    ) {
        let mut sorted_runs = runs;
        for run in &mut sorted_runs {
            run.sort_unstable();
        }
        check_all_forms(&numbered(&sorted_runs.concat()), seal_every, false);
    }

    /// The engine's shape, in shuffled arrival order: each rank's history
    /// in program order (time and marker ascending), the ranks' records
    /// interleaved at random.
    #[test]
    fn interleaved_rank_histories(
        steps in proptest::collection::vec((0u32..4, 0u64..3), 0..300),
        seal_every in 0usize..70,
        wide in any::<bool>(),
    ) {
        let mut clock = [0u64; 4];
        let mut marker = [0u64; 4];
        let keys: Vec<(u64, u32, u64)> = steps
            .iter()
            .map(|&(rank, dt)| {
                let r = rank as usize;
                clock[r] = clock[r].saturating_add(widen(dt, wide));
                marker[r] += 1;
                (clock[r], rank, marker[r])
            })
            .collect();
        check_all_forms(&numbered(&keys), seal_every, true);
    }

    /// Input in no order at all.
    #[test]
    fn shuffled_input(
        keys in proptest::collection::vec(arb_key(), 0..300),
        seal_every in 0usize..70,
        wide in any::<bool>(),
    ) {
        let keys: Vec<_> = keys.iter().map(|&(t, r, m)| (widen(t, wide), r, m)).collect();
        check_all_forms(&numbered(&keys), seal_every, false);
    }
}

/// Every golden trace, re-cut into one run per rank (ranks in reverse),
/// goes back to the order it was written in.
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
        let per_rank: Vec<TraceRecord> = (0..n_ranks)
            .rev()
            .flat_map(|r| records.iter().filter(move |rec| rec.rank == Rank(r as u32)))
            .copied()
            .collect();
        for seal_every in [0, 7, 256] {
            check_all_forms(&per_rank, seal_every, true);
        }
        seen += 1;
    }
    assert!(seen >= 10, "only {seen} golden traces found");
}
