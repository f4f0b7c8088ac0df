//! What reading a store holds in memory: a segment is streamed through
//! one buffer and never held whole. A rank cursor holds its own frames'
//! encoded bytes, its posting and a fixed allowance; `events()` holds its
//! output and the same allowance; and a hostile length prefix or offset
//! table is refused before anything is reserved for it. A reader that
//! loads or caches whole segments grows past every bound here at the
//! benchmark's size (80,016 events, three segments of up to 32,768).
//!
//! Live heap bytes are counted per thread, so the count is the reader's
//! own whatever else the test harness does.

mod common;

use common::scratch_dir;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use tracedbg_mpsim::{Engine, EngineConfig, RecorderConfig};
use tracedbg_store::crc::crc32;
use tracedbg_store::frame::encode_frame;
use tracedbg_store::{ingest_records, DiskStore, StoreError, StoreOptions};
use tracedbg_trace::{Rank, TraceRecord, TraceSource};
use tracedbg_workloads::random_comm;

struct Counting;

thread_local! {
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

fn grow(by: i64) {
    let live = LIVE.with(|l| {
        l.set(l.get() + by);
        l.get()
    });
    PEAK.with(|p| p.set(p.get().max(live)));
}

// SAFETY: every request goes to `System` unchanged; the counts are
// const-initialized thread-local `Cell`s, which neither allocate nor have
// destructors.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size() as i64);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        grow(-(layout.size() as i64));
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        grow(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The fixed allowance: the walk buffer (64 KiB) and the bookkeeping
/// that grows with neither the store nor the selection.
const ALLOWANCE: i64 = 256 * 1024;

/// How far the live heap rose above where it stood while `f` ran, and
/// what `f` returned.
fn peak_growth<T>(f: impl FnOnce() -> T) -> (i64, T) {
    let before = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(before));
    let out = f();
    (PEAK.with(Cell::get) - before, out)
}

/// The benchmark's `deep_random` trace written in segments of 32,768:
/// three segments, the last a tail. Built once for every test.
fn store_dir() -> &'static Path {
    static DIR: OnceLock<PathBuf> = OnceLock::new();
    DIR.get_or_init(|| {
        let pattern = random_comm::generate(3, 8, 16_000);
        let mut engine = Engine::launch(
            EngineConfig::with_recorder(RecorderConfig::full()),
            random_comm::programs(&pattern, 3),
        );
        assert!(engine.run().is_completed());
        let store = engine.trace_store();
        assert_eq!(store.len(), 80_016, "the benchmark's deep_random trace");
        let dir = scratch_dir("read-memory");
        let opts = StoreOptions {
            segment_events: 32_768,
        };
        let summary =
            ingest_records(store.records(), store.sites(), store.n_ranks(), &dir, opts).unwrap();
        assert_eq!(summary.n_segments, 3);
        dir
    })
}

/// Each test's last word on the shared store: the fifth removes it.
fn done_with_store() {
    static DONE: AtomicUsize = AtomicUsize::new(0);
    if DONE.fetch_add(1, Ordering::SeqCst) + 1 == 5 {
        std::fs::remove_dir_all(store_dir()).unwrap();
    }
}

/// Encoded size of `records`' frames: what a cursor over them keeps.
fn frame_bytes(records: &[TraceRecord]) -> i64 {
    let mut buf = Vec::new();
    records
        .iter()
        .map(|r| {
            buf.clear();
            encode_frame(&mut buf, r);
            buf.len() as i64
        })
        .sum()
}

#[test]
fn a_rank_cursor_holds_its_frames_and_posting_not_the_segments() {
    let store = DiskStore::open(store_dir()).unwrap();
    let (growth, n) = peak_growth(|| {
        let mut n = 0usize;
        for rec in store.by_rank(Rank(7)).unwrap() {
            rec.unwrap();
            n += 1;
        }
        n
    });
    let lane = TraceSource::by_rank(&DiskStore::open(store_dir()).unwrap(), Rank(7)).unwrap();
    assert_eq!(lane.len(), n);
    let frames = frame_bytes(&lane);
    let posting = 4 * n as i64;
    let bound = frames + posting + ALLOWANCE;
    eprintln!(
        "rank 7: {n} events, {frames} B of frames; peak heap growth {growth} B, bound {bound} B"
    );
    assert!(
        growth <= bound,
        "a rank cursor held {growth} B at its peak, more than its frames ({frames} B) \
         + its posting ({posting} B) + 256 KiB"
    );
    done_with_store();
}

#[test]
fn events_hold_their_output_and_nothing_of_the_store() {
    let store = DiskStore::open(store_dir()).unwrap();
    let n = store.n_events() as i64;
    let (growth, events) = peak_growth(|| store.events().unwrap());
    assert_eq!(events.len() as i64, n);
    let output = n * std::mem::size_of::<TraceRecord>() as i64;
    let bound = output + ALLOWANCE;
    eprintln!("events(): peak heap growth {growth} B; output {output} B; bound {bound} B");
    assert!(
        growth <= bound,
        "events() held {growth} B at its peak, more than its output ({output} B) + 256 KiB"
    );
    done_with_store();
}

// ---- hostile segments ------------------------------------------------------

const HEADER_LEN: usize = 40;

fn u32_at(b: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(b[at..at + 4].try_into().unwrap())
}

/// Start of the payload in a segment file image.
fn payload_at(seg: &[u8]) -> usize {
    HEADER_LEN + 4 * u32_at(seg, 12) as usize
}

/// Recompute the segment's checksums (payload crc at header bytes 24..28,
/// offsets crc at 28..32) so the mutation reaches the code behind them.
fn reseal(seg: &mut [u8]) {
    let table_end = payload_at(seg);
    let payload_crc = crc32(&seg[table_end..]);
    seg[24..28].copy_from_slice(&payload_crc.to_le_bytes());
    let offsets_crc = crc32(&seg[HEADER_LEN..table_end]);
    seg[28..32].copy_from_slice(&offsets_crc.to_le_bytes());
}

/// A copy of the store whose first segment `mutate` edits and reseals;
/// the copy's directory and the segment's payload length.
fn hostile_copy(label: &str, mutate: impl FnOnce(&mut [u8], usize)) -> (PathBuf, i64) {
    let dir = scratch_dir(label);
    std::fs::create_dir_all(&dir).unwrap();
    for entry in std::fs::read_dir(store_dir()).unwrap() {
        let p = entry.unwrap().path();
        std::fs::copy(&p, dir.join(p.file_name().unwrap())).unwrap();
    }
    let path = dir.join("seg-00000.tds");
    let mut seg = std::fs::read(&path).unwrap();
    let payload = payload_at(&seg);
    mutate(&mut seg, payload);
    reseal(&mut seg);
    std::fs::write(&path, &seg).unwrap();
    (dir, (seg.len() - payload) as i64)
}

/// Fetch `id` and walk rank 1's cursor over the hostile copy: both must
/// fail as `is_expected` says, and neither may hold more than the
/// segment's payload at its peak.
fn check_hostile(dir: &Path, payload_len: i64, id: u64, is_expected: fn(&StoreError) -> bool) {
    let store = DiskStore::open(dir).unwrap();
    let (growth, got) = peak_growth(|| store.fetch(id));
    let err = got.unwrap_err();
    assert!(is_expected(&err), "fetch({id}): {err}");
    assert!(
        growth <= payload_len,
        "fetch({id}) held {growth} B, more than the {payload_len}-byte payload"
    );
    let store = DiskStore::open(dir).unwrap();
    let (growth, got) = peak_growth(|| {
        store
            .by_rank(Rank(1))
            .unwrap()
            .find_map(Result::err)
            .expect("the cursor reaches the hostile segment")
    });
    assert!(is_expected(&got), "rank 1: {got}");
    assert!(
        growth <= payload_len,
        "rank 1's cursor held {growth} B, more than the {payload_len}-byte payload"
    );
    std::fs::remove_dir_all(dir).unwrap();
    done_with_store();
}

#[test]
fn a_length_prefix_of_u32_max_is_refused_before_anything_is_reserved() {
    // Rank 1's first frame: rank 1's cursor reaches it.
    let events = DiskStore::open(store_dir()).unwrap().events().unwrap();
    let id = events.iter().position(|r| r.rank == Rank(1)).unwrap();
    drop(events);
    let (dir, payload_len) = hostile_copy("u32-max", |seg, payload| {
        let prefix = payload + u32_at(seg, HEADER_LEN + 4 * id) as usize;
        seg[prefix..prefix + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    });
    check_hostile(&dir, payload_len, id as u64, |e| {
        matches!(e, StoreError::Truncated { .. })
    });
}

#[test]
fn an_offset_table_running_backwards_is_a_typed_error() {
    let (dir, payload_len) = hostile_copy("backwards", |seg, _| {
        // Frame 100 starts before frame 99.
        let earlier = u32_at(seg, HEADER_LEN + 4 * 99) - 1;
        seg[HEADER_LEN + 400..HEADER_LEN + 404].copy_from_slice(&earlier.to_le_bytes());
    });
    check_hostile(&dir, payload_len, 5, |e| {
        matches!(e, StoreError::Mismatch { .. })
    });
}

#[test]
fn an_offset_table_running_past_the_payload_is_a_typed_error() {
    let (dir, payload_len) = hostile_copy("past-payload", |seg, payload| {
        // The last frame starts a kilobyte past the payload's end.
        let frames = u32_at(seg, 12) as usize;
        let past = (seg.len() - payload + 1024) as u32;
        let at = HEADER_LEN + 4 * (frames - 1);
        seg[at..at + 4].copy_from_slice(&past.to_le_bytes());
    });
    check_hostile(&dir, payload_len, 5, |e| {
        matches!(e, StoreError::Mismatch { .. })
    });
}
