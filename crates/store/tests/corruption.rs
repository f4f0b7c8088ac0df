//! Corruption-robustness battery: no corrupt, truncated, or mismatched
//! store input may ever panic or yield a silent partial/incorrect read —
//! every failure must surface as a typed [`StoreError`]. The fuzz loop at
//! the bottom flips every single byte of every file of a small golden
//! store and requires each mutation to either produce an error or leave
//! the query results byte-identical (flips of genuinely unused padding
//! would be the only way to land there; the format has none).

mod common;

use common::scratch_dir;
use std::path::Path;
use tracedbg_store::{ingest_records, DiskStore, StoreError, StoreOptions};
use tracedbg_trace::{
    EventKind, Label, MsgInfo, Rank, Select, SiteTable, Tag, TraceRecord, TraceSource,
};

/// A small deterministic trace with every record shape: spans, messages,
/// labels, several ranks, tags, and kinds — across two segments.
fn golden_records() -> (Vec<TraceRecord>, SiteTable) {
    let sites = SiteTable::new();
    let s0 = sites.site("golden.c", 10, "main");
    let s1 = sites.site("golden.c", 20, "worker");
    let mut recs = Vec::new();
    for i in 0..10u64 {
        let rank = (i % 3) as u32;
        let marker = i / 3 + 1;
        let t = i * 7;
        let rec = match i % 4 {
            0 => TraceRecord::basic(rank, EventKind::Compute, marker, t)
                .with_span(t, t + 5)
                .with_site(s0),
            1 => TraceRecord::basic(rank, EventKind::Send, marker, t)
                .with_span(t, t + 2)
                .with_site(s1)
                .with_msg(MsgInfo {
                    src: Rank(rank),
                    dst: Rank((rank + 1) % 3),
                    tag: Tag(i as i32 % 2),
                    bytes: 64,
                    seq: i,
                }),
            2 => TraceRecord::basic(rank, EventKind::RecvDone, marker, t)
                .with_span(t, t + 3)
                .with_site(s1)
                .with_msg(MsgInfo {
                    src: Rank((rank + 2) % 3),
                    dst: Rank(rank),
                    tag: Tag(i as i32 % 2),
                    bytes: 64,
                    seq: i,
                }),
            _ => TraceRecord::basic(rank, EventKind::Probe, marker, t)
                .with_site(s0)
                .with_args(i as i64, -(i as i64))
                .with_label(Label::new("phase")),
        };
        recs.push(rec);
    }
    (recs, sites)
}

/// Write the golden store (two segments: 6 + 4 events).
fn build_golden(dir: &Path) -> Vec<TraceRecord> {
    let (recs, sites) = golden_records();
    ingest_records(&recs, &sites, 3, dir, StoreOptions { segment_events: 6 }).unwrap();
    DiskStore::open(dir).unwrap().events().unwrap()
}

fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let p = entry.unwrap().path();
        std::fs::copy(&p, to.join(p.file_name().unwrap())).unwrap();
    }
}

/// Open the store and force every lazy path: full scan, every index
/// family, and the integrity audit.
fn read_everything(dir: &Path) -> Result<Vec<TraceRecord>, StoreError> {
    let store = DiskStore::open(dir)?;
    let events: Vec<TraceRecord> = store.cursor(Select::All)?.collect::<Result<_, _>>()?;
    for r in 0..store.n_ranks() as u32 {
        store.by_rank(Rank(r))?.collect::<Result<Vec<_>, _>>()?;
    }
    for tag in [Tag(0), Tag(1)] {
        store.by_tag(tag)?.collect::<Result<Vec<_>, _>>()?;
    }
    store
        .by_construct(EventKind::Send)?
        .collect::<Result<Vec<_>, _>>()?;
    let (lo, hi) = store.time_bounds();
    store
        .by_time_window(lo, hi)?
        .collect::<Result<Vec<_>, _>>()?;
    store.verify()?;
    Ok(events)
}

#[test]
fn zero_byte_files_are_typed_errors() {
    let golden = scratch_dir("golden-zero");
    build_golden(&golden);
    for name in ["manifest.tds", "index.tds", "seg-00000.tds"] {
        let dir = scratch_dir("zero");
        copy_dir(&golden, &dir);
        std::fs::write(dir.join(name), b"").unwrap();
        let err = read_everything(&dir).unwrap_err();
        assert!(
            matches!(err, StoreError::Truncated { .. }),
            "{name}: zero-byte file gave {err}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
    std::fs::remove_dir_all(&golden).unwrap();
}

#[test]
fn missing_files_are_io_errors() {
    let golden = scratch_dir("golden-missing");
    build_golden(&golden);
    for name in ["manifest.tds", "index.tds", "seg-00001.tds"] {
        let dir = scratch_dir("missing");
        copy_dir(&golden, &dir);
        std::fs::remove_file(dir.join(name)).unwrap();
        let err = read_everything(&dir).unwrap_err();
        assert!(
            matches!(err, StoreError::Io { .. }),
            "{name}: missing file gave {err}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
    std::fs::remove_dir_all(&golden).unwrap();
}

#[test]
fn bad_magic_and_version_are_typed_errors() {
    let golden = scratch_dir("golden-magic");
    build_golden(&golden);
    for name in ["manifest.tds", "index.tds", "seg-00000.tds"] {
        // Stomp the magic.
        let dir = scratch_dir("magic");
        copy_dir(&golden, &dir);
        let p = dir.join(name);
        let mut bytes = std::fs::read(&p).unwrap();
        bytes[0..4].copy_from_slice(b"NOPE");
        std::fs::write(&p, &bytes).unwrap();
        let err = read_everything(&dir).unwrap_err();
        assert!(
            matches!(err, StoreError::BadMagic { .. }),
            "{name}: stomped magic gave {err}"
        );
        std::fs::remove_dir_all(&dir).unwrap();

        // Bump the version (bytes 4..8).
        let dir = scratch_dir("version");
        copy_dir(&golden, &dir);
        let p = dir.join(name);
        let mut bytes = std::fs::read(&p).unwrap();
        bytes[4..8].copy_from_slice(&99u32.to_le_bytes());
        std::fs::write(&p, &bytes).unwrap();
        let err = read_everything(&dir).unwrap_err();
        assert!(
            matches!(err, StoreError::BadVersion { found: 99, .. }),
            "{name}: bumped version gave {err}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
    std::fs::remove_dir_all(&golden).unwrap();
}

#[test]
fn truncated_segment_is_a_typed_error() {
    let golden = scratch_dir("golden-trunc");
    build_golden(&golden);
    let full = std::fs::read(golden.join("seg-00000.tds")).unwrap();
    // Cut inside the header, the offset table, and the payload.
    for cut in [1, 17, 39, 41, 55, full.len() - 1] {
        let dir = scratch_dir("trunc");
        copy_dir(&golden, &dir);
        std::fs::write(dir.join("seg-00000.tds"), &full[..cut]).unwrap();
        let err = read_everything(&dir).unwrap_err();
        assert!(
            matches!(
                err,
                StoreError::Truncated { .. } | StoreError::Mismatch { .. }
            ),
            "cut at {cut} gave {err}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
    std::fs::remove_dir_all(&golden).unwrap();
}

#[test]
fn flipped_payload_byte_is_a_crc_mismatch() {
    let golden = scratch_dir("golden-crc");
    build_golden(&golden);
    let dir = scratch_dir("crc");
    copy_dir(&golden, &dir);
    let p = dir.join("seg-00000.tds");
    let mut bytes = std::fs::read(&p).unwrap();
    let last = bytes.len() - 1; // payload tail: lazily verified
    bytes[last] ^= 0xFF;
    std::fs::write(&p, &bytes).unwrap();
    // Opening succeeds (payloads are lazy) ...
    let store = DiskStore::open(&dir).unwrap();
    // ... but the first touch of that segment reports the mismatch.
    let err = store
        .cursor(Select::All)
        .unwrap()
        .collect::<Result<Vec<_>, _>>()
        .unwrap_err();
    assert!(matches!(err, StoreError::CrcMismatch { .. }), "got: {err}");
    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&golden).unwrap();
}

#[test]
fn frame_count_mismatch_is_a_typed_error() {
    let golden = scratch_dir("golden-fc");
    build_golden(&golden);
    let dir = scratch_dir("fc");
    copy_dir(&golden, &dir);
    let p = dir.join("seg-00000.tds");
    let mut bytes = std::fs::read(&p).unwrap();
    // frame_count lives at header bytes 12..16.
    let fc = u32::from_le_bytes(bytes[12..16].try_into().unwrap());
    bytes[12..16].copy_from_slice(&(fc + 1).to_le_bytes());
    std::fs::write(&p, &bytes).unwrap();
    let err = read_everything(&dir).unwrap_err();
    assert!(
        matches!(err, StoreError::Mismatch { .. }),
        "frame count lie gave {err}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&golden).unwrap();
}

/// Give the first per-rank section of `index.tds` 2^62 items of 4 bytes
/// and the checksum of no bytes, and re-seal the directory: width times
/// count wraps to 0 in 64 bits, so every check a careless size would
/// pass, passes. (`tests/integration.rs` makes the same edit to hold the
/// CLI to exit code 1.)
fn hostile_item_count(index: &mut [u8]) {
    let entries = u32_at(index, 16) as usize;
    let dir = 20..20 + 33 * entries;
    let at = dir
        .clone()
        .step_by(33)
        .find(|&at| index[at] == 1)
        .expect("a rank section");
    index[at + 13..at + 21].copy_from_slice(&(1u64 << 62).to_le_bytes());
    index[at + 29..at + 33].copy_from_slice(&crc32(&[]).to_le_bytes());
    let dir_crc = crc32(&index[dir.clone()]);
    index[dir.end..dir.end + 4].copy_from_slice(&dir_crc.to_le_bytes());
}

#[test]
fn an_overflowing_section_size_is_refused_at_open() {
    let golden = scratch_dir("golden-overflow");
    build_golden(&golden);
    let dir = scratch_dir("overflow");
    copy_dir(&golden, &dir);
    let p = dir.join("index.tds");
    let mut bytes = std::fs::read(&p).unwrap();
    hostile_item_count(&mut bytes);
    std::fs::write(&p, &bytes).unwrap();
    let err = DiskStore::open(&dir).map(drop).unwrap_err();
    assert!(
        matches!(err, StoreError::Mismatch { .. }),
        "hostile item count gave {err}"
    );
    assert!(
        err.to_string().contains("4611686018427387904 items"),
        "{err}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&golden).unwrap();
}

/// The fuzz loop: flip every byte of every store file, one at a time.
/// Each mutation must produce a typed error or leave every query result
/// byte-identical — never a panic, never silently different data.
#[test]
fn byte_flip_fuzz_never_panics_or_lies() {
    let golden = scratch_dir("golden-fuzz");
    let baseline = build_golden(&golden);
    let names: Vec<String> = std::fs::read_dir(&golden)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    let dir = scratch_dir("fuzz");
    for name in names {
        let pristine = std::fs::read(golden.join(&name)).unwrap();
        for pos in 0..pristine.len() {
            let _ = std::fs::remove_dir_all(&dir);
            copy_dir(&golden, &dir);
            let mut mutated = pristine.clone();
            mutated[pos] ^= 0xFF;
            std::fs::write(dir.join(&name), &mutated).unwrap();
            match read_everything(&dir) {
                Err(_) => {} // typed error: the contract
                Ok(events) => assert_eq!(
                    events, baseline,
                    "{name}: byte {pos} flipped, queries succeeded with different data"
                ),
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::remove_dir_all(&golden).unwrap();
}

// ---- re-sealed mutations -------------------------------------------------
//
// Every mutation above is stopped by a checksum before a frame is looked
// at. The ones below recompute `payload_crc` / `offsets_crc` after
// mutating, so the bytes reach the code behind the checksums: the offset
// table read in place, the length prefixes, the window cursor's span peek
// and skip. With the checksum defeated a flipped `args` byte is simply a
// different record, so "equal to the pristine events" is not the
// contract; the contract is that an indexed selection answers exactly as
// a full decode of the same bytes would ([`DiskStore::fetch`], frame by
// frame, filtered linearly) or with a typed error — never a panic, never
// an event the bytes do not hold.

use tracedbg_store::crc::crc32;

const HEADER_LEN: usize = 40;

fn u32_at(b: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(b[at..at + 4].try_into().unwrap())
}

/// Start of the payload in a segment file image.
fn payload_at(seg: &[u8]) -> usize {
    HEADER_LEN + 4 * u32_at(seg, 12) as usize
}

/// Make the header agree with the (mutated) offset table and payload:
/// payload length at 16..24, payload crc at 24..28, offsets crc at 28..32.
fn reseal(seg: &mut [u8]) {
    let table_end = payload_at(seg);
    let payload_len = (seg.len() - table_end) as u64;
    seg[16..24].copy_from_slice(&payload_len.to_le_bytes());
    let payload_crc = crc32(&seg[table_end..]);
    seg[24..28].copy_from_slice(&payload_crc.to_le_bytes());
    let offsets_crc = crc32(&seg[HEADER_LEN..table_end]);
    seg[28..32].copy_from_slice(&offsets_crc.to_le_bytes());
}

/// The arrival ids of the pristine store's selections, in contract order.
struct GoldenIds {
    canon: Vec<u64>,
    ranks: Vec<Vec<u64>>,
    tags: Vec<(Tag, Vec<u64>)>,
    t_hi: u64,
}

fn golden_ids(dir: &Path) -> GoldenIds {
    let store = DiskStore::open(dir).unwrap();
    let by_id: Vec<TraceRecord> = (0..store.n_events())
        .map(|id| store.fetch(id).unwrap())
        .collect();
    let ids_of = |cursor: tracedbg_store::EventCursor<'_>| -> Vec<u64> {
        cursor
            .map(|r| {
                let r = r.unwrap();
                by_id.iter().position(|x| *x == r).unwrap() as u64
            })
            .collect()
    };
    GoldenIds {
        canon: ids_of(store.cursor(Select::All).unwrap()),
        ranks: (0..store.n_ranks() as u32)
            .map(|r| ids_of(store.by_rank(Rank(r)).unwrap()))
            .collect(),
        tags: [Tag(0), Tag(1)]
            .into_iter()
            .map(|t| (t, ids_of(store.by_tag(t).unwrap())))
            .collect(),
        t_hi: store.time_bounds().1,
    }
}

/// Run the indexed selections and the audit over a (mutated) store and
/// hold each answer against the frame-by-frame decode of the same bytes.
fn check_against_full_decode(dir: &Path, ids: &GoldenIds, what: &str) {
    let store = match DiskStore::open(dir) {
        Ok(store) => store,
        Err(_) => return, // typed error at open: the contract
    };
    let decoded: Vec<Result<TraceRecord, StoreError>> =
        (0..store.n_events()).map(|id| store.fetch(id)).collect();
    let all_of = |sel: &[u64]| -> Option<Vec<TraceRecord>> {
        sel.iter()
            .map(|&id| decoded[id as usize].as_ref().ok().cloned())
            .collect()
    };
    // Postings selections decode every id they list.
    let mut listed = vec![(Select::All, &ids.canon)];
    listed.extend(
        (0u32..)
            .zip(&ids.ranks)
            .map(|(r, l)| (Select::Rank(Rank(r)), l)),
    );
    listed.extend(ids.tags.iter().map(|(t, l)| (Select::Tag(*t), l)));
    for (sel, list) in listed {
        let got: Result<Vec<TraceRecord>, StoreError> = store.cursor(sel).and_then(|c| c.collect());
        match (got, all_of(list)) {
            (Ok(got), Some(want)) => assert_eq!(got, want, "{what}: {sel} diverged"),
            (Err(_), None) => {}
            (Ok(_), None) => panic!("{what}: {sel} answered over an undecodable frame"),
            (Err(e), Some(_)) => panic!("{what}: {sel} failed though every frame decodes: {e}"),
        }
    }
    // A window decodes what it returns and the frame that ends the scan;
    // a frame ending before `lo` is skipped on its peeked span. The walk
    // below is the same rule over the full decodes, where an undecodable
    // frame can only have been skipped or have failed the query. (One
    // time sample in a store this small: the sparse cut never applies.)
    // 33 is where the fifth event ends and 42 where the seventh starts:
    // both window comparisons are hit on their boundary.
    let windows = [
        (0, 10),
        (33, 42),
        (ids.t_hi - 5, ids.t_hi + 5),
        (ids.t_hi + 1, ids.t_hi + 100),
    ];
    for (lo, hi) in windows {
        let mut want = Vec::new();
        let mut undecodable = false;
        for &id in &ids.canon {
            match &decoded[id as usize] {
                Err(_) => undecodable = true,
                Ok(rec) if rec.t_start > hi => break,
                Ok(rec) if rec.t_end < lo => {}
                Ok(rec) => want.push(*rec),
            }
        }
        let got: Result<Vec<TraceRecord>, StoreError> =
            store.by_time_window(lo, hi).and_then(|c| c.collect());
        match got {
            Ok(got) => assert_eq!(got, want, "{what}: window {lo}:{hi} diverged"),
            Err(e) => assert!(
                undecodable,
                "{what}: window {lo}:{hi} failed though every frame decodes: {e}"
            ),
        }
    }
    // The audit decodes everything: it cannot pass over a bad frame.
    if store.verify().is_ok() {
        assert!(
            decoded.iter().all(|r| r.is_ok()),
            "{what}: verify passed over an undecodable frame"
        );
    }
}

/// Write `seg` (re-sealed) as segment 0 of a fresh copy of the golden
/// store and check it.
fn check_resealed(golden: &Path, ids: &GoldenIds, mut seg: Vec<u8>, what: &str) {
    let dir = scratch_dir("reseal");
    copy_dir(golden, &dir);
    reseal(&mut seg);
    std::fs::write(dir.join("seg-00000.tds"), &seg).unwrap();
    check_against_full_decode(&dir, ids, what);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn resealed_flips_and_truncations_answer_as_a_full_decode_or_fail() {
    let golden = scratch_dir("golden-reseal");
    build_golden(&golden);
    let ids = golden_ids(&golden);
    // The oracle itself: untouched, it is the linear scan of the records.
    check_against_full_decode(&golden, &ids, "pristine");
    let pristine = std::fs::read(golden.join("seg-00000.tds")).unwrap();
    // Every byte of the offset table and of the payload, flipped.
    for pos in HEADER_LEN..pristine.len() {
        let mut seg = pristine.clone();
        seg[pos] ^= 0xFF;
        check_resealed(&golden, &ids, seg, &format!("byte {pos} flipped"));
    }
    // The payload cut at every length (the header is made to agree).
    for len in payload_at(&pristine)..pristine.len() {
        let seg = pristine[..len].to_vec();
        check_resealed(&golden, &ids, seg, &format!("payload cut to {len}"));
    }
    std::fs::remove_dir_all(&golden).unwrap();
}

#[test]
fn resealed_frame_structure_lies_are_typed_errors() {
    let golden = scratch_dir("golden-lies");
    build_golden(&golden);
    let ids = golden_ids(&golden);
    let pristine = std::fs::read(golden.join("seg-00000.tds")).unwrap();
    let payload = payload_at(&pristine);
    let offset = |frame: usize| u32_at(&pristine, HEADER_LEN + 4 * frame) as usize;
    let prefix_of = |frame: usize| payload + offset(frame);

    // Reading frame `frame` of the mutated segment must be this error.
    let expect = |seg: Vec<u8>, frame: u64, what: &str| {
        let dir = scratch_dir("lie");
        copy_dir(&golden, &dir);
        let mut seg = seg;
        reseal(&mut seg);
        std::fs::write(dir.join("seg-00000.tds"), &seg).unwrap();
        let store = DiskStore::open(&dir).unwrap();
        let err = store.fetch(frame).unwrap_err();
        assert!(
            matches!(
                err,
                StoreError::Truncated { .. } | StoreError::Mismatch { .. }
            ),
            "{what}: {err}"
        );
        // Every window that reaches the frame reports it too: a body too
        // short to peek a span from goes to the decoder, not past it.
        let (lo, hi) = store.time_bounds();
        let got: Result<Vec<TraceRecord>, StoreError> =
            store.by_time_window(lo, hi).and_then(|c| c.collect());
        assert!(got.is_err(), "{what}: a full window passed over the frame");
        assert!(store.verify().is_err(), "{what}: verify passed");
        drop(store);
        check_against_full_decode(&dir, &ids, what);
        std::fs::remove_dir_all(&dir).unwrap();
    };

    // A length prefix claiming fewer body bytes than the span peek needs.
    let mut seg = pristine.clone();
    seg[prefix_of(2)..prefix_of(2) + 4].copy_from_slice(&10u32.to_le_bytes());
    expect(seg, 2, "length prefix of 10");
    // A length prefix running past the end of the payload.
    let mut seg = pristine.clone();
    let past = (pristine.len() - payload) as u32;
    seg[prefix_of(3)..prefix_of(3) + 4].copy_from_slice(&past.to_le_bytes());
    expect(seg, 3, "length prefix past the payload");
    // An offset pointing into the middle of the previous frame (still
    // ascending, still inside the payload: the load-time checks pass).
    let mut seg = pristine.clone();
    let mid = (offset(1) + 7) as u32;
    assert!(mid < offset(2) as u32);
    seg[HEADER_LEN + 8..HEADER_LEN + 12].copy_from_slice(&mid.to_le_bytes());
    expect(seg, 2, "offset into the middle of a frame");

    std::fs::remove_dir_all(&golden).unwrap();
}
