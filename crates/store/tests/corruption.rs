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
use tracedbg_trace::{EventKind, MsgInfo, Rank, Select, SiteTable, Tag, TraceRecord, TraceSource};

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
                .with_label("phase"),
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
