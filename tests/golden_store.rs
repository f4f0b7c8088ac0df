//! Golden store-format corpus: every golden text trace must round-trip
//! text → on-disk store → text byte-identically, and the *committed*
//! store directories under `tests/golden/store/` must keep opening and
//! yielding exactly the events of their `.trc` counterparts — this is
//! what pins the v1 on-disk format: a writer change that shifts a single
//! byte, or a reader change that breaks compatibility with existing
//! stores, fails here.
//!
//! Re-bless after an intentional format change:
//!
//! ```text
//! scripts/bless.sh          # re-blesses both corpora
//! ```

use std::io::BufReader;
use std::path::PathBuf;
use tracedbg::store::{ingest_store, DiskStore, StoreOptions};
use tracedbg::trace::file::{read_text, write_text, TraceFile};
use tracedbg::trace::TraceSource;

/// Small segments so even modest goldens span several files.
const SEGMENT_EVENTS: usize = 32;

/// A scratch directory unique per call (pid + process-wide counter), so
/// concurrent tests in this binary never share one.
fn scratch_dir(label: &str) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static CALL: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "tracedbg-golden-{label}-{}-{}",
        std::process::id(),
        CALL.fetch_add(1, Ordering::Relaxed)
    ))
}

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden")
}

fn golden_names() -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(golden_dir())
        .expect("tests/golden exists")
        .filter_map(|e| {
            let p = e.unwrap().path();
            (p.extension().is_some_and(|x| x == "trc"))
                .then(|| p.file_stem().unwrap().to_string_lossy().into_owned())
        })
        .collect();
    names.sort();
    assert!(!names.is_empty(), "golden corpus is empty");
    names
}

fn read_golden(name: &str) -> (String, TraceFile) {
    let path = golden_dir().join(format!("{name}.trc"));
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{name}: cannot read {}: {e}", path.display()));
    let file = read_text(BufReader::new(text.as_bytes()))
        .unwrap_or_else(|e| panic!("{name}: cannot parse: {e}"));
    (text, file)
}

fn render(file: &TraceFile) -> String {
    let mut buf = Vec::new();
    write_text(&mut buf, file).expect("in-memory trace write");
    String::from_utf8(buf).expect("trace text is UTF-8")
}

/// text → store → text is the identity on every golden trace.
#[test]
fn golden_traces_roundtrip_through_the_store() {
    let scratch = scratch_dir("rt");
    for name in golden_names() {
        let (text, file) = read_golden(&name);
        let n_ranks = file.n_ranks;
        let mem = file.into_store();
        let dir = scratch.join(&name);
        let disk = ingest_store(
            &mem,
            &dir,
            StoreOptions {
                segment_events: SEGMENT_EVENTS,
            },
        )
        .unwrap_or_else(|e| panic!("{name}: ingest failed: {e}"));
        let back = TraceFile::new(
            disk.events()
                .unwrap_or_else(|e| panic!("{name}: read back failed: {e}")),
            disk.sites().clone(),
            n_ranks,
        );
        let round = render(&back);
        assert_eq!(
            round, text,
            "{name}: text → store → text did not round-trip byte-identically"
        );
        disk.verify()
            .unwrap_or_else(|e| panic!("{name}: integrity audit failed: {e}"));
    }
    let _ = std::fs::remove_dir_all(&scratch);
}

/// The committed store directories are byte-stable (writer determinism)
/// and remain readable (format compatibility).
#[test]
fn committed_store_goldens_stay_compatible() {
    let bless = std::env::var_os("BLESS").is_some();
    for name in golden_names() {
        let (text, file) = read_golden(&name);
        let n_ranks = file.n_ranks;
        let mem = file.into_store();
        let committed = golden_dir().join("store").join(&name);
        if bless {
            ingest_store(
                &mem,
                &committed,
                StoreOptions {
                    segment_events: SEGMENT_EVENTS,
                },
            )
            .unwrap_or_else(|e| panic!("{name}: bless failed: {e}"));
            continue;
        }
        // Reader compatibility: the committed directory opens and yields
        // exactly the golden events.
        assert!(
            committed.is_dir(),
            "{name}: missing committed store golden {}; run scripts/bless.sh",
            committed.display()
        );
        let disk = DiskStore::open(&committed)
            .unwrap_or_else(|e| panic!("{name}: committed store no longer opens: {e}"));
        let back = TraceFile::new(
            disk.events()
                .unwrap_or_else(|e| panic!("{name}: committed store read failed: {e}")),
            disk.sites().clone(),
            n_ranks,
        );
        assert_eq!(
            render(&back),
            text,
            "{name}: committed store yields different events than {name}.trc"
        );
        // Writer determinism: rebuilding from the text produces the
        // committed directory byte-for-byte.
        let scratch = scratch_dir(&format!("fresh-{name}"));
        ingest_store(
            &mem,
            &scratch,
            StoreOptions {
                segment_events: SEGMENT_EVENTS,
            },
        )
        .unwrap_or_else(|e| panic!("{name}: rebuild failed: {e}"));
        let mut entries: Vec<String> = std::fs::read_dir(&committed)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        entries.sort();
        let mut fresh: Vec<String> = std::fs::read_dir(&scratch)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        fresh.sort();
        assert_eq!(entries, fresh, "{name}: store file set diverged");
        for f in &entries {
            let want = std::fs::read(committed.join(f)).unwrap();
            let got = std::fs::read(scratch.join(f)).unwrap();
            assert_eq!(
                want, got,
                "{name}/{f}: writer no longer reproduces the committed bytes; \
                 if the format change is intentional, re-bless with scripts/bless.sh"
            );
        }
        let _ = std::fs::remove_dir_all(&scratch);
    }
}
