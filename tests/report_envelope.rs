//! The sealed-report envelope (`tracedbg_obs::sealed`) over the committed
//! report goldens. Every `tests/golden/{localize,profile}/*.json` loads,
//! re-seals to its own bytes, and `digest_ok` agrees with the
//! clone-and-reseal check it replaced — on the golden and on every
//! mutation of it that still parses. Flipped and truncated reports load
//! as an error or as the report itself, and never panic.

use std::fmt::Debug;
use std::path::PathBuf;
use tracedbg::localize::LocalizeReport;
use tracedbg::obs::fnv1a64;
use tracedbg::obs::sealed::{self, Sealed};
use tracedbg::profile::ProfileReport;

/// `(path, text without the trailing newline)` of each golden of `kind`.
fn goldens(kind: &str) -> Vec<(String, String)> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden")
        .join(kind);
    let mut paths: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();
    assert_eq!(paths.len(), 3, "{kind} goldens went missing");
    paths
        .into_iter()
        .map(|p| {
            let text = std::fs::read_to_string(&p).expect("golden reads");
            (p.display().to_string(), text.trim_end().to_string())
        })
        .collect()
}

/// The check `digest_ok` replaced: seal a copy, compare the digests.
fn old_digest_ok<R: Sealed + Clone>(report: &R) -> bool {
    let (mut probe, mut stored) = (report.clone(), report.clone());
    *probe.digest() = 0;
    let json = serde_json::to_string(&probe).expect("a report serializes");
    fnv1a64(json.as_bytes()) == *stored.digest()
}

fn committed_reports_reseal_to_their_own_bytes<R>(kind: &str)
where
    R: Sealed + Clone + PartialEq + Debug,
{
    for (path, text) in goldens(kind) {
        let report: R = sealed::load(&text, &path).unwrap_or_else(|e| panic!("{e}"));
        assert!(sealed::digest_ok(&report), "{path}");
        assert!(old_digest_ok(&report), "{path}");
        let mut again = report.clone();
        assert_eq!(sealed::seal(&mut again), text, "{path}: re-seal drifted");
        assert_eq!(again, report, "{path}");
    }
}

/// Mutations of each golden: flip bits and substitute structural bytes,
/// and truncate, at every `STRIDE`-th position and at each of the last
/// `TAIL` (the digest and the closing brackets), which keeps the sweep
/// near a second in a debug build.
fn hostile_reports_are_refused<R>(kind: &str)
where
    R: Sealed + Clone + PartialEq + Debug,
{
    const STRIDE: usize = 19;
    const TAIL: usize = 32;
    let (mut refused, mut parsed) = (0, 0);
    for (path, text) in goldens(kind) {
        let want: R = sealed::load(&text, &path).expect("golden loads");
        let bytes = text.as_bytes();
        let positions: Vec<usize> = (0..bytes.len())
            .filter(|&i| i % STRIDE == 0 || i + TAIL >= bytes.len())
            .collect();
        let mut mutants: Vec<Vec<u8>> = positions.iter().map(|&n| bytes[..n].to_vec()).collect();
        for &i in &positions {
            for b in [bytes[i] ^ 0x01, bytes[i] ^ 0x20, b'"', b'}'] {
                if b != bytes[i] {
                    let mut m = bytes.to_vec();
                    m[i] = b;
                    mutants.push(m);
                }
            }
        }
        for m in mutants {
            // A file that is not UTF-8 is refused when it is read.
            let Ok(m) = String::from_utf8(m) else {
                continue;
            };
            match sealed::load::<R>(&m, &path) {
                Ok(got) => assert_eq!(got, want, "{path}: loaded a different report from {m}"),
                Err(_) => refused += 1,
            }
            if let Ok(r) = serde_json::from_str::<R>(&m) {
                parsed += 1;
                assert_eq!(sealed::digest_ok(&r), old_digest_ok(&r), "{path}: {m}");
            }
        }
    }
    // The sweep reached the digest check, not only the parser.
    assert!(
        refused > 500 && parsed > 50,
        "{kind}: {refused} refused, {parsed} parsed"
    );
}

#[test]
fn localize_goldens_reseal_to_their_own_bytes() {
    committed_reports_reseal_to_their_own_bytes::<LocalizeReport>("localize");
}

#[test]
fn profile_goldens_reseal_to_their_own_bytes() {
    committed_reports_reseal_to_their_own_bytes::<ProfileReport>("profile");
}

#[test]
fn hostile_localize_reports_are_refused() {
    hostile_reports_are_refused::<LocalizeReport>("localize");
}

#[test]
fn hostile_profile_reports_are_refused() {
    hostile_reports_are_refused::<ProfileReport>("profile");
}

/// The reports' own methods are the envelope's.
#[test]
fn report_methods_are_the_envelope() {
    let (path, text) = goldens("profile").swap_remove(0);
    let mut p = ProfileReport::from_json(&text).expect("golden loads");
    assert!(p.digest_ok());
    p.makespan += 1;
    assert!(!p.digest_ok());
    let err = ProfileReport::from_json(&p.to_json()).unwrap_err();
    assert_eq!(
        err,
        "ProfileReport: report digest does not match its contents"
    );
    p.seal();
    assert_eq!(ProfileReport::from_json(&p.to_json()), Ok(p), "{path}");
    let (_, text) = goldens("localize").swap_remove(0);
    let l = LocalizeReport::from_json(&text).expect("golden loads");
    assert!(l.digest_ok());
    assert_eq!(l.to_json(), text);
}
