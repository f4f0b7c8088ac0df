//! Golden-trace corpus: canonical traces of the seed workloads under the
//! deterministic scheduler, byte-for-byte.
//!
//! Any change to the engine, the cost model, the recorder, or a workload
//! that shifts a single event or timestamp fails here with the first
//! divergent line. If the change is intentional, re-bless the corpus:
//!
//! ```text
//! scripts/bless.sh          # == BLESS=1 cargo test --test golden
//! ```
//!
//! and review the resulting `tests/golden/*.trc` diff like any other code.

use std::path::PathBuf;
use tracedbg::prelude::*;
use tracedbg::trace::file::{write_text, TraceFile};
use tracedbg::workloads::{
    fib, heat, lu, master_worker, racy, random_comm, ring, script, strassen,
};

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden")
}

/// Run deterministically and render the canonical text trace. Workloads
/// that deadlock by design (`strassen-bug`) still trace deterministically.
fn canonical_trace(programs: Vec<tracedbg::mpsim::RankProgram>) -> String {
    let mut e = Engine::launch(
        EngineConfig::with_recorder(RecorderConfig::full()),
        programs,
    );
    let _ = e.run();
    let store = e.trace_store();
    let file = TraceFile::new(
        store.records().to_vec(),
        store.sites().clone(),
        store.n_ranks(),
    );
    let mut buf = Vec::new();
    write_text(&mut buf, &file).expect("in-memory trace write");
    String::from_utf8(buf).expect("trace text is UTF-8")
}

fn check(name: &str, programs: Vec<tracedbg::mpsim::RankProgram>) {
    let text = canonical_trace(programs);
    let path = golden_dir().join(format!("{name}.trc"));
    if std::env::var_os("BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &text).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "{name}: missing golden file {} ({e}); bless the corpus with scripts/bless.sh",
            path.display()
        )
    });
    if text != want {
        let line = text
            .lines()
            .zip(want.lines())
            .position(|(a, b)| a != b)
            .map(|i| i + 1);
        let detail = match line {
            Some(n) => format!(
                "first divergence at line {n}:\n  got : {}\n  want: {}",
                text.lines().nth(n - 1).unwrap_or("<end of trace>"),
                want.lines().nth(n - 1).unwrap_or("<end of trace>"),
            ),
            None => format!(
                "line count changed: got {}, want {}",
                text.lines().count(),
                want.lines().count()
            ),
        };
        panic!(
            "{name}: canonical trace drifted from the golden corpus; {detail}\n\
             if the change is intentional, re-bless with scripts/bless.sh"
        );
    }
}

#[test]
fn golden_ring() {
    check("ring", ring::programs(&ring::RingConfig::default()));
}

#[test]
fn golden_heat() {
    check("heat", heat::programs(&heat::HeatConfig::default()));
}

#[test]
fn golden_lu() {
    check("lu", lu::programs(&lu::LuConfig::default()));
}

#[test]
fn golden_pool() {
    check(
        "pool",
        master_worker::programs(&master_worker::PoolConfig::default()),
    );
}

#[test]
fn golden_strassen() {
    check(
        "strassen",
        strassen::programs(&strassen::StrassenConfig::figures(
            strassen::Variant::Correct,
        )),
    );
}

#[test]
fn golden_strassen_bug() {
    check(
        "strassen-bug",
        strassen::programs(&strassen::StrassenConfig::figures(
            strassen::Variant::JresBug,
        )),
    );
}

#[test]
fn golden_fib() {
    check("fib-8", vec![fib::program(8)]);
}

#[test]
fn golden_random() {
    let pat = random_comm::generate(42, 4, 12);
    check("random-12", random_comm::programs(&pat, 42));
}

#[test]
fn golden_racy_wildcard() {
    check(
        "racy-wildcard",
        racy::wildcard_race(&racy::RacyConfig::default()),
    );
}

#[test]
fn golden_racy_deadlock() {
    check(
        "racy-deadlock",
        racy::orphan_deadlock(&racy::RacyConfig::default()),
    );
}

#[test]
fn golden_script_pingpong() {
    let src =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples/scripts/pingpong.script");
    let text = std::fs::read_to_string(&src).expect("pingpong script exists");
    let parsed = script::parse(&text).expect("pingpong script parses");
    check(
        "script-pingpong",
        script::programs(&parsed, 4, "examples/scripts/pingpong.script"),
    );
}

/// `trace_digest` streams each record's `Display` into FNV-1a; its value
/// is pinned to the definition it replaced — FNV-1a over the
/// `to_string()` bytes of every record, newline-terminated — on every
/// golden trace, because explorer pruning and committed reports key on it.
#[test]
fn trace_digest_equals_fnv_over_display_strings() {
    use tracedbg::trace::file::read_text;
    use tracedbg::trace::trace_digest;
    let mut seen = 0;
    for entry in std::fs::read_dir(golden_dir()).expect("golden dir") {
        let path = entry.expect("dir entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("trc") {
            continue;
        }
        let file = std::fs::File::open(&path).expect("open golden");
        let trace = read_text(std::io::BufReader::new(file)).expect("golden parses");
        let mut want = 0xcbf2_9ce4_8422_2325u64;
        for rec in &trace.records {
            for b in rec.to_string().bytes().chain(std::iter::once(b'\n')) {
                want = (want ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        assert_eq!(trace_digest(&trace.records), want, "{}", path.display());
        assert!(!trace.records.is_empty(), "{}", path.display());
        seen += 1;
    }
    assert!(seen >= 11, "golden corpus went missing: {seen} traces");
}

/// What `tracedbg analyze` and `tracedbg lint` print for every golden
/// trace, byte-for-byte. The corpus in `tests/golden/analysis/` was
/// written by the last build whose happens-before index was the dense
/// events × ranks tables, so this pins the race findings, the TDL
/// diagnostics and their order across the move to on-demand cones.
#[test]
fn golden_analyze_and_lint_output() {
    use std::process::Command;
    let mut seen = 0;
    for entry in std::fs::read_dir(golden_dir()).expect("golden dir") {
        let path = entry.expect("dir entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("trc") {
            continue;
        }
        let name = path.file_stem().unwrap().to_str().unwrap();
        for verb in ["analyze", "lint"] {
            // `lint` exits 1 on error diagnostics; stdout is what is pinned.
            let out = Command::new(env!("CARGO_BIN_EXE_tracedbg"))
                .arg(verb)
                .arg(&path)
                .output()
                .expect("spawn tracedbg");
            assert!(out.stderr.is_empty(), "{name} {verb}: {:?}", out.stderr);
            let want_path = golden_dir().join(format!("analysis/{name}.{verb}.txt"));
            if std::env::var_os("BLESS").is_some() {
                std::fs::write(&want_path, &out.stdout).unwrap();
                continue;
            }
            let want = std::fs::read(&want_path)
                .unwrap_or_else(|e| panic!("missing {}: {e}", want_path.display()));
            assert!(
                out.stdout == want,
                "{name}: `tracedbg {verb}` output drifted from {}:\n{}",
                want_path.display(),
                String::from_utf8_lossy(&out.stdout)
            );
        }
        seen += 1;
    }
    assert!(seen >= 11, "golden corpus went missing: {seen} traces");
}
