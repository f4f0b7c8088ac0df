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
        racy::wildcard_race_factory(racy::RacyConfig::default())(),
    );
}

#[test]
fn golden_racy_deadlock() {
    check(
        "racy-deadlock",
        racy::orphan_deadlock_factory(racy::RacyConfig::default())(),
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

/// Recursion, calls in loops and in calls, zero-trip loops, `if`s without
/// `else`, a barrier, a `recv` rebinding a variable and a call to an
/// undefined function: the script's header lists what each pins.
#[test]
fn golden_script_interp_corners() {
    let file = "tests/golden/scripts/interp-corners.script";
    let text = std::fs::read_to_string(golden_dir().join("scripts/interp-corners.script"))
        .expect("interp-corners script exists");
    let parsed = script::parse(&text).expect("interp-corners script parses");
    check("script-interp-corners", script::programs(&parsed, 4, file));
}

/// `trace_digest` exists to tell observably different executions apart:
/// two records digest equal exactly when their `Display` forms are equal.
/// Checked over every record of every golden trace (all pairs, through a
/// map each way) and over single-field mutations of each: every field
/// `Display` prints flips the digest, and `site`, `args` and `msg.bytes` —
/// which it does not print — must not, because hashing one of them would
/// silently change what the explorer prunes and `localize` keeps.
#[test]
fn trace_digest_separates_exactly_what_display_separates() {
    use std::collections::HashMap;
    use tracedbg::trace::file::read_text;
    use tracedbg::trace::{trace_digest, MsgInfo, SiteId, TraceRecord};
    type Mutation = (&'static str, fn(&mut TraceRecord));
    let printed: [Mutation; 10] = [
        ("kind", |r| {
            r.kind = if r.kind == EventKind::Probe {
                EventKind::Compute
            } else {
                EventKind::Probe
            }
        }),
        ("rank", |r| r.rank.0 += 1),
        ("marker", |r| r.marker += 1),
        ("t_start", |r| r.t_start += 1 << 40),
        ("t_end", |r| r.t_end += 1),
        ("msg.src", |r| with_msg(r).src.0 += 1),
        ("msg.dst", |r| with_msg(r).dst.0 += 1 << 20),
        ("msg.tag", |r| with_msg(r).tag.0 -= 1),
        ("msg.seq", |r| with_msg(r).seq += 1 << 33),
        ("label", |r| {
            let text = r.label.map_or("", Label::as_str);
            r.label = Some(Label::new(&format!("{text}x")));
        }),
    ];
    let unprinted: [Mutation; 3] = [
        ("site", |r| r.site = SiteId(r.site.0 ^ 1)),
        ("args", |r| r.args[1] += 1),
        ("msg.bytes", |r| {
            if let Some(m) = r.msg.as_mut() {
                m.bytes += 1
            }
        }),
    ];
    fn with_msg(r: &mut TraceRecord) -> &mut MsgInfo {
        r.msg.get_or_insert(MsgInfo {
            src: Rank(0),
            dst: Rank(0),
            tag: Tag(0),
            bytes: 0,
            seq: 0,
        })
    }
    let one = |r: &TraceRecord| trace_digest(std::slice::from_ref(r));

    let mut by_text: HashMap<String, u64> = HashMap::new();
    let mut by_digest: HashMap<u64, String> = HashMap::new();
    let mut seen = 0;
    for entry in std::fs::read_dir(golden_dir()).expect("golden dir") {
        let path = entry.expect("dir entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("trc") {
            continue;
        }
        let file = std::fs::File::open(&path).expect("open golden");
        let trace = read_text(std::io::BufReader::new(file)).expect("golden parses");
        assert!(!trace.records.is_empty(), "{}", path.display());
        for rec in &trace.records {
            let (text, digest) = (rec.to_string(), one(rec));
            // Equal text => equal digest, and equal digest => equal text,
            // against every record seen so far in any golden.
            assert_eq!(*by_text.entry(text.clone()).or_insert(digest), digest);
            assert_eq!(*by_digest.entry(digest).or_insert(text.clone()), text);
            for (field, mutate) in printed {
                let mut m = *rec;
                mutate(&mut m);
                assert_ne!(m.to_string(), text, "{field} is printed");
                assert_ne!(one(&m), digest, "{field} must flip the digest of {text}");
            }
            for (field, mutate) in unprinted {
                let mut m = *rec;
                mutate(&mut m);
                assert_eq!(m.to_string(), text, "{field} is not printed");
                assert_eq!(one(&m), digest, "{field} must not reach the digest");
            }
        }
        // Sequences: order and length are part of the execution.
        let whole = trace_digest(&trace.records);
        let mut swapped = trace.records.clone();
        swapped.swap(0, 1);
        assert_ne!(trace_digest(&swapped), whole, "{}", path.display());
        assert_ne!(trace_digest(&trace.records[1..]), whole);
        seen += 1;
    }
    assert!(seen >= 11, "golden corpus went missing: {seen} traces");
    assert!(by_text.len() > 500, "{} distinct records", by_text.len());
}

/// `tracedbg explore … --json` reports, byte for byte. The corpus in
/// `tests/golden/explore/` was written at `--jobs 1` by the last build
/// whose frontier held materialized prefixes and whose drains executed as
/// one batch (re-blessed once since, to drop the prefix-fork counter and
/// nothing else), so it pins budget accounting, both prune counters,
/// sleep-set skips, findings and shrunk artifacts across the move
/// to shared-prefix entries and windowed execution — at `--jobs 4` too,
/// where the only byte allowed to differ is the `jobs` field itself.
#[test]
fn golden_explore_reports() {
    use std::process::Command;
    const CORPUS: [(&str, &[&str]); 6] = [
        (
            "planted-wildcard",
            &["planted-wildcard", "--procs", "16", "--runs", "4000"],
        ),
        (
            "sdl-racy-wildcard",
            &[
                "sdl:racy-wildcard",
                "--procs",
                "8",
                "--runs",
                "6000",
                "--dpor",
            ],
        ),
        (
            "sdl-pairs",
            &["sdl:pairs", "--procs", "6", "--runs", "1500", "--dpor"],
        ),
        (
            "racy-deadlock",
            &[
                "racy-deadlock",
                "--procs",
                "5",
                "--runs",
                "257",
                "--strategy",
                "systematic",
            ],
        ),
        (
            "planted-orphan",
            &[
                "planted-orphan",
                "--procs",
                "8",
                "--runs",
                "900",
                "--faults",
            ],
        ),
        (
            "planted-pipeline",
            &[
                "planted-pipeline",
                "--procs",
                "8",
                "--runs",
                "700",
                "--preemptions",
                "3",
            ],
        ),
    ];
    let scratch = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("golden_explore");
    for (name, args) in CORPUS {
        let want_path = golden_dir().join(format!("explore/{name}.json"));
        for jobs in ["1", "4"] {
            // Exit status is 1 when there are findings; stdout is pinned.
            let out = Command::new(env!("CARGO_BIN_EXE_tracedbg"))
                .arg("explore")
                .args(args)
                .args(["--json", "--seed", "9", "--jobs", jobs, "--out"])
                .arg(scratch.join(format!("{name}-j{jobs}")))
                .output()
                .expect("spawn tracedbg");
            assert!(out.stderr.is_empty(), "{name}: {:?}", out.stderr);
            let got = String::from_utf8(out.stdout)
                .expect("report is UTF-8")
                .replacen(&format!("\"jobs\":{jobs}"), "\"jobs\":1", 1);
            if std::env::var_os("BLESS").is_some() {
                if jobs == "1" {
                    std::fs::write(&want_path, &got).unwrap();
                }
                continue;
            }
            let want = std::fs::read_to_string(&want_path)
                .unwrap_or_else(|e| panic!("missing {}: {e}", want_path.display()));
            assert!(
                got == want,
                "{name}: `tracedbg explore --jobs {jobs}` drifted from {}:\n{got}",
                want_path.display()
            );
        }
    }
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

/// The whole CLI surface, byte for byte: stdout, stderr and exit code of
/// one representative invocation per verb × input form, plus the error
/// surface. Every command runs from the repository root with relative
/// paths; the only masked text is the scratch directory (`$SCRATCH`).
/// The corpus in `tests/golden/cli/` was written by the last build whose
/// `tracedbg.rs` resolved its input verb by verb, so it pins every byte
/// across the move to one resolver, one artifact constructor and
/// self-rendering reports.
#[test]
fn golden_cli_transcripts() {
    use std::process::Command;
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let scratch = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("golden_cli");
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).unwrap();
    let scratch_str = scratch.to_str().expect("scratch path is UTF-8").to_string();
    let run = |args: &str| {
        let argv: Vec<String> = args
            .split('|')
            .map(|a| a.replace("$SCRATCH", &scratch_str))
            .collect();
        Command::new(env!("CARGO_BIN_EXE_tracedbg"))
            .args(&argv)
            .current_dir(&root)
            .output()
            .expect("spawn tracedbg")
    };
    // `name`, then the `|`-separated argument vector; `-` names a setup
    // step whose output is not pinned (it prints a wall time).
    const ART: &str = "$SCRATCH/explore/planted-wildcard-panic-0.sched.json";
    let cases: Vec<(&str, String)> = [
        ("workloads", "workloads"),
        ("view-trc", "view|tests/golden/ring.trc|--width|80"),
        ("view-store", "view|tests/golden/store/ring|--width|80"),
        ("graph-comm", "graph|tests/golden/strassen.trc|--kind|comm"),
        (
            "graph-call-vcg",
            "graph|tests/golden/strassen.trc|--kind|call|--rank|0|--format|vcg",
        ),
        ("stats-trc", "stats|tests/golden/pool.trc"),
        ("stats-store", "stats|tests/golden/store/pool"),
        ("stats-workload", "stats|pool|--procs|4"),
        ("query-rank", "query|tests/golden/store/lu|--rank|1|--limit|3"),
        ("query-stats", "query|tests/golden/store/lu|--stats"),
        ("profile-trc", "profile|tests/golden/heat.trc"),
        ("profile-workload-json", "profile|planted-wildcard|--procs|8|--json"),
        ("analyze-sdl", "analyze|sdl:pairs"),
        ("analyze-bare-builtin", "analyze|ring"),
        ("analyze-sdl-json", "analyze|sdl:pairs|--json"),
        ("lint-sdl", "lint|sdl:racy-deadlock"),
        ("lint-sdl-ring-8", "lint|sdl:ring|--procs|8"),
        ("lint-sdl-pairs-8", "lint|sdl:pairs|--procs|8"),
        ("lint-sdl-racy-wildcard-8", "lint|sdl:racy-wildcard|--procs|8"),
        ("lint-sdl-racy-deadlock-8", "lint|sdl:racy-deadlock|--procs|8"),
        // Static = dynamic: `run` of the first dies of `recv from bad rank
        // -1`, `run` of the second completes.
        (
            "lint-script-left-neighbour",
            "lint|script:tests/golden/scripts/left-neighbour.script|--procs|4",
        ),
        (
            "lint-script-status-src",
            "lint|script:tests/golden/scripts/status-src.script|--procs|4",
        ),
        (
            "lint-trc-script",
            "lint|tests/golden/script-pingpong.trc|--script|examples/scripts/pingpong.script",
        ),
        (
            "explore",
            "explore|planted-wildcard|--procs|8|--runs|200|--jobs|1|--seed|9|--out|$SCRATCH/explore",
        ),
        ("localize-schedule", "localize|--schedule|ART|--out|$SCRATCH/localize.json"),
        ("localize-schedule-json", "localize|--schedule|ART|--json"),
        ("replay", "replay|--schedule|ART|--trace|$SCRATCH/fail.trc"),
        ("-", "ingest|$SCRATCH/fail.trc|--out|$SCRATCH/fail-store"),
        ("localize-trace-trc", "localize|--schedule|ART|--trace|$SCRATCH/fail.trc"),
        ("localize-trace-store", "localize|--schedule|ART|--trace|$SCRATCH/fail-store"),
        ("profile-schedule", "profile|--schedule|ART|--out|$SCRATCH/profile.json"),
        ("replay-json", "replay|--schedule|ART|--json"),
        ("replay-from-checkpoint", "replay|--schedule|ART|--from-checkpoint"),
        ("replay-to-suspect", "replay|--schedule|ART|--to-suspect|$SCRATCH/localize.json"),
        (
            "replay-to-suspect-json",
            "replay|--schedule|ART|--to-suspect|$SCRATCH/localize.json|--json",
        ),
        (
            "replay-to-critical-path",
            "replay|--schedule|ART|--to-critical-path|$SCRATCH/profile.json",
        ),
        (
            "replay-to-critical-path-json",
            "replay|--schedule|ART|--to-critical-path|$SCRATCH/profile.json|--json",
        ),
        (
            "debug-scripted",
            "debug|ring|--procs|4|-e|run|-e|stopline t 500000|-e|replay|-e|step 1|-e|where 1|-e|undo|-e|markers",
        ),
        ("err-unknown-verb", "frobnicate"),
        ("err-unknown-workload", "run|no-such-workload"),
        ("err-unknown-builtin", "run|sdl:nope"),
        ("err-missing-trace", "view|tests/golden/nope.trc"),
        ("err-missing-store", "query|tests/golden/store/nope"),
        (
            "err-window-inverted",
            "query|tests/golden/store/lu|--window|5:1|--count",
        ),
        ("err-replay-no-schedule", "replay"),
        ("err-truncated-artifact", "replay|--schedule|$SCRATCH/truncated.sched.json"),
        ("err-report-version", "replay|--schedule|ART|--to-suspect|$SCRATCH/v99.json"),
        (
            "err-report-digest",
            "replay|--schedule|ART|--to-critical-path|$SCRATCH/tampered.json",
        ),
        // A sealed report of another run: 32 frontier markers, 8 processes.
        ("-", "profile|ring|--procs|32|--out|$SCRATCH/ring32.json"),
        (
            "err-report-width",
            "replay|--schedule|ART|--to-critical-path|$SCRATCH/ring32.json",
        ),
        ("err-deep-json", "replay|--schedule|ART|--to-suspect|$SCRATCH/deep.json"),
    ]
    .into_iter()
    .map(|(name, args)| (name, args.replace("ART", ART)))
    .collect();
    let mut drifted = Vec::new();
    for (name, args) in &cases {
        // The hostile inputs derive from files earlier cases wrote.
        if *name == "err-truncated-artifact" {
            let art = std::fs::read(ART.replace("$SCRATCH", &scratch_str)).expect("artifact");
            // A fixed cut: the file's length varies with its wall-clock stamp.
            std::fs::write(scratch.join("truncated.sched.json"), &art[..100]).unwrap();
        }
        if *name == "err-report-version" {
            let report = std::fs::read_to_string(scratch.join("localize.json")).expect("report");
            assert!(report.contains("\"version\":2"), "{report}");
            let v99 = report.replacen("\"version\":2", "\"version\":99", 1);
            std::fs::write(scratch.join("v99.json"), v99).unwrap();
        }
        if *name == "err-report-digest" {
            let report = std::fs::read_to_string(scratch.join("profile.json")).expect("report");
            assert!(report.contains("\"makespan\":254800"), "{report}");
            let tampered = report.replacen("\"makespan\":254800", "\"makespan\":254801", 1);
            std::fs::write(scratch.join("tampered.json"), tampered).unwrap();
        }
        if *name == "err-deep-json" {
            // Nesting past any stack: a parse error, not an abort.
            std::fs::write(scratch.join("deep.json"), "[".repeat(200_000)).unwrap();
        }
        let out = run(args);
        if *name == "-" {
            assert!(out.status.success(), "setup step `{args}` failed");
            continue;
        }
        let got = format!(
            "$ tracedbg {}\n[exit {}]\n--- stdout ---\n{}--- stderr ---\n{}",
            args.replace('|', " "),
            out.status.code().expect("exit code"),
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr),
        )
        .replace(&scratch_str, "$SCRATCH");
        let want_path = golden_dir().join(format!("cli/{name}.txt"));
        if std::env::var_os("BLESS").is_some() {
            std::fs::create_dir_all(want_path.parent().unwrap()).unwrap();
            std::fs::write(&want_path, &got).unwrap();
            continue;
        }
        let want = std::fs::read_to_string(&want_path)
            .unwrap_or_else(|e| panic!("missing {}: {e}", want_path.display()));
        if got != want {
            drifted.push(format!(
                "{name}: drifted from {}:\n{got}",
                want_path.display()
            ));
        }
    }
    assert!(drifted.is_empty(), "{}", drifted.join("\n"));
}
