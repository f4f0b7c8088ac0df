//! The untraced run: passes of real `tracedbg` subprocesses.
//!
//! Nothing here is instrumented. A pass runs the workload's fixed verb
//! sequence, one child at a time, checks every output, and keeps the wall
//! time of each verb whose exit code and output were right.

use crate::child::{dir_bytes, Finished, Runner, Scratch};
use crate::spans::json_str;
use crate::workload::Workload;
use crate::{spec, stats, RunResult};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::time::Instant;
use tracedbg_instrument::RecorderConfig;
use tracedbg_localize::LocalizeReport;
use tracedbg_mpsim::{Engine, EngineConfig};
use tracedbg_profile::ProfileReport;

/// Queries per selector family in a pass (rank, tag, window).
const QUERIES_PER_FAMILY: usize = 4;
/// Times set-up is repeated in one run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;

/// What a correct pass must reproduce, derived in-process from the seed
/// before any child runs.
pub struct Expected {
    pub records: u64,
    pub procs: usize,
    /// Selector arguments of the query batch, e.g. `["--rank", "133"]`.
    pub queries: Vec<Vec<String>>,
    /// The scripted debug session, as `-e` arguments.
    pub debug_script: Vec<String>,
}

/// Run the debuggee once in-process and read off what the CLI must print.
pub fn derive_expected(w: &Workload) -> Expected {
    let mut engine = Engine::launch(
        EngineConfig::with_recorder(RecorderConfig::full()),
        w.factory()(),
    );
    // Hunt debuggees complete under the default schedule; a failure here
    // would be a broken workload definition, not a measurement.
    assert!(
        engine.run().is_completed(),
        "{}: baseline run must complete",
        w.name()
    );
    let store = engine.trace_store();
    let (t_lo, t_hi) = store.time_bounds();
    let makespan = t_hi - t_lo;
    let n = store.n_ranks();

    let mut tags: BTreeSet<i32> = BTreeSet::new();
    for r in store.records() {
        if let Some(m) = &r.msg {
            tags.insert(m.tag.0);
        }
    }
    let tags: Vec<i32> = tags.into_iter().collect();
    let mut queries = Vec::new();
    for k in 0..QUERIES_PER_FAMILY {
        let rank = (k * (n - 1)) / (QUERIES_PER_FAMILY - 1);
        queries.push(vec!["--rank".to_string(), rank.to_string()]);
    }
    for k in 0..QUERIES_PER_FAMILY {
        let tag = tags.get(k % tags.len().max(1)).copied().unwrap_or(0);
        queries.push(vec!["--tag".to_string(), tag.to_string()]);
    }
    for k in 0..QUERIES_PER_FAMILY {
        // Eighth-of-the-run windows at 0, 2/8, 4/8, 6/8 of the makespan.
        let lo = t_lo + makespan * (2 * k as u64) / 8;
        let hi = lo + makespan / 8;
        queries.push(vec!["--window".to_string(), format!("{lo}:{hi}")]);
    }

    let mut debug_script = vec![
        "run".to_string(),
        format!("stopline t {}", t_lo + makespan / 2),
        "replay".to_string(),
    ];
    // Ranks 0..8 exist in every workload (`step` on a missing rank panics
    // the CLI; see README).
    debug_script.extend((0..8).map(|r| format!("step {r}")));
    debug_script.extend(["undo", "undo", "undo", "markers"].map(String::from));

    Expected {
        records: store.len() as u64,
        procs: n,
        queries,
        debug_script,
    }
}

impl Expected {
    /// One JSON line, for the `derive` helper process to print.
    pub fn to_json(&self) -> String {
        let list = |items: &[String]| {
            items
                .iter()
                .map(|s| json_str(s))
                .collect::<Vec<_>>()
                .join(", ")
        };
        let queries: Vec<String> = self
            .queries
            .iter()
            .map(|q| format!("[{}]", list(q)))
            .collect();
        format!(
            "{{\"records\": {}, \"procs\": {}, \"queries\": [{}], \"debug_script\": [{}]}}",
            self.records,
            self.procs,
            queries.join(", "),
            list(&self.debug_script)
        )
    }

    pub fn from_json(text: &str) -> Result<Expected, String> {
        let v = serde_json::value_from_str(text).map_err(|e| format!("bad expectations: {e}"))?;
        let strings = |v: &serde::Value| -> Option<Vec<String>> {
            v.as_array()?
                .iter()
                .map(|s| s.as_str().map(str::to_string))
                .collect()
        };
        let parsed = (|| {
            Some(Expected {
                records: v.get("records")?.as_u64()?,
                procs: v.get("procs")?.as_u64()? as usize,
                queries: v
                    .get("queries")?
                    .as_array()?
                    .iter()
                    .map(strings)
                    .collect::<Option<_>>()?,
                debug_script: strings(v.get("debug_script")?)?,
            })
        })();
        parsed.ok_or_else(|| format!("bad expectations: {text}"))
    }
}

/// [`derive_expected`] in a helper process (this binary's `derive` mode).
///
/// A child's `ru_maxrss` is never below its parent's own high-water mark
/// at the time of the spawn (the spawned process borrows the parent's
/// address space until `exec`), so the process that spawns the measured
/// children must stay small: it may not run a 400-rank engine itself.
pub fn derive_in_helper(w: &Workload) -> Result<Expected, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this binary: {e}"))?;
    let out = std::process::Command::new(exe)
        .args([
            "derive",
            "--workload",
            w.name(),
            "--seed",
            &w.seed.to_string(),
        ])
        .output()
        .map_err(|e| format!("derive helper: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "derive helper failed: {}",
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    Expected::from_json(String::from_utf8_lossy(&out.stdout).trim())
}

/// FNV-1a over a byte string: identity of an output across passes.
pub fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

fn file_hash(path: &Path) -> Option<u64> {
    std::fs::read(path).ok().map(|b| fnv64(&b))
}

/// Outputs that must be byte-identical in every pass at one seed.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Fingerprint(BTreeMap<&'static str, u64>);

impl Fingerprint {
    pub fn get(&self, key: &str) -> Option<&u64> {
        self.0.get(key)
    }
}

/// One pass: wall seconds per verb (only verbs whose every child and
/// check succeeded), the largest child RSS, bytes left on disk.
#[derive(Clone, Debug, Default)]
pub struct Pass {
    pub walls: BTreeMap<&'static str, f64>,
    /// Largest resident set among all the pass's children.
    pub peak_rss_kb: u64,
    /// Largest resident set among the children of the produce verbs. The
    /// debug session's footprint depends on which `step`s advance, hence
    /// on the seed; these children's does not.
    pub produce_rss_kb: u64,
    pub output_bytes: u64,
    pub fingerprint: Fingerprint,
}

pub const PRODUCE_TRACE: [&str; 3] = ["record", "record_file", "ingest"];
pub const INSPECT_TRACE: [&str; 3] = ["query", "analyze", "debug"];
pub const PRODUCE_HUNT: [&str; 1] = ["explore"];
pub const INSPECT_HUNT: [&str; 2] = ["localize", "replay"];

struct PassCtx<'a> {
    runner: &'a mut Runner,
    dir: &'a Path,
    pass: Pass,
    bad: BTreeSet<&'static str>,
}

impl PassCtx<'_> {
    /// Run one child for `verb`, then `check` its stdout. A timed child
    /// adds its wall time to the verb; any failure disqualifies the verb's
    /// timing for this pass and counts a failed op.
    fn child(
        &mut self,
        verb: &'static str,
        timed: bool,
        args: Vec<String>,
        expect: i32,
        check: impl FnOnce(&Finished) -> Result<(), String>,
    ) -> Option<Finished> {
        let Some(done) = self.runner.run(self.dir, &args, expect) else {
            self.bad.insert(verb);
            return None;
        };
        self.pass.peak_rss_kb = self.pass.peak_rss_kb.max(done.maxrss_kb);
        if PRODUCE_TRACE.contains(&verb) || PRODUCE_HUNT.contains(&verb) {
            self.pass.produce_rss_kb = self.pass.produce_rss_kb.max(done.maxrss_kb);
        }
        if let Err(why) = check(&done) {
            self.runner
                .fail(format!("tracedbg {}: {why}", args.join(" ")));
            self.bad.insert(verb);
            return None;
        }
        if timed {
            *self.pass.walls.entry(verb).or_insert(0.0) += done.wall_s;
        }
        Some(done)
    }

    /// An output check that belongs to `verb` but has no child of its own.
    fn require(&mut self, verb: &'static str, ok: bool, why: impl FnOnce() -> String) {
        if !ok {
            self.runner.ops_attempted += 1;
            self.runner.fail(why());
            self.bad.insert(verb);
        }
    }

    fn note(&mut self, key: &'static str, hash: Option<u64>) {
        if let Some(h) = hash {
            self.pass.fingerprint.0.insert(key, h);
        }
    }

    fn finish(mut self) -> Pass {
        for verb in &self.bad {
            self.pass.walls.remove(verb);
        }
        self.pass.output_bytes = dir_bytes(self.dir);
        self.pass
    }
}

fn has(text: &str, needle: &str) -> Result<(), String> {
    if text.contains(needle) {
        Ok(())
    } else {
        Err(format!("output lacks {needle:?}"))
    }
}

fn path_str(p: &Path) -> String {
    p.to_string_lossy().into_owned()
}

/// `N match(es)` on the last line of `query --count`.
fn match_count(text: &str) -> Option<u64> {
    text.lines()
        .last()?
        .strip_suffix(" match(es)")?
        .parse()
        .ok()
}

fn strs(v: &[&str]) -> Vec<String> {
    v.iter().map(|s| s.to_string()).collect()
}

/// record -> record_file -> ingest -> query batch -> analyze -> debug.
fn trace_pass(
    ctx: &mut PassCtx,
    w: &Workload,
    exp: &Expected,
    reference_debug: Option<u64>,
    pass_ix: usize,
) {
    let (store, tbin, ingested) = (ctx.dir.join("s"), ctx.dir.join("t.tbin"), ctx.dir.join("i"));
    let events = format!("({} events,", exp.records);
    let summary = format!("{} events, {} ranks", exp.records, exp.procs);

    let mut args = strs(&["run"]);
    args.extend(w.target_args());
    args.extend(["--store".to_string(), path_str(&store)]);
    ctx.child("record", true, args, 0, |d| {
        let t = &d.stdout;
        has(t, "outcome: Completed")
            .and(has(t, &events))
            .and(has(t, &summary))
    });

    let mut args = strs(&["run"]);
    args.extend(w.target_args());
    args.extend(["--trace".to_string(), path_str(&tbin)]);
    ctx.child("record_file", true, args, 0, |d| {
        let t = &d.stdout;
        has(t, "outcome: Completed").and(has(t, &summary))
    });
    ctx.note("trace_file", file_hash(&tbin));

    let args = vec![
        "ingest".into(),
        path_str(&tbin),
        "--out".into(),
        path_str(&ingested),
    ];
    ctx.child("ingest", true, args, 0, |d| {
        has(&d.stdout, &format!(": {} events,", exp.records))
    });

    // The timed batch reads the store the live tee wrote.
    let mut counts = Vec::new();
    for q in &exp.queries {
        let mut args = vec!["query".into(), path_str(&store)];
        args.extend(q.iter().cloned());
        args.push("--count".into());
        let done = ctx.child("query", true, args, 0, |d| {
            match_count(&d.stdout)
                .map(|_| ())
                .ok_or("no match count".into())
        });
        counts.push(done.and_then(|d| match_count(&d.stdout)));
    }
    let joined: Vec<String> = counts.iter().map(|c| format!("{c:?}")).collect();
    ctx.note("query_counts", Some(fnv64(joined.join(",").as_bytes())));
    // Untimed: the ingested store must answer the same. One query per
    // family, rotating through the batch pass by pass.
    for family in 0..3 {
        let ix = family * QUERIES_PER_FAMILY + pass_ix % QUERIES_PER_FAMILY;
        let mut args = vec!["query".into(), path_str(&ingested)];
        args.extend(exp.queries[ix].iter().cloned());
        args.push("--count".into());
        let want = counts[ix];
        ctx.child("query", false, args, 0, |d| {
            let got = match_count(&d.stdout);
            if got.is_some() && got == want {
                Ok(())
            } else {
                Err(format!(
                    "ingested store counts {got:?}, live tee counted {want:?}"
                ))
            }
        });
    }

    let report = ctx.dir.join("p.json");
    ctx.child(
        "analyze",
        true,
        vec!["stats".into(), path_str(&store)],
        0,
        |d| has(&d.stdout, &format!("{} events", exp.records)),
    );
    let args = vec![
        "profile".into(),
        path_str(&store),
        "--json".into(),
        "--out".into(),
        path_str(&report),
    ];
    ctx.child("analyze", true, args, 0, |_| {
        let json = std::fs::read_to_string(&report).map_err(|e| e.to_string())?;
        let r = ProfileReport::from_json(&json)?;
        if r.digest_ok() && r.events as u64 == exp.records {
            Ok(())
        } else {
            Err(format!(
                "profile report: digest_ok={} events={}",
                r.digest_ok(),
                r.events
            ))
        }
    });
    ctx.note("profile_report", file_hash(&report));
    ctx.child(
        "analyze",
        true,
        vec!["lint".into(), path_str(&store)],
        0,
        |d| has(&d.stdout, "clean: no diagnostics"),
    );
    ctx.child(
        "analyze",
        true,
        vec!["view".into(), path_str(&store)],
        0,
        |d| {
            if d.stdout.lines().count() >= exp.procs.min(8) {
                Ok(())
            } else {
                Err("timeline is shorter than the rank count".into())
            }
        },
    );

    let done = ctx.child("debug", true, debug_args(w, exp, None), 0, |d| {
        has(&d.stdout, "> markers")
    });
    let transcript = done.map(|d| d.stdout);
    ctx.note(
        "debug_transcript",
        transcript.as_ref().map(|t| fnv64(t.as_bytes())),
    );
    if let (Some(got), Some(want)) = (transcript, reference_debug) {
        ctx.require(
            "debug",
            fnv64(without_undo_replies(&got).as_bytes()) == want,
            || "debug transcript differs from the --checkpoint-every 0 reference".into(),
        );
    }
}

/// A debug transcript minus the status line each `undo` answers with.
/// With checkpoints on, that line lists only the ranks the restore moved,
/// where the from-scratch session lists every trapped rank (README,
/// findings); the stop reached is the same, as the final `markers` shows.
fn without_undo_replies(transcript: &str) -> String {
    let mut out = String::new();
    let mut in_undo = false;
    for line in transcript.lines() {
        if line.starts_with("> ") {
            in_undo = line == "> undo";
        } else if in_undo {
            continue;
        }
        out.push_str(line);
        out.push('\n');
    }
    out
}

fn debug_args(w: &Workload, exp: &Expected, checkpoint_every: Option<usize>) -> Vec<String> {
    let mut args = strs(&["debug"]);
    args.extend(w.target_args());
    if let Some(n) = checkpoint_every {
        args.extend(["--checkpoint-every".to_string(), n.to_string()]);
    }
    for cmd in &exp.debug_script {
        args.extend(["-e".to_string(), cmd.clone()]);
    }
    args
}

/// explore -> localize -> three replay forms.
fn hunt_pass(ctx: &mut PassCtx, w: &Workload) {
    let (explore_runs, localize_runs) = w.hunt_budgets();
    let out = ctx.dir.join("x");
    let safe: String = w
        .target()
        .chars()
        .map(|c| {
            if c.is_alphanumeric() || c == '-' {
                c
            } else {
                '-'
            }
        })
        .collect();
    let artifact = out.join(format!("{safe}-panic-0.sched.json"));
    let seed = w.seed.to_string();

    let mut args = strs(&["explore"]);
    args.extend(w.target_args());
    args.extend(strs(&[
        "--runs",
        &explore_runs.to_string(),
        "--jobs",
        "1",
        "--json",
        "--out",
    ]));
    args.push(path_str(&out));
    if w.dpor() {
        args.push("--dpor".into());
    }
    // Exit 1 is the expected outcome: the search found the planted failure.
    let done = ctx.child("explore", true, args, 1, |d| {
        has(&d.stdout, "\"class\":\"panic\"")?;
        if artifact.is_file() {
            Ok(())
        } else {
            Err(format!("no artifact at {}", artifact.display()))
        }
    });
    ctx.note("explore_report", done.map(|d| fnv64(d.stdout.as_bytes())));

    let report = ctx.dir.join("l.json");
    let args = vec![
        "localize".into(),
        "--schedule".into(),
        path_str(&artifact),
        "--runs".into(),
        localize_runs.to_string(),
        "--seed".into(),
        seed,
        "--jobs".into(),
        "1".into(),
        "--json".into(),
        "--out".into(),
        path_str(&report),
    ];
    let planted = w.planted_rank();
    ctx.child("localize", true, args, 0, |_| {
        let json = std::fs::read_to_string(&report).map_err(|e| e.to_string())?;
        let r = LocalizeReport::from_json(&json)?;
        if r.verdict != tracedbg_localize::VERDICT_LOCALIZED || !r.digest_ok() {
            return Err(format!(
                "verdict {:?}, digest_ok={}",
                r.verdict,
                r.digest_ok()
            ));
        }
        // Not "in the top two": with this many references the nearest
        // passing neighbour diverges at unrelated ranks first (README,
        // findings), so the planted rank is only required to be reported.
        match planted {
            Some(rank) if !r.suspects.iter().any(|s| s.rank == rank) => {
                Err(format!("planted rank {rank} is not among the suspects"))
            }
            _ => Ok(()),
        }
    });
    ctx.note("localize_report", file_hash(&report));

    let replay = |extra: &[&str]| {
        let mut args = vec![
            "replay".to_string(),
            "--schedule".into(),
            path_str(&artifact),
        ];
        args.extend(extra.iter().map(|s| s.to_string()));
        args
    };
    ctx.child("replay", true, replay(&[]), 0, |d| {
        has(&d.stdout, "reproduced recorded failure class")
    });
    ctx.child("replay", true, replay(&["--from-checkpoint"]), 0, |d| {
        has(&d.stdout, "restored run is byte-identical")
    });
    let report_arg = path_str(&report);
    ctx.child(
        "replay",
        true,
        replay(&["--to-suspect", &report_arg]),
        0,
        |d| has(&d.stdout, "stopped at the divergence frontier"),
    );
}

/// What set-up leaves for the timed passes.
pub struct SetUp {
    pub expected: Expected,
    /// Hash of the `--checkpoint-every 0` debug transcript, less its undo
    /// replies (trace family).
    pub reference_debug: Option<u64>,
    /// The warm-up pass's outputs: every timed pass must reproduce them.
    pub fingerprint: Fingerprint,
}

pub fn run_pass(
    runner: &mut Runner,
    scratch: &Scratch,
    w: &Workload,
    exp: &Expected,
    reference_debug: Option<u64>,
    pass_ix: usize,
) -> Pass {
    let dir = scratch.sub("pass").expect("scratch subdirectory");
    let mut ctx = PassCtx {
        runner,
        dir: &dir,
        pass: Pass::default(),
        bad: BTreeSet::new(),
    };
    if w.is_hunt() {
        hunt_pass(&mut ctx, w);
    } else {
        trace_pass(&mut ctx, w, exp, reference_debug, pass_ix);
    }
    ctx.finish()
}

/// One set-up: derive the expectations (library calls, helper process), take the reference
/// debug transcript, run the discarded warm-up pass.
pub fn set_up(runner: &mut Runner, scratch: &Scratch, w: &Workload) -> SetUp {
    let expected = derive_in_helper(w).unwrap_or_else(|e| panic!("{}: {e}", w.name()));
    let reference_debug = if w.is_hunt() {
        None
    } else {
        let dir = scratch.sub("setup").expect("scratch subdirectory");
        runner
            .run(&dir, &debug_args(w, &expected, Some(0)), 0)
            .map(|d| fnv64(without_undo_replies(&d.stdout).as_bytes()))
    };
    let warm = run_pass(runner, scratch, w, &expected, reference_debug, 0);
    SetUp {
        expected,
        reference_debug,
        fingerprint: warm.fingerprint,
    }
}

/// The result of an untraced run.
pub struct Measured {
    pub setup_s: Vec<f64>,
    pub passes: Vec<Pass>,
}

/// Set up `SETUP_REPEATS` times, then run passes for `seconds`.
pub fn measure(runner: &mut Runner, scratch: &Scratch, w: &Workload, seconds: f64) -> Measured {
    let mut setup_s = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        let started = Instant::now();
        last = Some(set_up(runner, scratch, w));
        setup_s.push(started.elapsed().as_secs_f64());
    }
    let setup = last.expect("at least one set-up");

    let mut passes = Vec::new();
    let started = Instant::now();
    while passes.is_empty() || started.elapsed().as_secs_f64() < seconds {
        let pass = run_pass(
            runner,
            scratch,
            w,
            &setup.expected,
            setup.reference_debug,
            passes.len() + 1,
        );
        if pass.fingerprint != setup.fingerprint {
            runner.ops_attempted += 1;
            runner.fail(format!(
                "pass {}: outputs differ from the warm-up pass ({:?} vs {:?})",
                passes.len() + 1,
                pass.fingerprint,
                setup.fingerprint
            ));
        }
        passes.push(pass);
    }
    Measured { setup_s, passes }
}

/// Wall-time samples of one verb over the passes; a pass in which the
/// verb failed contributes none.
fn verb_samples(passes: &[Pass], verb: &str) -> Vec<f64> {
    passes
        .iter()
        .filter_map(|p| p.walls.get(verb).copied())
        .collect()
}

/// The untraced run of one workload: every end-to-end metric.
///
/// A timing metric is the sum, over its verbs, of each verb's *fastest*
/// pass. The box this runs on alternates between a fast and a ~35% slower
/// mode for tens of seconds at a time (README, "Why the minimum"): the
/// slowdown only ever adds time, and a median over one run follows
/// whichever mode the run happened to land in. `setup_s` is the median of
/// the set-up repetitions; memory and disk figures are medians too (they
/// repeat to the kilobyte).
pub fn run(runner: &mut Runner, scratch: &Scratch, w: &Workload, seconds: f64) -> RunResult {
    let m = measure(runner, scratch, w, seconds);
    let (produce, inspect): (&[&'static str], &[&'static str]) = if w.is_hunt() {
        (&PRODUCE_HUNT, &INSPECT_HUNT)
    } else {
        (&PRODUCE_TRACE, &INSPECT_TRACE)
    };
    let mut detail = BTreeMap::new();
    let mut sum_of_fastest = |verbs: &[&'static str]| -> Option<f64> {
        let mut total = 0.0;
        for &verb in verbs {
            let summary = stats::summarize(&verb_samples(&m.passes, verb))?;
            total += summary.min;
            detail.insert(verb.to_string(), summary);
        }
        Some(total)
    };
    let produce_s = sum_of_fastest(produce);
    let inspect_s = sum_of_fastest(inspect);
    let mut median_of = |name: &'static str, values: Vec<f64>| -> Option<f64> {
        let summary = stats::summarize(&values)?;
        detail.insert(name.to_string(), summary);
        Some(summary.median)
    };
    let values = [
        median_of("setup_s", m.setup_s.clone()),
        produce_s,
        inspect_s,
        median_of(
            "produce_rss_mb",
            m.passes
                .iter()
                .map(|p| p.produce_rss_kb as f64 / 1024.0)
                .collect(),
        ),
        median_of(
            "output_kb",
            m.passes
                .iter()
                .map(|p| p.output_bytes as f64 / 1024.0)
                .collect(),
        ),
    ];
    // A metric is missing when every pass failed the verbs behind it.
    let complete = values.iter().all(Option::is_some);
    let metrics = spec::END_TO_END
        .iter()
        .zip(values)
        .filter_map(|(spec, v)| Some((spec.name, v?, spec.unit)))
        .collect();
    RunResult {
        correct: complete && runner.ops_failed == 0,
        attempted: runner.ops_attempted,
        failed: runner.ops_failed,
        metrics,
        detail,
        failures: runner.failures.clone(),
        passes: m.passes.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn match_count_reads_the_last_line_only() {
        assert_eq!(match_count("d: 10 events — rank 3\n7 match(es)\n"), Some(7));
        assert_eq!(match_count("7 match(es)\nerror: boom\n"), None);
        assert_eq!(match_count(""), None);
    }

    #[test]
    fn a_verb_with_a_failed_child_or_check_contributes_no_timing() {
        let scratch = Scratch::create(&crate::child::test_base(), 1).unwrap();
        let mut runner = Runner::new(Path::new("sh"));
        let mut ctx = PassCtx {
            runner: &mut runner,
            dir: scratch.path(),
            pass: Pass::default(),
            bad: BTreeSet::new(),
        };
        let sh = |script: &str| strs(&["-c", script]);
        // Two good children of one verb add up; a third with the wrong exit
        // code takes the whole verb's timing away.
        assert!(ctx
            .child("record", true, sh("exit 0"), 0, |_| Ok(()))
            .is_some());
        assert!(ctx
            .child("record", true, sh("exit 2"), 0, |_| Ok(()))
            .is_none());
        // A right exit code with a wrong output is a failed op too.
        assert!(ctx
            .child("ingest", true, sh("echo 7 events"), 0, |d| has(
                &d.stdout, "9 events"
            ))
            .is_none());
        // Untimed children are checked but never timed.
        assert!(ctx
            .child("query", false, sh("exit 0"), 0, |_| Ok(()))
            .is_some());
        assert!(ctx
            .child("debug", true, sh("exit 1"), 1, |_| Ok(()))
            .is_some());
        let pass = ctx.finish();
        assert_eq!(pass.walls.keys().copied().collect::<Vec<_>>(), ["debug"]);
        assert!(pass.walls["debug"] > 0.0 && pass.peak_rss_kb > 0);
        assert_eq!(
            pass.produce_rss_kb,
            pass.peak_rss_kb.min(pass.produce_rss_kb),
            "produce children are a subset"
        );
        assert_eq!((runner.ops_attempted, runner.ops_failed), (5, 2));
    }

    #[test]
    fn undo_replies_are_left_out_of_the_reference_comparison() {
        let with =
            "> replay\nstopped: traps [P0@1]\n> undo\nstopped: traps [P1@2]\n> markers\n<1,2>\n";
        let scratch = "> replay\nstopped: traps [P0@1]\n> undo\nstopped: traps [P0@1, P1@2]\n> markers\n<1,2>\n";
        assert_eq!(without_undo_replies(with), without_undo_replies(scratch));
        assert_eq!(
            without_undo_replies(with),
            "> replay\nstopped: traps [P0@1]\n> undo\n> markers\n<1,2>\n"
        );
        assert_ne!(
            without_undo_replies(with),
            without_undo_replies(&with.replace("<1,2>", "<1,3>"))
        );
    }

    #[test]
    fn fnv64_matches_the_reference_vectors() {
        assert_eq!(fnv64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv64(b"a"), 0xaf63dc4c8601ec8c);
    }

    #[test]
    fn expectations_are_a_function_of_the_seed() {
        let a = derive_expected(&Workload::by_name("hunt_script", 5).unwrap());
        let b = derive_expected(&Workload::by_name("hunt_script", 5).unwrap());
        assert_eq!(
            (a.records, &a.queries, &a.debug_script),
            (b.records, &b.queries, &b.debug_script)
        );
        assert_eq!(a.queries.len(), 3 * QUERIES_PER_FAMILY);
        assert_eq!(a.debug_script.len(), 3 + 8 + 4);
        assert!(a.records > 0);
        let back = Expected::from_json(&a.to_json()).unwrap();
        assert_eq!(
            (back.records, back.procs, back.queries, back.debug_script),
            (a.records, a.procs, a.queries, a.debug_script)
        );
        assert!(Expected::from_json("{\"records\": 1}").is_err());
    }
}
