//! `tracedbg-benchmark` — the repository's end-to-end benchmark.
//!
//! ```text
//! tracedbg-benchmark --workload W --seed N --seconds S --trace 0|1 [--bin PATH] [--out-dir DIR]
//! tracedbg-benchmark suite [--seed N] [--seconds S] [--repeat K] [--out FILE] [--build-s X] ...
//! tracedbg-benchmark check [BENCHMARK.json]
//! tracedbg-benchmark manifest
//! tracedbg-benchmark derive --workload W --seed N      (helper of the above)
//! ```
//!
//! The first form is what `BENCHMARK.json`'s command runs (through
//! `run.sh`, which builds first): one workload, one JSON result object on
//! the last line of stdout. `--trace 0` times real `tracedbg` children
//! with no instrumentation anywhere; `--trace 1` re-enacts the verbs
//! in-process under spans and reports the per-layer metrics.

mod child;
mod e2e;
mod spans;
mod spec;
mod stats;
mod suite;
mod traced;
mod workload;

use child::{Runner, Scratch};
use spans::json_str;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use workload::Workload;

/// `--name value` pairs and bare words, in the CLI's own convention.
pub struct Args {
    pub words: Vec<String>,
    flags: BTreeMap<String, String>,
}

impl Args {
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut words = Vec::new();
        let mut flags = BTreeMap::new();
        let mut it = argv.iter();
        while let Some(a) = it.next() {
            match a.strip_prefix("--") {
                Some(name) => {
                    let v = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
                    flags.insert(name.to_string(), v.clone());
                }
                None => words.push(a.clone()),
            }
        }
        Ok(Args { words, flags })
    }

    pub fn get(&self, name: &str) -> Option<&str> {
        self.flags.get(name).map(String::as_str)
    }

    pub fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{name}: bad value {v:?}")),
        }
    }
}

/// Where things live, resolved once from the arguments.
pub struct Env {
    /// The `tracedbg` binary under test.
    pub bin: PathBuf,
    /// Parent of every scratch directory and of `spans-*.json`.
    pub out_dir: PathBuf,
}

impl Env {
    pub fn from_args(args: &Args) -> Env {
        Env {
            bin: PathBuf::from(args.get("bin").unwrap_or("target/release/tracedbg")),
            out_dir: PathBuf::from(args.get("out-dir").unwrap_or("benchmark/out")),
        }
    }
}

/// One run's result, as the driver reads it.
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in the manifest's order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Sample summaries behind the medians, for the human-readable table.
    pub detail: BTreeMap<String, stats::Summary>,
    pub failures: Vec<String>,
    pub passes: usize,
}

impl RunResult {
    /// One JSON line with what the result line has no room for: the
    /// samples behind the medians and minima, the pass count, failures.
    pub fn to_detail_line(&self) -> String {
        let samples: Vec<String> = self
            .detail
            .iter()
            .map(|(what, s)| format!("{}: {}", json_str(what), s.to_json()))
            .collect();
        let failures: Vec<String> = self.failures.iter().map(|f| json_str(f)).collect();
        format!(
            "{{\"passes\": {}, \"samples\": {{{}}}, \"failures\": [{}]}}",
            self.passes,
            samples.join(", "),
            failures.join(", ")
        )
    }

    /// Rebuild a result from the two lines a child run printed.
    pub fn from_lines(detail: &str, result: &str) -> Result<RunResult, String> {
        let bad = |what: &str| format!("unreadable {what} line from the child run");
        let r = serde_json::value_from_str(result).map_err(|_| bad("result"))?;
        let d = serde_json::value_from_str(detail).map_err(|_| bad("detail"))?;
        let known = |name: &str| {
            spec::END_TO_END
                .iter()
                .chain(spec::PER_LAYER.iter())
                .find(|m| m.name == name)
                .map(|m| (m.name, m.unit))
        };
        let metrics = r
            .get("metrics")
            .and_then(|m| m.as_object())
            .ok_or_else(|| bad("result"))?
            .iter()
            .filter_map(|(name, m)| {
                let (name, unit) = known(name)?;
                Some((name, m.get("value")?.as_f64()?, unit))
            })
            .collect();
        let mut detail = BTreeMap::new();
        for (what, s) in d
            .get("samples")
            .and_then(|s| s.as_object())
            .ok_or_else(|| bad("detail"))?
        {
            let field = |k: &str| s.get(k).and_then(|v| v.as_f64());
            let summary = (|| {
                Some(stats::Summary {
                    n: s.get("n")?.as_u64()? as usize,
                    min: field("min")?,
                    q1: field("q1")?,
                    median: field("median")?,
                    q3: field("q3")?,
                    max: field("max")?,
                })
            })();
            detail.insert(what.clone(), summary.ok_or_else(|| bad("detail"))?);
        }
        Ok(RunResult {
            correct: r
                .get("correct")
                .and_then(|v| v.as_bool())
                .ok_or_else(|| bad("result"))?,
            attempted: r
                .get("attempted")
                .and_then(|v| v.as_u64())
                .ok_or_else(|| bad("result"))?,
            failed: r
                .get("failed")
                .and_then(|v| v.as_u64())
                .ok_or_else(|| bad("result"))?,
            metrics,
            detail,
            failures: d
                .get("failures")
                .and_then(|f| f.as_array())
                .map(|f| {
                    f.iter()
                        .filter_map(|s| s.as_str().map(str::to_string))
                        .collect()
                })
                .unwrap_or_default(),
            passes: d.get("passes").and_then(|v| v.as_u64()).unwrap_or(0) as usize,
        })
    }

    /// The single-line JSON object the driver parses.
    pub fn to_json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(name),
                    json_num(*value),
                    json_str(unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A JSON number with all the digits the measurement has.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Run one workload, untraced (`trace == false`) or traced.
pub fn run_workload(
    env: &Env,
    w: &Workload,
    seconds: f64,
    trace: bool,
) -> Result<RunResult, String> {
    if !env.bin.is_file() {
        return Err(format!(
            "{}: no such binary (run benchmark/run.sh, which builds it)",
            env.bin.display()
        ));
    }
    std::fs::create_dir_all(&env.out_dir).map_err(|e| format!("{}: {e}", env.out_dir.display()))?;
    let mut scratch = Scratch::create(&env.out_dir, w.seed).map_err(|e| e.to_string())?;
    let mut runner = Runner::new(&env.bin);
    let result = if trace {
        traced::run(env, &mut runner, &scratch, w, seconds)
    } else {
        e2e::run(&mut runner, &scratch, w, seconds)
    };
    if !result.correct {
        // Keep the children's captured output for the post-mortem.
        scratch.keep();
        eprintln!("evidence kept in {}", scratch.path().display());
    }
    Ok(result)
}

fn single(args: &Args) -> Result<ExitCode, String> {
    let name = args.get("workload").ok_or("--workload is required")?;
    let seed: u64 = args.num("seed", 42)?;
    let seconds: f64 = args.num("seconds", spec::RUN_SECONDS as f64)?;
    let trace = match args.get("trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace: expected 0 or 1, got {other:?}")),
    };
    let w = Workload::by_name(name, seed).ok_or_else(|| {
        format!(
            "unknown workload {name:?} (one of {:?})",
            spec::workload_names()
        )
    })?;
    let result = run_workload(&Env::from_args(args), &w, seconds, trace)?;
    for f in &result.failures {
        eprintln!("FAILED: {f}");
    }
    eprintln!(
        "{}: {} pass(es), {} op(s) attempted, {} failed",
        w.name(),
        result.passes,
        result.attempted,
        result.failed
    );
    // The driver reads the last line only; the one before it is for
    // `suite`, which runs every workload as a child of its own.
    println!("{}", result.to_detail_line());
    println!("{}", result.to_json_line());
    Ok(ExitCode::SUCCESS)
}

/// Helper mode: print what a correct pass of the workload must reproduce.
fn derive(args: &Args) -> Result<ExitCode, String> {
    let name = args.get("workload").ok_or("--workload is required")?;
    let w = Workload::by_name(name, args.num("seed", 42)?)
        .ok_or_else(|| format!("unknown workload {name:?}"))?;
    println!("{}", e2e::derive_expected(&w).to_json());
    Ok(ExitCode::SUCCESS)
}

fn check(args: &Args) -> Result<ExitCode, String> {
    let path = args
        .words
        .get(1)
        .map(String::as_str)
        .unwrap_or("BENCHMARK.json");
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let errs = spec::check_manifest(&text);
    if errs.is_empty() {
        println!(
            "{path}: ok ({} workloads, {} end-to-end and {} per-layer metrics)",
            spec::WORKLOADS.len(),
            spec::END_TO_END.len(),
            spec::PER_LAYER.len()
        );
        return Ok(ExitCode::SUCCESS);
    }
    for e in &errs {
        eprintln!("{path}: {e}");
    }
    Ok(ExitCode::FAILURE)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome =
        Args::parse(&argv).and_then(|args| match args.words.first().map(String::as_str) {
            None => single(&args),
            Some("suite") => suite::run(&args),
            Some("check") => check(&args),
            Some("derive") => derive(&args),
            Some("manifest") => {
                print!("{}", spec::render_manifest());
                Ok(ExitCode::SUCCESS)
            }
            Some(other) => Err(format!(
                "unknown mode {other:?} (suite, check, manifest, or --workload W)"
            )),
        });
    match outcome {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn args_split_flags_from_words() {
        let a = Args::parse(&argv(&["suite", "--seed", "7", "--out", "f.json"])).unwrap();
        assert_eq!(a.words, ["suite"]);
        assert_eq!(a.num("seed", 0u64), Ok(7));
        assert_eq!(a.get("out"), Some("f.json"));
        assert_eq!(a.num("repeat", 1usize), Ok(1), "absent flag falls back");
        assert!(
            a.num::<u64>("out", 0).is_err(),
            "a present but unparsable value is an error"
        );
        assert!(Args::parse(&argv(&["--seed"])).is_err());
    }

    #[test]
    fn the_result_line_is_one_json_object_with_the_four_keys() {
        let r = RunResult {
            correct: true,
            attempted: 12,
            failed: 0,
            metrics: vec![("setup_s", 0.8127, "s"), ("produce_s", 1.25, "s")],
            detail: BTreeMap::new(),
            failures: Vec::new(),
            passes: 3,
        };
        let line = r.to_json_line();
        assert!(!line.contains('\n'));
        let v = serde_json::value_from_str(&line).unwrap();
        let keys: Vec<&str> = v
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let m = v.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(m.get("value").and_then(|x| x.as_f64()), Some(0.8127));
        assert_eq!(m.get("unit").and_then(|x| x.as_str()), Some("s"));
    }

    #[test]
    fn a_child_runs_two_lines_rebuild_the_result() {
        let mut detail = BTreeMap::new();
        detail.insert(
            "record".to_string(),
            stats::summarize(&[0.25, 0.5, 1.0]).unwrap(),
        );
        let r = RunResult {
            correct: false,
            attempted: 12,
            failed: 1,
            metrics: vec![("setup_s", 0.8127, "s"), ("produce_s", 1.25, "s")],
            detail,
            failures: vec!["tracedbg run: exit Some(2), expected 0".into()],
            passes: 3,
        };
        let back = RunResult::from_lines(&r.to_detail_line(), &r.to_json_line()).unwrap();
        assert_eq!(
            (back.correct, back.attempted, back.failed, back.passes),
            (false, 12, 1, 3)
        );
        assert_eq!(back.metrics, r.metrics);
        assert_eq!(back.detail, r.detail);
        assert_eq!(back.failures, r.failures);
        assert!(RunResult::from_lines("{}", "not json").is_err());
    }

    #[test]
    fn non_finite_measurements_never_reach_the_json() {
        assert_eq!(json_num(f64::NAN), "0");
        assert_eq!(json_num(1.5), "1.5");
        assert_eq!(json_num(1e-7), "0.0000001");
    }
}
