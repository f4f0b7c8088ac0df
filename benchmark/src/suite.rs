//! Turning runs into reported metrics, and the all-workloads mode behind
//! a bare `benchmark/run.sh`.

use crate::spans::json_str;
use crate::spec::{self, Better, MetricSpec};
use crate::workload::Workload;
use crate::{json_num, stats, Args, Env, RunResult};
use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn total_ram_mb() -> u64 {
    std::fs::read_to_string("/proc/meminfo")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("MemTotal:"))?;
            line.split_whitespace().nth(1)?.parse::<u64>().ok()
        })
        .map_or(0, |kb| kb / 1024)
}

/// The environment a set of numbers was taken in (ROADMAP 2(d)).
fn environment(
    args: &Args,
    seed: u64,
    seconds: f64,
    passes: &BTreeMap<&'static str, usize>,
) -> Vec<(String, String)> {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut env = vec![
        ("available_parallelism".to_string(), cores.to_string()),
        (
            "rustc".to_string(),
            json_str(&command_line("rustc", &["--version"])),
        ),
        (
            "build_profile".to_string(),
            json_str("release (debug = line-tables-only), cargo --offline"),
        ),
        (
            "build_s".to_string(),
            json_num(args.num("build-s", 0.0).unwrap_or(0.0)),
        ),
        (
            "git_commit".to_string(),
            json_str(&command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("total_ram_mb".to_string(), total_ram_mb().to_string()),
        ("seed".to_string(), seed.to_string()),
        ("run_seconds".to_string(), json_num(seconds)),
        ("children_at_a_time".to_string(), "1".to_string()),
        ("jobs".to_string(), "1".to_string()),
    ];
    let per_workload: Vec<String> = passes
        .iter()
        .map(|(w, n)| format!("{}: {n}", json_str(w)))
        .collect();
    env.push((
        "timed_passes".to_string(),
        format!("{{{}}}", per_workload.join(", ")),
    ));
    env
}

/// How much worse `b` is than `a`, as a share of `a` (negative = better).
pub fn worsening(a: f64, b: f64, better: Better) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    match better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

type Set = BTreeMap<&'static str, RunResult>;

fn value(set: &Set, workload: &str, metric: &str) -> Option<f64> {
    set.get(workload)?
        .metrics
        .iter()
        .find(|(name, _, _)| *name == metric)
        .map(|(_, v, _)| *v)
}

fn print_results(title: &str, table: &[MetricSpec], set: &Set, with_detail: bool) {
    println!("\n== {title} ==");
    for (workload, result) in set {
        println!(
            "{workload}  (ops_attempted={} ops_failed={} passes={})",
            result.attempted, result.failed, result.passes
        );
        for m in table {
            let Some(v) = value(set, workload, m.name) else {
                println!("  {:<34} {:>16}", m.name, "missing");
                continue;
            };
            println!("  {:<34} {:>16.6} {}", m.name, v, m.unit);
        }
        if with_detail {
            println!("  samples behind them (wall seconds per verb and pass; set-up repetitions; MB; KB):");
            for (what, s) in &result.detail {
                println!(
                    "    {what:<16} n={:<3} min {:<12.6} q1 {:<12.6} median {:<12.6} q3 {:<12.6} max {:.6}",
                    s.n, s.min, s.q1, s.median, s.q3, s.max
                );
            }
        }
    }
}

/// Compare the sets pairwise-to-first (two sets) or by spread (more).
/// Returns the violations of the manifest's bounds.
fn compare(sets: &[Set]) -> Vec<String> {
    let mut violations = Vec::new();
    println!("\n== repeatability over {} sets ==", sets.len());
    for w in spec::workload_names() {
        for m in &spec::END_TO_END {
            let values: Vec<f64> = sets.iter().filter_map(|s| value(s, w, m.name)).collect();
            let bound = m.bound.expect("end-to-end metrics are bounded");
            if values.len() != sets.len() {
                violations.push(format!("{w} {}: missing in some set", m.name));
                continue;
            }
            let (figure, label) = if values.len() == 2 {
                (worsening(values[0], values[1], m.better), "second vs first")
            } else {
                (stats::spread(&values).unwrap_or(0.0), "IQR/median")
            };
            let listed: Vec<String> = values.iter().map(|v| format!("{v:.6}")).collect();
            // The driver excuses the spread of setup_s, not its drift.
            let excused = values.len() > 2 && m.name == "setup_s";
            let verdict = if figure <= bound || excused {
                "ok"
            } else {
                "EXCEEDS"
            };
            println!(
                "  {w:<14} {:<12} [{}] {}  {label} {:+.2}%  bound {:.1}%  {verdict}",
                m.name,
                listed.join(", "),
                m.unit,
                figure * 100.0,
                bound * 100.0
            );
            if verdict == "EXCEEDS" {
                violations.push(format!(
                    "{w} {}: {label} {:.2}% exceeds {:.1}%",
                    m.name,
                    figure * 100.0,
                    bound * 100.0
                ));
            }
        }
    }
    violations
}

fn results_json(env: &[(String, String)], sets: &[Set], traced: &Set) -> String {
    let metrics = |r: &RunResult| -> String {
        let mut items: Vec<String> = r
            .metrics
            .iter()
            .map(|(name, v, unit)| {
                format!(
                    "      {}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(name),
                    json_num(*v),
                    json_str(unit)
                )
            })
            .collect();
        items.extend(r.detail.iter().map(|(what, s)| {
            format!(
                "      {}: {}",
                json_str(&format!("samples.{what}")),
                s.to_json()
            )
        }));
        items.join(",\n")
    };
    let set_json = |set: &Set| -> String {
        let items: Vec<String> = set
            .iter()
            .map(|(w, r)| {
                format!(
                    "    {}: {{\"ops_attempted\": {}, \"ops_failed\": {}, \"passes\": {}, \"metrics\": {{\n{}\n    }}}}",
                    json_str(w),
                    r.attempted,
                    r.failed,
                    r.passes,
                    metrics(r)
                )
            })
            .collect();
        format!("{{\n{}\n  }}", items.join(",\n"))
    };
    let env_items: Vec<String> = env
        .iter()
        .map(|(k, v)| format!("    {}: {v}", json_str(k)))
        .collect();
    let sets_items: Vec<String> = sets.iter().map(|s| format!("  {}", set_json(s))).collect();
    format!(
        "{{\n  \"environment\": {{\n{}\n  }},\n  \"end_to_end_sets\": [\n{}\n  ],\n  \"per_layer\": {}\n}}\n",
        env_items.join(",\n"),
        sets_items.join(",\n"),
        set_json(traced)
    )
}

/// One run as a child of its own, exactly as the driver starts it. A
/// fresh process per run keeps one workload's in-process traced pass (up
/// to 780 MB) out of the next one's `ru_maxrss` readings.
fn run_in_child(env: &Env, w: &Workload, seconds: f64, trace: bool) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this binary: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", w.name(), "--seed", &w.seed.to_string()])
        .args([
            "--seconds",
            &json_num(seconds),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .arg("--bin")
        .arg(&env.bin)
        .arg("--out-dir")
        .arg(&env.out_dir)
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("{}: {e}", w.name()))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines = stdout.lines().rev();
    match (lines.next(), lines.next()) {
        (Some(result), Some(detail)) if out.status.success() => {
            RunResult::from_lines(detail, result)
        }
        _ => Err(format!(
            "{}: the run exited with {} and no result",
            w.name(),
            out.status
        )),
    }
}

/// Every workload, untraced then traced, `--repeat` sets of the former.
pub fn run(args: &Args) -> Result<ExitCode, String> {
    let seed: u64 = args.num("seed", 42)?;
    let seconds: f64 = args.num("seconds", spec::RUN_SECONDS as f64)?;
    let repeat: usize = args.num("repeat", 1)?;
    if repeat == 0 {
        return Err("--repeat: at least 1".into());
    }
    let env = Env::from_args(args);
    let out = args.get("out").map_or_else(
        || env.out_dir.join("results.json"),
        std::path::PathBuf::from,
    );

    let mut sets: Vec<Set> = Vec::new();
    let mut traced = Set::new();
    let mut failed_ops = 0;
    for set_ix in 0..repeat {
        // Like the driver, every set draws its inputs from another seed.
        let set_seed = seed + set_ix as u64;
        let mut set = Set::new();
        for name in spec::workload_names() {
            let w = Workload::by_name(name, set_seed).expect("manifest workload");
            eprintln!(
                "[set {}/{repeat}] {name}: untraced, seed {set_seed}, {seconds} s",
                set_ix + 1
            );
            let r = run_in_child(&env, &w, seconds, false)?;
            failed_ops += r.failed;
            set.insert(name, r);
            if set_ix == 0 {
                eprintln!("[set 1/{repeat}] {name}: traced");
                let r = run_in_child(&env, &w, seconds, true)?;
                failed_ops += r.failed;
                traced.insert(name, r);
            }
        }
        sets.push(set);
    }

    for (i, set) in sets.iter().enumerate() {
        print_results(
            &format!("end-to-end, set {} (seed {})", i + 1, seed + i as u64),
            &spec::END_TO_END,
            set,
            true,
        );
    }
    print_results("per-layer (traced run)", &spec::PER_LAYER, &traced, false);
    let passes = sets[0].iter().map(|(w, r)| (*w, r.passes)).collect();
    let environment = environment(args, seed, seconds, &passes);
    println!("\n== environment ==");
    for (k, v) in &environment {
        println!("  {k}: {v}");
    }
    let violations = if repeat > 1 {
        compare(&sets)
    } else {
        Vec::new()
    };

    if let Some(parent) = out.parent() {
        std::fs::create_dir_all(parent).map_err(|e| format!("{}: {e}", parent.display()))?;
    }
    std::fs::write(&out, results_json(&environment, &sets, &traced))
        .map_err(|e| format!("{}: {e}", out.display()))?;
    println!("\nresults written to {}", out.display());
    for w in spec::workload_names() {
        println!(
            "spans written to {}",
            env.out_dir.join(format!("spans-{w}.json")).display()
        );
    }

    for v in &violations {
        eprintln!("NOT REPEATABLE: {v}");
    }
    if failed_ops > 0 {
        eprintln!("{failed_ops} operation(s) failed");
    }
    Ok(if violations.is_empty() && failed_ops == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_respects_the_metric_direction() {
        assert_eq!(worsening(10.0, 11.0, Better::Lower), 0.1);
        assert_eq!(worsening(10.0, 9.0, Better::Lower), -0.1);
        assert_eq!(worsening(10.0, 9.0, Better::Higher), 0.1);
        assert_eq!(
            worsening(0.0, 5.0, Better::Lower),
            0.0,
            "no share of a zero base"
        );
    }

    fn set_with(workload: &'static str, values: &[(&'static str, f64)]) -> Set {
        let mut set = Set::new();
        set.insert(
            workload,
            RunResult {
                correct: true,
                attempted: 1,
                failed: 0,
                metrics: values.iter().map(|(n, v)| (*n, *v, "s")).collect(),
                detail: BTreeMap::new(),
                failures: Vec::new(),
                passes: 1,
            },
        );
        set
    }

    #[test]
    fn a_pair_of_sets_is_held_to_the_bounds() {
        let all = |produce: f64| -> Set {
            let mut set = Set::new();
            for w in spec::workload_names() {
                set.extend(set_with(
                    w,
                    &[
                        ("setup_s", 1.0),
                        ("produce_s", produce),
                        ("inspect_s", 1.0),
                        ("produce_rss_mb", 1.0),
                        ("output_kb", 1.0),
                    ],
                ));
            }
            set
        };
        let bound = spec::END_TO_END[1].bound.unwrap();
        assert!(
            compare(&[all(1.0), all(1.0 + bound / 2.0)]).is_empty(),
            "half the bound is inside it"
        );
        assert!(
            compare(&[all(1.0), all(0.5)]).is_empty(),
            "getting better is never a violation"
        );
        let v = compare(&[all(1.0), all(1.0 + 2.0 * bound)]);
        assert_eq!(v.len(), 4, "one violation per workload: {v:?}");
        assert!(v[0].contains("produce_s"));
        let missing = compare(&[all(1.0), set_with("wide_stencil", &[("setup_s", 1.0)])]);
        assert!(missing.iter().any(|m| m.contains("missing")));
    }

    #[test]
    fn results_json_is_valid_json() {
        let set = set_with("wide_stencil", &[("setup_s", 1.5)]);
        let env = vec![("seed".to_string(), "42".to_string())];
        let text = results_json(&env, &[set_with("wide_stencil", &[("setup_s", 1.5)])], &set);
        let v = serde_json::value_from_str(&text).expect("valid JSON");
        assert!(v.get("environment").is_some() && v.get("per_layer").is_some());
        assert_eq!(
            v.get("end_to_end_sets")
                .and_then(|s| s.as_array())
                .map(|a| a.len()),
            Some(1)
        );
    }
}
