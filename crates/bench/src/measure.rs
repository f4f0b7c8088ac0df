//! The measurement core: fixed-iteration timing with warmup and
//! median-of-k, and the `BENCH_<suite>.json` perf-record format.
//!
//! Unlike an adaptive harness (criterion), iteration counts here are
//! *fixed per suite*: every invocation does the same work, so two runs of
//! `tracedbg bench` are comparable sample-for-sample and the quick mode
//! is an honest scaled-down replica. Each benchmark runs `warmup`
//! untimed iterations, then `samples` timed batches of `iters`
//! iterations; the slowest quartile of batches is trimmed (wall-clock
//! noise is one-sided — interference only adds time) and the recorded
//! per-iteration figures are the median, p10 and p90 of the rest.

use serde::Serialize;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// One benchmark's recorded result — the `BENCH_*.json` row schema.
#[derive(Clone, Debug, Serialize)]
pub struct BenchRecord {
    /// Benchmark name, unique within its suite.
    pub name: String,
    /// Total timed iterations (samples × iters-per-sample).
    pub iters: u64,
    /// Median per-iteration wall time across samples, nanoseconds.
    pub median_ns: u64,
    /// 10th-percentile per-iteration wall time, nanoseconds.
    pub p10_ns: u64,
    /// 90th-percentile per-iteration wall time, nanoseconds.
    pub p90_ns: u64,
    /// Worker threads the benchmark used (1 unless it exercises the
    /// parallel explorer).
    pub jobs: usize,
}

/// Fixed iteration plan for one benchmark.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    /// Untimed warmup iterations.
    pub warmup: u64,
    /// Timed batches; the statistics are taken across these.
    pub samples: usize,
    /// Iterations per timed batch.
    pub iters: u64,
}

impl Plan {
    pub fn new(warmup: u64, samples: usize, iters: u64) -> Self {
        Plan {
            warmup,
            samples,
            iters,
        }
    }

    /// Scale the plan down for `--quick` (at least one of everything).
    pub fn quick(self) -> Self {
        Plan {
            warmup: (self.warmup / 4).max(1),
            samples: (self.samples / 2).max(3),
            iters: (self.iters / 4).max(1),
        }
    }
}

/// Time `f` under `plan`, attributing the result to `name`/`jobs`.
pub fn measure(name: &str, jobs: usize, plan: Plan, mut f: impl FnMut()) -> BenchRecord {
    assert!(plan.samples > 0 && plan.iters > 0, "empty measurement plan");
    for _ in 0..plan.warmup {
        f();
    }
    let per_iter_ns = (0..plan.samples)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..plan.iters {
                f();
            }
            (t0.elapsed().as_nanos() as u64) / plan.iters
        })
        .collect();
    record(name, jobs, plan, per_iter_ns)
}

/// [`measure`] for work that needs a fresh input every iteration: `setup`
/// builds it untimed, only `f` consuming it is on the clock.
pub fn measure_after<S>(
    name: &str,
    jobs: usize,
    plan: Plan,
    mut setup: impl FnMut() -> S,
    mut f: impl FnMut(S),
) -> BenchRecord {
    assert!(plan.samples > 0 && plan.iters > 0, "empty measurement plan");
    for _ in 0..plan.warmup {
        f(setup());
    }
    let per_iter_ns = (0..plan.samples)
        .map(|_| {
            let mut ns = 0;
            for _ in 0..plan.iters {
                let input = setup();
                let t0 = Instant::now();
                f(input);
                ns += t0.elapsed().as_nanos() as u64;
            }
            ns / plan.iters
        })
        .collect();
    record(name, jobs, plan, per_iter_ns)
}

fn record(name: &str, jobs: usize, plan: Plan, mut per_iter_ns: Vec<u64>) -> BenchRecord {
    let (median_ns, p10_ns, p90_ns) = trimmed_percentiles(&mut per_iter_ns);
    BenchRecord {
        name: name.to_string(),
        iters: plan.samples as u64 * plan.iters,
        median_ns,
        p10_ns,
        p90_ns,
        jobs,
    }
}

/// Sort the per-batch figures, drop the slow outliers, and return
/// `(median, p10, p90)` by nearest-rank on what remains.
///
/// The trim is one-sided: wall-clock interference (preemption, page
/// faults, a sibling benchmark's cache residue) only ever *adds* time,
/// so the slowest quartile of batches is discarded — the fastest
/// batches are the honest ones. This is what keeps pairs like
/// `ring_instr_off` vs `ring_instr_full` ordered by actual work rather
/// than by which one caught a scheduler hiccup.
fn trimmed_percentiles(per_iter_ns: &mut Vec<u64>) -> (u64, u64, u64) {
    per_iter_ns.sort_unstable();
    let kept = (per_iter_ns.len() * 3)
        .div_ceil(4)
        .max(3)
        .min(per_iter_ns.len());
    per_iter_ns.truncate(kept);
    let pct = |p: usize| {
        // Nearest-rank on the sorted samples; exact for the median of odd k.
        per_iter_ns[((per_iter_ns.len() - 1) * p + 50) / 100]
    };
    (pct(50), pct(10), pct(90))
}

/// Serialize one suite's records as the `BENCH_<suite>.json` payload — a
/// JSON array of [`BenchRecord`] rows.
pub fn suite_json(records: &[BenchRecord]) -> String {
    serde_json::to_string(records).expect("bench records always serialize")
}

/// Write `BENCH_<suite>.json` into `dir` and return its path.
pub fn write_suite(dir: &Path, suite: &str, records: &[BenchRecord]) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("BENCH_{suite}.json"));
    std::fs::write(&path, suite_json(records))?;
    Ok(path)
}

/// Render one suite as a human-readable aligned table.
pub fn render_table(suite: &str, records: &[BenchRecord]) -> String {
    let mut t = crate::TextTable::new(&["benchmark", "iters", "median", "p10", "p90", "jobs"]);
    for r in records {
        t.row(&[
            r.name.clone(),
            r.iters.to_string(),
            fmt_ns(r.median_ns),
            fmt_ns(r.p10_ns),
            fmt_ns(r.p90_ns),
            r.jobs.to_string(),
        ]);
    }
    format!("suite {suite}\n{}", t.render())
}

/// Scale a nanosecond figure into the most readable unit.
pub fn fmt_ns(ns: u64) -> String {
    match ns {
        0..=9_999 => format!("{ns}ns"),
        10_000..=9_999_999 => format!("{:.1}us", ns as f64 / 1e3),
        10_000_000..=999_999_999 => format!("{:.1}ms", ns as f64 / 1e6),
        _ => format!("{:.2}s", ns as f64 / 1e9),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_json_has_the_full_schema() {
        // The BENCH_*.json contract: every row carries exactly these six
        // fields with numeric values — the serializer test the verify
        // smoke stage leans on.
        let rec = measure("noop", 1, Plan::new(1, 5, 10), || {});
        let json = suite_json(&[rec]);
        let v = serde_json::value_from_str(&json).expect("valid JSON");
        let rows = v.as_array().expect("top level is an array");
        assert_eq!(rows.len(), 1);
        let row = &rows[0];
        for key in ["iters", "median_ns", "p10_ns", "p90_ns", "jobs"] {
            assert!(
                row.get(key).is_some_and(|x| x.as_u64().is_some()),
                "field {key} must be a non-negative integer: {json}"
            );
        }
        assert_eq!(row.get("name").and_then(|x| x.as_str()), Some("noop"));
        let fields = row.as_object().expect("row is an object");
        assert_eq!(fields.len(), 6, "no extra fields: {json}");
        assert_eq!(row.get("iters").and_then(|x| x.as_u64()), Some(50));
    }

    #[test]
    fn percentiles_are_ordered_and_sane() {
        let mut n = 0u64;
        let rec = measure("spin", 1, Plan::new(2, 9, 4), || {
            // Do a little real work so timings are non-zero.
            for i in 0..500 {
                n = n.wrapping_add(i * i);
            }
        });
        assert!(rec.p10_ns <= rec.median_ns && rec.median_ns <= rec.p90_ns);
        assert!(rec.median_ns > 0, "timed work cannot be free");
        assert!(n > 0);
    }

    #[test]
    fn trim_drops_the_slow_outliers() {
        // Seven batches, one pathological straggler: the straggler must
        // not move the p90, and the median sits in the fast cluster.
        let mut ns = vec![100, 101, 99, 102, 100, 5_000, 101];
        let (median, p10, p90) = trimmed_percentiles(&mut ns);
        assert_eq!(median, 101);
        assert!(p90 <= 102, "straggler leaked into p90: {p90}");
        assert!(p10 <= median && median <= p90);
        // Small sample counts are kept whole (never trim below 3).
        let mut small = vec![7, 8, 9];
        let (m, _, hi) = trimmed_percentiles(&mut small);
        assert_eq!((m, hi), (8, 9));
    }

    #[test]
    fn quick_plans_stay_positive() {
        let q = Plan::new(1, 3, 1).quick();
        assert!(q.warmup >= 1 && q.samples >= 1 && q.iters >= 1);
    }

    #[test]
    fn write_suite_emits_the_named_file() {
        let dir = std::env::temp_dir().join("tracedbg_bench_test");
        let rec = measure("noop", 2, Plan::new(1, 3, 2), || {});
        let path = write_suite(&dir, "unit", &[rec]).expect("write");
        assert!(path.ends_with("BENCH_unit.json"));
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.starts_with('['), "{body}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn fmt_ns_picks_units() {
        assert_eq!(fmt_ns(512), "512ns");
        assert_eq!(fmt_ns(25_000), "25.0us");
        assert_eq!(fmt_ns(12_000_000), "12.0ms");
        assert_eq!(fmt_ns(2_500_000_000), "2.50s");
    }
}
