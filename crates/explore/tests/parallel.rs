//! Parallel-determinism regression: for a fixed seed, `jobs = N` must
//! report exactly the findings of `jobs = 1` — same classes, same decision
//! prefixes, same shrunk artifacts. The explorer guarantees this by
//! forming batches and absorbing results in deterministic task order, so
//! worker scheduling can never leak into the report.

use tracedbg_explore::{ExploreConfig, ExploreReport, Explorer, Strategy};
use tracedbg_workloads::racy::{orphan_deadlock_factory, wildcard_race_factory, RacyConfig};

fn explore(workload: &str, jobs: usize, strategy: Strategy) -> ExploreReport {
    let source: tracedbg_explore::ProgramSource = match workload {
        "racy-wildcard" => Box::new(wildcard_race_factory(RacyConfig::default())),
        "racy-deadlock" => Box::new(orphan_deadlock_factory(RacyConfig::default())),
        other => panic!("unknown workload {other}"),
    };
    let cfg = ExploreConfig {
        workload: workload.to_string(),
        seed: 7,
        runs: 48,
        preemptions: 2,
        strategy,
        jobs,
        ..Default::default()
    };
    Explorer::new(cfg, source).explore()
}

/// Compare everything observable about two reports except the `jobs`
/// field itself.
fn assert_reports_identical(a: &ExploreReport, b: &ExploreReport) {
    assert_eq!(a.runs_executed, b.runs_executed, "run budget consumption");
    assert_eq!(a.aux_runs, b.aux_runs, "shrink/confirm accounting");
    assert_eq!(a.pruned, b.pruned, "pruning decisions");
    assert_eq!(a.baseline_branches, b.baseline_branches);
    assert_eq!(a.sleep_skipped, b.sleep_skipped, "DPOR skip accounting");
    assert_eq!(a.independence_pairs, b.independence_pairs);
    assert_eq!(a.findings.len(), b.findings.len(), "finding count");
    for (fa, fb) in a.findings.iter().zip(&b.findings) {
        assert_eq!(fa.class, fb.class, "violation class");
        assert_eq!(fa.detail, fb.detail);
        assert_eq!(fa.found_on_run, fb.found_on_run, "exposure run index");
        assert_eq!(fa.strategy, fb.strategy);
        assert_eq!(fa.decisions_recorded, fb.decisions_recorded);
        assert_eq!(fa.decisions_shrunk, fb.decisions_shrunk);
        assert_eq!(fa.confirmed, fb.confirmed);
        assert_eq!(
            fa.artifact.decisions, fb.artifact.decisions,
            "shrunk decision prefix"
        );
        assert_eq!(fa.artifact.faults, fb.artifact.faults);
        assert_eq!(fa.artifact.failure, fb.artifact.failure);
        assert_eq!(
            fa.artifact.to_json(),
            fb.artifact.to_json(),
            "whole serialized artifact"
        );
    }
}

#[test]
fn racy_wildcard_findings_identical_at_jobs_1_and_4() {
    let seq = explore("racy-wildcard", 1, Strategy::Both);
    let par = explore("racy-wildcard", 4, Strategy::Both);
    assert!(
        seq.findings.iter().any(|f| f.class == "panic"),
        "the wildcard race must be found"
    );
    assert_eq!(par.jobs, 4);
    assert_reports_identical(&seq, &par);
}

#[test]
fn racy_deadlock_findings_identical_at_jobs_1_and_4() {
    let seq = explore("racy-deadlock", 1, Strategy::Both);
    let par = explore("racy-deadlock", 4, Strategy::Both);
    assert!(
        seq.findings.iter().any(|f| f.class == "deadlock"),
        "the orphaned receive must be found"
    );
    assert_reports_identical(&seq, &par);
}

#[test]
fn auto_jobs_also_matches_sequential() {
    // jobs = 0 resolves to available_parallelism — whatever that is on the
    // host, the findings must not change.
    let seq = explore("racy-wildcard", 1, Strategy::Systematic);
    let auto = explore("racy-wildcard", 0, Strategy::Systematic);
    assert!(auto.jobs >= 1, "0 resolves to a real worker count");
    assert_reports_identical(&seq, &auto);
}

#[test]
fn metered_exploration_event_metrics_identical_across_jobs() {
    // The telemetry determinism contract: with metrics on, the whole
    // `event` section of the MetricsReport — merged engine counters,
    // histograms, prune counts, oracle triggers — is identical at jobs=1
    // and jobs=4, and so is its digest. Only `timing` may differ.
    let run = |jobs| {
        let source: tracedbg_explore::ProgramSource =
            Box::new(wildcard_race_factory(RacyConfig::default()));
        let cfg = ExploreConfig {
            workload: "racy-wildcard".to_string(),
            seed: 7,
            runs: 48,
            preemptions: 2,
            strategy: Strategy::Both,
            jobs,
            metrics: true,
            ..Default::default()
        };
        Explorer::new(cfg, source).explore_traced()
    };
    let (seq_report, seq_metrics) = run(1);
    let (par_report, par_metrics) = run(4);
    assert_reports_identical(&seq_report, &par_report);
    let seq_m = seq_metrics.expect("metrics requested");
    let par_m = par_metrics.expect("metrics requested");
    assert_eq!(seq_m.event, par_m.event, "event sections deep-equal");
    assert_eq!(seq_m.event_digest, par_m.event_digest);
    assert!(seq_m.event.runs > 0, "exploration runs were metered");
    assert!(seq_m.event.engine.turns > 0);
    let ex = seq_m.event.explore.as_ref().expect("explore section");
    assert_eq!(ex.runs_executed, seq_report.runs_executed as u64);
    assert!(
        !ex.oracle_triggers.is_empty(),
        "the race fires at least one oracle"
    );
    // Deadlock/panic findings carry the flight-recorder dump.
    let panic_finding = seq_report
        .findings
        .iter()
        .find(|f| f.class == "panic")
        .expect("race found");
    let flight = panic_finding.artifact.flight.as_ref().expect("flight dump");
    assert!(flight.iter().any(|l| l.contains("panic")), "{flight:?}");
    // The metered run and the plain run agree on the explorer-observable
    // outcome.
    let plain = explore("racy-wildcard", 1, Strategy::Both);
    assert_eq!(plain.runs_executed, seq_report.runs_executed);
    assert_eq!(plain.findings.len(), seq_report.findings.len());
}

#[test]
fn no_independence_facts_means_no_sleep_accounting() {
    // Without `--dpor` the search must be byte-for-byte the full search:
    // nothing skipped, no independence pairs reported, and the metered
    // ExploreEvent carries zeros for both counters.
    let source: tracedbg_explore::ProgramSource =
        Box::new(wildcard_race_factory(RacyConfig::default()));
    let cfg = ExploreConfig {
        workload: "racy-wildcard".to_string(),
        seed: 7,
        runs: 24,
        strategy: Strategy::Systematic,
        metrics: true,
        ..Default::default()
    };
    let (report, metrics) = Explorer::new(cfg, source).explore_traced();
    assert_eq!(report.sleep_skipped, 0);
    assert_eq!(report.independence_pairs, 0);
    let ex = metrics.unwrap().event.explore.unwrap();
    assert_eq!(ex.runs_skipped_by_sleep_sets, 0);
    assert_eq!(ex.independence_pairs, 0);
}

#[test]
fn unmetered_exploration_returns_no_metrics() {
    let source: tracedbg_explore::ProgramSource =
        Box::new(wildcard_race_factory(RacyConfig::default()));
    let cfg = ExploreConfig {
        workload: "racy-wildcard".to_string(),
        seed: 7,
        runs: 8,
        ..Default::default()
    };
    let (_, metrics) = Explorer::new(cfg, source).explore_traced();
    assert!(metrics.is_none(), "telemetry is opt-in");
}

#[test]
fn fault_injection_stays_deterministic_across_jobs() {
    // Fault plans derive from the walk index, not from worker identity;
    // randomized fault-injecting exploration must merge identically too.
    let run = |jobs| {
        let source: tracedbg_explore::ProgramSource =
            Box::new(tracedbg_workloads::ring::factory(Default::default()));
        let cfg = ExploreConfig {
            workload: "ring".to_string(),
            seed: 11,
            runs: 32,
            inject_faults: true,
            strategy: Strategy::Random,
            jobs,
            ..Default::default()
        };
        Explorer::new(cfg, source).explore()
    };
    let seq = run(1);
    let par = run(4);
    assert!(
        seq.findings.iter().any(|f| f.class == "deadlock"),
        "crash/hang faults starve the ring"
    );
    assert_reports_identical(&seq, &par);
}

#[test]
fn window_boundaries_do_not_leak_into_the_report() {
    // A pool without worker threads (`jobs = 1`) runs windows of one task;
    // a threaded pool windows of `WINDOW`. Budgets of baseline-only, one
    // short of a window, one task short of a full window, exactly one
    // window, and several windows must all report at `jobs` 2 and 4
    // exactly what they report at `jobs = 1` — on a 16-rank workload whose
    // frontier is far wider than a window, and on a script explored with
    // sleep sets (`--dpor`), whose skip count covers alternatives the
    // budget never reaches and whose systematic phase (407 runs) ends
    // inside the second window.
    use tracedbg_analysis::analyze;
    use tracedbg_workloads::planted::{planted_wildcard_factory, PlantedConfig};
    use tracedbg_workloads::script::programs;
    use tracedbg_workloads::scripts::builtin;
    assert_eq!(tracedbg_explore::WINDOW, 256, "budgets below straddle it");
    let planted = |runs, jobs| {
        let cfg = PlantedConfig {
            nprocs: 16,
            ..Default::default()
        };
        let source: tracedbg_explore::ProgramSource = Box::new(planted_wildcard_factory(cfg));
        let cfg = ExploreConfig {
            workload: "planted-wildcard".to_string(),
            seed: 7,
            runs,
            jobs,
            ..Default::default()
        };
        Explorer::new(cfg, source).explore()
    };
    let dpor = |runs, jobs| {
        let b = builtin("pairs").expect("built-in script");
        let (script, file) = (b.parse(), b.file());
        let independence = Some(analyze(&script, 8, &file).independence);
        let source: tracedbg_explore::ProgramSource = Box::new(move || programs(&script, 8, &file));
        let cfg = ExploreConfig {
            workload: "sdl:pairs".to_string(),
            seed: 7,
            runs,
            jobs,
            independence,
            ..Default::default()
        };
        Explorer::new(cfg, source).explore()
    };
    for runs in [1, 255, 256, 257, 1000] {
        for (name, run) in [
            (
                "planted-wildcard",
                &planted as &dyn Fn(usize, usize) -> ExploreReport,
            ),
            ("sdl:pairs --dpor", &dpor),
        ] {
            let seq = run(runs, 1);
            assert_eq!(
                seq.runs_executed, runs,
                "{name}: the budget is spent exactly"
            );
            if name == "planted-wildcard" && runs > 1 {
                assert!(seq.findings.iter().any(|f| f.class == "panic"));
            }
            if name == "sdl:pairs --dpor" {
                assert!(seq.sleep_skipped > 0, "sleep sets skip alternatives");
            }
            for jobs in [2, 4] {
                assert_reports_identical(&seq, &run(runs, jobs));
            }
        }
    }
}

#[test]
fn windows_are_absorbed_in_task_order_at_every_job_count() {
    // A task list one window and two tasks long runs as two batches on
    // one pool; whatever the executor count, `absorb` sees every result
    // once, in task order, with its index — the plain `execute` loop.
    use tracedbg_explore::pool::WorkerPool;
    use tracedbg_explore::{execute_task, run_windowed, RunTask, WINDOW};
    use tracedbg_mpsim::SchedPolicy;
    let source: tracedbg_explore::ProgramSource =
        Box::new(wildcard_race_factory(RacyConfig::default()));
    let tasks = || -> Vec<RunTask> {
        (0..WINDOW + 2)
            .map(|i| RunTask {
                policy: SchedPolicy::Seeded(i as u64),
                faults: Vec::new(),
                from: None,
            })
            .collect()
    };
    let scratch: Vec<(usize, u64)> = tasks()
        .iter()
        .map(|t| execute_task(&source, t).digest)
        .enumerate()
        .collect();
    for jobs in [0, 1, 4] {
        let mut seen: Vec<(usize, u64)> = Vec::new();
        std::thread::scope(|scope| {
            let pool = WorkerPool::new(scope, jobs, &source);
            run_windowed(&pool, tasks(), |i, _, res| seen.push((i, res.digest)));
            let executed: u64 = pool.load().iter().map(|(tasks, _)| tasks).sum();
            assert_eq!(executed, (WINDOW + 2) as u64, "every task ran once");
        });
        assert_eq!(seen, scratch, "jobs {jobs}: absorbed in task order");
    }
}
