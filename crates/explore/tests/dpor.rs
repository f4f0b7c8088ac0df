//! Sleep-set DPOR regressions: with independence facts from the static
//! analysis, the systematic search must (a) shrink the run count on
//! workloads with provably-commuting schedules, (b) change *nothing*
//! about the findings — same classes, same artifacts — and (c) stay
//! byte-identical across `--jobs`.

use tracedbg_analysis::analyze;
use tracedbg_explore::{ExploreConfig, ExploreReport, Explorer, Strategy};
use tracedbg_workloads::script::{programs, Script};
use tracedbg_workloads::scripts::builtin;

/// Build a program source plus the analysis of the same script, exactly
/// as `tracedbg explore sdl:<name> --dpor` does.
fn sdl_source(name: &str, nprocs: usize) -> (tracedbg_explore::ProgramSource, Script, String) {
    let b = builtin(name).expect("built-in script");
    assert!(
        nprocs >= b.min_procs,
        "{name} needs >= {} procs",
        b.min_procs
    );
    let parsed = b.parse();
    let file = b.file();
    let src_script = parsed.clone();
    let src_file = file.clone();
    let source: tracedbg_explore::ProgramSource =
        Box::new(move || programs(&src_script, nprocs, &src_file));
    (source, parsed, file)
}

fn explore_sdl(name: &str, nprocs: usize, dpor: bool, jobs: usize) -> ExploreReport {
    let (source, parsed, file) = sdl_source(name, nprocs);
    let independence = dpor.then(|| analyze(&parsed, nprocs, &file).independence);
    let cfg = ExploreConfig {
        workload: format!("sdl:{name}"),
        seed: 42,
        runs: 100_000,
        preemptions: 2,
        strategy: Strategy::Systematic,
        jobs,
        independence,
        ..Default::default()
    };
    Explorer::new(cfg, source).explore()
}

fn classes(r: &ExploreReport) -> Vec<String> {
    let mut c: Vec<String> = r.findings.iter().map(|f| f.class.clone()).collect();
    c.sort();
    c
}

#[test]
fn sleep_sets_cut_systematic_runs_at_least_2x_on_pairs() {
    // Disjoint ping-pong pairs: cross-pair decisions provably commute,
    // so the vast majority of interleavings are Mazurkiewicz-equivalent.
    let full = explore_sdl("pairs", 4, false, 1);
    let dpor = explore_sdl("pairs", 4, true, 1);
    assert!(
        full.runs_executed < 100_000,
        "budget must exhaust the schedule space, not truncate it"
    );
    assert!(
        dpor.runs_executed * 2 <= full.runs_executed,
        "DPOR must cut systematic runs at least 2x: {} vs {}",
        dpor.runs_executed,
        full.runs_executed
    );
    assert!(dpor.sleep_skipped > 0, "skips must be accounted");
    assert_eq!(
        dpor.independence_pairs, 4,
        "two disjoint pairs, both directions"
    );
    assert_eq!(full.independence_pairs, 0);
    // Both searches agree the workload is clean.
    assert_eq!(classes(&full), Vec::<String>::new());
    assert_eq!(classes(&dpor), Vec::<String>::new());
}

#[test]
fn dpor_findings_identical_to_full_on_racy_scripts() {
    // The racy builtins funnel everything through rank 0's wildcard
    // receive, so the analysis proves no pair independent and DPOR must
    // degenerate to exactly the full search — findings and all.
    for (name, class) in [("racy-wildcard", "panic"), ("racy-deadlock", "deadlock")] {
        let full = explore_sdl(name, 3, false, 1);
        let dpor = explore_sdl(name, 3, true, 1);
        assert!(
            full.findings.iter().any(|f| f.class == class),
            "{name}: full search must expose the {class}"
        );
        assert_eq!(classes(&full), classes(&dpor), "{name}: class sets diverge");
        assert_eq!(full.runs_executed, dpor.runs_executed, "{name}");
        assert_eq!(
            dpor.sleep_skipped, 0,
            "{name}: nothing is provably independent"
        );
        assert_eq!(dpor.independence_pairs, 0, "{name}");
        for (ff, df) in full.findings.iter().zip(&dpor.findings) {
            assert_eq!(ff.artifact.to_json(), df.artifact.to_json(), "{name}");
        }
    }
}

#[test]
fn dpor_reports_identical_across_jobs() {
    // The reduced search must stay deterministic under parallelism: the
    // skip decisions depend only on (prefix, alternative), never on
    // worker identity, so jobs=4 reports exactly the jobs=1 search.
    let seq = explore_sdl("pairs", 4, true, 1);
    let par = explore_sdl("pairs", 4, true, 4);
    assert_eq!(par.jobs, 4);
    assert_eq!(seq.runs_executed, par.runs_executed);
    assert_eq!(seq.pruned, par.pruned);
    assert_eq!(seq.sleep_skipped, par.sleep_skipped);
    assert_eq!(seq.independence_pairs, par.independence_pairs);
    assert_eq!(classes(&seq), classes(&par));

    // And on a workload where findings exist, the artifacts match too.
    let seq = explore_sdl("racy-wildcard", 3, true, 1);
    let par = explore_sdl("racy-wildcard", 3, true, 4);
    assert_eq!(seq.runs_executed, par.runs_executed);
    assert_eq!(seq.findings.len(), par.findings.len());
    for (a, b) in seq.findings.iter().zip(&par.findings) {
        assert_eq!(a.class, b.class);
        assert_eq!(a.found_on_run, b.found_on_run);
        assert_eq!(a.artifact.to_json(), b.artifact.to_json());
    }
}

#[test]
fn metered_dpor_counters_match_report() {
    let (source, parsed, file) = sdl_source("pairs", 4);
    let cfg = ExploreConfig {
        workload: "sdl:pairs".to_string(),
        seed: 42,
        runs: 100_000,
        preemptions: 2,
        strategy: Strategy::Systematic,
        metrics: true,
        independence: Some(analyze(&parsed, 4, &file).independence),
        ..Default::default()
    };
    let (report, metrics) = Explorer::new(cfg, source).explore_traced();
    let ex = metrics
        .expect("metrics requested")
        .event
        .explore
        .expect("explore section");
    assert_eq!(ex.runs_skipped_by_sleep_sets, report.sleep_skipped);
    assert_eq!(ex.independence_pairs, report.independence_pairs);
    assert!(report.sleep_skipped > 0);
    assert_eq!(report.independence_pairs, 4);
}
