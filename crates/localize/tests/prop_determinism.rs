//! Properties of `localize` under arbitrary reference seeds:
//!
//! 1. The sealed [`LocalizeReport`] is **byte-identical** between
//!    `jobs = 1` and `jobs = 4` — worker count and scheduling jitter must
//!    never leak into the findings (the report has no `jobs` field, and
//!    its digest pins everything else).
//! 2. Localizing an artifact whose replay *passes* yields the `clean`
//!    verdict with no suspects and no divergence — passing-vs-passing
//!    comparisons never invent differences.

use proptest::prelude::*;
use tracedbg_localize::{localize, LocalizeConfig, VERDICT_CLEAN};
use tracedbg_mpsim::Rank;
use tracedbg_trace::schedule::{Decision, Fault, ScheduleArtifact};
use tracedbg_workloads::planted::{
    planted_pipeline_factory, planted_wildcard_factory, PlantedConfig,
};

fn wildcard_artifact(cfg: &PlantedConfig) -> ScheduleArtifact {
    let mut a = ScheduleArtifact::new("planted-wildcard", cfg.nprocs, 0);
    a.decisions = vec![Decision::Turn {
        rank: Rank(cfg.bug_rank),
    }];
    a
}

fn pipeline_artifact(cfg: &PlantedConfig) -> ScheduleArtifact {
    let mut a = ScheduleArtifact::new("planted-pipeline", cfg.nprocs, 0);
    a.faults = vec![Fault::Delay {
        src: Rank(0),
        dst: Rank(cfg.bug_rank),
        nth: 1,
        extra_ns: cfg.work * 2,
    }];
    a
}

/// Run the same localization with `jobs = 1`, `jobs = 4` and `jobs = 0`
/// (one executor per core) and demand byte-identical JSON.
fn check_jobs_invariance(src: &tracedbg_explore::ProgramSource, a: &ScheduleArtifact, seed: u64) {
    tracedbg_mpsim::set_quiet_panics(true);
    let at = |jobs| {
        localize(
            src,
            a,
            &LocalizeConfig {
                runs: 4,
                seed,
                jobs,
            },
        )
    };
    let serial = at(1);
    for jobs in [4, 0] {
        prop_assert_eq!(
            serial.to_json(),
            at(jobs).to_json(),
            "seed {}: report must not depend on job count {}",
            seed,
            jobs
        );
    }
    prop_assert!(serial.digest_ok());
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    #[test]
    fn wildcard_reports_are_byte_identical_across_jobs(seed in 0u64..1_000_000) {
        let cfg = PlantedConfig::default();
        let src: tracedbg_explore::ProgramSource =
            Box::new(planted_wildcard_factory(cfg));
        check_jobs_invariance(&src, &wildcard_artifact(&cfg), seed);
    }

    #[test]
    fn pipeline_reports_are_byte_identical_across_jobs(seed in 0u64..1_000_000) {
        let cfg = PlantedConfig::default();
        let src: tracedbg_explore::ProgramSource =
            Box::new(planted_pipeline_factory(cfg));
        check_jobs_invariance(&src, &pipeline_artifact(&cfg), seed);
    }

    #[test]
    fn passing_artifacts_localize_to_clean(seed in 0u64..1_000_000) {
        tracedbg_mpsim::set_quiet_panics(true);
        let cfg = PlantedConfig::default();
        // No scripted decisions, no faults: the baseline schedule
        // completes, so there is nothing to localize.
        let a = ScheduleArtifact::new("planted-wildcard", cfg.nprocs, 0);
        let src: tracedbg_explore::ProgramSource =
            Box::new(planted_wildcard_factory(cfg));
        let r = localize(&src, &a, &LocalizeConfig { runs: 4, seed, jobs: 2 });
        prop_assert_eq!(&r.verdict, VERDICT_CLEAN);
        prop_assert!(r.suspects.is_empty(), "clean runs have no suspects");
        prop_assert!(r.divergence.is_none());
        prop_assert!(r.channels.is_empty());
        prop_assert!(r.digest_ok());
    }
}
