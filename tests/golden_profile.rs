//! Golden profiling reports: `tracedbg profile` on the planted-bug
//! corpus must reproduce the committed `tests/golden/profile/*.json`
//! byte-for-byte. Any change to the wait-state classifier, the
//! critical-path extraction, or the report schema shifts these bytes —
//! making every attribution change a conscious, reviewed event.
//!
//! Re-bless after an intentional change:
//!
//! ```text
//! scripts/bless.sh          # re-blesses all golden corpora
//! ```

use std::path::PathBuf;
use tracedbg::explore::runner::execute;
use tracedbg::explore::ProgramSource;
use tracedbg::mpsim::{Rank, SchedPolicy};
use tracedbg::profile::{ProfileInput, ProfileReport};
use tracedbg::trace::schedule::{Decision, Fault, ScheduleArtifact};
use tracedbg::workloads::planted::{
    planted_orphan_factory, planted_pipeline_factory, planted_wildcard_factory, PlantedConfig,
};

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/profile")
}

/// The corpus: each planted workload with its canonical failing recipe
/// (the same artifacts the localize goldens pin).
fn corpus() -> Vec<(&'static str, ProgramSource, ScheduleArtifact)> {
    let cfg = PlantedConfig::default();
    let mut wildcard = ScheduleArtifact::new("planted-wildcard", cfg.nprocs, 0);
    wildcard.decisions = vec![Decision::Turn {
        rank: Rank(cfg.bug_rank),
    }];
    let mut orphan = ScheduleArtifact::new("planted-orphan", cfg.nprocs, 0);
    orphan.decisions = vec![Decision::Turn {
        rank: Rank(cfg.bug_rank),
    }];
    let mut pipeline = ScheduleArtifact::new("planted-pipeline", cfg.nprocs, 0);
    pipeline.faults = vec![Fault::Delay {
        src: Rank(0),
        dst: Rank(cfg.bug_rank),
        nth: 1,
        extra_ns: cfg.work * 2,
    }];
    vec![
        (
            "planted-wildcard",
            Box::new(planted_wildcard_factory(cfg)) as ProgramSource,
            wildcard,
        ),
        (
            "planted-orphan",
            Box::new(planted_orphan_factory(cfg)) as ProgramSource,
            orphan,
        ),
        (
            "planted-pipeline",
            Box::new(planted_pipeline_factory(cfg)) as ProgramSource,
            pipeline,
        ),
    ]
}

#[test]
fn profile_reports_match_the_committed_goldens() {
    let bless = std::env::var_os("BLESS").is_some();
    tracedbg::mpsim::set_quiet_panics(true);
    for (name, src, artifact) in corpus() {
        let run = execute(
            &src,
            SchedPolicy::Scripted(artifact.decisions.clone()),
            &artifact.faults,
        );
        let report = ProfileReport::build(
            run.store(),
            ProfileInput {
                source: "schedule",
                workload: name,
                procs: artifact.procs,
                seed: artifact.seed,
                flight_dropped: 0,
            },
        );
        let json = report.to_json();
        let path = golden_dir().join(format!("{name}.json"));
        if bless {
            std::fs::create_dir_all(golden_dir()).expect("create tests/golden/profile");
            std::fs::write(&path, format!("{json}\n"))
                .unwrap_or_else(|e| panic!("{name}: bless failed: {e}"));
            continue;
        }
        let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "{name}: missing golden {}: {e}; run scripts/bless.sh",
                path.display()
            )
        });
        assert_eq!(
            json,
            want.trim_end(),
            "{name}: profiling report drifted from the committed golden; \
             if the attribution change is intentional, re-bless with scripts/bless.sh"
        );
        // The committed golden must itself be a well-formed, sealed
        // report that keeps the planted rank in the top-2 of the blame
        // ranking and satisfies the makespan inequality.
        let back = ProfileReport::from_json(want.trim_end()).expect("golden parses");
        assert!(back.digest_ok(), "{name}: committed golden digest broken");
        assert!(back.critical_path_len <= back.makespan, "{name}");
        assert!(back.makespan <= back.busy_total + back.wait_total, "{name}");
        let ranking = back.blame_ranking();
        assert!(
            ranking.iter().take(2).any(|&r| r == 2),
            "{name}: planted rank 2 not in blame top-2: {ranking:?}"
        );
    }
}
