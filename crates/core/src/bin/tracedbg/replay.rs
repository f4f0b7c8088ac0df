//! `tracedbg replay --schedule` — re-execute an explorer artifact: the
//! straight replay, the checkpointed replay, and the two stopline replays
//! (`--to-suspect`, `--to-critical-path`).

use crate::input::{load_artifact, read_file, write_trace_file};
use crate::{json_string, quietly, success_if, Opts};
use std::process::ExitCode;
use tracedbg::localize::LocalizeReport;
use tracedbg::obs::sealed;
use tracedbg::prelude::*;
use tracedbg::workloads::Workload;

/// The artifact names its workload; every scheduling decision and injected
/// fault comes from the file, so the outcome is reproducible run-to-run.
/// Exits zero iff the replay reproduced the artifact's recorded outcome.
pub fn cmd_replay(opts: &Opts) -> Result<ExitCode, String> {
    let path = opts.flag("schedule").ok_or_else(|| opts.verb.usage())?;
    let (artifact, Workload { factory, .. }) = load_artifact(path)?;
    if let Some(report_path) = opts.flag("to-suspect") {
        return replay_to_suspect(&artifact, factory, report_path, opts);
    }
    if let Some(report_path) = opts.flag("to-critical-path") {
        return replay_to_critical_path(&artifact, factory, report_path, opts);
    }
    if opts.has("from-checkpoint") {
        // Checkpointed re-execution: snapshot mid-schedule, restore, and
        // check the continued run is byte-identical to the straight one —
        // the restore-determinism audit for a failure artifact.
        let ck = quietly(|| replay_schedule_from_checkpoint(&artifact, factory));
        if opts.has("json") {
            println!(
                "{{\"workload\":{},\"class\":{},\"restored_class\":{},\"snapshot_decisions\":{},\"reproduced\":{}}}",
                json_string(&artifact.workload),
                json_string(&ck.class),
                json_string(&ck.restored_class),
                ck.snapshot_decisions
                    .map_or("null".to_string(), |n| n.to_string()),
                ck.reproduced,
            );
        } else {
            println!("replaying {artifact} (from checkpoint)");
            println!("straight outcome: {} ({})", ck.class, ck.detail);
            match ck.snapshot_decisions {
                Some(n) => println!(
                    "restored outcome: {} (snapshot at {n} decision(s))",
                    ck.restored_class
                ),
                None => println!(
                    "restored outcome: {} (run ended before the snapshot point; \
                     compared against a straight re-execution)",
                    ck.restored_class
                ),
            }
            if ck.reproduced {
                println!("reproduced: restored run is byte-identical to the straight run");
            } else {
                println!("did NOT reproduce: restored run diverged from the straight run");
            }
        }
        return Ok(success_if(ck.reproduced));
    }
    // The replayed failure is the expected outcome; keep panic backtraces
    // of the simulated processes off stderr.
    let mut replay = quietly(|| replay_schedule(&artifact, factory));
    let expected = artifact.failure.as_deref().unwrap_or("completed");
    let reproduced = replay.class == expected && !replay.diverged;
    if opts.has("json") {
        println!(
            "{{\"workload\":{},\"class\":{},\"expected\":{},\"detail\":{},\"diverged\":{},\"reproduced\":{}}}",
            json_string(&artifact.workload),
            json_string(&replay.class),
            json_string(expected),
            json_string(&replay.detail),
            replay.diverged,
            reproduced,
        );
    } else {
        println!("replaying {artifact}");
        println!("outcome: {} ({})", replay.class, replay.detail);
        if replay.diverged {
            println!("WARNING: schedule diverged — this run does not reproduce the artifact");
        }
        if reproduced {
            println!("reproduced recorded failure class '{expected}'");
        } else {
            println!("did NOT reproduce '{expected}'");
        }
    }
    if let Some(out) = opts.flag("trace") {
        write_trace_file(out, &replay.trace())?;
        if !opts.has("json") {
            println!("trace written to {out}");
        }
    }
    Ok(success_if(reproduced))
}

fn print_where(session: &Session, rank: u32) {
    for line in session.where_is(Rank(rank)) {
        println!("  {line}");
    }
}

/// `--to-suspect` — stop every process at the divergence frontier a
/// `tracedbg localize` report recorded: the point where the failing run
/// first left the passing envelope, and print where each top suspect is
/// stopped.
fn replay_to_suspect(
    artifact: &ScheduleArtifact,
    factory: ProgramFactory,
    report_path: &str,
    opts: &Opts,
) -> Result<ExitCode, String> {
    let report: LocalizeReport = sealed::load(&read_file(report_path)?, report_path)?;
    let d = report.divergence.as_ref().ok_or_else(|| {
        format!(
            "{report_path}: verdict {:?} has no divergence frontier to replay to",
            report.verdict
        )
    })?;
    let origin = format!("localize divergence at decision {}", d.index);
    let target = (d.markers.as_slice(), origin, "divergence");
    replay_to_stopline(artifact, factory, opts, report_path, target, |session| {
        for s in report.suspects.iter().take(2) {
            println!("suspect P{} (score {}):", s.rank, s.score);
            print_where(session, s.rank);
        }
    })
}

/// `--to-critical-path` — stop every process at the causal frontier of
/// the critical path's terminal event, as recorded by `tracedbg profile`.
/// Every rank halts at the last execution marker in the terminal's causal
/// past, so the stopped state shows exactly what the makespan-bounding
/// chain was waiting on.
fn replay_to_critical_path(
    artifact: &ScheduleArtifact,
    factory: ProgramFactory,
    report_path: &str,
    opts: &Opts,
) -> Result<ExitCode, String> {
    let report: ProfileReport = sealed::load(&read_file(report_path)?, report_path)?;
    let origin = format!(
        "critical-path terminal ({}ns path)",
        report.critical_path_len
    );
    let target = (report.frontier_markers.as_slice(), origin, "critical-path");
    replay_to_stopline(artifact, factory, opts, report_path, target, |session| {
        if let Some(step) = report.path.last() {
            println!(
                "critical path ends at P{} marker {} ({})",
                step.rank, step.marker, step.site
            );
            print_where(session, step.rank);
        }
    })
}

/// Re-execute a failing schedule and stop every process at a report's
/// marker frontier — `(markers, stopline origin, frontier name)`. A
/// frontier that does not name every process of the artifact is from
/// another run and is refused. The failing execution runs once to record
/// its match log (pinning wildcard choices), then the stopline replay
/// jumps to the frontier; `epilogue` prints what the report wants shown of
/// the stopped session. Exits zero iff the frontier was reached exactly.
fn replay_to_stopline(
    artifact: &ScheduleArtifact,
    factory: ProgramFactory,
    opts: &Opts,
    report_path: &str,
    (target, origin, frontier): (&[u64], String, &str),
    epilogue: impl FnOnce(&Session),
) -> Result<ExitCode, String> {
    if target.len() != artifact.procs {
        return Err(format!(
            "{report_path}: {} markers given, {} processes",
            target.len(),
            artifact.procs
        ));
    }
    let stopline = Stopline {
        markers: MarkerVector::from_counts(target.to_vec()),
        origin,
    };
    let mut session = Session::launch(SessionConfig::for_artifact(artifact), factory);
    let status = quietly(|| {
        session.run();
        format!("{:?}", session.replay_to(&stopline))
    });
    let markers = session.markers();
    let reached = markers.counts() == target;
    if opts.has("json") {
        let list = |v: &[u64]| serde_json::to_string(v).expect("a marker vector serializes");
        println!(
            "{{\"origin\":{},\"target\":{},\"markers\":{},\"reached\":{},\"status\":{}}}",
            json_string(&stopline.origin),
            list(target),
            list(markers.counts()),
            reached,
            json_string(&status),
        );
    } else {
        println!("replaying {artifact}");
        println!("stopline: {} -> markers {target:?}", stopline.origin);
        println!("status: {status}");
        epilogue(&session);
        let verdict = if reached {
            "stopped at"
        } else {
            "did NOT reach"
        };
        println!("{verdict} the {frontier} frontier");
    }
    Ok(success_if(reached))
}
