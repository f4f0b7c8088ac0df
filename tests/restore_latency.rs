//! Checkpoint restore at width: a restored 64-rank engine must be the
//! same machine as the stopped original it was snapshotted from.

use tracedbg::mpsim::{Engine, EngineConfig, RecorderConfig};
use tracedbg::workloads::ring::{self, RingConfig};

const CFG: RingConfig = RingConfig {
    nprocs: 64,
    rounds: 8,
    hop_cost: 0,
    tag_stride: 0,
};

#[test]
fn task_restore_continues_to_the_same_digest() {
    // Continue both the stopped original and the restored copy to
    // completion and require identical digests.
    let launch = || {
        Engine::launch(
            EngineConfig {
                recorder: RecorderConfig::markers_only(),
                ..Default::default()
            },
            ring::programs(&CFG),
        )
    };
    let mut straight = launch();
    assert!(straight.run().is_completed());
    let target = straight.markers();
    let mut stopped = launch();
    for m in target.iter() {
        stopped.set_threshold(m.rank, Some((m.count / 2).max(1)));
    }
    assert!(stopped.run().is_stopped());
    let cp = stopped.snapshot();
    stopped.clear_thresholds();
    stopped.resume_trapped();
    assert!(stopped.run().is_completed());

    let mut restored = Engine::restore(&cp, Vec::new());
    restored.clear_thresholds();
    restored.resume_trapped();
    assert!(restored.run().is_completed());
    assert_eq!(restored.digest(), stopped.digest());
    assert_eq!(restored.markers(), stopped.markers());
}
