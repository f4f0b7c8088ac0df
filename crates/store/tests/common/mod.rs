//! Shared by the store's integration tests: unique scratch directories
//! and the fan-in debuggee whose traces the stores are built from.
#![allow(dead_code)] // every test binary uses its own subset

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use tracedbg_mpsim::{Payload, Prog, Rank, RankProgram, SendMode, SiteId, Tag, TaskOp, TaskView};

/// A scratch directory unique per call (pid + process-wide counter), so
/// concurrent tests and proptest cases never share one.
pub fn scratch_dir(label: &str) -> PathBuf {
    static CALL: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "tracedbg-store-test-{label}-{}-{}",
        std::process::id(),
        CALL.fetch_add(1, Ordering::Relaxed)
    ))
}

pub const NPROCS: usize = 4;

fn site(v: &TaskView<'_>) -> SiteId {
    v.site("fanin.rs", 1, "fanin")
}

/// Fan-in with wildcard nondeterminism: each worker sends `rounds`
/// messages to rank 0 (round `k` on tag `k % n_tags`, so the tag index has
/// several keys to discriminate); rank 0 receives them in scheduler order,
/// probes their sum and releases every worker on tag 9. The task state is
/// the running sum of received payloads.
pub fn fanin_programs(rounds: i64, n_tags: i64) -> Vec<RankProgram> {
    let n = NPROCS as i64;
    let recv = |src: Option<Rank>, tag: Option<Tag>| {
        Prog::op_bind(
            move |_: &mut i64, v| TaskOp::Recv {
                src,
                tag,
                site: site(v),
            },
            |sum, m, _| *sum += m.message().payload.to_i64().unwrap_or(0),
        )
    };
    let mut collector = vec![
        Prog::for_range(
            move |_, _| (0, (n - 1) * rounds),
            |_, _| {},
            recv(None, None),
        ),
        Prog::op(|sum: &mut i64, v| TaskOp::Probe {
            label: "sum".into(),
            value: *sum,
            site: site(v),
        }),
    ];
    collector.extend((1..n).map(|r| {
        Prog::op(move |sum: &mut i64, v| TaskOp::Send {
            dst: Rank(r as u32),
            tag: Tag(9),
            payload: Payload::from_i64(*sum),
            site: site(v),
            mode: SendMode::Buffered,
        })
    }));
    let mut worker = Vec::new();
    for round in 0..rounds {
        worker.push(Prog::op(|_: &mut i64, v| TaskOp::Compute {
            cost_ns: 50,
            site: site(v),
        }));
        worker.push(Prog::op(move |_: &mut i64, v| TaskOp::Send {
            dst: Rank(0),
            tag: Tag((round % n_tags) as i32),
            payload: Payload::from_i64(v.rank.0 as i64 * 100 + round),
            site: site(v),
            mode: SendMode::Buffered,
        }));
    }
    worker.push(recv(Some(Rank(0)), Some(Tag(9))));
    let worker = Prog::seq(worker);
    let mut progs = vec![RankProgram::task(0i64, Prog::seq(collector))];
    progs.extend((1..n).map(|_| RankProgram::task(0i64, worker.clone())));
    progs
}
