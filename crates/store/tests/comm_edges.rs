//! `TraceSource::comm_edges` equivalence: the disk store's rank cursor
//! must project exactly the edges the in-memory reference projects, for
//! every rank — the contract the localize graph differ leans on when one
//! side of the diff is a store directory.

mod common;

use common::{fanin_programs, scratch_dir};
use tracedbg_mpsim::{Engine, EngineConfig, Rank, RecorderConfig, Tag};
use tracedbg_store::{ingest_store, DiskStore, StoreOptions};
use tracedbg_trace::{EdgeDir, TraceSource, TraceStore};

/// A small fan-in with wildcard receives and two tags, so edges carry
/// distinct (dir, peer, tag) keys at every rank.
fn reference() -> TraceStore {
    let mut e = Engine::launch(
        EngineConfig {
            recorder: RecorderConfig::full(),
            ..Default::default()
        },
        fanin_programs(2, 2),
    );
    let _ = e.run();
    e.trace_store()
}

#[test]
fn disk_store_comm_edges_match_the_reference() {
    let store = reference();
    let dir = scratch_dir("eq");
    let _ = std::fs::remove_dir_all(&dir);
    ingest_store(
        &store,
        &dir,
        StoreOptions {
            // Tiny segments force the cursor across segment boundaries.
            segment_events: 8,
        },
    )
    .expect("ingest");
    let disk = DiskStore::open(&dir).expect("open");
    assert!(store.n_ranks() >= 4);
    for r in 0..store.n_ranks() as u32 + 1 {
        let want = store.comm_edges(Rank(r)).expect("reference edges");
        let got = disk.comm_edges(Rank(r)).expect("disk edges");
        assert_eq!(got, want, "rank {r} edges diverged");
    }
    // Sanity on content, not just equivalence: rank 1 sends two tags to
    // rank 0 and completes one directed receive, in program order.
    let e1 = disk.comm_edges(Rank(1)).unwrap();
    let keys: Vec<_> = e1.iter().map(|e| e.key()).collect();
    assert_eq!(
        keys,
        vec![
            (EdgeDir::Send, Rank(0), Tag(0)),
            (EdgeDir::Send, Rank(0), Tag(1)),
            (EdgeDir::Recv, Rank(0), Tag(9)),
        ]
    );
    assert!(e1.windows(2).all(|w| w[0].marker < w[1].marker));
    let _ = std::fs::remove_dir_all(&dir);
}
