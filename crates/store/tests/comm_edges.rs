//! `TraceSource::comm_edges` equivalence: the disk store's rank cursor
//! must project exactly the edges the in-memory reference projects, for
//! every rank — the contract the localize graph differ leans on when one
//! side of the diff is a store directory. The runs are generated cases
//! (random SDL programs with wildcard receives on several tags, and corpus
//! scripts, under faults) from the one generator of cases.

#[path = "../../../tests/oracle/cases.rs"]
mod cases;
mod common;

use cases::{corpus, gen_case, Case};
use common::scratch_dir;
use proptest::prelude::TestRng;
use std::path::PathBuf;
use tracedbg_mpsim::{Engine, Rank, Tag};
use tracedbg_store::{ingest_store, DiskStore, StoreOptions};
use tracedbg_trace::{EdgeDir, TraceSource, TraceStore};

/// `case`'s trace in memory, and on disk in tiny segments, which force the
/// cursor across segment boundaries; and the store's directory.
fn both(case: &Case) -> (TraceStore, DiskStore, PathBuf) {
    tracedbg_mpsim::set_quiet_panics(true);
    let mut e = Engine::launch(case.config(), case.programs());
    let _ = e.run();
    let store = e.trace_store();
    let dir = scratch_dir("eq");
    let _ = std::fs::remove_dir_all(&dir);
    let opts = StoreOptions { segment_events: 8 };
    ingest_store(&store, &dir, opts).expect("ingest");
    let disk = DiskStore::open(&dir).expect("open");
    (store, disk, dir)
}

#[test]
fn disk_store_comm_edges_match_the_reference() {
    let corpus = corpus();
    let mut rng = TestRng::for_test("disk_store_comm_edges_match_the_reference");
    let pairs = Case::corpus("sdl:pairs", 4, Vec::new(), 1);
    let generated = (0..24).map(|_| gen_case(&mut rng, &corpus));
    for case in std::iter::once(pairs).chain(generated) {
        let (store, disk, dir) = both(&case);
        for r in 0..store.n_ranks() as u32 + 1 {
            let want = store.comm_edges(Rank(r)).expect("reference edges");
            let got = disk.comm_edges(Rank(r)).expect("disk edges");
            assert_eq!(got, want, "rank {r} edges diverged, case {case}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
    // Sanity on content, not just equivalence: in `pairs`, rank 1 answers
    // rank 0's two pings, in program order.
    let (_, disk, dir) = both(&Case::corpus("sdl:pairs", 4, Vec::new(), 1));
    let e1 = disk.comm_edges(Rank(1)).unwrap();
    let keys: Vec<_> = e1.iter().map(|e| e.key()).collect();
    let (ping, pong) = (
        (EdgeDir::Recv, Rank(0), Tag(10)),
        (EdgeDir::Send, Rank(0), Tag(11)),
    );
    assert_eq!(keys, vec![ping, pong, ping, pong]);
    assert!(e1.windows(2).all(|w| w[0].marker < w[1].marker));
    let _ = std::fs::remove_dir_all(&dir);
}
