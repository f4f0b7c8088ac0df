//! Engine edge cases: self-sends, wildcards, scale, empty payloads,
//! flush-on-demand, and trap interactions.

mod common;

use common::*;
use tracedbg_mpsim::{
    Engine, EngineConfig, Payload, Prog, RankProgram, RecorderConfig, RunOutcome, SchedPolicy,
    SendMode, TaskOp,
};
use tracedbg_trace::{CollKind, EventKind, Label, Marker, Rank, Tag};

fn cfg() -> EngineConfig {
    EngineConfig::with_recorder(RecorderConfig::full())
}

#[test]
fn self_send_and_receive() {
    // The buggy Strassen sends to rank 0 itself; the runtime must treat
    // self-sends as ordinary buffered messages.
    let p0 = rank(vec![
        send(0, 1, 9),
        recv_from(0, 1),
        check(|s| assert_eq!(value(&s[0]), 9)),
    ]);
    let mut e = Engine::launch(cfg(), vec![p0]);
    assert!(e.run().is_completed());
    let store = e.trace_store();
    assert_eq!(store.of_kind(EventKind::Send).len(), 1);
    assert_eq!(store.of_kind(EventKind::RecvDone).len(), 1);
}

#[test]
fn any_tag_receive_takes_oldest() {
    let p0 = rank(vec![send(1, 9, 1), send(1, 5, 2)]);
    let p1 = rank(vec![
        recv(Some(0), None),
        recv(Some(0), None),
        check(|s| {
            assert_eq!(s[0].tag, Tag(9), "ANY_TAG takes the queue head");
            assert_eq!(s[1].tag, Tag(5));
        }),
    ]);
    let mut e = Engine::launch(cfg(), vec![p0, p1]);
    assert!(e.run().is_completed());
}

#[test]
fn empty_payload_messages() {
    let p0 = rank(vec![Prog::op(|_, v| TaskOp::Send {
        dst: Rank(1),
        tag: Tag(0),
        payload: Payload::empty(),
        site: site(v),
        mode: SendMode::Buffered,
    })]);
    let p1 = rank(vec![
        recv_from(0, 0),
        check(|s| assert!(s[0].payload.is_empty())),
    ]);
    let mut e = Engine::launch(cfg(), vec![p0, p1]);
    assert!(e.run().is_completed());
}

#[test]
fn sixteen_rank_all_to_one() {
    // Scale check: 15 senders funnel into one wildcard receiver.
    let mut progs = vec![rank(vec![
        repeat(15, recv(None, Some(1))),
        check(|s| assert_eq!(sum(s), (1..16).sum::<i64>())),
    ])];
    for r in 1..16 {
        progs.push(rank(vec![compute(r * 1000), send(0, 1, r as i64)]));
    }
    let mut e = Engine::launch(cfg(), progs);
    assert!(e.run().is_completed());
    assert_eq!(e.match_log().len_for(Rank(0)), 15);
}

#[test]
fn flush_on_demand_mid_run() {
    let p0 = rank(vec![
        compute(100),
        Prog::op(|_, _| TaskOp::FlushTrace),
        compute(100),
    ]);
    let mut e = Engine::launch(cfg(), vec![p0]);
    assert!(e.run().is_completed());
    // Both the flushed and the end-of-run records survive collection.
    let store = e.trace_store();
    assert_eq!(store.of_kind(EventKind::Compute).len(), 2);
}

/// The run's log holds each record once, in the order the ranks recorded
/// them: the order `Session::detach_trace_sink` hands a sink.
#[test]
fn live_tee_sees_each_record_once_in_arrival_order() {
    // P0 flushes mid-run and stops in a trap; P1 then runs to its end.
    let p0 = rank(vec![
        compute(100),
        Prog::op(|_, _| TaskOp::FlushTrace),
        compute(100),
        compute(100),
    ]);
    let p1 = rank(vec![compute(100)]);
    let mut e = Engine::launch(cfg(), vec![p0, p1]);
    e.set_threshold(Rank(0), Some(3));
    assert!(e.run().is_stopped());
    // Each record enters the log when it is recorded — P0's up to and
    // including the one it traps on, then P1's — and gathering twice adds
    // nothing.
    let arrival = |e: &Engine| -> Vec<(u32, u64)> {
        e.collect_trace()
            .iter()
            .map(|r| (r.rank.0, r.marker))
            .collect()
    };
    let recorded = vec![(0, 1), (0, 2), (0, 3), (1, 1), (1, 2), (1, 3)];
    assert_eq!(arrival(&e), recorded);
    assert_eq!(arrival(&e), recorded);
    e.clear_thresholds();
    e.resume_trapped();
    assert!(e.run().is_completed());
    assert_eq!(arrival(&e), [recorded, vec![(0, 4), (0, 5)]].concat());
}

#[test]
fn tracing_toggle_inside_program() {
    let p0 = rank(vec![
        compute(1),
        Prog::op(|_, _| TaskOp::SetTracing(false)),
        compute(2),
        compute(3),
        Prog::op(|_, _| TaskOp::SetTracing(true)),
        compute(4),
    ]);
    let mut e = Engine::launch(cfg(), vec![p0]);
    assert!(e.run().is_completed());
    let store = e.trace_store();
    // 2 of the 4 computes recorded; markers unaffected (4 computes + 2
    // lifecycle events).
    assert_eq!(store.of_kind(EventKind::Compute).len(), 2);
    assert_eq!(e.markers().get(Rank(0)), 6);
}

#[test]
fn trap_mid_collective_sequence() {
    // One rank traps before entering the barrier; the others wait inside
    // the collective — a Stopped outcome, not a deadlock.
    let mk = || {
        rank(vec![
            compute(10),
            Prog::op(|_, v| TaskOp::Collective {
                kind: CollKind::Barrier,
                root: Rank(0),
                payload: Payload::empty(),
                op: None,
                site: site(v),
            }),
        ])
    };
    let mut e = Engine::launch(cfg(), vec![mk(), mk(), mk()]);
    // P0: ProcStart(1) compute(2) barrier(3)... trap at 2.
    e.set_threshold(Rank(0), Some(2));
    match e.run() {
        RunOutcome::Stopped(st) => assert_eq!(st.traps, vec![Marker::new(0u32, 2)]),
        other => panic!("{other:?}"),
    }
    e.clear_thresholds();
    e.resume_trapped();
    assert!(e.run().is_completed());
}

#[test]
fn seeded_policy_is_reproducible_end_to_end() {
    let make = || -> Vec<RankProgram> {
        (0..4)
            .map(|r| {
                if r == 0 {
                    rank(vec![repeat(3, recv(None, None))])
                } else {
                    rank(vec![compute(r * 7), send(0, 0, r as i64)])
                }
            })
            .collect()
    };
    let run = |seed: u64| {
        let mut e = Engine::launch(
            EngineConfig {
                policy: SchedPolicy::Seeded(seed),
                recorder: RecorderConfig::full(),
                ..Default::default()
            },
            make(),
        );
        assert!(e.run().is_completed());
        e.collect_trace().clone().into_vec()
    };
    assert_eq!(run(12), run(12), "same seed, same trace");
}

#[test]
fn engine_run_after_completion_is_idempotent() {
    let mut e = Engine::launch(cfg(), vec![rank(vec![compute(1)])]);
    assert!(e.run().is_completed());
    assert!(e.run().is_completed(), "second run() reports completion");
}

/// Nested function scopes, and a probe sited in the scope around it.
#[test]
fn fn_scope_and_probe_macros() {
    let inside = Label::new("inside");
    let p0 = rank(vec![Prog::scope(
        |_, v| (v.site("e.rs", 1, "outer"), [7, 8]),
        Prog::seq(vec![
            Prog::op(move |_, v| TaskOp::Probe {
                label: inside,
                value: 42,
                site: v.site("e.rs", 2, "outer"),
            }),
            Prog::scope(|_, v| (v.site("e.rs", 3, "inner"), [1, 0]), compute(1)),
        ]),
    )]);
    let mut e = Engine::launch(cfg(), vec![p0]);
    assert!(e.run().is_completed());
    let store = e.trace_store();
    assert_eq!(store.of_kind(EventKind::FnEnter).len(), 2);
    assert_eq!(store.of_kind(EventKind::FnExit).len(), 2);
    let probe_rec = store
        .records()
        .iter()
        .find(|r| r.kind == EventKind::Probe)
        .unwrap();
    assert_eq!(probe_rec.args[0], 42);
    assert_eq!(store.sites().func_name(probe_rec.site), "outer");
    // The scope captured its two args.
    let enter = store
        .records()
        .iter()
        .find(|r| r.kind == EventKind::FnEnter)
        .unwrap();
    assert_eq!(enter.args, [7, 8]);
}
