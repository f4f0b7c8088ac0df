//! A small straight-line vocabulary for test programs, shared by the
//! integration tests. The task state is the list of messages received so
//! far; each rank is a `Prog::seq` of these steps.
#![allow(dead_code)] // every test binary uses its own subset

use tracedbg_mpsim::{
    Label, Message, Payload, Prog, Rank, RankProgram, SendMode, SiteId, Tag, TaskOp, TaskView,
};
use tracedbg_trace::CollKind;

pub type St = Vec<Message>;
pub type P = Prog<St>;

pub fn site(v: &TaskView<'_>) -> SiteId {
    v.site("test.rs", 1, "test")
}

pub fn rank(items: Vec<P>) -> RankProgram {
    RankProgram::task(St::new(), Prog::seq(items))
}

pub fn compute(cost_ns: u64) -> P {
    Prog::op(move |_, v| TaskOp::Compute {
        cost_ns,
        site: site(v),
    })
}

/// Send a value computed from the messages received so far.
pub fn send_with(dst: u32, tag: i32, value: impl Fn(&St) -> i64 + Send + Sync + 'static) -> P {
    Prog::op(move |s, v| TaskOp::Send {
        dst: Rank(dst),
        tag: Tag(tag),
        payload: Payload::from_i64(value(s)),
        site: site(v),
        mode: SendMode::Buffered,
    })
}

pub fn send(dst: u32, tag: i32, value: i64) -> P {
    send_with(dst, tag, move |_| value)
}

/// Blocking receive (`None` = wildcard); the message is pushed onto the
/// task state.
pub fn recv(src: Option<u32>, tag: Option<i32>) -> P {
    Prog::op_bind(
        move |_, v| TaskOp::Recv {
            src: src.map(Rank),
            tag: tag.map(Tag),
            site: site(v),
        },
        |s: &mut St, r, _| s.push(r.message()),
    )
}

pub fn recv_from(src: u32, tag: i32) -> P {
    recv(Some(src), Some(tag))
}

pub fn probe(label: &'static str, value: impl Fn(&St) -> i64 + Send + Sync + 'static) -> P {
    let label = Label::new(label);
    Prog::op(move |s, v| TaskOp::Probe {
        label,
        value: value(s),
        site: site(v),
    })
}

/// A barrier across every rank: it readies them all in one turn.
pub fn barrier() -> P {
    Prog::op(|_, v| TaskOp::Collective {
        kind: CollKind::Barrier,
        root: Rank(0),
        payload: Payload::empty(),
        op: None,
        site: site(v),
    })
}

pub fn check(f: impl Fn(&St) + Send + Sync + 'static) -> P {
    Prog::act(move |s, _| f(s))
}

pub fn repeat(n: i64, body: P) -> P {
    Prog::for_range(move |_, _| (0, n), |_, _| {}, body)
}

pub fn value(m: &Message) -> i64 {
    m.payload.to_i64().unwrap()
}

pub fn sum(s: &St) -> i64 {
    s.iter().map(value).sum()
}

pub const FANIN_NPROCS: usize = 4;

/// Fan-in workload with genuine wildcard nondeterminism: every worker
/// sends `rounds` messages to rank 0, which receives them in whatever
/// order the scheduler picks and then releases the workers.
pub fn fanin_programs(rounds: u64) -> Vec<RankProgram> {
    let n = FANIN_NPROCS as u32;
    let mut collector = vec![
        repeat((n as i64 - 1) * rounds as i64, recv(None, None)),
        probe("sum", sum),
    ];
    collector.extend((1..n).map(|r| send_with(r, 9, sum)));
    let mut progs = vec![rank(collector)];
    for r in 1..n as i64 {
        let mut worker: Vec<P> = (0..rounds as i64)
            .flat_map(|round| [compute(50), send(0, 0, r * 100 + round)])
            .collect();
        worker.push(recv_from(0, 9));
        progs.push(rank(worker));
    }
    progs
}
