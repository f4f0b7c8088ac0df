//! A small straight-line vocabulary for this crate's test programs. The
//! task state is the list of messages received so far; each rank is a
//! `Prog::seq` of these steps, and rank `r`'s events are attributed to
//! function `p<r>` in `test.rs`.

use tracedbg_mpsim::{
    Message, Payload, Prog, Rank, RankProgram, SendMode, SiteId, Tag, TaskOp, TaskView,
};

pub type St = Vec<Message>;
pub type P = Prog<St>;

pub fn site(v: &TaskView<'_>) -> SiteId {
    v.site("test.rs", v.rank.0 + 1, &format!("p{}", v.rank.0))
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

pub fn send(dst: u32, tag: i32, value: i64) -> P {
    Prog::op(move |_, v| TaskOp::Send {
        dst: Rank(dst),
        tag: Tag(tag),
        payload: Payload::from_i64(value),
        site: site(v),
        mode: SendMode::Buffered,
    })
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
    Prog::op(move |s, v| TaskOp::Probe {
        label: label.into(),
        value: value(s),
        site: site(v),
    })
}

pub fn check(f: impl Fn(&St) + Send + Sync + 'static) -> P {
    Prog::act(move |s, _| f(s))
}
