//! Resumable rank tasks: state-machine processes multiplexed on the
//! engine's own thread.
//!
//! A rank is a poll-able state machine that yields a [`TaskOp`] at every
//! send/recv/collective boundary, and the engine drives it *inline*: a
//! grant is a function call. Per-rank cost is a struct, not a thread, so
//! runs scale to thousands of ranks, and a checkpoint of a rank is a clone
//! of its frame stack, so restore is a memcpy.
//!
//! The [`TaskHarness`] owns the emission rules that make traces
//! reproducible byte for byte: record field layout, clock arithmetic,
//! marker peeking, trap points (including the RecvPost trap that fires
//! *before* the receive is submitted), the instrumentation-off
//! short-circuits, and panic capture.
//!
//! Every program is a [`Prog`] syntax tree (sequence / act / op / scope /
//! if / loops / dynamic generation) interpreted by [`TaskInterp`], whose
//! explicit frame stack is what makes mid-program snapshots cheap: nodes
//! are `Arc`-shared, so cloning an interpreter clones a few pointers plus
//! the user state `S`. Native workloads build their trees by hand; a
//! script is lowered to one when it is parsed.

use crate::clock::CostModel;
use crate::collective::ReduceOp;
use crate::message::{MatchSpec, Message};
use crate::ops::{Reply, Request, SendMode};
use crate::payload::Payload;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use tracedbg_instrument::{Armed, Disposition, Recorder};
use tracedbg_trace::{
    ChunkLog, CollKind, EventKind, Label, MsgInfo, Rank, SiteId, SiteKey, SiteTable, Tag,
    TraceRecord, TraceSink,
};

// ---------------------------------------------------------------------------
// Op vocabulary
// ---------------------------------------------------------------------------

/// What a resuming task receives: the value produced by the op it last
/// yielded at.
#[derive(Clone, Debug)]
pub enum OpResult {
    /// Ops with no value (compute, probe, send, tracing toggles...).
    None,
    /// A completed receive.
    Message(Message),
    /// A completed collective: this rank's share of the result.
    Payload(Payload),
}

impl OpResult {
    /// The delivered message; panics if the last op was not a receive.
    pub fn message(self) -> Message {
        match self {
            OpResult::Message(m) => m,
            other => panic!("expected a message result, got {other:?}"),
        }
    }

    /// The collective result; panics if the last op was not a collective.
    pub fn payload(self) -> Payload {
        match self {
            OpResult::Payload(p) => p,
            other => panic!("expected a payload result, got {other:?}"),
        }
    }
}

/// One operation a task yields at; the harness turns each into its trace
/// record(s) and, for communication, a request to the engine.
#[derive(Clone)]
pub enum TaskOp {
    /// A block of local computation costing `cost_ns` of simulated time.
    Compute { cost_ns: u64, site: SiteId },
    /// A named value snapshot the debugger can inspect when stepping (the
    /// stand-in for reading locals through ptrace). The label is interned
    /// where the program is built, so performing a probe neither locks nor
    /// allocates.
    Probe {
        label: Label,
        value: i64,
        site: SiteId,
    },
    /// Instrumented function entry (emitted by [`Prog::scope`] frames): the
    /// `UserMonitor` call gcc's `-p` would insert in the prologue.
    Enter { site: SiteId, args: [i64; 2] },
    /// Instrumented function exit.
    Exit { site: SiteId },
    /// Point-to-point send. `Buffered` completes locally (`MPI_Send` with
    /// buffering); `Synchronous` blocks until the matching receive takes
    /// the message (`MPI_Ssend`).
    Send {
        dst: Rank,
        tag: Tag,
        payload: Payload,
        site: SiteId,
        mode: SendMode,
    },
    /// Blocking receive; `None` components are the `MPI_ANY_SOURCE` /
    /// `MPI_ANY_TAG` wildcards.
    Recv {
        src: Option<Rank>,
        tag: Option<Tag>,
        site: SiteId,
    },
    /// Collective operation; blocks until every rank has entered it.
    Collective {
        kind: CollKind,
        root: Rank,
        payload: Payload,
        op: Option<ReduceOp>,
        site: SiteId,
    },
    /// Toggle trace collection for this rank (markers keep advancing).
    SetTracing(bool),
    /// On-demand flush of this rank's trace (§2.1's extension of the AIMS
    /// monitor): accepted and does nothing, since a kept record is
    /// collected when it is recorded.
    FlushTrace,
    /// No operation: the program had nothing to emit at this step (used
    /// by conditional emitters); the harness advances immediately.
    Nop,
    /// The program is finished (`ProcEnd` + `Finished` follow).
    Done,
}

/// Read-only view a task gets while deciding its next op: identity plus
/// the shared site table (site ids are interned in first-use order, which
/// the golden traces pin).
pub struct TaskView<'a> {
    pub rank: Rank,
    pub n_ranks: usize,
    sites: &'a SiteTable,
}

impl TaskView<'_> {
    /// The run's id of a location interned where the program was built:
    /// no string is hashed.
    pub fn site_of(&self, key: SiteKey) -> SiteId {
        self.sites.id(key)
    }

    /// The run's id of a script's site ([`SiteKey::scripted`]), the
    /// script built under `file`: [`SiteTable::script_id`].
    pub fn script_site(&self, file: &Arc<str>, key: SiteKey) -> SiteId {
        self.sites.script_id(file, key)
    }

    /// Intern a source location and take its id: [`SiteKey::new`] then
    /// [`TaskView::site_of`]. Hashes the strings on every call; a program
    /// that runs many times interns its keys once instead.
    pub fn site(&self, file: &str, line: u32, func: &str) -> SiteId {
        self.sites.site(file, line, func)
    }
}

/// A resumable rank program. `next` is called with the result of the
/// previously yielded op (or [`OpResult::None`] on the first call) and
/// returns the next op; [`TaskOp::Done`] ends the rank.
///
/// `snapshot` must return an independent deep copy positioned at the same
/// execution point — this is what makes checkpoint/restore a memcpy.
/// [`TaskInterp`] is the one implementation: every rank is a [`Prog`].
pub(crate) trait TaskProgram: Send + Sync {
    fn next(&mut self, input: OpResult, view: &TaskView<'_>) -> TaskOp;
    fn snapshot(&self) -> Box<dyn TaskProgram>;
}

impl Clone for Box<dyn TaskProgram> {
    fn clone(&self) -> Self {
        self.snapshot()
    }
}

// ---------------------------------------------------------------------------
// Prog<S>: a resumable program syntax tree
// ---------------------------------------------------------------------------

type ActFn<S> = Arc<dyn Fn(&mut S, &TaskView<'_>) + Send + Sync>;
type EmitFn<S> = Arc<dyn Fn(&mut S, &TaskView<'_>) -> TaskOp + Send + Sync>;
type BindFn<S> = Arc<dyn Fn(&mut S, OpResult, &TaskView<'_>) + Send + Sync>;
type CondFn<S> = Arc<dyn Fn(&S, &TaskView<'_>) -> bool + Send + Sync>;
type RangeFn<S> = Arc<dyn Fn(&S, &TaskView<'_>) -> (i64, i64) + Send + Sync>;
type IndexFn<S> = Arc<dyn Fn(&mut S, i64) + Send + Sync>;
type EnterFn<S> = Arc<dyn Fn(&mut S, &TaskView<'_>) -> (SiteId, [i64; 2]) + Send + Sync>;
type GenFn<S> = Arc<dyn Fn(&mut S, &TaskView<'_>) -> Prog<S> + Send + Sync>;

enum Node<S> {
    /// Run children in order.
    Seq(Vec<Prog<S>>),
    /// Pure local mutation of the task state: no op, no trace record.
    Act(ActFn<S>),
    /// Yield one op; `bind` consumes its result on resume.
    Op {
        emit: EmitFn<S>,
        bind: Option<BindFn<S>>,
    },
    /// An instrumented function scope: FnEnter, body, FnExit.
    Scope { enter: EnterFn<S>, body: Prog<S> },
    /// Two-way branch.
    If {
        cond: CondFn<S>,
        then: Prog<S>,
        els: Prog<S>,
    },
    /// Counted loop over `start..end`; `at` publishes the index into `S`
    /// before each iteration.
    For {
        range: RangeFn<S>,
        at: IndexFn<S>,
        body: Prog<S>,
    },
    /// Condition-checked loop.
    While { cond: CondFn<S>, body: Prog<S> },
    /// Build a subtree at runtime from the current state — recursion and
    /// data-dependent program shapes.
    Gen(GenFn<S>),
}

/// What a [`Prog`] handle points at.
struct Tree<S> {
    node: Node<S>,
    /// Most frames the interpreter stacks while running `node`, not
    /// counting what a `Gen` inside it builds at run time.
    depth: usize,
}

/// A shareable program tree node (cheap to clone: one `Arc`).
pub struct Prog<S>(Arc<Tree<S>>);

impl<S> Clone for Prog<S> {
    fn clone(&self) -> Self {
        Prog(Arc::clone(&self.0))
    }
}

impl<S> Prog<S> {
    fn new(node: Node<S>) -> Self {
        let depth = match &node {
            Node::Act(_) | Node::Op { .. } | Node::Gen(_) => 0,
            Node::Seq(items) => items.iter().map(|p| p.0.depth + 1).max().unwrap_or(0),
            // `ScopeExit` under the pending body, then under its frames.
            Node::Scope { body, .. } => 1 + body.0.depth.max(1),
            Node::If { then, els, .. } => then.0.depth.max(els.0.depth),
            Node::For { body, .. } | Node::While { body, .. } => 1 + body.0.depth,
        };
        Prog(Arc::new(Tree { node, depth }))
    }
}

impl<S: Send + Sync + 'static> Prog<S> {
    pub fn seq(items: Vec<Prog<S>>) -> Self {
        Prog::new(Node::Seq(items))
    }

    pub fn act(f: impl Fn(&mut S, &TaskView<'_>) + Send + Sync + 'static) -> Self {
        Prog::new(Node::Act(Arc::new(f)))
    }

    /// Yield the op computed by `emit`, discarding its result.
    pub fn op(f: impl Fn(&mut S, &TaskView<'_>) -> TaskOp + Send + Sync + 'static) -> Self {
        Prog::new(Node::Op {
            emit: Arc::new(f),
            bind: None,
        })
    }

    /// Yield the op computed by `emit`; `bind` receives its result.
    pub fn op_bind(
        emit: impl Fn(&mut S, &TaskView<'_>) -> TaskOp + Send + Sync + 'static,
        bind: impl Fn(&mut S, OpResult, &TaskView<'_>) + Send + Sync + 'static,
    ) -> Self {
        Prog::new(Node::Op {
            emit: Arc::new(emit),
            bind: Some(Arc::new(bind)),
        })
    }

    pub fn scope(
        enter: impl Fn(&mut S, &TaskView<'_>) -> (SiteId, [i64; 2]) + Send + Sync + 'static,
        body: Prog<S>,
    ) -> Self {
        Prog::new(Node::Scope {
            enter: Arc::new(enter),
            body,
        })
    }

    pub fn if_else(
        cond: impl Fn(&S, &TaskView<'_>) -> bool + Send + Sync + 'static,
        then: Prog<S>,
        els: Prog<S>,
    ) -> Self {
        Prog::new(Node::If {
            cond: Arc::new(cond),
            then,
            els,
        })
    }

    pub fn when(
        cond: impl Fn(&S, &TaskView<'_>) -> bool + Send + Sync + 'static,
        then: Prog<S>,
    ) -> Self {
        Self::if_else(cond, then, Self::seq(vec![]))
    }

    /// `for i in range.0..range.1 { at(state, i); body }`.
    pub fn for_range(
        range: impl Fn(&S, &TaskView<'_>) -> (i64, i64) + Send + Sync + 'static,
        at: impl Fn(&mut S, i64) + Send + Sync + 'static,
        body: Prog<S>,
    ) -> Self {
        Prog::new(Node::For {
            range: Arc::new(range),
            at: Arc::new(at),
            body,
        })
    }

    pub fn while_loop(
        cond: impl Fn(&S, &TaskView<'_>) -> bool + Send + Sync + 'static,
        body: Prog<S>,
    ) -> Self {
        Prog::new(Node::While {
            cond: Arc::new(cond),
            body,
        })
    }

    /// Defer construction: `f` runs when execution reaches this node and
    /// the subtree it returns is executed in place.
    pub fn gen(f: impl Fn(&mut S, &TaskView<'_>) -> Prog<S> + Send + Sync + 'static) -> Self {
        Prog::new(Node::Gen(Arc::new(f)))
    }
}

// ---------------------------------------------------------------------------
// TaskInterp: the frame-stack interpreter
// ---------------------------------------------------------------------------

enum Frame<S> {
    /// A `Seq` node with the index of the next child to enter.
    Seq { node: Prog<S>, idx: usize },
    /// A counted loop part-way through.
    For { node: Prog<S>, cur: i64, end: i64 },
    /// A `While` node (condition re-checked each pass).
    While { node: Prog<S> },
    /// A node whose entry was deferred (body of a scope after its
    /// `FnEnter` op, loop bodies).
    Pending(Prog<S>),
    /// Emit `FnExit` for this site once the scope body is done.
    ScopeExit { site: SiteId },
}

impl<S> Clone for Frame<S> {
    fn clone(&self) -> Self {
        match self {
            Frame::Seq { node, idx } => Frame::Seq {
                node: node.clone(),
                idx: *idx,
            },
            Frame::For { node, cur, end } => Frame::For {
                node: node.clone(),
                cur: *cur,
                end: *end,
            },
            Frame::While { node } => Frame::While { node: node.clone() },
            Frame::Pending(node) => Frame::Pending(node.clone()),
            Frame::ScopeExit { site } => Frame::ScopeExit { site: *site },
        }
    }
}

/// Interprets a [`Prog`] tree as a rank the engine can poll. The whole
/// execution point is `(stack, state, pending_bind)` — all cheap to clone.
pub struct TaskInterp<S> {
    stack: Vec<Frame<S>>,
    state: S,
    pending_bind: Option<BindFn<S>>,
}

impl<S: Clone + Send + Sync + 'static> TaskInterp<S> {
    pub fn new(state: S, prog: Prog<S>) -> Self {
        let mut stack = Vec::with_capacity(prog.0.depth.max(1));
        stack.push(Frame::Pending(prog));
        TaskInterp {
            stack,
            state,
            pending_bind: None,
        }
    }

    /// Enter `node`, descending through control nodes until something
    /// yields an op (`Some`) or completes silently (`None`, with any
    /// remaining work pushed as frames). The tree is walked by reference:
    /// a handle is cloned only into a frame that is pushed.
    fn enter(
        stack: &mut Vec<Frame<S>>,
        pending_bind: &mut Option<BindFn<S>>,
        state: &mut S,
        mut node: &Prog<S>,
        view: &TaskView<'_>,
    ) -> Option<TaskOp> {
        loop {
            match &node.0.node {
                Node::Seq(items) => {
                    // An empty sequence is done; the first child of any
                    // other is entered here, over the frame for the rest.
                    let (first, rest) = items.split_first()?;
                    if !rest.is_empty() {
                        stack.push(Frame::Seq {
                            node: node.clone(),
                            idx: 1,
                        });
                    }
                    node = first;
                }
                Node::Act(f) => {
                    f(state, view);
                    return None;
                }
                Node::Op { emit, bind } => {
                    let op = emit(state, view);
                    if matches!(op, TaskOp::Nop) {
                        return None;
                    }
                    *pending_bind = bind.clone();
                    return Some(op);
                }
                Node::Scope { enter, body } => {
                    let (site, args) = enter(state, view);
                    stack.push(Frame::ScopeExit { site });
                    stack.push(Frame::Pending(body.clone()));
                    return Some(TaskOp::Enter { site, args });
                }
                Node::If { cond, then, els } => {
                    node = if cond(state, view) { then } else { els };
                }
                Node::For { range, .. } => {
                    let (start, end) = range(state, view);
                    if start < end {
                        stack.push(Frame::For {
                            node: node.clone(),
                            cur: start,
                            end,
                        });
                    }
                    return None;
                }
                Node::While { .. } => {
                    stack.push(Frame::While { node: node.clone() });
                    return None;
                }
                Node::Gen(f) => {
                    let made = f(state, view);
                    return Self::enter(stack, pending_bind, state, &made, view);
                }
            }
        }
    }
}

impl<S: Clone + Send + Sync + 'static> TaskProgram for TaskInterp<S> {
    fn next(&mut self, input: OpResult, view: &TaskView<'_>) -> TaskOp {
        let TaskInterp {
            stack,
            state,
            pending_bind,
        } = self;
        if let Some(bind) = pending_bind.take() {
            bind(state, input, view);
        }
        loop {
            let Some(top) = stack.pop() else {
                return TaskOp::Done;
            };
            // A frame's child is entered through the popped handle; the
            // frame goes back under whatever the child pushed, and only
            // while it has more to run (a frame on the stack is live).
            let under = stack.len();
            let op = match top {
                Frame::Seq { node, idx } => {
                    let Node::Seq(items) = &node.0.node else {
                        unreachable!("Seq frame holds non-Seq node")
                    };
                    let op = Self::enter(stack, pending_bind, state, &items[idx], view);
                    if idx + 1 < items.len() {
                        stack.insert(under, Frame::Seq { node, idx: idx + 1 });
                    }
                    op
                }
                Frame::For { node, cur, end } => {
                    let Node::For { at, body, .. } = &node.0.node else {
                        unreachable!("For frame holds non-For node")
                    };
                    at(state, cur);
                    let op = Self::enter(stack, pending_bind, state, body, view);
                    if cur + 1 < end {
                        let cur = cur + 1;
                        stack.insert(under, Frame::For { node, cur, end });
                    }
                    op
                }
                Frame::While { node } => {
                    let Node::While { cond, body } = &node.0.node else {
                        unreachable!("While frame holds non-While node")
                    };
                    if !cond(state, view) {
                        continue;
                    }
                    let op = Self::enter(stack, pending_bind, state, body, view);
                    stack.insert(under, Frame::While { node });
                    op
                }
                Frame::Pending(node) => Self::enter(stack, pending_bind, state, &node, view),
                Frame::ScopeExit { site } => return TaskOp::Exit { site },
            };
            if let Some(op) = op {
                return op;
            }
        }
    }

    fn snapshot(&self) -> Box<dyn TaskProgram> {
        Box::new(TaskInterp {
            stack: self.stack.clone(),
            state: self.state.clone(),
            pending_bind: self.pending_bind.clone(),
        })
    }
}

// ---------------------------------------------------------------------------
// TaskHarness: the engine-side driver
// ---------------------------------------------------------------------------

/// Where a suspended task is in the grant protocol: which [`Reply`] it is
/// waiting for, and what to do with it.
#[derive(Clone)]
enum Await {
    /// Waiting for the initial `Proceed` (ProcStart not yet emitted).
    Initial,
    /// Trapped at a marker threshold; on `Proceed`, continue with `Then`.
    Trap(Then),
    /// A send was submitted; the completion record still has to be
    /// emitted from the `SendDone` reply.
    SendDone {
        t0: u64,
        bytes: u32,
        site: SiteId,
        dst: Rank,
        tag: Tag,
    },
    /// A receive was submitted.
    RecvDone { t_post: u64, site: SiteId },
    /// A collective was submitted.
    CollDone {
        kind: CollKind,
        root: Rank,
        site: SiteId,
        t_enter: u64,
    },
    /// `Finished` was submitted; the engine never grants again.
    Finished,
}

/// Continuation after a trap resolves: the action the trap interrupted.
#[derive(Clone)]
enum Then {
    /// Hand `OpResult` to the program and keep stepping.
    Advance(OpResult),
    /// RecvPost was recorded (and trapped); now submit the receive.
    SubmitRecv {
        src: Option<Rank>,
        tag: Option<Tag>,
        t_post: u64,
        site: SiteId,
    },
    /// ProcEnd was recorded (and trapped); now submit `Finished`.
    SubmitFinished,
}

thread_local! {
    /// True while a task is being stepped on this thread — lets the
    /// engine's quiet-panic hook recognize simulated-process panics.
    static IN_TASK_STEP: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Is the current thread inside [`TaskHarness::resume`]?
pub(crate) fn in_task_step() -> bool {
    IN_TASK_STEP.with(|f| f.get())
}

/// What the engine lends a rank for the duration of one grant: its
/// identity, the run-wide cost model and site table, the rank's
/// instrumentation recorder and what the debugger armed on it, and the
/// run's trace log and streaming sink, which see each kept record as it is
/// recorded.
pub(crate) struct TaskEnv<'a> {
    pub rank: Rank,
    pub n_ranks: usize,
    pub cost: CostModel,
    pub sites: &'a SiteTable,
    pub recorder: &'a mut Recorder,
    pub armed: &'a Armed,
    pub tee: &'a mut Option<Box<dyn TraceSink>>,
    pub collected: &'a mut ChunkLog<TraceRecord>,
}

/// Drives one task rank: owns the rank-local execution point (clock,
/// program frames, position in the grant protocol) and converts the ops
/// the program yields into the engine's request/reply protocol, one grant
/// at a time. The harness *is* the rank's checkpoint: cloning it yields an
/// independent copy at the same execution point.
#[derive(Clone)]
pub(crate) struct TaskHarness {
    clock: u64,
    program: Box<dyn TaskProgram>,
    waiting: Await,
}

impl TaskHarness {
    pub(crate) fn new(program: Box<dyn TaskProgram>) -> Self {
        TaskHarness {
            clock: 0,
            program,
            waiting: Await::Initial,
        }
    }

    /// Step the task with the engine's grant until it issues its next
    /// request. A panic inside the program becomes `Request::Panicked`
    /// (no `ProcEnd` is emitted for a panicking rank).
    pub(crate) fn resume(&mut self, reply: Reply, env: &mut TaskEnv<'_>) -> Request {
        IN_TASK_STEP.with(|f| f.set(true));
        let out = catch_unwind(AssertUnwindSafe(|| self.step(reply, env)));
        IN_TASK_STEP.with(|f| f.set(false));
        match out {
            Ok(req) => req,
            Err(payload) => {
                let message = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "<non-string panic>".into());
                Request::Panicked { message }
            }
        }
    }

    /// Observe an instrumentation record. `Ok(then)` carries on; when the
    /// recorder demands a trap the task parks with `then` as its
    /// continuation and `Err` is the trap request.
    fn after_observe(
        &mut self,
        env: &mut TaskEnv<'_>,
        rec: TraceRecord,
        then: Then,
    ) -> Result<Then, Request> {
        if env.recorder.is_off() {
            return Ok(then);
        }
        let (marker, disposition, kept) = env.recorder.observe(rec, env.armed);
        if let Some(rec) = kept {
            if let Some(sink) = env.tee {
                sink.accept(&rec);
            }
            env.collected.push(rec);
        }
        self.clock += env.cost.event_overhead;
        match disposition {
            Disposition::Trap => {
                self.waiting = Await::Trap(then);
                Err(Request::MarkerTrap { marker })
            }
            Disposition::Continue => Ok(then),
        }
    }

    fn step(&mut self, reply: Reply, env: &mut TaskEnv<'_>) -> Request {
        let rank = env.rank;
        let resumed = match std::mem::replace(&mut self.waiting, Await::Initial) {
            Await::Initial => {
                match reply {
                    Reply::Proceed => {}
                    other => panic!("unexpected initial grant: {other:?}"),
                }
                let rec = TraceRecord::basic(rank, EventKind::ProcStart, 0, self.clock);
                self.after_observe(env, rec, Then::Advance(OpResult::None))
            }
            Await::Trap(t) => {
                match reply {
                    Reply::Proceed => {}
                    other => panic!("unexpected reply to trap: {other:?}"),
                }
                Ok(t)
            }
            Await::SendDone {
                t0,
                bytes,
                site,
                dst,
                tag,
            } => {
                let (seq, t_done) = match reply {
                    Reply::SendDone { seq, t_done } => (seq, t_done),
                    other => panic!("unexpected reply to send: {other:?}"),
                };
                self.clock = t_done;
                let rec = TraceRecord::basic(rank, EventKind::Send, 0, t0)
                    .with_span(t0, t_done)
                    .with_site(site)
                    .with_msg(MsgInfo {
                        src: rank,
                        dst,
                        tag,
                        bytes,
                        seq,
                    });
                self.after_observe(env, rec, Then::Advance(OpResult::None))
            }
            Await::RecvDone { t_post, site } => {
                let (env_msg, t_done) = match reply {
                    Reply::RecvDone { env, t_done } => (env, t_done),
                    other => panic!("unexpected reply to recv: {other:?}"),
                };
                self.clock = t_done;
                let rec = TraceRecord::basic(rank, EventKind::RecvDone, 0, t_post)
                    .with_span(t_post, t_done)
                    .with_site(site)
                    .with_msg(env_msg.msg_info());
                let msg: Message = env_msg.into();
                self.after_observe(env, rec, Then::Advance(OpResult::Message(msg)))
            }
            Await::CollDone {
                kind,
                root,
                site,
                t_enter,
            } => {
                let (result, t_done) = match reply {
                    Reply::CollDone { result, t_done } => (result, t_done),
                    other => panic!("unexpected reply to collective: {other:?}"),
                };
                self.clock = t_done;
                let rec = TraceRecord::basic(rank, EventKind::Collective(kind), 0, t_enter)
                    .with_span(t_enter, t_done)
                    .with_site(site)
                    .with_msg(MsgInfo {
                        src: root,
                        dst: rank,
                        tag: Tag(-1),
                        bytes: result.len() as u32,
                        seq: 0,
                    });
                self.after_observe(env, rec, Then::Advance(OpResult::Payload(result)))
            }
            Await::Finished => panic!("task granted after Finished"),
        };
        let mut then = match resumed {
            Ok(then) => then,
            Err(request) => return request,
        };
        loop {
            match then {
                Then::Advance(input) => {
                    let op = {
                        let view = TaskView {
                            rank,
                            n_ranks: env.n_ranks,
                            sites: env.sites,
                        };
                        self.program.next(input, &view)
                    };
                    match self.perform(op, env) {
                        Ok(next) => then = next,
                        Err(request) => return request,
                    }
                }
                Then::SubmitRecv {
                    src,
                    tag,
                    t_post,
                    site,
                } => {
                    self.waiting = Await::RecvDone { t_post, site };
                    return Request::Recv {
                        spec: MatchSpec::new(src, tag),
                        t_post,
                    };
                }
                Then::SubmitFinished => {
                    self.waiting = Await::Finished;
                    return Request::Finished { t_end: self.clock };
                }
            }
        }
    }

    /// Execute one op. `Ok(then)` continues the inner loop; `Err(req)`
    /// suspends the task (with `self.waiting` already set) and hands the
    /// request to the engine.
    fn perform(&mut self, op: TaskOp, env: &mut TaskEnv<'_>) -> Result<Then, Request> {
        let rank = env.rank;
        match op {
            // A kept record is collected when it is recorded: a flush has
            // nothing left to do.
            TaskOp::Nop | TaskOp::FlushTrace => Ok(Then::Advance(OpResult::None)),
            TaskOp::Compute { cost_ns, site } => {
                let t0 = self.clock;
                self.clock += cost_ns;
                let rec = TraceRecord::basic(rank, EventKind::Compute, 0, t0)
                    .with_span(t0, self.clock)
                    .with_site(site);
                self.after_observe(env, rec, Then::Advance(OpResult::None))
            }
            TaskOp::Probe { label, value, site } => {
                let rec = TraceRecord::basic(rank, EventKind::Probe, 0, self.clock)
                    .with_site(site)
                    .with_args(value, 0)
                    .with_label(label);
                self.after_observe(env, rec, Then::Advance(OpResult::None))
            }
            TaskOp::Enter { site, args } => {
                if env.recorder.is_off() {
                    return Ok(Then::Advance(OpResult::None));
                }
                let rec = TraceRecord::basic(rank, EventKind::FnEnter, 0, self.clock)
                    .with_site(site)
                    .with_args(args[0], args[1]);
                self.after_observe(env, rec, Then::Advance(OpResult::None))
            }
            TaskOp::Exit { site } => {
                if env.recorder.is_off() {
                    return Ok(Then::Advance(OpResult::None));
                }
                let rec =
                    TraceRecord::basic(rank, EventKind::FnExit, 0, self.clock).with_site(site);
                self.after_observe(env, rec, Then::Advance(OpResult::None))
            }
            TaskOp::Send {
                dst,
                tag,
                payload,
                site,
                mode,
            } => {
                assert!(dst.ix() < env.n_ranks, "send to nonexistent {dst:?}");
                let t0 = self.clock;
                let send_marker = if env.recorder.is_off() {
                    0
                } else {
                    env.recorder.marker() + 1
                };
                self.waiting = Await::SendDone {
                    t0,
                    bytes: payload.len() as u32,
                    site,
                    dst,
                    tag,
                };
                Err(Request::Send {
                    dst,
                    tag,
                    payload,
                    t0,
                    send_marker,
                    site,
                    mode,
                })
            }
            TaskOp::Recv { src, tag, site } => {
                // The RecvPost trap fires *before* the receive is
                // submitted: a stop there leaves the rank runnable, not
                // parked in the mailbox wait.
                let t_post = self.clock;
                let rec = TraceRecord::basic(rank, EventKind::RecvPost, 0, t_post)
                    .with_site(site)
                    .with_args(
                        src.map(|r| r.0 as i64).unwrap_or(-1),
                        tag.map(|t| t.0 as i64).unwrap_or(-1),
                    );
                self.after_observe(
                    env,
                    rec,
                    Then::SubmitRecv {
                        src,
                        tag,
                        t_post,
                        site,
                    },
                )
            }
            TaskOp::Collective {
                kind,
                root,
                payload,
                op,
                site,
            } => {
                let t_enter = self.clock;
                self.waiting = Await::CollDone {
                    kind,
                    root,
                    site,
                    t_enter,
                };
                Err(Request::Collective {
                    kind,
                    root,
                    payload,
                    op,
                    t_enter,
                })
            }
            TaskOp::SetTracing(on) => {
                env.recorder.set_tracing_enabled(on);
                Ok(Then::Advance(OpResult::None))
            }
            TaskOp::Done => {
                let rec = TraceRecord::basic(rank, EventKind::ProcEnd, 0, self.clock);
                self.after_observe(env, rec, Then::SubmitFinished)
            }
        }
    }
}

#[cfg(test)]
mod prop_interp;

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Default)]
    struct St {
        i: i64,
        log: Vec<i64>,
    }

    fn dummy_view_run(prog: Prog<St>) -> Vec<i64> {
        let sites = SiteTable::new();
        let view = TaskView {
            rank: Rank(0),
            n_ranks: 1,
            sites: &sites,
        };
        let mut interp = TaskInterp::new(St::default(), prog);
        loop {
            match interp.next(OpResult::None, &view) {
                TaskOp::Done => break,
                TaskOp::Nop => {}
                _ => panic!("pure-control program yielded an op"),
            }
        }
        interp.state.log
    }

    #[test]
    fn seq_and_for_run_in_order() {
        let prog = Prog::seq(vec![
            Prog::act(|s: &mut St, _| s.log.push(-1)),
            Prog::for_range(
                |_, _| (0, 3),
                |s, i| s.i = i,
                Prog::act(|s: &mut St, _| s.log.push(s.i)),
            ),
            Prog::act(|s: &mut St, _| s.log.push(-2)),
        ]);
        assert_eq!(dummy_view_run(prog), vec![-1, 0, 1, 2, -2]);
    }

    #[test]
    fn while_and_if_branch() {
        let prog = Prog::seq(vec![Prog::while_loop(
            |s: &St, _| s.i < 4,
            Prog::seq(vec![
                Prog::if_else(
                    |s: &St, _| s.i % 2 == 0,
                    Prog::act(|s: &mut St, _| s.log.push(s.i * 10)),
                    Prog::act(|s: &mut St, _| s.log.push(s.i)),
                ),
                Prog::act(|s: &mut St, _| s.i += 1),
            ]),
        )]);
        assert_eq!(dummy_view_run(prog), vec![0, 1, 20, 3]);
    }

    #[test]
    fn gen_recursion_descends() {
        // Countdown via runtime-generated subtrees.
        fn countdown() -> Prog<St> {
            Prog::gen(|s: &mut St, _| {
                if s.i <= 0 {
                    Prog::seq(vec![])
                } else {
                    Prog::seq(vec![
                        Prog::act(|s: &mut St, _| {
                            s.log.push(s.i);
                            s.i -= 1;
                        }),
                        countdown(),
                    ])
                }
            })
        }
        let prog = Prog::seq(vec![Prog::act(|s: &mut St, _| s.i = 3), countdown()]);
        assert_eq!(dummy_view_run(prog), vec![3, 2, 1]);
    }

    #[test]
    fn interp_snapshot_resumes_independently() {
        let sites = SiteTable::new();
        let view = TaskView {
            rank: Rank(0),
            n_ranks: 1,
            sites: &sites,
        };
        let prog = Prog::for_range(
            |_, _| (0, 5),
            |s, i| s.i = i,
            Prog::seq(vec![
                Prog::act(|s: &mut St, _| s.log.push(s.i)),
                Prog::op(|s: &mut St, _| TaskOp::Compute {
                    cost_ns: s.i as u64,
                    site: SiteId(0),
                }),
            ]),
        );
        let mut a = TaskInterp::new(St::default(), prog);
        // Run two yields, snapshot, then check both copies agree forever.
        a.next(OpResult::None, &view);
        a.next(OpResult::None, &view);
        let mut b_box = a.snapshot();
        loop {
            let va = a.next(OpResult::None, &view);
            let vb = b_box.next(OpResult::None, &view);
            match (&va, &vb) {
                (TaskOp::Done, TaskOp::Done) => break,
                (TaskOp::Compute { cost_ns: ca, .. }, TaskOp::Compute { cost_ns: cb, .. }) => {
                    assert_eq!(ca, cb)
                }
                _ => panic!("snapshot diverged from original"),
            }
        }
        assert_eq!(a.state.log, vec![0, 1, 2, 3, 4]);
    }
}
