//! The static communication graph: every send/recv/barrier site each rank
//! can reach, with peer values abstracted into a small lattice.
//!
//! One abstract walk serves every static consumer. It executes `main` as
//! one rank, evaluating expressions with the interpreter's own
//! [`Scope`](tracedbg_workloads::script::Scope) over the variables it can
//! track, and hands each communication statement it reaches — in program
//! order, with the peer value it evaluated — to a visitor: the site joiner
//! below, the linter's per-rank operation sequence, the first-communication
//! scan (a visitor that stops every path at its first visit). Environment
//! facts are must-facts — a variable is in the environment only while it
//! is known to hold one value on every path reaching a statement — which
//! is what makes pruning a decidable branch sound. Loops with unknown or
//! oversized bounds are iterated to an *environment fixpoint* (variables
//! assigned in the body drop out) instead of being walked once, so a value
//! that changes across iterations can never masquerade as a constant peer.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::ops::ControlFlow;
use tracedbg_workloads::script::{Expr, Scope, Script, Stmt, StmtKind};

const STEP_CAP: usize = 100_000;
const LOOP_CAP: i64 = 4096;
const DEPTH_CAP: usize = 32;
/// Peer sets wider than this collapse to ⊤.
const PEERS_CAP: usize = 64;
/// Widening converges in at most one step per body-assigned variable; this
/// cap is a safety net, and tripping it degrades to `complete = false`.
const WIDEN_CAP: usize = 24;

/// A lattice over i64 values: either a finite set or ⊤ (any value).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Peers {
    /// ⊤ — any value is possible (wildcards, untracked expressions).
    Top,
    /// A finite set of possible values.
    Set(BTreeSet<i64>),
}

impl Peers {
    pub fn empty() -> Self {
        Peers::Set(BTreeSet::new())
    }

    pub fn is_top(&self) -> bool {
        matches!(self, Peers::Top)
    }

    /// Join one abstract value into the set; `None` (untracked) is ⊤.
    pub fn join_value(&mut self, v: Option<i64>) {
        match (&mut *self, v) {
            (Peers::Top, _) => {}
            (_, None) => *self = Peers::Top,
            (Peers::Set(set), Some(v)) => {
                set.insert(v);
                if set.len() > PEERS_CAP {
                    *self = Peers::Top;
                }
            }
        }
    }

    pub fn contains(&self, v: i64) -> bool {
        match self {
            Peers::Top => true,
            Peers::Set(set) => set.contains(&v),
        }
    }

    /// Render for reports: `*` for ⊤, else a comma-joined value list.
    pub fn render(&self) -> String {
        match self {
            Peers::Top => "*".to_string(),
            Peers::Set(set) => set
                .iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join(","),
        }
    }
}

/// The abstract operation performed at one source site.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SiteOp {
    Send {
        dst: Peers,
        tag: i32,
    },
    Recv {
        src: Peers,
        tag: Option<i32>,
        /// True for a syntactic `recv from any`.
        wildcard: bool,
    },
    Barrier,
}

impl SiteOp {
    pub fn kind(&self) -> &'static str {
        match self {
            SiteOp::Send { .. } => "send",
            SiteOp::Recv { .. } => "recv",
            SiteOp::Barrier => "barrier",
        }
    }
}

/// One communication site: a (rank, source line) pair with joined lattice
/// values over every abstract visit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CommSite {
    pub rank: usize,
    pub line: u32,
    pub func: String,
    pub op: SiteOp,
}

/// Which sites can be a rank's *first* communication operation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RankEntry {
    /// Candidate first-communication lines (an over-approximation).
    pub lines: Vec<u32>,
    /// True when every execution path provably reaches a communication
    /// operation and `lines` covers all candidates. Only `certain` entries
    /// feed the static-deadlock fixpoint.
    pub certain: bool,
}

/// The per-configuration static communication graph.
#[derive(Clone, Debug)]
pub struct CommGraph {
    pub nprocs: usize,
    pub file: String,
    /// All sites, sorted by (rank, line).
    pub sites: Vec<CommSite>,
    /// True when the walk covered every reachable site (no step/depth cap
    /// hit, widening converged). May-match soundness requires only this.
    pub complete: bool,
    /// True when every value was additionally tracked exactly.
    pub exact: bool,
    /// Per-rank first-communication analysis.
    pub entry: Vec<RankEntry>,
    index: HashMap<(usize, u32), usize>,
}

impl CommGraph {
    pub fn build(script: &Script, nprocs: usize, file: &str) -> Self {
        Self::build_with(script, nprocs, file, |_, _| {})
    }

    /// [`build`](Self::build), additionally handing `tap` every
    /// communication statement the graph's walk visits as `(rank, visit)`:
    /// rank by rank, each rank's visits in program order.
    pub fn build_with<'s>(
        script: &'s Script,
        nprocs: usize,
        file: &str,
        mut tap: impl FnMut(usize, Visit<'s>),
    ) -> Self {
        let mut sites = Vec::new();
        let mut complete = true;
        let mut exact = true;
        let mut entry = Vec::with_capacity(nprocs);
        for rank in 0..nprocs {
            let mut joined = BTreeMap::new();
            let all = walk_main(script, rank, nprocs, |v| {
                join_site(&mut joined, rank, &v);
                tap(rank, v);
                ControlFlow::Continue(())
            });
            complete &= all.complete;
            exact &= all.exact;
            sites.extend(joined.into_values());

            // The rank's first communication: stop every path where it
            // first communicates.
            let mut lines = BTreeSet::new();
            let first = walk_main(script, rank, nprocs, |v| {
                lines.insert(v.line);
                ControlFlow::Break(())
            });
            entry.push(RankEntry {
                lines: lines.into_iter().collect(),
                certain: first.stopped && first.complete && !first.aborts,
            });
        }
        let index = sites
            .iter()
            .enumerate()
            .map(|(i, s)| ((s.rank, s.line), i))
            .collect();
        CommGraph {
            nprocs,
            file: file.to_string(),
            sites,
            complete,
            exact,
            entry,
            index,
        }
    }

    /// Index of the site at (rank, line), if the analysis saw one.
    pub fn site_at(&self, rank: usize, line: u32) -> Option<usize> {
        self.index.get(&(rank, line)).copied()
    }
}

/// Join one visit into its (rank, line) site: a line revisited by a later
/// loop iteration or another path widens the site's peer set.
fn join_site(sites: &mut BTreeMap<u32, CommSite>, rank: usize, v: &Visit<'_>) {
    let site = sites.entry(v.line).or_insert_with(|| CommSite {
        rank,
        line: v.line,
        func: v.func.to_string(),
        op: match v.op {
            VisitOp::Send { tag, .. } => SiteOp::Send {
                dst: Peers::empty(),
                tag,
            },
            VisitOp::Recv { src, tag } => SiteOp::Recv {
                src: Peers::empty(),
                tag,
                wildcard: src == Src::Any,
            },
            VisitOp::Barrier => SiteOp::Barrier,
        },
    });
    match (&mut site.op, v.op) {
        (SiteOp::Send { dst, .. }, VisitOp::Send { dst: peer, .. }) => dst.join_value(peer),
        (SiteOp::Recv { src, .. }, VisitOp::Recv { src: peer, .. }) => src.join_value(match peer {
            Src::Known(r) => Some(r),
            Src::Any | Src::Unknown => None,
        }),
        _ => {}
    }
}

// ------------------------------------------------ abstract interpretation

/// One communication statement as the abstract walk reached it.
#[derive(Clone, Copy, Debug)]
pub struct Visit<'s> {
    pub line: u32,
    pub func: &'s str,
    pub op: VisitOp,
}

/// What a visited statement does, with the peer as the walk evaluated it.
#[derive(Clone, Copy, Debug)]
pub enum VisitOp {
    /// `dst` is `None` when the walk could not track the expression.
    Send {
        dst: Option<i64>,
        tag: i32,
    },
    Recv {
        src: Src,
        tag: Option<i32>,
    },
    Barrier,
}

/// The source a visited receive names.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Src {
    /// `recv from any` — matches any sender.
    Any,
    Known(i64),
    /// An expression the walk could not track.
    Unknown,
}

/// The variables known to hold one value on every path reaching a
/// statement; anything absent is unknown.
type Env = HashMap<String, i64>;

/// Join the environments of two paths: only facts both agree on survive.
fn merge_env(a: &Env, b: &Env) -> Env {
    a.iter()
        .filter(|(k, v)| b.get(*k) == Some(v))
        .map(|(k, v)| (k.clone(), *v))
        .collect()
}

/// What a walk of `main` established besides its visits.
struct Walked {
    /// The visitor stopped every path.
    stopped: bool,
    /// Every reachable statement was covered: no step/depth cap hit,
    /// widening converged.
    complete: bool,
    /// Additionally every value was tracked exactly: no unknown peer,
    /// undecidable branch or widened loop.
    exact: bool,
    /// Some path reached a `call` of a function the script does not
    /// define, where the runtime aborts the rank; the walk steps over it,
    /// so what it visits past that point over-approximates.
    aborts: bool,
}

#[cfg(test)]
thread_local! {
    /// Walks of `main` started on this thread.
    static WALKS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Walk `main` as `rank` of `nprocs`. `visit` sees every communication
/// statement in program order and may stop the path it is on; paths it
/// stops feed nothing into the environment of what follows them.
fn walk_main<'s>(
    script: &'s Script,
    rank: usize,
    nprocs: usize,
    visit: impl FnMut(Visit<'s>) -> ControlFlow<()>,
) -> Walked {
    #[cfg(test)]
    WALKS.with(|w| w.set(w.get() + 1));
    let mut w = Walker {
        script,
        rank,
        nprocs,
        visit,
        complete: true,
        exact: true,
        aborts: false,
        steps: 0,
    };
    let stopped = match script.functions.get("main") {
        Some(main) => w.walk("main", main, &mut Env::new(), 0).is_break(),
        None => false,
    };
    Walked {
        stopped,
        complete: w.complete,
        exact: w.exact,
        aborts: w.aborts,
    }
}

struct Walker<'s, V> {
    script: &'s Script,
    rank: usize,
    nprocs: usize,
    visit: V,
    complete: bool,
    exact: bool,
    aborts: bool,
    steps: usize,
}

impl<'s, V: FnMut(Visit<'s>) -> ControlFlow<()>> Walker<'s, V> {
    /// This rank's view of `env`; "no value" (an untracked variable, a
    /// zero divisor) is all the walk needs to know of the reason.
    fn scope<'e>(&self, env: &'e Env) -> Scope<impl Fn(&str) -> Option<i64> + 'e> {
        Scope {
            rank: self.rank,
            nprocs: self.nprocs,
            var: move |v: &str| env.get(v).copied(),
        }
    }

    fn eval(&self, env: &Env, e: &Expr) -> Option<i64> {
        self.scope(env).eval(e).ok()
    }

    /// A peer expression; one the walk cannot track costs exactness.
    fn peer(&mut self, env: &Env, e: &Expr) -> Option<i64> {
        let v = self.eval(env, e);
        self.exact &= v.is_some();
        v
    }

    /// `Break` when the visitor stopped every path through `stmts`.
    fn walk(
        &mut self,
        func: &'s str,
        stmts: &'s [Stmt],
        env: &mut Env,
        depth: usize,
    ) -> ControlFlow<()> {
        for s in stmts {
            self.steps += 1;
            if self.steps > STEP_CAP {
                self.complete = false;
                self.exact = false;
                return ControlFlow::Continue(());
            }
            let line = s.line;
            match &s.kind {
                StmtKind::Let { var, value } => {
                    match self.eval(env, value) {
                        Some(v) => env.insert(var.clone(), v),
                        None => env.remove(var),
                    };
                }
                StmtKind::Compute { .. } | StmtKind::Trace { .. } => {}
                StmtKind::Send { dst, tag, .. } => {
                    let op = VisitOp::Send {
                        dst: self.peer(env, dst),
                        tag: *tag,
                    };
                    (self.visit)(Visit { line, func, op })?;
                }
                StmtKind::Recv {
                    src,
                    tag,
                    var,
                    src_var,
                } => {
                    let src = match src {
                        None => Src::Any,
                        Some(e) => self.peer(env, e).map_or(Src::Unknown, Src::Known),
                    };
                    let op = VisitOp::Recv { src, tag: *tag };
                    (self.visit)(Visit { line, func, op })?;
                    // The payload and the observed sender are data-dependent.
                    env.remove(var);
                    env.remove(src_var);
                }
                StmtKind::Barrier => {
                    let op = VisitOp::Barrier;
                    (self.visit)(Visit { line, func, op })?;
                }
                StmtKind::Call { func: callee } => {
                    if depth >= DEPTH_CAP {
                        // The callee's sites are not collected.
                        self.complete = false;
                        self.exact = false;
                        continue;
                    }
                    match self.script.functions.get(callee.as_str()) {
                        Some(body) => self.walk(callee, body, env, depth + 1)?,
                        None => self.aborts = true,
                    }
                }
                StmtKind::Loop {
                    var,
                    from,
                    to,
                    body,
                } => {
                    match (self.eval(env, from), self.eval(env, to)) {
                        (Some(lo), Some(hi)) if hi as i128 - lo as i128 <= LOOP_CAP as i128 => {
                            for i in lo..hi {
                                env.insert(var.clone(), i);
                                self.walk(func, body, env, depth)?;
                                if self.steps > STEP_CAP {
                                    return ControlFlow::Continue(());
                                }
                            }
                        }
                        _ => {
                            // Unknown or oversized bounds: drop the
                            // variables the body assigns until the
                            // environment is a fixpoint, so the last pass
                            // joins every site under an environment that
                            // over-approximates all iterations. The loop
                            // may run zero times, so it never stops a
                            // path, and an iteration the visitor stopped
                            // feeds no next one.
                            self.exact = false;
                            let mut cur = env.clone();
                            cur.remove(var);
                            let mut converged = false;
                            for _ in 0..WIDEN_CAP {
                                let mut probe = cur.clone();
                                if self.walk(func, body, &mut probe, depth).is_break() {
                                    probe = cur.clone();
                                }
                                if self.steps > STEP_CAP {
                                    return ControlFlow::Continue(());
                                }
                                let widened = merge_env(&cur, &probe);
                                if widened == cur {
                                    converged = true;
                                    break;
                                }
                                cur = widened;
                            }
                            self.complete &= converged;
                            *env = merge_env(env, &cur);
                        }
                    }
                }
                StmtKind::If { cond, then, els } => {
                    let decided = self.scope(env).test(cond).ok();
                    match decided {
                        Some(true) => self.walk(func, then, env, depth)?,
                        Some(false) => self.walk(func, els, env, depth)?,
                        None => {
                            self.exact = false;
                            let (mut then_env, mut els_env) = (env.clone(), env.clone());
                            let t = self.walk(func, then, &mut then_env, depth);
                            let e = self.walk(func, els, &mut els_env, depth);
                            // Only a branch that falls through feeds what
                            // follows.
                            *env = match (t.is_break(), e.is_break()) {
                                (true, true) => return ControlFlow::Break(()),
                                (true, false) => els_env,
                                (false, true) => then_env,
                                (false, false) => merge_env(&then_env, &els_env),
                            };
                        }
                    }
                }
            }
        }
        ControlFlow::Continue(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tracedbg_workloads::script::parse;

    fn graph(src: &str, nprocs: usize) -> CommGraph {
        CommGraph::build(&parse(src).expect("parse"), nprocs, "test.sdl")
    }

    #[test]
    fn collects_sites_with_known_peers() {
        let g = graph(
            "fn main\n  if rank == 0\n    send 1 tag 5 7\n  else\n    recv from 0 tag 5 into x\n  end\nend\n",
            2,
        );
        assert!(g.complete && g.exact);
        assert_eq!(g.sites.len(), 2);
        let send = &g.sites[g.site_at(0, 3).unwrap()];
        match &send.op {
            SiteOp::Send { dst, tag } => {
                assert_eq!(*tag, 5);
                assert!(dst.contains(1) && !dst.contains(0));
            }
            other => panic!("expected send, got {other:?}"),
        }
    }

    #[test]
    fn loop_carried_values_widen_to_top() {
        // `x` changes every iteration of a loop with unknown bounds; a
        // single-pass walker would report dst = {1}, which is unsound.
        let src = "fn main\n  recv from any tag 1 into n\n  let x = 1\n  loop i 0 n\n    send x tag 2 0\n    let x = x + 1\n  end\nend\n";
        let g = graph(src, 4);
        assert!(g.complete);
        assert!(!g.exact);
        let send = &g.sites[g.site_at(0, 5).unwrap()];
        match &send.op {
            SiteOp::Send { dst, .. } => assert!(dst.is_top(), "got {dst:?}"),
            other => panic!("expected send, got {other:?}"),
        }
    }

    #[test]
    fn enumerable_loops_stay_exact() {
        let g = graph("fn main\n  loop i 0 3\n    send i tag 9 0\n  end\nend\n", 4);
        assert!(g.complete && g.exact);
        let send = &g.sites[g.site_at(0, 3).unwrap()];
        match &send.op {
            SiteOp::Send { dst, .. } => {
                assert!(dst.contains(0) && dst.contains(1) && dst.contains(2));
                assert!(!dst.contains(3));
            }
            other => panic!("expected send, got {other:?}"),
        }
    }

    #[test]
    fn entry_analysis_tracks_first_comm() {
        let g = graph(
            "fn main\n  if rank == 0\n    send 1 tag 5 7\n  else\n    recv from 0 tag 5 into x\n  end\nend\n",
            2,
        );
        assert!(g.entry[0].certain && g.entry[1].certain);
        assert_eq!(g.entry[0].lines, vec![3]);
        assert_eq!(g.entry[1].lines, vec![5]);
    }

    #[test]
    fn entry_is_uncertain_when_a_path_skips_comm() {
        // rank 1's recv is guarded by a data-dependent condition.
        let src = "fn main\n  if rank == 0\n    send 1 tag 5 7\n    recv from 1 tag 6 into a\n  else\n    recv from 0 tag 5 into x\n    if x < 3\n      send 0 tag 6 1\n    end\n  end\nend\n";
        let g = graph(src, 2);
        assert!(g.entry[0].certain);
        // First comm of rank 1 is still certain (the unconditional recv)…
        assert!(g.entry[1].certain);
        assert_eq!(g.entry[1].lines, vec![6]);
    }

    #[test]
    fn unknown_loop_entries_fall_through() {
        let src = "fn main\n  recv from any tag 1 into n\n  loop i 0 n\n    barrier\n  end\nend\n";
        let g = graph(src, 2);
        // First comm is the unconditional recv; certain.
        assert!(g.entry[0].certain);
        assert_eq!(g.entry[0].lines, vec![2]);
    }

    /// `tests/golden/scripts/<name>.script`: one script per answer the
    /// static copies of the semantics used to get wrong.
    fn fixture(name: &str, nprocs: usize) -> CommGraph {
        let path = format!(
            "{}/../../tests/golden/scripts/{name}.script",
            env!("CARGO_MANIFEST_DIR")
        );
        graph(
            &std::fs::read_to_string(path).expect("fixture script"),
            nprocs,
        )
    }

    fn peers_at(g: &CommGraph, rank: usize, line: u32) -> String {
        match &g.sites[g.site_at(rank, line).expect("site")].op {
            SiteOp::Send { dst: peers, .. } | SiteOp::Recv { src: peers, .. } => peers.render(),
            SiteOp::Barrier => unreachable!("no fixture has a barrier"),
        }
    }

    #[test]
    fn modulo_truncates_like_the_runtime() {
        // `( rank - 1 ) % nprocs` on rank 0 is -1: what `run` dies of.
        let g = fixture("left-neighbour", 4);
        assert!(g.complete && g.exact);
        assert_eq!(peers_at(&g, 0, 8), "-1");
        assert_eq!(peers_at(&g, 1, 8), "0");
    }

    #[test]
    fn a_receive_rebinds_its_status_variable() {
        let g = fixture("status-src", 2);
        assert_eq!(peers_at(&g, 0, 7), "*", "`v_src` is the sender, not 9");
    }

    #[test]
    fn a_trip_count_past_64_bits_is_widened_not_overflowed() {
        let g = fixture("wide-loop", 2);
        assert!(g.complete && !g.exact);
        assert_eq!(peers_at(&g, 0, 8), "0");
        assert_eq!(peers_at(&g, 0, 9), "0");
    }

    #[test]
    fn builtins_win_over_bindings() {
        // `let rank = 0` binds a variable nothing can read.
        let g = fixture("shadowed-rank", 3);
        assert!(g.complete && g.exact);
        assert_eq!(peers_at(&g, 1, 9), "1");
        assert_eq!(peers_at(&g, 2, 9), "2");
    }

    #[test]
    fn a_build_walks_each_rank_once_for_sites_and_once_for_entry() {
        let script = parse(
            "fn main\n  loop i 0 3\n    send i tag 9 0\n  end\n  recv from any tag 9 into x\nend\n",
        )
        .unwrap();
        let before = WALKS.get();
        let mut visits = vec![0; 4];
        let g = CommGraph::build_with(&script, 4, "test.sdl", |rank, _| visits[rank] += 1);
        assert_eq!(WALKS.get() - before, 2 * 4);
        // The tap sees the site walk only: the entry walk stops at line 3.
        assert_eq!(visits, vec![4; 4]);
        assert_eq!(g.entry[0].lines, vec![3]);
    }

    #[test]
    fn peers_lattice_joins_and_caps() {
        let mut p = Peers::empty();
        p.join_value(Some(3));
        p.join_value(Some(5));
        assert!(p.contains(3) && p.contains(5) && !p.contains(4));
        assert_eq!(p.render(), "3,5");
        p.join_value(None);
        assert!(p.is_top() && p.contains(i64::MIN));
        assert_eq!(p.render(), "*");
    }
}
