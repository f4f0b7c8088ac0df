//! Static communication analysis over workload scripts.
//!
//! Whole-program reasoning over the script DSL, and the one abstract walk
//! of it (`graph`; the script lints consume its visits rather than walk
//! themselves): a per-rank communication graph with peer/tag lattice
//! values, a sound may-match over-approximation of every dynamic send/recv
//! match, and rank-level independence facts the explorer's sleep sets
//! consume to skip interleavings that only permute commuting decisions
//! (see DESIGN.md §11).

pub mod graph;
pub mod independence;

pub use graph::{CommGraph, CommSite, Peers, RankEntry, SiteOp, Src, Visit, VisitOp};
pub use independence::{IndependenceFacts, MayMatch};

use serde::Serialize;
use std::fmt::Write as _;
use tracedbg_workloads::script::Script;

/// The full analysis result for one (script, nprocs) configuration.
#[derive(Clone, Debug)]
pub struct Analysis {
    pub graph: CommGraph,
    pub may_match: MayMatch,
    pub independence: IndependenceFacts,
}

/// Analyze a script as executed SPMD by `nprocs` ranks. `file` labels the
/// sites, and must equal the file string the engine's site table records
/// for trace-side consumers to correlate.
pub fn analyze(script: &Script, nprocs: usize, file: &str) -> Analysis {
    CommGraph::build(script, nprocs, file).into()
}

/// Everything derived from a communication graph.
impl From<CommGraph> for Analysis {
    fn from(graph: CommGraph) -> Self {
        let may_match = MayMatch::build(&graph);
        let independence = IndependenceFacts::build(&graph, &may_match);
        Analysis {
            graph,
            may_match,
            independence,
        }
    }
}

impl Analysis {
    /// Can a send at (send_rank, send_line) ever match a recv at
    /// (recv_rank, recv_line)? Unknown sites answer `false`.
    pub fn may_match_lines(
        &self,
        send_rank: usize,
        send_line: u32,
        recv_rank: usize,
        recv_line: u32,
    ) -> bool {
        match (
            self.graph.site_at(send_rank, send_line),
            self.graph.site_at(recv_rank, recv_line),
        ) {
            (Some(si), Some(ri)) => self.may_match.contains(si, ri),
            _ => false,
        }
    }

    /// Ranks provably deadlocked at startup: a non-empty set B where every
    /// rank in B must receive before it can do anything else, and every
    /// possible sender for each of those receives is itself in B. Sound —
    /// only `certain` entry analyses over a `complete` graph participate.
    pub fn deadlocked_ranks(&self) -> Vec<usize> {
        let g = &self.graph;
        if !g.complete {
            return Vec::new();
        }
        // Blocked until shown otherwise: the ranks that certainly begin
        // with a receive. `waiters[s]` are those with an entry receive
        // that rank `s` may feed.
        let mut blocked = vec![false; g.nprocs];
        let mut waiters = vec![Vec::new(); g.nprocs];
        for (r, e) in g.entry.iter().enumerate() {
            if !e.certain || e.lines.is_empty() {
                continue;
            }
            let recv_at = |&line: &u32| {
                g.site_at(r, line)
                    .filter(|&i| matches!(g.sites[i].op, SiteOp::Recv { .. }))
            };
            let Some(recvs) = e.lines.iter().map(recv_at).collect::<Option<Vec<usize>>>() else {
                continue;
            };
            blocked[r] = true;
            for senders in recvs
                .iter()
                .filter_map(|i| self.may_match.recv_senders.get(i))
            {
                for &s in senders {
                    waiters[s].push(r);
                }
            }
        }
        // A rank that can run unblocks every rank it may feed, and so on;
        // a receive nobody feeds never unblocks its rank.
        let mut runnable: Vec<usize> = (0..g.nprocs).filter(|&r| !blocked[r]).collect();
        while let Some(s) = runnable.pop() {
            for &r in &waiters[s] {
                if std::mem::take(&mut blocked[r]) {
                    runnable.push(r);
                }
            }
        }
        (0..g.nprocs).filter(|&r| blocked[r]).collect()
    }

    /// Ranks whose send sites may feed the recv site at `recv_idx`.
    pub fn senders_of(&self, recv_idx: usize) -> Vec<usize> {
        self.may_match
            .recv_senders
            .get(&recv_idx)
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default()
    }

    pub fn to_json(&self, workload: &str) -> String {
        #[derive(Serialize)]
        struct SiteJson {
            rank: usize,
            line: u32,
            func: String,
            op: &'static str,
            peers: String,
            tag: Option<i32>,
            wildcard: bool,
            partners: usize,
        }
        #[derive(Serialize)]
        struct PairJson {
            send_rank: usize,
            send_line: u32,
            recv_rank: usize,
            recv_line: u32,
        }
        #[derive(Serialize)]
        struct RankPair {
            a: usize,
            b: usize,
        }
        #[derive(Serialize)]
        struct EntryJson {
            rank: usize,
            lines: Vec<u32>,
            certain: bool,
        }
        #[derive(Serialize)]
        struct Report {
            workload: String,
            file: String,
            nprocs: usize,
            complete: bool,
            exact: bool,
            sites: Vec<SiteJson>,
            may_match: Vec<PairJson>,
            independent_rank_pairs: Vec<RankPair>,
            independence_pairs: u64,
            wildcard_sites: usize,
            entry: Vec<EntryJson>,
            deadlocked_ranks: Vec<usize>,
        }
        let sites: Vec<SiteJson> = self
            .graph
            .sites
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let (peers, tag, wildcard) = match &s.op {
                    SiteOp::Send { dst, tag } => (dst.render(), Some(*tag), false),
                    SiteOp::Recv { src, tag, wildcard } => (src.render(), *tag, *wildcard),
                    SiteOp::Barrier => (String::new(), None, false),
                };
                SiteJson {
                    rank: s.rank,
                    line: s.line,
                    func: s.func.clone(),
                    op: s.op.kind(),
                    peers,
                    tag,
                    wildcard,
                    partners: self.may_match.partners[i],
                }
            })
            .collect();
        let wildcard_sites = self
            .graph
            .sites
            .iter()
            .filter(|s| matches!(s.op, SiteOp::Recv { wildcard: true, .. }))
            .count();
        let report = Report {
            workload: workload.to_string(),
            file: self.graph.file.clone(),
            nprocs: self.graph.nprocs,
            complete: self.graph.complete,
            exact: self.graph.exact,
            sites,
            may_match: self
                .may_match
                .pairs
                .iter()
                .map(|&(si, ri)| PairJson {
                    send_rank: self.graph.sites[si].rank,
                    send_line: self.graph.sites[si].line,
                    recv_rank: self.graph.sites[ri].rank,
                    recv_line: self.graph.sites[ri].line,
                })
                .collect(),
            independent_rank_pairs: self
                .independence
                .pairs()
                .into_iter()
                .map(|(a, b)| RankPair { a, b })
                .collect(),
            independence_pairs: self.independence.pair_count(),
            wildcard_sites,
            entry: self
                .graph
                .entry
                .iter()
                .enumerate()
                .map(|(rank, e)| EntryJson {
                    rank,
                    lines: e.lines.clone(),
                    certain: e.certain,
                })
                .collect(),
            deadlocked_ranks: self.deadlocked_ranks(),
        };
        serde_json::to_string(&report).expect("analysis report serializes")
    }

    /// Human rendering of a static analysis: the communication graph with
    /// lattice values, then the derived facts the other consumers use.
    pub fn render(&self, workload: &str) -> String {
        let mut out = String::new();
        let g = &self.graph;
        out.push_str(&format!(
            "static analysis of {workload} ({} procs, graph {}, values {})\n",
            g.nprocs,
            if g.complete { "complete" } else { "partial" },
            if g.exact { "exact" } else { "approximate" },
        ));
        out.push_str("--- communication sites ---\n");
        for (i, s) in g.sites.iter().enumerate() {
            let desc = match &s.op {
                SiteOp::Send { dst, tag } => format!("send -> {{{}}} tag {tag}", dst.render()),
                SiteOp::Recv { src, tag, wildcard } => {
                    let t = match tag {
                        Some(t) => format!(" tag {t}"),
                        None => " any tag".to_string(),
                    };
                    let w = if *wildcard { " (wildcard)" } else { "" };
                    format!("recv <- {{{}}}{t}{w}", src.render())
                }
                SiteOp::Barrier => "barrier".to_string(),
            };
            out.push_str(&format!(
                "rank {} {}:{} ({})  {desc}  [{} partner(s)]\n",
                s.rank, g.file, s.line, s.func, self.may_match.partners[i]
            ));
        }
        out.push_str(&format!(
            "--- may-match: {} send/recv pair(s) ---\n",
            self.may_match.pairs.len()
        ));
        let indep = self.independence.pairs();
        out.push_str(&format!(
            "independent rank pairs: {}\n",
            if indep.is_empty() {
                "none".to_string()
            } else {
                indep
                    .iter()
                    .map(|(x, y)| format!("({x},{y})"))
                    .collect::<Vec<_>>()
                    .join(" ")
            }
        ));
        let dead = self.deadlocked_ranks();
        if dead.is_empty() {
            out.push_str("static deadlock: none\n");
        } else {
            let set: Vec<String> = dead.iter().map(|r| r.to_string()).collect();
            out.push_str(&format!("static deadlock: rank(s) {}\n", set.join(", ")));
        }
        out
    }

    /// Graphviz rendering: one cluster per rank, sites as nodes, may-match
    /// pairs as edges.
    pub fn to_dot(&self, workload: &str) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "digraph may_match {{");
        let _ = writeln!(out, "  label=\"{workload}\";");
        let _ = writeln!(out, "  rankdir=LR;");
        for rank in 0..self.graph.nprocs {
            let _ = writeln!(out, "  subgraph cluster_rank{rank} {{");
            let _ = writeln!(out, "    label=\"rank {rank}\";");
            for (i, s) in self.graph.sites.iter().enumerate() {
                if s.rank != rank {
                    continue;
                }
                let desc = match &s.op {
                    SiteOp::Send { dst, tag } => {
                        format!("send→{} tag {tag}", dst.render())
                    }
                    SiteOp::Recv { src, tag, .. } => match tag {
                        Some(t) => format!("recv←{} tag {t}", src.render()),
                        None => format!("recv←{}", src.render()),
                    },
                    SiteOp::Barrier => "barrier".to_string(),
                };
                let _ = writeln!(out, "    s{i} [label=\"L{}: {desc}\"];", s.line);
            }
            let _ = writeln!(out, "  }}");
        }
        for &(si, ri) in &self.may_match.pairs {
            let _ = writeln!(out, "  s{si} -> s{ri};");
        }
        let _ = writeln!(out, "}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tracedbg_workloads::script::parse;

    fn run(src: &str, nprocs: usize) -> Analysis {
        analyze(&parse(src).expect("parse"), nprocs, "test.sdl")
    }

    /// Head-to-head: both ranks receive first, from each other.
    const DEADLOCKED: &str = "fn main\n  let peer = 1 - rank\n  recv from peer tag 1 into x\n  send peer tag 1 rank\nend\n";

    #[test]
    fn head_to_head_recvs_are_statically_deadlocked() {
        let a = run(DEADLOCKED, 2);
        assert_eq!(a.deadlocked_ranks(), vec![0, 1]);
    }

    #[test]
    fn ring_with_a_kickoff_send_is_not_deadlocked() {
        // Rank 0 sends first; everyone else receives first but rank 0's
        // send eventually feeds the chain.
        let src = "fn main\n  let nxt = ( rank + 1 ) % nprocs\n  let prv = ( rank + nprocs - 1 ) % nprocs\n  if rank == 0\n    send nxt tag 1 0\n    recv from prv tag 1 into x\n  else\n    recv from prv tag 1 into x\n    send nxt tag 1 x\n  end\nend\n";
        let a = run(src, 4);
        assert!(a.graph.complete && a.graph.exact);
        assert!(a.deadlocked_ranks().is_empty());
    }

    #[test]
    fn orphan_recv_with_no_sender_is_deadlocked() {
        let src = "fn main\n  if rank == 0\n    recv from 1 tag 9 into x\n  end\nend\n";
        let a = run(src, 2);
        assert_eq!(a.deadlocked_ranks(), vec![0]);
    }

    #[test]
    fn a_long_chain_of_entry_receives_unblocks_from_its_head() {
        // Every rank but 0 begins with a receive from its left neighbour;
        // rank 0 sends first, so nobody is deadlocked — at any width.
        let src = "fn main\n  if rank == 0\n    send 1 tag 1 0\n  else\n    recv from ( rank - 1 ) tag 1 into x\n    if rank < ( nprocs - 1 )\n      send ( rank + 1 ) tag 1 x\n    end\n  end\nend\n";
        assert!(run(src, 300).deadlocked_ranks().is_empty());
        // Cut the head off and the whole chain is.
        let headless = src.replace("send 1 tag 1 0", "compute 1");
        assert_eq!(
            run(&headless, 300).deadlocked_ranks(),
            (1..300).collect::<Vec<_>>()
        );
    }

    #[test]
    fn may_match_lines_answers_by_location() {
        let a = run(DEADLOCKED, 2);
        // send at line 4, recv at line 3, both directions.
        assert!(a.may_match_lines(0, 4, 1, 3));
        assert!(a.may_match_lines(1, 4, 0, 3));
        assert!(!a.may_match_lines(0, 3, 1, 4)); // recv is not a send
        assert!(!a.may_match_lines(0, 99, 1, 3)); // unknown site
    }

    #[test]
    fn json_report_has_schema_keys() {
        let a = run(DEADLOCKED, 2);
        let js = a.to_json("test");
        for key in [
            "\"workload\"",
            "\"file\"",
            "\"nprocs\"",
            "\"complete\"",
            "\"exact\"",
            "\"sites\"",
            "\"may_match\"",
            "\"independent_rank_pairs\"",
            "\"independence_pairs\"",
            "\"wildcard_sites\"",
            "\"entry\"",
            "\"deadlocked_ranks\"",
        ] {
            assert!(js.contains(key), "missing {key} in {js}");
        }
    }

    #[test]
    fn dot_report_renders_clusters_and_edges() {
        let a = run(DEADLOCKED, 2);
        let dot = a.to_dot("test");
        assert!(dot.starts_with("digraph may_match {"));
        assert!(dot.contains("cluster_rank0") && dot.contains("cluster_rank1"));
        assert!(dot.contains("->"));
    }
}
