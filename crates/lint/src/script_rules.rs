//! Pre-execution rules over workload scripts (`SDL...`).
//!
//! The rules interpret nothing themselves. `lint_script` has
//! `tracedbg-analysis` walk each rank's program once ([`ScriptCx`]) and the
//! rules read the two products of that walk: the per-rank sequence of
//! communication statements it visited, in program order with the peer
//! values it evaluated (`cx.ops`), and the whole-program analysis joined
//! from the same visits (`cx.analysis`: site graph, may-match relation,
//! entry receives). So tag typos, out-of-range ranks and guaranteed
//! deadlocks are reported before the engine ever runs, by the semantics
//! the engine runs.

use crate::diag::{Diagnostic, Loc, RuleId, Severity};
use crate::engine::{ScriptCx, ScriptRule};
use std::collections::{BTreeMap, BTreeSet};
use tracedbg_analysis::{Src, Visit, VisitOp};
use tracedbg_workloads::script::{Script, Stmt, StmtKind};

pub const UNDEFINED_CALL: RuleId = RuleId("SDL101");
pub const RANK_OUT_OF_BOUNDS: RuleId = RuleId("SDL102");
pub const GUARANTEED_DEADLOCK: RuleId = RuleId("SDL103");
pub const TAG_NEVER_SENT: RuleId = RuleId("SDL104");
pub const SELF_MESSAGE: RuleId = RuleId("SDL105");
pub const MISSING_MAIN: RuleId = RuleId("SDL106");
pub const STATIC_DEADLOCK: RuleId = RuleId("SDL107");
pub const UNMATCHED_SITE: RuleId = RuleId("SDL108");
pub const RACING_WILDCARD: RuleId = RuleId("SDL109");

/// All registered script rules.
pub fn all() -> Vec<Box<dyn ScriptRule>> {
    vec![
        Box::new(MissingMain),
        Box::new(UndefinedCall),
        Box::new(RankOutOfBounds),
        Box::new(GuaranteedDeadlock),
        Box::new(TagNeverSent),
        Box::new(SelfMessage),
        Box::new(StaticDeadlock),
        Box::new(UnmatchedSite),
        Box::new(RacingWildcard),
    ]
}

fn loc(cx: &ScriptCx<'_>, line: u32, func: &str) -> Loc {
    Loc {
        file: cx.file.to_string(),
        line,
        func: func.to_string(),
    }
}

// ------------------------------------------------------------------- rules

/// SDL106: the script never defines `main`.
struct MissingMain;

impl ScriptRule for MissingMain {
    fn id(&self) -> RuleId {
        MISSING_MAIN
    }
    fn severity(&self) -> Severity {
        Severity::Error
    }
    fn description(&self) -> &'static str {
        "the script defines no `main` function, so no rank runs anything"
    }
    fn check(&self, cx: &ScriptCx<'_>, out: &mut Vec<Diagnostic>) {
        if !cx.script.functions.contains_key("main") {
            out.push(
                Diagnostic::new(self.id(), self.severity(), "no `main` function defined")
                    .with_suggestion("add `fn main` — it is the entry point for every rank"),
            );
        }
    }
}

fn for_each_stmt<'s>(script: &'s Script, mut f: impl FnMut(&'s str, &'s Stmt)) {
    fn rec<'s>(func: &'s str, stmts: &'s [Stmt], f: &mut impl FnMut(&'s str, &'s Stmt)) {
        for s in stmts {
            f(func, s);
            match &s.kind {
                StmtKind::Loop { body, .. } => rec(func, body, f),
                StmtKind::If { then, els, .. } => {
                    rec(func, then, f);
                    rec(func, els, f);
                }
                _ => {}
            }
        }
    }
    for (name, body) in script.functions.iter() {
        rec(name, body, &mut f);
    }
}

/// SDL101: `call f` where no function `f` exists. The parser accepts it;
/// the engine only fails at runtime, on the rank that reaches the call.
struct UndefinedCall;

impl ScriptRule for UndefinedCall {
    fn id(&self) -> RuleId {
        UNDEFINED_CALL
    }
    fn severity(&self) -> Severity {
        Severity::Error
    }
    fn description(&self) -> &'static str {
        "a `call` names a function the script never defines"
    }
    fn check(&self, cx: &ScriptCx<'_>, out: &mut Vec<Diagnostic>) {
        let mut seen: BTreeSet<(u32, &str)> = BTreeSet::new();
        for_each_stmt(cx.script, |func, s| {
            if let StmtKind::Call { func: callee } = &s.kind {
                if !cx.script.functions.contains_key(callee.as_str())
                    && seen.insert((s.line, callee))
                {
                    let known: Vec<&str> = cx.script.functions.keys().map(|f| &**f).collect();
                    out.push(
                        Diagnostic::new(
                            self.id(),
                            self.severity(),
                            format!("call to undefined function `{callee}`"),
                        )
                        .with_loc(Loc {
                            file: cx.file.to_string(),
                            line: s.line,
                            func: func.to_string(),
                        })
                        .with_suggestion(format!("defined functions: {}", known.join(", "))),
                    );
                }
            }
        });
    }
}

/// SDL102: a send destination or receive source that provably falls
/// outside `0..nprocs` on some rank.
struct RankOutOfBounds;

impl ScriptRule for RankOutOfBounds {
    fn id(&self) -> RuleId {
        RANK_OUT_OF_BOUNDS
    }
    fn severity(&self) -> Severity {
        Severity::Error
    }
    fn description(&self) -> &'static str {
        "a send/receive names a rank outside 0..nprocs"
    }
    fn check(&self, cx: &ScriptCx<'_>, out: &mut Vec<Diagnostic>) {
        let n = cx.nprocs as i64;
        // Dedupe by (line, offending value); the same line trips on
        // every rank that executes it.
        let mut seen: BTreeSet<(u32, i64)> = BTreeSet::new();
        for (rank, ops) in cx.ops.iter().enumerate() {
            for op in ops {
                let (value, what) = match op.op {
                    VisitOp::Send { dst: Some(d), .. } if d < 0 || d >= n => (d, "send to"),
                    VisitOp::Recv {
                        src: Src::Known(s), ..
                    } if s < 0 || s >= n => (s, "receive from"),
                    _ => continue,
                };
                if seen.insert((op.line, value)) {
                    out.push(
                        Diagnostic::new(
                            self.id(),
                            self.severity(),
                            format!(
                                "rank {rank} would {what} rank {value}, but only ranks \
                                 0..{n} exist",
                            ),
                        )
                        .with_rank(rank as u32)
                        .with_loc(loc(cx, op.line, op.func))
                        .with_suggestion("clamp the expression or fix the rank arithmetic"),
                    );
                }
            }
        }
    }
}

/// SDL103: every rank provably blocks — the script cannot complete for
/// this `nprocs` no matter how the engine schedules it.
///
/// Sends are modeled as buffered (the engine's semantics), so the
/// guaranteed deadlocks are receive cycles, receives with no matching
/// send left, and barriers some rank never reaches. The visit sequences
/// are simulated only when the walk was exact (every value tracked, no
/// undecidable branch, no widened loop — then each visit is one operation
/// the rank performs) and no receive is a wildcard, so a report is never a
/// false alarm.
struct GuaranteedDeadlock;

impl GuaranteedDeadlock {
    /// Round by round, every rank in turn performs its next operation if
    /// it can; `None` when all finish, else where each unfinished rank is
    /// stuck. Only a rank that might move is tried — all of them at the
    /// start and after a barrier, then one that just moved or was just
    /// sent to — so a round costs its operations, not the rank count.
    fn simulate<'s>(per_rank: &[Vec<Visit<'s>>]) -> Option<Vec<(usize, Visit<'s>)>> {
        let nprocs = per_rank.len();
        let mut pos = vec![0usize; nprocs];
        let mut mail: BTreeMap<(i64, usize, i32), usize> = BTreeMap::new();
        let mut now: BTreeSet<usize> = (0..nprocs).collect();
        loop {
            // A barrier completes only when every rank is at one.
            if (0..nprocs).all(|r| {
                matches!(
                    per_rank[r].get(pos[r]).map(|op| op.op),
                    Some(VisitOp::Barrier)
                )
            }) {
                for p in &mut pos {
                    *p += 1;
                }
                now = (0..nprocs).collect();
                continue;
            }
            let mut next = BTreeSet::new();
            while let Some(r) = now.pop_first() {
                let moved = match per_rank[r].get(pos[r]).map(|op| op.op) {
                    Some(VisitOp::Send { dst: Some(d), tag }) => {
                        // Out-of-range destination: the message vanishes
                        // (SDL102 already reported the real problem).
                        if (0..nprocs as i64).contains(&d) {
                            let d = d as usize;
                            *mail.entry((r as i64, d, tag)).or_insert(0) += 1;
                            // `d`'s turn is later this round, or past.
                            if d > r { &mut now } else { &mut next }.insert(d);
                        }
                        true
                    }
                    Some(VisitOp::Recv {
                        src: Src::Known(s),
                        tag,
                    }) => {
                        // Any tag: the lowest one waiting on the channel.
                        let (lo, hi) = tag.map_or((i32::MIN, i32::MAX), |t| (t, t));
                        let mut channel = mail.range_mut((s, r, lo)..=(s, r, hi));
                        match channel.find(|(_, count)| **count > 0) {
                            Some((_, count)) => {
                                *count -= 1;
                                true
                            }
                            None => false,
                        }
                    }
                    // Wildcard/unknown receives never reach the simulator
                    // (the rule bails out below), sends with unknown
                    // destinations likewise.
                    _ => false,
                };
                if moved {
                    pos[r] += 1;
                    next.insert(r);
                }
            }
            if next.is_empty() {
                if (0..nprocs).all(|r| pos[r] >= per_rank[r].len()) {
                    return None; // everyone finished
                }
                return Some(
                    (0..nprocs)
                        .filter_map(|r| per_rank[r].get(pos[r]).map(|&op| (r, op)))
                        .collect(),
                );
            }
            now = next;
        }
    }
}

impl ScriptRule for GuaranteedDeadlock {
    fn id(&self) -> RuleId {
        GUARANTEED_DEADLOCK
    }
    fn severity(&self) -> Severity {
        Severity::Error
    }
    fn description(&self) -> &'static str {
        "the script deadlocks for this nprocs under every schedule"
    }
    fn check(&self, cx: &ScriptCx<'_>, out: &mut Vec<Diagnostic>) {
        let wildcard = |op: &Visit<'_>| matches!(op.op, VisitOp::Recv { src: Src::Any, .. });
        if !cx.analysis.graph.exact || cx.ops.iter().flatten().any(wildcard) {
            return;
        }
        let Some(blocked) = Self::simulate(&cx.ops) else {
            return;
        };
        let detail: Vec<String> = blocked
            .iter()
            .map(|(r, op)| {
                let what = match op.op {
                    VisitOp::Recv {
                        src: Src::Known(s),
                        tag,
                    } => match tag {
                        Some(t) => format!("receiving from rank {s} tag {t}"),
                        None => format!("receiving from rank {s}"),
                    },
                    VisitOp::Barrier => "waiting at a barrier".to_string(),
                    _ => "blocked".to_string(),
                };
                format!("rank {r} {what} (line {})", op.line)
            })
            .collect();
        let first = &blocked[0];
        out.push(
            Diagnostic::new(
                self.id(),
                self.severity(),
                format!(
                    "guaranteed deadlock with {} processes: {}",
                    cx.nprocs,
                    detail.join("; ")
                ),
            )
            .with_rank(first.0 as u32)
            .with_loc(loc(cx, first.1.line, first.1.func))
            .with_suggestion("no schedule can complete this pattern; fix the blocked operations"),
        );
    }
}

/// SDL104: a tag asymmetry — receives wait for a tag no send carries, or
/// sends carry a tag no receive accepts.
struct TagNeverSent;

impl ScriptRule for TagNeverSent {
    fn id(&self) -> RuleId {
        TAG_NEVER_SENT
    }
    fn severity(&self) -> Severity {
        Severity::Warning
    }
    fn description(&self) -> &'static str {
        "a tag appears only on sends or only on receives (likely typo)"
    }
    fn check(&self, cx: &ScriptCx<'_>, out: &mut Vec<Diagnostic>) {
        let mut send_tags: BTreeMap<i32, &Visit<'_>> = BTreeMap::new();
        let mut recv_tags: BTreeMap<i32, &Visit<'_>> = BTreeMap::new();
        let mut any_tag_recv = false;
        for op in cx.ops.iter().flatten() {
            match op.op {
                VisitOp::Send { tag, .. } => {
                    send_tags.entry(tag).or_insert(op);
                }
                VisitOp::Recv { tag: Some(t), .. } => {
                    recv_tags.entry(t).or_insert(op);
                }
                VisitOp::Recv { tag: None, .. } => any_tag_recv = true,
                VisitOp::Barrier => {}
            }
        }
        let nearest = |tags: &BTreeMap<i32, &Visit<'_>>, t: i32| {
            tags.keys()
                .min_by_key(|&&k| (k - t).unsigned_abs())
                .copied()
        };
        if !send_tags.is_empty() {
            for (&t, op) in &recv_tags {
                if !send_tags.contains_key(&t) {
                    let mut d = Diagnostic::new(
                        self.id(),
                        self.severity(),
                        format!("receives wait for tag {t}, but no send uses that tag"),
                    )
                    .with_loc(loc(cx, op.line, op.func));
                    if let Some(n) = nearest(&send_tags, t) {
                        d = d.with_suggestion(format!("sends use tag {n} — did you mean {n}?"));
                    }
                    out.push(d);
                }
            }
        }
        // An any-tag receive can absorb every tag; and with no receives at
        // all, "tag asymmetry" is not the right story to tell.
        if !any_tag_recv && !recv_tags.is_empty() {
            for (&t, op) in &send_tags {
                if !recv_tags.contains_key(&t) {
                    let mut d = Diagnostic::new(
                        self.id(),
                        self.severity(),
                        format!("messages with tag {t} are sent, but no receive accepts it"),
                    )
                    .with_loc(loc(cx, op.line, op.func));
                    if let Some(n) = nearest(&recv_tags, t) {
                        d = d.with_suggestion(format!("receives use tag {n} — did you mean {n}?"));
                    }
                    out.push(d);
                }
            }
        }
    }
}

// Rules SDL107-SDL109 read the may-match relation over the site graph
// instead of the visit sequences, so they see through wildcard receives
// and loop-carried peer expressions the simulator must give up on.

/// SDL107: the may-match wait-for graph proves a set of ranks deadlocked
/// at startup — every rank in the set must receive first, and every
/// possible sender for those receives is itself in the set.
struct StaticDeadlock;

impl ScriptRule for StaticDeadlock {
    fn id(&self) -> RuleId {
        STATIC_DEADLOCK
    }
    fn severity(&self) -> Severity {
        Severity::Error
    }
    fn description(&self) -> &'static str {
        "a set of ranks provably deadlocks: each begins with a receive only the others could feed"
    }
    fn check(&self, cx: &ScriptCx<'_>, out: &mut Vec<Diagnostic>) {
        let a = &cx.analysis;
        let blocked = a.deadlocked_ranks();
        if blocked.is_empty() {
            return;
        }
        let first = blocked[0];
        let set: Vec<String> = blocked.iter().map(|r| r.to_string()).collect();
        let mut d = Diagnostic::new(
            self.id(),
            self.severity(),
            format!(
                "static deadlock with {} processes: rank(s) {} each begin with a \
                 receive that only another blocked rank (or nobody) could satisfy",
                cx.nprocs,
                set.join(", ")
            ),
        )
        .with_rank(first as u32)
        .with_suggestion("break the wait cycle: some rank in the set must send first");
        if let Some(&line) = a.graph.entry[first].lines.first() {
            if let Some(i) = a.graph.site_at(first, line) {
                d = d.with_loc(loc(cx, line, &a.graph.sites[i].func));
            }
        }
        out.push(d);
    }
}

/// SDL108: a send or receive site with zero partners in the may-match
/// relation — provably never matched under any schedule.
struct UnmatchedSite;

impl ScriptRule for UnmatchedSite {
    fn id(&self) -> RuleId {
        UNMATCHED_SITE
    }
    fn severity(&self) -> Severity {
        Severity::Warning
    }
    fn description(&self) -> &'static str {
        "a send/receive site has no possible partner in the may-match relation"
    }
    fn check(&self, cx: &ScriptCx<'_>, out: &mut Vec<Diagnostic>) {
        let a = &cx.analysis;
        // A partial walk may simply not have seen the partner site; only a
        // complete graph makes "no partner" a sound claim.
        if !a.graph.complete {
            return;
        }
        let mut seen_lines: BTreeSet<u32> = BTreeSet::new();
        for (i, site) in a.graph.sites.iter().enumerate() {
            if matches!(site.op, tracedbg_analysis::SiteOp::Barrier) {
                continue;
            }
            if a.may_match.partners[i] > 0 || !seen_lines.insert(site.line) {
                continue;
            }
            let what = match &site.op {
                tracedbg_analysis::SiteOp::Send { dst, tag } => format!(
                    "send to rank(s) {} with tag {tag} can never be received",
                    dst.render()
                ),
                tracedbg_analysis::SiteOp::Recv { src, tag, .. } => {
                    let t = match tag {
                        Some(t) => format!(" with tag {t}"),
                        None => String::new(),
                    };
                    format!(
                        "receive from rank(s) {}{t} can never be satisfied",
                        src.render()
                    )
                }
                tracedbg_analysis::SiteOp::Barrier => continue,
            };
            out.push(
                Diagnostic::new(
                    self.id(),
                    self.severity(),
                    format!("rank {}: {what} (no may-match partner)", site.rank),
                )
                .with_rank(site.rank as u32)
                .with_loc(loc(cx, site.line, &site.func))
                .with_suggestion("check the peer expression and tag against the other side"),
            );
        }
    }
}

/// SDL109: a wildcard receive that two or more ranks may race to satisfy —
/// the message order (and any `_src`-dependent control flow) is schedule-
/// dependent.
struct RacingWildcard;

impl ScriptRule for RacingWildcard {
    fn id(&self) -> RuleId {
        RACING_WILDCARD
    }
    fn severity(&self) -> Severity {
        Severity::Warning
    }
    fn description(&self) -> &'static str {
        "a wildcard receive has two or more statically racing senders"
    }
    fn check(&self, cx: &ScriptCx<'_>, out: &mut Vec<Diagnostic>) {
        let a = &cx.analysis;
        let mut seen_lines: BTreeSet<u32> = BTreeSet::new();
        for (i, site) in a.graph.sites.iter().enumerate() {
            let tracedbg_analysis::SiteOp::Recv { wildcard: true, .. } = site.op else {
                continue;
            };
            let senders = a.senders_of(i);
            if senders.len() < 2 || !seen_lines.insert(site.line) {
                continue;
            }
            let list: Vec<String> = senders.iter().map(|r| r.to_string()).collect();
            out.push(
                Diagnostic::new(
                    self.id(),
                    self.severity(),
                    format!(
                        "wildcard receive on rank {} races: rank(s) {} may all \
                         satisfy it, so the arrival order is schedule-dependent",
                        site.rank,
                        list.join(", ")
                    ),
                )
                .with_rank(site.rank as u32)
                .with_loc(loc(cx, site.line, &site.func))
                .with_suggestion(
                    "name the source rank explicitly, or make the handling order-insensitive",
                ),
            );
        }
    }
}

/// SDL105: a rank sending a message to itself.
struct SelfMessage;

impl ScriptRule for SelfMessage {
    fn id(&self) -> RuleId {
        SELF_MESSAGE
    }
    fn severity(&self) -> Severity {
        Severity::Warning
    }
    fn description(&self) -> &'static str {
        "a rank sends a message to itself"
    }
    fn check(&self, cx: &ScriptCx<'_>, out: &mut Vec<Diagnostic>) {
        let mut seen_lines: BTreeSet<u32> = BTreeSet::new();
        for (rank, ops) in cx.ops.iter().enumerate() {
            for op in ops {
                if let VisitOp::Send { dst: Some(d), .. } = op.op {
                    if d == rank as i64 && seen_lines.insert(op.line) {
                        out.push(
                            Diagnostic::new(
                                self.id(),
                                self.severity(),
                                format!("rank {rank} sends a message to itself"),
                            )
                            .with_rank(rank as u32)
                            .with_loc(loc(cx, op.line, op.func))
                            .with_suggestion(
                                "self-messages usually indicate off-by-one rank arithmetic",
                            ),
                        );
                    }
                }
            }
        }
    }
}
