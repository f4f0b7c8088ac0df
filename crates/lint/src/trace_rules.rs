//! Post-mortem rules over a recorded trace (`TDL...`).
//!
//! These are the checks §4.4 of the paper describes the history analyzer
//! performing by hand — unmatched send/receive reporting, nondeterministic
//! receives, blocked-process cycles — promoted to always-on rules with
//! stable IDs, plus MUST-style collective consistency and event-protocol
//! checks.

use crate::diag::{Diagnostic, RuleId, Severity};
use crate::engine::{TraceCx, TraceRule};
use std::collections::BTreeSet;
use tracedbg_causality::{collective_instances, detect_circular_waits, detect_races};
use tracedbg_trace::{EventId, EventKind, Rank};

pub const UNRECEIVED_SEND: RuleId = RuleId("TDL001");
pub const BLOCKED_RECEIVE: RuleId = RuleId("TDL002");
pub const IMPOSSIBLE_RECEIVE: RuleId = RuleId("TDL003");
pub const COLLECTIVE_MISMATCH: RuleId = RuleId("TDL004");
pub const WILDCARD_RACE: RuleId = RuleId("TDL005");
pub const WAIT_CYCLE: RuleId = RuleId("TDL006");
pub const EVENT_AFTER_END: RuleId = RuleId("TDL007");
pub const ANALYSIS_DIVERGENCE: RuleId = RuleId("TDL008");

/// All registered trace rules.
pub fn all() -> Vec<Box<dyn TraceRule>> {
    vec![
        Box::new(UnreceivedSend),
        Box::new(BlockedReceive),
        Box::new(ImpossibleReceive),
        Box::new(CollectiveMismatch),
        Box::new(WildcardRace),
        Box::new(WaitCycle),
        Box::new(EventAfterEnd),
        Box::new(AnalysisDivergence),
    ]
}

fn fmt_rank_set(ranks: &BTreeSet<u32>) -> String {
    let items: Vec<String> = ranks.iter().map(|r| r.to_string()).collect();
    items.join(", ")
}

/// TDL001: a send whose message was never received.
struct UnreceivedSend;

impl TraceRule for UnreceivedSend {
    fn id(&self) -> RuleId {
        UNRECEIVED_SEND
    }
    fn severity(&self) -> Severity {
        Severity::Error
    }
    fn description(&self) -> &'static str {
        "a message was sent but never received (leaked send)"
    }
    fn check(&self, cx: &TraceCx<'_>, out: &mut Vec<Diagnostic>) {
        for u in &cx.matching.unmatched_sends {
            let mut d = Diagnostic::new(
                self.id(),
                self.severity(),
                format!(
                    "message from rank {} to rank {} with tag {} (seq {}) was never received",
                    u.info.src.0, u.info.dst.0, u.info.tag.0, u.info.seq
                ),
            )
            .with_rank(u.info.src.0)
            .with_events([u.send.0])
            .with_suggestion(format!(
                "add a matching receive on rank {} or remove the send",
                u.info.dst.0
            ));
            if let Some(loc) = cx.loc_of(u.send) {
                d = d.with_loc(loc);
            }
            out.push(d);
        }
    }
}

/// Describe a posted receive's (src, tag) specification.
fn recv_spec(cx: &TraceCx<'_>, post: EventId) -> (Option<u32>, Option<i32>) {
    let rec = cx.store.record(post);
    let src = (rec.args[0] >= 0).then_some(rec.args[0] as u32);
    let tag = (rec.args[1] >= 0).then_some(rec.args[1] as i32);
    (src, tag)
}

fn spec_text(src: Option<u32>, tag: Option<i32>) -> String {
    let s = match src {
        Some(s) => format!("from rank {s}"),
        None => "from any rank".to_string(),
    };
    let t = match tag {
        Some(t) => format!("tag {t}"),
        None => "any tag".to_string(),
    };
    format!("{s}, {t}")
}

/// TDL002: a posted receive that never completed.
struct BlockedReceive;

impl TraceRule for BlockedReceive {
    fn id(&self) -> RuleId {
        BLOCKED_RECEIVE
    }
    fn severity(&self) -> Severity {
        Severity::Error
    }
    fn description(&self) -> &'static str {
        "a posted receive never completed (process blocked at end of trace)"
    }
    fn check(&self, cx: &TraceCx<'_>, out: &mut Vec<Diagnostic>) {
        for u in &cx.matching.unmatched_recvs {
            let (src, tag) = recv_spec(cx, u.post);
            let mut d = Diagnostic::new(
                self.id(),
                self.severity(),
                format!(
                    "receive posted on rank {} ({}) never completed",
                    u.rank.0,
                    spec_text(src, tag)
                ),
            )
            .with_rank(u.rank.0)
            .with_events([u.post.0]);
            if let Some(loc) = cx.loc_of(u.post) {
                d = d.with_loc(loc);
            }
            out.push(d);
        }
    }
}

/// TDL003: a blocked receive whose specification can never match — the
/// named source did send to this rank, but only under different tags.
struct ImpossibleReceive;

impl TraceRule for ImpossibleReceive {
    fn id(&self) -> RuleId {
        IMPOSSIBLE_RECEIVE
    }
    fn severity(&self) -> Severity {
        Severity::Warning
    }
    fn description(&self) -> &'static str {
        "a blocked receive requests a tag its source never sent (tag mismatch)"
    }
    fn check(&self, cx: &TraceCx<'_>, out: &mut Vec<Diagnostic>) {
        for u in &cx.matching.unmatched_recvs {
            let (src, tag) = recv_spec(cx, u.post);
            let Some(want_tag) = tag else { continue };
            // Tags actually sent to this rank from the requested source
            // (or from anyone, for a wildcard-source receive).
            let mut seen_tags: BTreeSet<i32> = BTreeSet::new();
            for id in cx.store.ids() {
                let rec = cx.store.record(id);
                if rec.kind != EventKind::Send {
                    continue;
                }
                let Some(m) = rec.msg else { continue };
                if m.dst != u.rank {
                    continue;
                }
                if let Some(s) = src {
                    if m.src.0 != s {
                        continue;
                    }
                }
                seen_tags.insert(m.tag.0);
            }
            if seen_tags.is_empty() || seen_tags.contains(&want_tag) {
                // No sends at all (plain TDL002 territory), or the tag
                // exists and the receive is blocked for another reason.
                continue;
            }
            let tags: Vec<String> = seen_tags.iter().map(|t| t.to_string()).collect();
            let mut d = Diagnostic::new(
                self.id(),
                self.severity(),
                format!(
                    "receive on rank {} waits for tag {want_tag}, but {} only sent tag(s) {}",
                    u.rank.0,
                    match src {
                        Some(s) => format!("rank {s}"),
                        None => "its sources".to_string(),
                    },
                    tags.join(", ")
                ),
            )
            .with_rank(u.rank.0)
            .with_events([u.post.0])
            .with_suggestion(format!(
                "check the tag: did you mean tag {}?",
                seen_tags.iter().next().unwrap()
            ));
            if let Some(loc) = cx.loc_of(u.post) {
                d = d.with_loc(loc);
            }
            out.push(d);
        }
    }
}

/// TDL004: aligned collective instances must agree across ranks.
///
/// Collectives are aligned by [`collective_instances`]: the i-th
/// collective record on each rank belongs to instance i. A kind mismatch
/// or a rank that never reaches an instance other ranks completed is
/// reported once, at the first bad instance.
struct CollectiveMismatch;

impl TraceRule for CollectiveMismatch {
    fn id(&self) -> RuleId {
        COLLECTIVE_MISMATCH
    }
    fn severity(&self) -> Severity {
        Severity::Error
    }
    fn description(&self) -> &'static str {
        "ranks disagree on the kind or count of a collective operation"
    }
    fn check(&self, cx: &TraceCx<'_>, out: &mut Vec<Diagnostic>) {
        for (i, instance) in collective_instances(cx.store).iter().enumerate() {
            let present: Vec<(u32, EventId)> = instance
                .iter()
                .map(|&id| (cx.store.record(id).rank.0, id))
                .collect();
            let entered: BTreeSet<u32> = present.iter().map(|&(r, _)| r).collect();
            let absent: BTreeSet<u32> = (0..cx.store.n_ranks() as u32)
                .filter(|r| !entered.contains(r))
                .collect();
            if !absent.is_empty() {
                let events = present.iter().map(|&(_, id)| id.0);
                out.push(
                    Diagnostic::new(
                        self.id(),
                        self.severity(),
                        format!(
                            "collective instance #{i}: rank(s) {} never entered it \
                             while the other ranks did",
                            fmt_rank_set(&absent)
                        ),
                    )
                    .with_events(events)
                    .with_suggestion(
                        "every rank must call the same collectives the same number of times",
                    ),
                );
                return; // later instances are misaligned by construction
            }
            let kinds: BTreeSet<String> = present
                .iter()
                .map(|&(_, id)| format!("{:?}", cx.store.record(id).kind))
                .collect();
            if kinds.len() > 1 {
                let detail: Vec<String> = present
                    .iter()
                    .map(|&(r, id)| format!("rank {r}: {:?}", cx.store.record(id).kind))
                    .collect();
                out.push(
                    Diagnostic::new(
                        self.id(),
                        self.severity(),
                        format!(
                            "collective instance #{i}: ranks entered different operations ({})",
                            detail.join("; ")
                        ),
                    )
                    .with_events(present.iter().map(|&(_, id)| id.0))
                    .with_suggestion("make all ranks call the same collective in the same order"),
                );
                return;
            }
        }
    }
}

/// TDL005: a wildcard receive that another send could have satisfied.
struct WildcardRace;

impl TraceRule for WildcardRace {
    fn id(&self) -> RuleId {
        WILDCARD_RACE
    }
    fn severity(&self) -> Severity {
        Severity::Warning
    }
    fn description(&self) -> &'static str {
        "a wildcard receive raced: a different send could have matched it"
    }
    fn check(&self, cx: &TraceCx<'_>, out: &mut Vec<Diagnostic>) {
        for race in detect_races(cx.store, &cx.matching, &cx.hb) {
            let recv = cx.store.record(race.recv);
            let actual = cx.store.record(race.actual_send);
            let alt_srcs: BTreeSet<u32> = race
                .alternatives
                .iter()
                .filter_map(|&id| cx.store.record(id).msg.map(|m| m.src.0))
                .collect();
            let mut d = Diagnostic::new(
                self.id(),
                self.severity(),
                format!(
                    "wildcard receive on rank {} took the message from rank {}, but \
                     concurrent send(s) from rank(s) {} could also have matched \
                     (nondeterministic outcome)",
                    recv.rank.0,
                    actual.msg.map(|m| m.src.0).unwrap_or(u32::MAX),
                    fmt_rank_set(&alt_srcs)
                ),
            )
            .with_rank(recv.rank.0)
            .with_events(
                [race.recv.0, race.actual_send.0]
                    .into_iter()
                    .chain(race.alternatives.iter().map(|e| e.0)),
            )
            .with_suggestion("name the source rank explicitly, or make the order irrelevant");
            if let Some(loc) = cx.loc_of(race.recv) {
                d = d.with_loc(loc);
            }
            out.push(d);
        }
    }
}

/// TDL006: a cycle of ranks each blocked receiving from the next.
struct WaitCycle;

impl TraceRule for WaitCycle {
    fn id(&self) -> RuleId {
        WAIT_CYCLE
    }
    fn severity(&self) -> Severity {
        Severity::Error
    }
    fn description(&self) -> &'static str {
        "ranks are blocked in a circular wait (communication deadlock)"
    }
    fn check(&self, cx: &TraceCx<'_>, out: &mut Vec<Diagnostic>) {
        for cycle in detect_circular_waits(cx.store, &cx.matching) {
            let path: Vec<String> = cycle
                .ranks
                .iter()
                .chain(cycle.ranks.first())
                .map(|r| r.0.to_string())
                .collect();
            out.push(
                Diagnostic::new(
                    self.id(),
                    self.severity(),
                    format!(
                        "circular wait: rank(s) {} are each blocked receiving from the next",
                        path.join(" -> ")
                    ),
                )
                .with_events(cycle.posts.iter().map(|e| e.0))
                .with_suggestion("reorder the communication or break the cycle with a send"),
            );
        }
    }
}

/// TDL008: a dynamic match the static may-match relation says is
/// impossible. The relation over-approximates every schedule, so a match
/// outside it means the trace and the analyzed script disagree — a stale
/// script, a site-table mismatch, or an analysis bug. Only runs when the
/// caller supplied the script ([`crate::lint_trace_with_script`]) and the
/// analysis covered every reachable site.
struct AnalysisDivergence;

impl TraceRule for AnalysisDivergence {
    fn id(&self) -> RuleId {
        ANALYSIS_DIVERGENCE
    }
    fn severity(&self) -> Severity {
        Severity::Error
    }
    fn description(&self) -> &'static str {
        "a dynamic message match falls outside the static may-match relation"
    }
    fn check(&self, cx: &TraceCx<'_>, out: &mut Vec<Diagnostic>) {
        let Some(a) = &cx.analysis else { return };
        if !a.graph.complete {
            return;
        }
        for m in &cx.matching.matched {
            let (Some(sloc), Some(rloc)) = (cx.loc_of(m.send), cx.loc_of(m.recv)) else {
                continue;
            };
            // Only sites the analysis labeled (same script file) are
            // comparable; runtime-internal sites are not its business.
            if sloc.file != a.graph.file || rloc.file != a.graph.file {
                continue;
            }
            let src = m.info.src.0 as usize;
            let dst = m.info.dst.0 as usize;
            if a.may_match_lines(src, sloc.line, dst, rloc.line) {
                continue;
            }
            let missing = a.graph.site_at(src, sloc.line).is_none()
                || a.graph.site_at(dst, rloc.line).is_none();
            let (why, fix) = if missing {
                (
                    "a site the static analysis never saw",
                    "the trace references script lines the analysis never reached \
                     — is the script the one that produced this trace?",
                )
            } else {
                (
                    "outside the static may-match relation",
                    "re-record the trace from the analyzed script; if it reproduces, \
                     this is an analysis soundness bug",
                )
            };
            out.push(
                Diagnostic::new(
                    self.id(),
                    self.severity(),
                    format!(
                        "message from rank {src} (line {}) to rank {dst} (line {}) \
                         tag {} matched at {why} — trace and script analysis disagree",
                        sloc.line, rloc.line, m.info.tag.0
                    ),
                )
                .with_rank(dst as u32)
                .with_events([m.send.0, m.recv.0])
                .with_loc(rloc)
                .with_suggestion(fix),
            );
        }
    }
}

/// TDL007: events recorded after a process already ended.
struct EventAfterEnd;

impl TraceRule for EventAfterEnd {
    fn id(&self) -> RuleId {
        EVENT_AFTER_END
    }
    fn severity(&self) -> Severity {
        Severity::Error
    }
    fn description(&self) -> &'static str {
        "a process recorded events after its ProcEnd (e.g. probe after finalize)"
    }
    fn check(&self, cx: &TraceCx<'_>, out: &mut Vec<Diagnostic>) {
        for r in 0..cx.store.n_ranks() {
            let lane = cx.store.by_rank(Rank(r as u32));
            let Some(end_pos) = lane
                .iter()
                .position(|&id| cx.store.record(id).kind == EventKind::ProcEnd)
            else {
                continue;
            };
            for &id in &lane[end_pos + 1..] {
                let rec = cx.store.record(id);
                let what = match rec.kind {
                    EventKind::Probe => "probe after process end (probe after finalize)",
                    EventKind::ProcEnd => "duplicate ProcEnd",
                    _ => "event after process end",
                };
                let mut d = Diagnostic::new(
                    self.id(),
                    self.severity(),
                    format!("rank {r}: {what} ({:?})", rec.kind),
                )
                .with_rank(r as u32)
                .with_events([id.0]);
                if let Some(loc) = cx.loc_of(id) {
                    d = d.with_loc(loc);
                }
                out.push(d);
            }
        }
    }
}
