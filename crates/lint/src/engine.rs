//! The rule engine: shared analysis context, rule registry, entry points.
//!
//! Two front ends share one diagnostic pipeline. The post-mortem front end
//! builds the expensive trace indices (message matching, happens-before)
//! once and hands every registered [`TraceRule`] the same context — this is
//! the paper's "history analysis" recast as a batch of checkers. The
//! pre-execution front end walks a parsed workload script per rank without
//! running it, so the same class of mistakes is caught before any trace
//! exists.

use crate::config::LintConfig;
use crate::diag::{Diagnostic, Loc, RuleId, Severity};
use crate::{script_rules, trace_rules};
use tracedbg_analysis::{CommGraph, Visit};
use tracedbg_causality::HbIndex;
use tracedbg_trace::{EventId, TraceStore};
use tracedbg_tracegraph::MessageMatching;
use tracedbg_workloads::script::Script;

/// Everything a trace rule may consult, built once per run.
pub struct TraceCx<'a> {
    pub store: &'a TraceStore,
    pub matching: MessageMatching,
    pub hb: HbIndex<'a>,
    /// Static analysis of the script that produced this trace, when the
    /// caller knows the source (enables TDL008 divergence checking).
    pub analysis: Option<tracedbg_analysis::Analysis>,
}

impl<'a> TraceCx<'a> {
    pub fn build(store: &'a TraceStore) -> Self {
        Self::build_with_analysis(store, None)
    }

    pub fn build_with_analysis(
        store: &'a TraceStore,
        analysis: Option<tracedbg_analysis::Analysis>,
    ) -> Self {
        let matching = MessageMatching::build(store);
        let hb = HbIndex::build(store, &matching);
        TraceCx {
            store,
            matching,
            hb,
            analysis,
        }
    }

    /// Resolve an event's source location through the site table.
    pub fn loc_of(&self, id: EventId) -> Option<Loc> {
        let rec = self.store.record(id);
        self.store.sites().resolve(rec.site).map(|s| Loc {
            file: s.file,
            line: s.line,
            func: s.func,
        })
    }
}

/// Everything a script rule may consult, built once per `lint_script`:
/// one abstract walk of each rank's program, seen two ways.
pub struct ScriptCx<'a> {
    pub script: &'a Script,
    pub nprocs: usize,
    /// File name used in diagnostics.
    pub file: &'a str,
    /// Per rank, the communication statements the walk visited, in program
    /// order, with the peer values it evaluated. A statement it reached
    /// more than once (loop iterations, passes of a widened loop) appears
    /// once per visit.
    pub ops: Vec<Vec<Visit<'a>>>,
    /// The site graph joined from the same visits, and what follows from
    /// it: may-match, independence, entry receives.
    pub analysis: tracedbg_analysis::Analysis,
}

#[cfg(test)]
thread_local! {
    /// `ScriptCx`s built on this thread.
    static CONTEXTS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

impl<'a> ScriptCx<'a> {
    pub fn build(script: &'a Script, nprocs: usize, file: &'a str) -> Self {
        #[cfg(test)]
        CONTEXTS.with(|c| c.set(c.get() + 1));
        let mut ops = vec![Vec::new(); nprocs];
        let graph = CommGraph::build_with(script, nprocs, file, |rank, v| ops[rank].push(v));
        ScriptCx {
            script,
            nprocs,
            file,
            ops,
            analysis: graph.into(),
        }
    }
}

/// A post-mortem checker over a recorded trace.
pub trait TraceRule {
    fn id(&self) -> RuleId;
    fn severity(&self) -> Severity;
    fn description(&self) -> &'static str;
    fn check(&self, cx: &TraceCx<'_>, out: &mut Vec<Diagnostic>);
}

/// A pre-execution checker over a parsed workload script.
pub trait ScriptRule {
    fn id(&self) -> RuleId;
    fn severity(&self) -> Severity;
    fn description(&self) -> &'static str;
    fn check(&self, cx: &ScriptCx<'_>, out: &mut Vec<Diagnostic>);
}

/// One row of the rule catalog.
#[derive(Clone, Copy, Debug)]
pub struct RuleInfo {
    pub id: RuleId,
    pub severity: Severity,
    pub description: &'static str,
    /// `"trace"` or `"script"`.
    pub front_end: &'static str,
}

/// Every registered rule, for `--rules` listings and the README table.
pub fn rule_catalog() -> Vec<RuleInfo> {
    let mut out: Vec<RuleInfo> = trace_rules::all()
        .iter()
        .map(|r| RuleInfo {
            id: r.id(),
            severity: r.severity(),
            description: r.description(),
            front_end: "trace",
        })
        .collect();
    out.extend(script_rules::all().iter().map(|r| RuleInfo {
        id: r.id(),
        severity: r.severity(),
        description: r.description(),
        front_end: "script",
    }));
    out.sort_by_key(|r| r.id);
    out
}

fn finish(mut diags: Vec<Diagnostic>) -> Vec<Diagnostic> {
    diags.sort_by(|a, b| {
        (a.severity, a.rule, a.rank, &a.events, &a.message)
            .cmp(&(b.severity, b.rule, b.rank, &b.events, &b.message))
    });
    diags.dedup_by(|a, b| {
        a.rule == b.rule && a.rank == b.rank && a.events == b.events && a.message == b.message
    });
    diags
}

/// Run every enabled trace rule over a recorded trace.
pub fn lint_trace(store: &TraceStore, cfg: &LintConfig) -> Vec<Diagnostic> {
    lint_trace_cx(TraceCx::build(store), cfg)
}

/// Run the trace rules over any [`TraceSource`] — e.g. an on-disk store.
/// The rules need message matching and cross-rank context, so the source
/// is materialized into the in-memory reference form first; the store
/// stays the single artifact the user hands around.
pub fn lint_source(
    src: &dyn tracedbg_trace::TraceSource,
    cfg: &LintConfig,
) -> Result<Vec<Diagnostic>, tracedbg_trace::SourceError> {
    let store = tracedbg_trace::materialize(src)?;
    Ok(lint_trace(&store, cfg))
}

/// [`lint_trace`], additionally told which script (as executed with
/// `nprocs` ranks under the file label `file`) produced the trace. The
/// static analysis of that script feeds the analysis-vs-trace divergence
/// rule (TDL008).
pub fn lint_trace_with_script(
    store: &TraceStore,
    script: &Script,
    nprocs: usize,
    file: &str,
    cfg: &LintConfig,
) -> Vec<Diagnostic> {
    let analysis = tracedbg_analysis::analyze(script, nprocs, file);
    lint_trace_cx(TraceCx::build_with_analysis(store, Some(analysis)), cfg)
}

/// Run every enabled trace rule over a context the caller built — the
/// entry point for one that already holds the trace's matching and
/// happens-before index and should not pay for them twice.
pub fn lint_trace_cx(cx: TraceCx<'_>, cfg: &LintConfig) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for rule in trace_rules::all() {
        if cfg.is_enabled(rule.id()) {
            rule.check(&cx, &mut diags);
        }
    }
    finish(diags)
}

/// Run every enabled script rule over a parsed workload script, as it
/// would execute with `nprocs` processes.
pub fn lint_script(
    script: &Script,
    nprocs: usize,
    file: &str,
    cfg: &LintConfig,
) -> Vec<Diagnostic> {
    let cx = ScriptCx::build(script, nprocs, file);
    let mut diags = Vec::new();
    for rule in script_rules::all() {
        if cfg.is_enabled(rule.id()) {
            rule.check(&cx, &mut diags);
        }
    }
    finish(diags)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Work count, not a timing: with every rule enabled `lint_script`
    /// builds one context — and a context is one visiting walk per rank
    /// (`tracedbg-analysis` pins that half next to its walk counter), where
    /// four rules used to walk every rank themselves and three more to run
    /// the whole analysis.
    #[test]
    fn every_rule_reads_the_one_walk() {
        let ring = tracedbg_workloads::scripts::builtin("ring").expect("builtin");
        let (script, file) = (ring.parse(), ring.file());
        let before = CONTEXTS.get();
        assert!(lint_script(&script, 4, &file, &LintConfig::default()).is_empty());
        assert_eq!(CONTEXTS.get() - before, 1);
        // What the rules read is that walk: each rank's send and receive.
        let cx = ScriptCx::build(&script, 4, &file);
        assert!(cx.ops.iter().all(|ops| ops.len() == 2), "{:?}", cx.ops);
        assert_eq!(cx.analysis.graph.sites.len(), 8);
    }
}
