//! Failure oracles: decide whether a run is a violation worth keeping.

use crate::runner::{RunResult, CLASS_COMPLETED, CLASS_DEADLOCK, CLASS_LINT, CLASS_PANIC};
use std::sync::OnceLock;
use tracedbg_lint::{lint_trace, trace_rules, LintConfig, Severity};

/// A confirmed oracle violation: its failure class (a `CLASS_*`, the
/// artifact's `failure`) and what happened.
#[derive(Clone, Debug)]
pub struct Violation {
    pub class: &'static str,
    pub detail: String,
}

/// The trace rules that can report an error: a rule reports at its own
/// severity, and the oracle keeps errors only, so the others need not run.
fn error_rules() -> &'static LintConfig {
    static ERRORS: OnceLock<LintConfig> = OnceLock::new();
    ERRORS.get_or_init(|| {
        let rules = trace_rules::all();
        let errors = rules.iter().filter(|r| r.severity() == Severity::Error);
        LintConfig::new().only(errors.map(|r| r.id().as_str()))
    })
}

/// Check one run against the outcome- and trace-level oracles.
///
/// Lint only runs on completed, fault-free runs: a crashed or hung process
/// legitimately leaves unmatched sends and truncated histories behind, and
/// flagging those would blame the injection rather than the program.
pub fn check(run: &RunResult) -> Option<Violation> {
    let violation = |class, detail| Some(Violation { class, detail });
    if run.class == CLASS_DEADLOCK || run.class == CLASS_PANIC {
        return violation(run.class, run.detail.clone());
    }
    if run.class == CLASS_COMPLETED && run.faulted.is_empty() {
        let diags = lint_trace(&run.store, error_rules());
        let errors: Vec<&str> = diags
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .map(|d| d.message.as_str())
            .collect();
        if !errors.is_empty() {
            return violation(CLASS_LINT, errors.join("; "));
        }
    }
    None
}
