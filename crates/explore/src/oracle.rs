//! Failure oracles: decide whether a run is a violation worth keeping.

use crate::runner::{RunResult, CLASS_DEADLOCK, CLASS_LINT, CLASS_PANIC};
use std::sync::OnceLock;
use tracedbg_lint::{lint_trace, trace_rules, LintConfig, Severity};

/// A confirmed oracle violation.
#[derive(Clone, Debug)]
pub enum Violation {
    /// The run stalled — cyclic wait or starvation.
    Deadlock { cyclic: bool, detail: String },
    /// A simulated process panicked (assertion probes land here).
    Panic { detail: String },
    /// The trace-level lint found definite errors on a completed run.
    LintError { rules: Vec<String>, detail: String },
    /// A scripted re-execution failed to reproduce the original run —
    /// an infrastructure bug in the replay machinery itself.
    ReplayDivergence { detail: String },
}

impl Violation {
    /// The artifact failure-class string.
    pub fn class(&self) -> &'static str {
        match self {
            Violation::Deadlock { .. } => CLASS_DEADLOCK,
            Violation::Panic { .. } => CLASS_PANIC,
            Violation::LintError { .. } => CLASS_LINT,
            Violation::ReplayDivergence { .. } => crate::runner::CLASS_DIVERGENCE,
        }
    }

    pub fn detail(&self) -> &str {
        match self {
            Violation::Deadlock { detail, .. }
            | Violation::Panic { detail }
            | Violation::LintError { detail, .. }
            | Violation::ReplayDivergence { detail } => detail,
        }
    }
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
    match run.class {
        CLASS_DEADLOCK => {
            return Some(Violation::Deadlock {
                cyclic: run.cyclic,
                detail: run.detail.clone(),
            });
        }
        CLASS_PANIC => {
            return Some(Violation::Panic {
                detail: run.detail.clone(),
            });
        }
        _ => {}
    }
    if run.class == crate::runner::CLASS_COMPLETED && !run.fault_fired {
        let diags = lint_trace(&run.store, error_rules());
        let errors: Vec<_> = diags
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .collect();
        if !errors.is_empty() {
            let rules: Vec<String> = errors.iter().map(|d| d.rule.to_string()).collect();
            let detail = errors
                .iter()
                .map(|d| d.message.clone())
                .collect::<Vec<_>>()
                .join("; ");
            return Some(Violation::LintError { rules, detail });
        }
    }
    None
}
