//! Rule-based correctness checking over traces and workload scripts.

pub mod config;
pub mod diag;
pub mod engine;
pub mod report;
pub mod script_rules;
pub mod trace_rules;

pub use config::LintConfig;
pub use diag::{Diagnostic, RuleId, Severity};
pub use engine::{
    lint_script, lint_source, lint_trace, lint_trace_cx, lint_trace_with_script, rule_catalog,
    TraceCx,
};
