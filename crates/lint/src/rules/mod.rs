//! The rule registry. Every rule scans the [`Workspace`] token model and
//! emits [`Diagnostic`]s; `lint.toml` allowlists are applied by the driver,
//! not the rules, so rule output is always the ground truth.

mod atomic_ordering;
mod budget_before_solve;
mod cancel_poll;
mod clauseref_across_gc;
mod no_unwrap_in_lib;
mod proof_discipline;
pub(crate) mod support;

pub use atomic_ordering::AtomicOrdering;
pub use budget_before_solve::BudgetBeforeSolve;
pub use cancel_poll::CancelPoll;
pub use clauseref_across_gc::ClauseRefAcrossGc;
pub use no_unwrap_in_lib::NoUnwrapInLib;
pub use proof_discipline::ProofDiscipline;

use crate::config::LintConfig;
use crate::diag::Diagnostic;
use crate::source::{FnItem, SourceFile};

/// The scanned workspace: every source file the linter looks at.
#[derive(Debug, Default)]
pub struct Workspace {
    /// Scanned files in path order.
    pub files: Vec<SourceFile>,
}

impl Workspace {
    /// The enclosing function of token `idx` in `file`, if any (innermost
    /// when functions nest).
    pub fn enclosing_fn(file: &SourceFile, idx: usize) -> Option<&FnItem> {
        file.functions
            .iter()
            .filter(|f| f.body.contains(&idx))
            .min_by_key(|f| f.body.len())
    }
}

/// A linter rule.
pub trait Rule {
    /// The rule's registry name (the `[section]` key in `lint.toml`).
    fn name(&self) -> &'static str;
    /// One-line description for `manthan3-lint rules`.
    fn description(&self) -> &'static str;
    /// Scans the workspace and returns every violation (pre-allowlist).
    fn check(&self, workspace: &Workspace, config: &LintConfig) -> Vec<Diagnostic>;
}

/// Every registered rule, in reporting order.
pub fn registry() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(AtomicOrdering),
        Box::new(NoUnwrapInLib),
        Box::new(CancelPoll),
        Box::new(ClauseRefAcrossGc),
        Box::new(BudgetBeforeSolve),
        Box::new(ProofDiscipline),
    ]
}
