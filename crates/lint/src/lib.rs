//! manthan3-lint: the workspace invariant linter.
//!
//! A dependency-free, token-level scanner that enforces the cross-cutting
//! invariants `rustc` and `clippy` cannot see: ClauseRef lifetimes across
//! arena GC, budget admission before solver invocations, DRAT proof-logging
//! discipline, cancellation-poll reachability from public entry points,
//! justified atomic orderings, and panic-free library code. The
//! flow-sensitive rules run a gen/kill worklist analysis (see [`dataflow`]) over
//! per-function CFGs built straight from the token stream (see [`cfg`](mod@cfg)).
//! Run it as `cargo run -p manthan3-lint -- check`; configuration and
//! allowlists live in `lint.toml` at the workspace root, and every
//! allowlist entry must still suppress something — stale entries are
//! themselves violations.

pub mod cfg;
#[cfg(test)]
mod cfg_props;
pub mod config;
pub mod dataflow;
pub mod diag;
pub mod lexer;
pub mod rules;
pub mod source;

use config::LintConfig;
use diag::{allow_matches, Diagnostic};
use rules::Workspace;
use source::SourceFile;
use std::path::Path;

/// The outcome of a full workspace check.
#[derive(Debug, Default)]
pub struct LintReport {
    /// Violations that survived the allowlists, in file/line order.
    pub diagnostics: Vec<Diagnostic>,
    /// Number of files scanned.
    pub files_scanned: usize,
    /// Number of violations suppressed by allowlist entries.
    pub suppressed: usize,
}

/// Scans the workspace rooted at `root` and runs every registered rule.
pub fn check_workspace(root: &Path, config: &LintConfig) -> std::io::Result<LintReport> {
    let mut files = Vec::new();
    for rel in source::workspace_sources(root)? {
        files.push(SourceFile::load(root, &rel)?);
    }
    Ok(check_files(files, config))
}

/// Runs every rule over an already-built file set (used by fixture tests).
///
/// Allowlist entries are themselves checked: an entry that suppresses
/// nothing, or a section that names no registered rule, is reported as a
/// `stale-allowlist` violation, so suppressions cannot outlive the code or
/// the rule they excused.
pub fn check_files(files: Vec<SourceFile>, config: &LintConfig) -> LintReport {
    let workspace = Workspace { files };
    let mut report = LintReport {
        files_scanned: workspace.files.len(),
        ..LintReport::default()
    };
    let registry = rules::registry();
    for section in config.sections() {
        if !registry.iter().any(|rule| rule.name() == section) {
            report.diagnostics.push(Diagnostic {
                rule: "stale-allowlist",
                file: "lint.toml".to_string(),
                line: 0,
                symbol: None,
                message: format!(
                    "section `[{section}]` names no registered rule; delete it \
                     (its settings and allowlist apply to nothing)"
                ),
            });
        }
    }
    for rule in registry {
        let allow = config.allowlist(rule.name());
        let mut matched = vec![false; allow.len()];
        for diag in rule.check(&workspace, config) {
            let mut suppressed = false;
            for (i, entry) in allow.iter().enumerate() {
                if allow_matches(entry, &diag) {
                    matched[i] = true;
                    suppressed = true;
                }
            }
            if suppressed {
                report.suppressed += 1;
            } else {
                report.diagnostics.push(diag);
            }
        }
        for (entry, _) in allow.iter().zip(&matched).filter(|(_, &m)| !m) {
            report.diagnostics.push(Diagnostic {
                rule: "stale-allowlist",
                file: "lint.toml".to_string(),
                line: 0,
                symbol: None,
                message: format!(
                    "allowlist entry \"{entry}\" for rule `{}` suppresses nothing; \
                     delete it (the code it excused no longer violates the rule)",
                    rule.name()
                ),
            });
        }
    }
    report
        .diagnostics
        .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    report
}
