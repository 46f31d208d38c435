//! `atomic-ordering`: every `Ordering::<variant>` use on an atomic must carry
//! an adjacent `// ordering:` comment stating the contract the ordering
//! provides (what it publishes or what it may observe). `SeqCst` without a
//! justification is called out specifically: it is almost always either a
//! missing proof or a missing downgrade.

use super::{Rule, Workspace};
use crate::config::{Key, LintConfig};
use crate::diag::Diagnostic;

/// The `std::sync::atomic::Ordering` variants. `std::cmp::Ordering` paths
/// (`Ordering::Less` etc.) never match, so comparison code is untouched.
const ATOMIC_VARIANTS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

pub struct AtomicOrdering;

impl Rule for AtomicOrdering {
    fn name(&self) -> &'static str {
        "atomic-ordering"
    }

    fn description(&self) -> &'static str {
        "atomic Ordering uses need an adjacent `// ordering:` justification"
    }

    fn keys(&self) -> &'static [Key] {
        &[Key::One("marker")]
    }

    fn check(&self, workspace: &Workspace, config: &LintConfig) -> Vec<Diagnostic> {
        let marker = config.value(self.name(), "marker");
        let mut out = Vec::new();
        for file in &workspace.files {
            let tokens = file.tokens();
            for i in 0..tokens.len() {
                if file.in_test.get(i).copied().unwrap_or(false) {
                    continue;
                }
                let [a, b, c] = [tokens.get(i), tokens.get(i + 1), tokens.get(i + 2)];
                let (Some(a), Some(b), Some(c)) = (a, b, c) else {
                    continue;
                };
                if !(a.is_ident("Ordering") && b.is_punct("::")) {
                    continue;
                }
                let Some(variant) = ATOMIC_VARIANTS.iter().find(|v| c.is_ident(v)) else {
                    continue;
                };
                if file.has_adjacent_marker(marker, c.line) {
                    continue;
                }
                let symbol = Workspace::enclosing_fn(file, i).map(|f| f.name.clone());
                let detail = if *variant == "SeqCst" {
                    "; SeqCst in particular needs a proof it cannot be weakened"
                } else {
                    ""
                };
                out.push(Diagnostic {
                    rule: self.name(),
                    file: file.rel_path.clone(),
                    line: c.line,
                    symbol,
                    message: format!(
                        "`Ordering::{variant}` without an adjacent `// {marker}` \
                         justification comment{detail}"
                    ),
                });
            }
        }
        out
    }
}
