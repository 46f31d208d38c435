//! `no-unwrap-in-lib`: library (non-test) code in the solver-critical crates
//! must not call `.unwrap()`, and every `.expect(…)` must carry an adjacent
//! `// invariant:` comment stating why the value cannot be absent. Panics in
//! the solve path abort a whole synthesis run; failures must either be
//! impossible-by-invariant (and say so) or flow through typed errors.

use super::support::in_scope;
use super::{Rule, Workspace};
use crate::config::{Key, LintConfig};
use crate::diag::Diagnostic;

pub struct NoUnwrapInLib;

impl Rule for NoUnwrapInLib {
    fn name(&self) -> &'static str {
        "no-unwrap-in-lib"
    }

    fn description(&self) -> &'static str {
        "no unwrap(), and expect() only with an `// invariant:` comment, in lib code"
    }

    fn keys(&self) -> &'static [Key] {
        &[Key::One("marker"), Key::List("scopes")]
    }

    fn check(&self, workspace: &Workspace, config: &LintConfig) -> Vec<Diagnostic> {
        let scopes = config.list(self.name(), "scopes");
        let marker = config.value(self.name(), "marker");
        let mut out = Vec::new();
        for file in workspace.files.iter().filter(|file| in_scope(file, scopes)) {
            let tokens = file.tokens();
            for i in 0..tokens.len() {
                if file.in_test.get(i).copied().unwrap_or(false) {
                    continue;
                }
                // Method-call shape only: `. name (`. Free fns named
                // `unwrap`/`expect` don't exist here, and this keeps
                // `unwrap_or`-family names (distinct idents) unmatched.
                let is_call = |name: &str| {
                    tokens[i].is_punct(".")
                        && tokens.get(i + 1).is_some_and(|t| t.is_ident(name))
                        && tokens.get(i + 2).is_some_and(|t| t.is_punct("("))
                };
                let symbol = || Workspace::enclosing_fn(file, i).map(|f| f.name.clone());
                if is_call("unwrap") {
                    out.push(Diagnostic {
                        rule: self.name(),
                        file: file.rel_path.clone(),
                        line: tokens[i + 1].line,
                        symbol: symbol(),
                        message: "`.unwrap()` in library code; use a typed error or \
                                  `.expect(…)` with an `// invariant:` comment"
                            .to_string(),
                    });
                } else if is_call("expect") {
                    let line = tokens[i + 1].line;
                    if !file.has_adjacent_marker(marker, line) {
                        out.push(Diagnostic {
                            rule: self.name(),
                            file: file.rel_path.clone(),
                            line,
                            symbol: symbol(),
                            message: format!(
                                "`.expect(…)` without an adjacent `// {marker}` comment \
                                 stating why the value is always present"
                            ),
                        });
                    }
                }
            }
        }
        out
    }
}
