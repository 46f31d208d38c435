//! `cancel-poll`: every public solve/sample/probe entry point in the
//! cancellation-aware crates must reach a `CancelToken` poll. A long-running
//! entry point that never polls turns cooperative cancellation into a dead
//! letter: the portfolio's losers keep burning CPU after a winner cancelled
//! them.
//!
//! Reachability is the shared name-union may-reach summary (see
//! [`coverage`](super::coverage)): the entry point passes if its name may
//! (transitively) call a poll marker. Distinct functions sharing a name are
//! merged, which biases the analysis toward *passing* — a miss therefore
//! means no function of any reached name polls, which is a real finding.
//! Entry points that are legitimately poll-free (e.g. pure accessors that
//! merely match a prefix) belong in the allowlist with a justification
//! comment in `lint.toml`.

use super::coverage::may_reach;
use super::support::{in_scope, matches_prefix};
use super::{Rule, Workspace};
use crate::config::{Key, LintConfig};
use crate::diag::Diagnostic;

pub struct CancelPoll;

impl Rule for CancelPoll {
    fn name(&self) -> &'static str {
        "cancel-poll"
    }

    fn description(&self) -> &'static str {
        "pub solve/sample/probe entry points must reach a CancelToken poll"
    }

    fn keys(&self) -> &'static [Key] {
        &[
            Key::List("entry-prefixes"),
            Key::List("poll-markers"),
            Key::List("scopes"),
        ]
    }

    fn check(&self, workspace: &Workspace, config: &LintConfig) -> Vec<Diagnostic> {
        let prefixes = config.list(self.name(), "entry-prefixes");
        let scopes = config.list(self.name(), "scopes");
        let polls = config.list(self.name(), "poll-markers");
        let reaches_poll = may_reach(workspace, polls);

        let mut out = Vec::new();
        for file in workspace.files.iter().filter(|file| in_scope(file, scopes)) {
            for f in &file.functions {
                if !f.is_pub
                    || f.in_test
                    || !matches_prefix(&f.name, prefixes)
                    || reaches_poll.contains(&f.name)
                {
                    continue;
                }
                out.push(Diagnostic {
                    rule: self.name(),
                    file: file.rel_path.clone(),
                    line: f.line,
                    symbol: Some(f.name.clone()),
                    message: format!(
                        "pub fn `{}` never reaches a cancellation poll ({}); \
                         wire a poll or allowlist with a justification",
                        f.name,
                        polls.join("/")
                    ),
                });
            }
        }
        out
    }
}
