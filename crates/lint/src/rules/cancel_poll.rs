//! `cancel-poll`: every public solve/sample/probe entry point in the
//! cancellation-aware crates must reach a `CancelToken` poll. A long-running
//! entry point that never polls turns cooperative cancellation into a dead
//! letter: the portfolio's losers keep burning CPU after a winner cancelled
//! them.
//!
//! Each entry point is judged by its own body: it passes if it calls a poll
//! marker directly, or calls a name that may (transitively) reach one under
//! the shared name-union may-reach summary (see
//! [`coverage`](super::coverage)). The entry's own name plays no part, so a
//! poll-free entry does not pass because an unrelated function of the same
//! name polls (`manthan3_drat::check` beside `manthan3_dqbf::verify::check`).
//! Its callees are still merged by name: a call counts if any function of
//! that name may reach a poll. That merge can hide a poll-free callee
//! behind a polling namesake, so here it leans toward silence rather than
//! toward a diagnostic; it stays because telling same-named callees apart
//! needs types the token model lacks. A miss is still a real finding: no
//! function of any name the entry calls reaches a poll.
//!
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
                    || f.calls
                        .iter()
                        .any(|c| polls.contains(c) || reaches_poll.contains(c))
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
