//! `budget-before-solve`: every path from a public `solve*`/`sample*`/
//! `probe*` entry point to an underlying solver invocation must pass a
//! budget admission check (`exhausted()` / `is_cancelled()`) first. This is
//! the path-sensitive upgrade of `cancel-poll`: the CEGIS loop is only as
//! cheap as its *refused* calls, so a branch that reaches the solver without
//! consulting the shared `Budget` (its deadline or its cancel token)
//! silently burns work the budget already said no to.
//!
//! The analysis is intra-procedural over each function's CFG, with two
//! interprocedural summaries over the name-union call graph:
//!
//! * **always-checks** (least fixpoint): a function that performs an
//!   admission check on *every* path from entry to exit summarizes as a gen
//!   — a call to it counts as a check at the call site.
//! * **safe** (greatest fixpoint): a function whose own solver invocations
//!   are all dominated by checks needs no check before calls to it — its
//!   admission is internal (this is how `Oracle::sample_cnf` delegating to the
//!   per-sample-admitting `Sampler::sample` stays clean).
//!
//! A *solve event* is a direct call to a configured solve marker (the
//! low-level `solve`/`solve_with_assumptions`/`solve_under_assumptions`
//! invocation names), or a call to a function that may (transitively) solve
//! and is not itself safe. The rule reports every event in an entry
//! function where the one-bit "checked" must-analysis does not hold.
//!
//! Like every rule here, imprecision biases toward passing: the check is
//! only required to be *performed* on the path, not proven to gate the
//! solve, and name-union merges same-named functions. A miss is therefore a
//! real path with no admission check anywhere on it.

use super::support::{body_token_line, call_sites, is_call_at, CfgCache};
use super::{Rule, Workspace};
use crate::config::LintConfig;
use crate::dataflow::{forward, BitSet, Meet};
use crate::diag::Diagnostic;
use crate::source::{FnItem, SourceFile};
use std::collections::{BTreeMap, BTreeSet};

pub struct BudgetBeforeSolve;

impl Rule for BudgetBeforeSolve {
    fn name(&self) -> &'static str {
        "budget-before-solve"
    }

    fn description(&self) -> &'static str {
        "every path from a pub solve/sample/probe entry to a solver invocation checks the budget"
    }

    fn check(&self, workspace: &Workspace, config: &LintConfig) -> Vec<Diagnostic> {
        let prefixes_default = [
            "solve".to_string(),
            "sample".to_string(),
            "probe".to_string(),
        ];
        let prefixes = config.list_or(self.name(), "entry-prefixes", &prefixes_default);
        let scopes_default = [
            "crates/core/src/oracle.rs".to_string(),
            "crates/maxsat/src".to_string(),
            "crates/sampler/src".to_string(),
        ];
        let scopes = config.list_or(self.name(), "scopes", &scopes_default);
        let checks_default = ["exhausted".to_string(), "is_cancelled".to_string()];
        let checks = config.list_or(self.name(), "check-markers", &checks_default);
        let solves_default = [
            "solve".to_string(),
            "solve_with_assumptions".to_string(),
            "solve_under_assumptions".to_string(),
        ];
        let solves = config.list_or(self.name(), "solve-markers", &solves_default);

        let mut analysis = Analysis {
            workspace,
            cfgs: CfgCache::default(),
            checks,
            solves,
            may_solve: BTreeSet::new(),
            always_checks: BTreeSet::new(),
            safe: BTreeSet::new(),
        };
        analysis.compute_summaries();

        let mut out = Vec::new();
        for file in &workspace.files {
            if !scopes.iter().any(|s| file.rel_path.starts_with(s.as_str())) {
                continue;
            }
            for f in &file.functions {
                if !f.is_pub || f.in_test || !matches_prefix(&f.name, prefixes) {
                    continue;
                }
                for event in analysis.unchecked_events(file, f) {
                    out.push(Diagnostic {
                        rule: self.name(),
                        file: file.rel_path.clone(),
                        line: event.line,
                        symbol: Some(f.name.clone()),
                        message: event.message,
                    });
                }
            }
        }
        out
    }
}

/// Word-boundary prefix match (shared convention with `cancel-poll`).
fn matches_prefix(name: &str, prefixes: &[String]) -> bool {
    prefixes.iter().any(|p| {
        name.strip_prefix(p.as_str())
            .is_some_and(|rest| rest.is_empty() || rest.starts_with('_'))
    })
}

/// An unchecked solve event, ready to report.
struct UncheckedEvent {
    line: u32,
    message: String,
}

struct Analysis<'a> {
    workspace: &'a Workspace,
    cfgs: CfgCache,
    checks: &'a [String],
    solves: &'a [String],
    /// Names that may (transitively) invoke a solver.
    may_solve: BTreeSet<String>,
    /// Names whose every fn checks the budget on every entry-to-exit path.
    always_checks: BTreeSet<String>,
    /// Names whose every fn has all its solve events dominated by checks.
    safe: BTreeSet<String>,
}

impl<'a> Analysis<'a> {
    fn compute_summaries(&mut self) {
        // may_solve: least fixpoint over the name-union call graph.
        let ws = self.workspace;
        let mut fns_by_name: BTreeMap<&'a str, Vec<(&'a SourceFile, &'a FnItem)>> = BTreeMap::new();
        for file in &ws.files {
            for f in &file.functions {
                if !f.in_test {
                    fns_by_name
                        .entry(f.name.as_str())
                        .or_default()
                        .push((file, f));
                }
            }
        }
        let mut changed = true;
        while changed {
            changed = false;
            for (name, fns) in &fns_by_name {
                if self.may_solve.contains(*name) {
                    continue;
                }
                let hits = fns.iter().any(|(_, f)| {
                    f.calls
                        .iter()
                        .any(|c| self.solves.iter().any(|s| s == c) || self.may_solve.contains(c))
                });
                if hits {
                    self.may_solve.insert((*name).to_string());
                    changed = true;
                }
            }
        }

        // always_checks: least fixpoint; every fn of the name must check at
        // exit on all paths, given the current gen set.
        let mut changed = true;
        while changed {
            changed = false;
            for (name, fns) in &fns_by_name {
                if self.always_checks.contains(*name) {
                    continue;
                }
                let all =
                    !fns.is_empty() && fns.iter().all(|(file, f)| self.checks_at_exit(file, f));
                if all {
                    self.always_checks.insert((*name).to_string());
                    changed = true;
                }
            }
        }

        // safe: greatest fixpoint; start optimistic, strike out functions
        // with unchecked events until stable.
        self.safe = fns_by_name.keys().map(|n| n.to_string()).collect();
        let mut changed = true;
        while changed {
            changed = false;
            for (name, fns) in &fns_by_name {
                if !self.safe.contains(*name) {
                    continue;
                }
                let bad = fns
                    .iter()
                    .any(|(file, f)| !self.unchecked_events(file, f).is_empty());
                if bad {
                    self.safe.remove(*name);
                    changed = true;
                }
            }
        }
    }

    /// `true` if a check-marker call (or an always-checks callee call)
    /// happens on every path from `f`'s entry to its exit.
    fn checks_at_exit(&mut self, file: &SourceFile, f: &FnItem) -> bool {
        if f.body.is_empty() {
            return false;
        }
        let body = &file.tokens()[f.body.clone()];
        let gens = self.gen_positions(body);
        if gens.is_empty() {
            return false; // cheap cut: no gen anywhere
        }
        let cfg = self.cfgs.cfg(file, f).clone();
        let mut transfer = |id: usize, input: &BitSet| {
            let mut out = input.clone();
            if cfg.nodes[id].tokens.clone().any(|i| gens.contains(&i)) {
                out.insert(0);
            }
            out
        };
        let sol = forward(&cfg, 1, Meet::Intersect, BitSet::empty(1), &mut transfer);
        sol.input[cfg.exit].contains(0)
    }

    /// Body-relative positions of gen calls: check markers and calls to
    /// always-checks names.
    fn gen_positions(&self, body: &[crate::lexer::Token]) -> BTreeSet<usize> {
        (0..body.len())
            .filter(|&i| {
                is_call_at(body, i)
                    && (self.checks.iter().any(|c| body[i].is_ident(c))
                        || self.always_checks.contains(&body[i].text))
            })
            .collect()
    }

    /// The solve events of `f` not dominated by a check, with report lines.
    fn unchecked_events(&mut self, file: &SourceFile, f: &FnItem) -> Vec<UncheckedEvent> {
        if f.body.is_empty() {
            return Vec::new();
        }
        let body = &file.tokens()[f.body.clone()];
        let gens = self.gen_positions(body);
        let events: Vec<(usize, String, bool)> = call_sites(file, f)
            .into_iter()
            .filter_map(|(i, name)| {
                if self.solves.iter().any(|s| s == name) {
                    Some((i, name.to_string(), true))
                } else if self.may_solve.contains(name)
                    && !self.safe.contains(name)
                    && !self.always_checks.contains(name)
                {
                    Some((i, name.to_string(), false))
                } else {
                    None
                }
            })
            .collect();
        if events.is_empty() {
            return Vec::new();
        }
        let cfg = self.cfgs.cfg(file, f).clone();
        let mut transfer = |id: usize, input: &BitSet| {
            let mut out = input.clone();
            if cfg.nodes[id].tokens.clone().any(|i| gens.contains(&i)) {
                out.insert(0);
            }
            out
        };
        let sol = forward(&cfg, 1, Meet::Intersect, BitSet::empty(1), &mut transfer);
        let mut out = Vec::new();
        for (node_id, node) in cfg.nodes.iter().enumerate() {
            let mut checked = sol.input[node_id].contains(0);
            for i in node.tokens.clone() {
                if gens.contains(&i) {
                    checked = true;
                }
                if let Some((_, name, direct)) = events.iter().find(|(e, _, _)| *e == i) {
                    if !checked {
                        let line = body_token_line(file, f, i);
                        let message = if *direct {
                            format!(
                                "solver invocation `{}` is reachable without a budget \
                                 admission check ({}) on some path",
                                name,
                                self.checks.join("/"),
                            )
                        } else {
                            format!(
                                "call to `{}` may reach a solver invocation, and no budget \
                                 admission check ({}) dominates it on some path",
                                name,
                                self.checks.join("/"),
                            )
                        };
                        out.push(UncheckedEvent { line, message });
                    }
                }
            }
        }
        out
    }
}
