//! The path-coverage analysis shared by `budget-before-solve` and
//! `proof-discipline`, and the two rules as its two configurations.
//!
//! Each configuration names a set of **event** markers (calls that need
//! covering) and a set of **gen** markers (calls that cover them):
//!
//! * `budget-before-solve`: every path from a public `solve*`/`sample*`/
//!   `probe*` entry point to an underlying solver invocation must pass a
//!   budget admission check (`exhausted()` / `is_cancelled()`) first. This
//!   is the path-sensitive upgrade of `cancel-poll`: the CEGIS loop is only
//!   as cheap as its *refused* calls, so a branch that reaches the solver
//!   without consulting the shared `Budget` (its deadline or its cancel
//!   token) silently burns work the budget already said no to. A check
//!   covers a solve only from *before* it.
//! * `proof-discipline`: every function in the proof-logged crates that
//!   appends to or deletes from the clause arena must reach a `ProofTracer`
//!   emit on all paths through the mutation. The DRAT certificate is only
//!   as sound as the log's completeness — an arena write the tracer never
//!   sees is a clause the checker never propagates. An emit covers a
//!   mutation from *before or after* it.
//!
//! The analysis is intra-procedural over each function's CFG, with three
//! interprocedural summaries over the name-union call graph (every non-test
//! function sharing a name is merged):
//!
//! * **may-reach** (least fixpoint): names that (transitively) call an
//!   event marker — a call to such a name is itself an event unless the
//!   callee is safe. `cancel-poll` asks the same set about its poll markers.
//! * **always-gen** (least fixpoint): a function that performs a gen on
//!   *every* entry-to-exit path summarizes as a gen at its call sites.
//! * **safe** (greatest fixpoint): a function whose own events are all
//!   covered needs no cover around calls to it — its admission or logging
//!   is internal (this is how `Oracle::sample_cnf` delegating to the
//!   per-sample-admitting `Sampler::sample`, and the callers of
//!   `reduce_db`/`simplify`, stay clean).
//!
//! An event is covered *before* when a gen happens on all paths from the
//! entry to it (the forward must-pass), and *after* when a gen happens on
//! all paths from it to the exit (the same pass over the reversed CFG).
//! Within the event's own node, token order decides; a call that is both an
//! event and a gen covers itself.
//!
//! Like every rule here, imprecision biases toward passing judgment: the
//! gen is only required to be *performed* on the path, not proven to gate
//! the event, and name-union merges same-named functions, so a miss is a
//! real path with no gen anywhere on it. The two-sided must-form is
//! slightly stronger than the per-path disjunction (a function emitting
//! before the mutation on one path and after it on another is flagged),
//! which biases toward reporting only shapes where some path plausibly
//! skips the log entirely; in the solver the emit is adjacent to the
//! mutation, so the gap never bites. The one deliberate `proof-discipline`
//! exception — the original-formula load, whose clauses enter the
//! certificate CNF verbatim rather than through the proof — is allowlisted
//! in `lint.toml`.

use super::support::{body_token_line, call_sites, in_scope, is_call_at, matches_prefix, CfgCache};
use super::{Rule, Workspace};
use crate::cfg::{Cfg, Node};
use crate::config::{Key, LintConfig};
use crate::dataflow::{forward, BitSet, Meet, Solution};
use crate::diag::Diagnostic;
use crate::lexer::Token;
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

    fn keys(&self) -> &'static [Key] {
        &[
            Key::List("scopes"),
            Key::List("check-markers"),
            Key::List("solve-markers"),
            Key::List("entry-prefixes"),
        ]
    }

    fn check(&self, workspace: &Workspace, config: &LintConfig) -> Vec<Diagnostic> {
        let setting = |key| config.list(self.name(), key);
        let (checks, prefixes) = (setting("check-markers"), setting("entry-prefixes"));
        let mut coverage =
            Coverage::new(workspace, checks, setting("solve-markers"), Cover::Before);
        coverage.report(
            self.name(),
            setting("scopes"),
            |f| f.is_pub && matches_prefix(&f.name, prefixes),
            |event| {
                if event.direct {
                    format!(
                        "solver invocation `{}` is reachable without a budget \
                         admission check ({}) on some path",
                        event.name,
                        checks.join("/"),
                    )
                } else {
                    format!(
                        "call to `{}` may reach a solver invocation, and no budget \
                         admission check ({}) dominates it on some path",
                        event.name,
                        checks.join("/"),
                    )
                }
            },
        )
    }
}

pub struct ProofDiscipline;

impl Rule for ProofDiscipline {
    fn name(&self) -> &'static str {
        "proof-discipline"
    }

    fn description(&self) -> &'static str {
        "every clause-arena mutation reaches a ProofTracer emit on all paths"
    }

    fn keys(&self) -> &'static [Key] {
        &[
            Key::List("scopes"),
            Key::List("emit-markers"),
            Key::List("mutation-markers"),
        ]
    }

    fn check(&self, workspace: &Workspace, config: &LintConfig) -> Vec<Diagnostic> {
        let setting = |key| config.list(self.name(), key);
        let emits = setting("emit-markers");
        let mut coverage = Coverage::new(
            workspace,
            emits,
            setting("mutation-markers"),
            Cover::BeforeOrAfter,
        );
        coverage.report(
            self.name(),
            setting("scopes"),
            |_| true,
            |event| {
                if event.direct {
                    format!(
                        "clause-arena mutation `{}` is not covered by a ProofTracer \
                         emit ({}) on some path",
                        event.name,
                        emits.join("/"),
                    )
                } else {
                    format!(
                        "call to `{}` may mutate the clause arena, and no ProofTracer \
                         emit ({}) covers it on some path",
                        event.name,
                        emits.join("/"),
                    )
                }
            },
        )
    }
}

/// Which side of an event a gen may sit on and still cover it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Cover {
    /// On all paths from the entry to the event.
    Before,
    /// On all paths from the entry to the event, or on all paths from the
    /// event to the exit.
    BeforeOrAfter,
}

/// An uncovered event.
struct Uncovered<'a> {
    /// The source line of the call.
    line: u32,
    /// The called name.
    name: &'a str,
    /// `true` for a call to an event marker, `false` for a call to a name
    /// that may reach one.
    direct: bool,
}

/// Non-test functions grouped by name: the nodes of the name-union call
/// graph.
fn fns_by_name(workspace: &Workspace) -> BTreeMap<&str, Vec<(&SourceFile, &FnItem)>> {
    let mut fns: BTreeMap<&str, Vec<(&SourceFile, &FnItem)>> = BTreeMap::new();
    for file in &workspace.files {
        for f in file.functions.iter().filter(|f| !f.in_test) {
            fns.entry(f.name.as_str()).or_default().push((file, f));
        }
    }
    fns
}

/// Names of non-test functions that may (transitively, over the name-union
/// call graph) call one of `markers`.
pub(crate) fn may_reach(workspace: &Workspace, markers: &[String]) -> BTreeSet<String> {
    let by_name = fns_by_name(workspace);
    let mut reach = BTreeSet::new();
    let mut changed = true;
    while changed {
        changed = false;
        for (&name, fns) in &by_name {
            if reach.contains(name) {
                continue;
            }
            let hits = fns.iter().any(|(_, f)| {
                f.calls
                    .iter()
                    .any(|c| markers.contains(c) || reach.contains(c))
            });
            if hits {
                reach.insert(name.to_string());
                changed = true;
            }
        }
    }
    reach
}

/// One configuration of the analysis, with its summaries computed.
struct Coverage<'a> {
    workspace: &'a Workspace,
    cfgs: CfgCache,
    gens: &'a [String],
    events: &'a [String],
    cover: Cover,
    /// Names that may (transitively) call an event marker.
    may_reach: BTreeSet<String>,
    /// Names whose every fn performs a gen on every entry-to-exit path.
    always_gen: BTreeSet<String>,
    /// Names whose every fn has all its events covered.
    safe: BTreeSet<String>,
}

impl<'a> Coverage<'a> {
    fn new(
        workspace: &'a Workspace,
        gens: &'a [String],
        events: &'a [String],
        cover: Cover,
    ) -> Coverage<'a> {
        let by_name = fns_by_name(workspace);
        let mut coverage = Coverage {
            workspace,
            cfgs: CfgCache::default(),
            gens,
            events,
            cover,
            may_reach: may_reach(workspace, events),
            always_gen: BTreeSet::new(),
            safe: BTreeSet::new(),
        };

        // always_gen: least fixpoint; every fn of the name must gen at exit
        // on all paths, given the current summary.
        let mut changed = true;
        while changed {
            changed = false;
            for (&name, fns) in &by_name {
                if !coverage.always_gen.contains(name)
                    && fns.iter().all(|(file, f)| coverage.gens_at_exit(file, f))
                {
                    coverage.always_gen.insert(name.to_string());
                    changed = true;
                }
            }
        }

        // safe: greatest fixpoint; start optimistic, strike out names with
        // uncovered events until stable.
        coverage.safe = by_name.keys().map(|n| n.to_string()).collect();
        let mut changed = true;
        while changed {
            changed = false;
            for (&name, fns) in &by_name {
                if coverage.safe.contains(name)
                    && fns
                        .iter()
                        .any(|(file, f)| !coverage.uncovered(file, f).is_empty())
                {
                    coverage.safe.remove(name);
                    changed = true;
                }
            }
        }
        coverage
    }

    /// One diagnostic per uncovered event in every non-test function of an
    /// in-scope file that `is_entry` accepts.
    fn report(
        &mut self,
        rule: &'static str,
        scopes: &[String],
        is_entry: impl Fn(&FnItem) -> bool,
        message: impl Fn(&Uncovered) -> String,
    ) -> Vec<Diagnostic> {
        let workspace = self.workspace;
        let mut out = Vec::new();
        for file in workspace.files.iter().filter(|file| in_scope(file, scopes)) {
            for f in file.functions.iter().filter(|f| !f.in_test && is_entry(f)) {
                for event in self.uncovered(file, f) {
                    out.push(Diagnostic {
                        rule,
                        file: file.rel_path.clone(),
                        line: event.line,
                        symbol: Some(f.name.clone()),
                        message: message(&event),
                    });
                }
            }
        }
        out
    }

    /// `true` if a gen happens on every path from `f`'s entry to its exit.
    fn gens_at_exit(&mut self, file: &SourceFile, f: &FnItem) -> bool {
        let gens = self.gen_positions(&file.tokens()[f.body.clone()]);
        if gens.is_empty() {
            return false; // cheap cut: no gen anywhere (or an empty body)
        }
        let cfg = self.cfgs.cfg(file, f);
        must_gen(cfg, &gens).input[cfg.exit].contains(0)
    }

    /// Body-relative positions of gen calls: gen markers and calls to
    /// always-gen names.
    fn gen_positions(&self, body: &[Token]) -> BTreeSet<usize> {
        (0..body.len())
            .filter(|&i| {
                is_call_at(body, i)
                    && (self.gens.contains(&body[i].text)
                        || self.always_gen.contains(&body[i].text))
            })
            .collect()
    }

    /// The events of `f` that no gen covers, in CFG node order.
    fn uncovered<'f>(&mut self, file: &'f SourceFile, f: &FnItem) -> Vec<Uncovered<'f>> {
        let gens = self.gen_positions(&file.tokens()[f.body.clone()]);
        let mut events: BTreeMap<usize, Uncovered<'f>> = call_sites(file, f)
            .into_iter()
            .filter_map(|(i, name)| {
                let direct = self.events.iter().any(|e| e == name);
                let reaches = self.may_reach.contains(name)
                    && !self.safe.contains(name)
                    && !self.always_gen.contains(name);
                (direct || reaches).then(|| {
                    let line = body_token_line(file, f, i);
                    (i, Uncovered { line, name, direct })
                })
            })
            .collect();
        if events.is_empty() {
            return Vec::new();
        }
        let cfg = self.cfgs.cfg(file, f);
        let before = must_gen(cfg, &gens);
        let after = (self.cover == Cover::BeforeOrAfter).then(|| must_gen(&reversed(cfg), &gens));
        let mut out = Vec::new();
        for (id, node) in cfg.nodes.iter().enumerate() {
            for i in node.tokens.clone() {
                let Some(event) = events.remove(&i) else {
                    continue;
                };
                let covered_before = before.input[id].contains(0)
                    || (node.tokens.start..=i).any(|j| gens.contains(&j));
                let covered_after = after.as_ref().is_some_and(|after| {
                    after.input[id].contains(0)
                        || (i + 1..node.tokens.end).any(|j| gens.contains(&j))
                });
                if !covered_before && !covered_after {
                    out.push(event);
                }
            }
        }
        out
    }
}

/// The forward must-solution of "a gen has happened" over `cfg`.
fn must_gen(cfg: &Cfg, gens: &BTreeSet<usize>) -> Solution {
    let mut transfer = |id: usize, input: &BitSet| {
        let mut out = input.clone();
        if cfg.nodes[id].tokens.clone().any(|i| gens.contains(&i)) {
            out.insert(0);
        }
        out
    };
    forward(cfg, 1, Meet::Intersect, BitSet::empty(1), &mut transfer)
}

/// The edge-reversed CFG: running the forward must-solver over it yields the
/// backward "on all paths to the exit" analysis the after side needs.
fn reversed(cfg: &Cfg) -> Cfg {
    Cfg {
        nodes: cfg
            .nodes
            .iter()
            .map(|n| Node {
                tokens: n.tokens.clone(),
                succs: n.preds.clone(),
                preds: n.succs.clone(),
                loop_head: false,
            })
            .collect(),
        entry: cfg.exit,
        exit: cfg.entry,
        back_edges: Vec::new(),
    }
}
