//! `clauseref-across-gc` (v2): no `ClauseRef` local may be used after a
//! call that can run clause-arena garbage collection, unless it is rebound
//! first. GC compacts the arena and remaps every *tracked* reference
//! through the relocation table — but a stale local still indexes the old
//! layout, silently reading a different clause (or freed space) afterwards.
//! This is the classic arena bug class; the solver hit exactly this shape
//! before the arena landed its forwarding headers.
//!
//! v1 was a lexical heuristic (binding … trigger … use, in token order),
//! which both missed uses reached only through control flow and flagged
//! code that rebinds on every path after the GC. v2 is a forward
//! may-analysis over the function's CFG with one "may be stale" bit per
//! tracked variable:
//!
//! * a **definition** — `let` pattern, `for` pattern, `match` arm binding,
//!   or assignment (including the remap idiom
//!   `*cref = reloc.forward(*cref)`) — *kills* the bit: the variable now
//!   holds a post-GC value;
//! * a call to a configured **GC trigger** *gens* the bit for every
//!   tracked variable: whatever they held may have moved;
//! * a **use** of a variable whose bit may be set is a violation.
//!
//! "May" is the right polarity: a use is flagged iff *some* path reaches it
//! through a GC trigger with no intervening rebind — exactly the stale-ref
//! condition. Code that remaps on every path (e.g. `collect_garbage`'s own
//! relocation loops) comes out clean with no allowlist entry.
//!
//! Tracked variables are the configured ref-idents plus any identifier with
//! an explicit `: ClauseRef` ascription. Field accesses (`self.cref`) are
//! not tracked — only locals go stale silently; fields are the remapper's
//! own responsibility and have their own tracked-refs discipline.

use super::support::{body_token_line, in_scope, CfgCache};
use super::{Rule, Workspace};
use crate::config::{Key, LintConfig};
use crate::dataflow::{forward, BitSet, Meet};
use crate::diag::Diagnostic;
use crate::lexer::{Token, TokenKind};
use crate::source::{FnItem, SourceFile};
use std::collections::{BTreeMap, BTreeSet};

pub struct ClauseRefAcrossGc;

impl Rule for ClauseRefAcrossGc {
    fn name(&self) -> &'static str {
        "clauseref-across-gc"
    }

    fn description(&self) -> &'static str {
        "no ClauseRef local may be used after arena GC on any path without being rebound"
    }

    fn keys(&self) -> &'static [Key] {
        &[
            Key::List("scopes"),
            Key::List("gc-triggers"),
            Key::List("ref-idents"),
        ]
    }

    fn check(&self, workspace: &Workspace, config: &LintConfig) -> Vec<Diagnostic> {
        let scopes = config.list(self.name(), "scopes");
        let triggers = config.list(self.name(), "gc-triggers");
        let ref_idents = config.list(self.name(), "ref-idents");

        let mut cfgs = CfgCache::default();
        let mut out = Vec::new();
        for file in workspace.files.iter().filter(|file| in_scope(file, scopes)) {
            for f in &file.functions {
                if f.in_test || f.body.is_empty() {
                    continue;
                }
                check_fn(
                    self.name(),
                    file,
                    f,
                    triggers,
                    ref_idents,
                    &mut cfgs,
                    &mut out,
                );
            }
        }
        out
    }
}

/// The per-function token model: tracked variables, definition sites, GC
/// trigger sites.
struct FnModel {
    vars: Vec<String>,
    /// body-relative token index of a defined variable -> var number.
    defs: BTreeMap<usize, usize>,
    /// body-relative token indices of GC-trigger call names.
    triggers: BTreeSet<usize>,
    trigger_names: BTreeSet<String>,
}

fn check_fn(
    rule: &'static str,
    file: &SourceFile,
    f: &FnItem,
    triggers: &[String],
    ref_idents: &[String],
    cfgs: &mut CfgCache,
    out: &mut Vec<Diagnostic>,
) {
    let body = &file.tokens()[f.body.clone()];
    let model = build_model(body, triggers, ref_idents);
    if model.vars.is_empty() || model.triggers.is_empty() {
        return;
    }

    let cfg = cfgs.cfg(file, f).clone();
    let replay = |state: &mut BitSet, i: usize, model: &FnModel| {
        if let Some(&v) = model.defs.get(&i) {
            state.remove(v);
        } else if model.triggers.contains(&i) {
            for v in 0..model.vars.len() {
                state.insert(v);
            }
        }
    };
    let mut transfer = |id: usize, input: &BitSet| {
        let mut state = input.clone();
        for i in cfg.nodes[id].tokens.clone() {
            replay(&mut state, i, &model);
        }
        state
    };
    let sol = forward(
        &cfg,
        model.vars.len(),
        Meet::Union,
        BitSet::empty(model.vars.len()),
        &mut transfer,
    );

    // Report the first may-stale use of each variable.
    let mut reported: BTreeSet<usize> = BTreeSet::new();
    for (id, node) in cfg.nodes.iter().enumerate() {
        let mut state = sol.input[id].clone();
        for i in node.tokens.clone() {
            if let Some(v) = use_at(body, i, &model) {
                if state.contains(v) && reported.insert(v) {
                    out.push(Diagnostic {
                        rule,
                        file: file.rel_path.clone(),
                        line: body_token_line(file, f, i),
                        symbol: Some(f.name.clone()),
                        message: format!(
                            "ClauseRef `{}` may be used after a GC-triggering call ({}) \
                             on some path without being rebound; the arena may have been \
                             compacted under it",
                            model.vars[v],
                            model
                                .trigger_names
                                .iter()
                                .cloned()
                                .collect::<Vec<_>>()
                                .join("/"),
                        ),
                    });
                }
            }
            replay(&mut state, i, &model);
        }
    }
}

/// `Some(var)` if body token `i` is a *use* of a tracked variable: a
/// tracked identifier that is not a definition site and not a field access
/// (`.name`).
fn use_at(body: &[Token], i: usize, model: &FnModel) -> Option<usize> {
    if model.defs.contains_key(&i) {
        return None;
    }
    let t = &body[i];
    if t.kind != TokenKind::Ident {
        return None;
    }
    if i > 0 && (body[i - 1].is_punct(".") || body[i - 1].is_punct("::")) {
        return None;
    }
    model.vars.iter().position(|v| t.is_ident(v))
}

/// Builds the [`FnModel`]: which identifiers are tracked, where they are
/// defined, and where the GC triggers are called.
fn build_model(body: &[Token], triggers: &[String], ref_idents: &[String]) -> FnModel {
    // Pass 1: tracked variable names — configured idents that occur, plus
    // anything locally ascribed `: ClauseRef`.
    let mut names: BTreeSet<String> = BTreeSet::new();
    for (i, t) in body.iter().enumerate() {
        if t.kind != TokenKind::Ident {
            continue;
        }
        let configured = ref_idents.iter().any(|r| t.is_ident(r));
        let ascribed = body.get(i + 1).is_some_and(|t| t.is_punct(":"))
            && body.get(i + 2).is_some_and(|t| t.is_ident("ClauseRef"));
        if configured || ascribed {
            names.insert(t.text.clone());
        }
    }
    let vars: Vec<String> = names.into_iter().collect();
    let var_of = |t: &Token| -> Option<usize> {
        (t.kind == TokenKind::Ident).then(|| vars.iter().position(|v| t.is_ident(v)))?
    };

    let mut defs: BTreeMap<usize, usize> = BTreeMap::new();
    let mut trigger_sites: BTreeSet<usize> = BTreeSet::new();
    let mut trigger_names: BTreeSet<String> = BTreeSet::new();
    let mut i = 0;
    while i < body.len() {
        let t = &body[i];
        if t.is_ident("let") {
            // Every tracked ident in the pattern (up to the initializing `=`
            // or the terminating `;`) is a definition.
            let mut j = i + 1;
            while j < body.len() {
                let t = &body[j];
                if t.is_punct(";") {
                    break;
                }
                if t.is_punct("=")
                    && !body.get(j + 1).is_some_and(|n| n.is_punct("="))
                    && !body.get(j + 1).is_some_and(|n| n.is_punct(">"))
                {
                    break;
                }
                if let Some(v) = var_of(t) {
                    defs.insert(j, v);
                }
                j += 1;
            }
            i = j;
            continue;
        }
        if t.is_ident("for") {
            // `for <pattern> in …`: pattern idents are definitions.
            let mut j = i + 1;
            while j < body.len() && !body[j].is_ident("in") {
                if let Some(v) = var_of(&body[j]) {
                    defs.insert(j, v);
                }
                j += 1;
            }
            i = j;
            continue;
        }
        if t.kind == TokenKind::Ident
            && triggers.iter().any(|g| t.is_ident(g))
            && body.get(i + 1).is_some_and(|n| n.is_punct("("))
        {
            trigger_sites.insert(i);
            trigger_names.insert(t.text.clone());
            i += 1;
            continue;
        }
        if let Some(v) = var_of(t) {
            let not_field = i == 0 || !(body[i - 1].is_punct(".") || body[i - 1].is_punct("::"));
            // Assignment `x = …` (not `==`, not `=>`): a rebind.
            let assigned = body.get(i + 1).is_some_and(|n| n.is_punct("="))
                && !body.get(i + 2).is_some_and(|n| n.is_punct("="))
                && !body.get(i + 2).is_some_and(|n| n.is_punct(">"));
            // Match-arm binding `x => …` or `Some(x) => …`.
            let mut j = i + 1;
            while body.get(j).is_some_and(|t| t.is_punct(")")) {
                j += 1;
            }
            let arm_bound = body.get(j).is_some_and(|t| t.is_punct("="))
                && body.get(j + 1).is_some_and(|t| t.is_punct(">"));
            if not_field && (assigned || arm_bound) {
                defs.insert(i, v);
            }
        }
        i += 1;
    }

    FnModel {
        vars,
        defs,
        triggers: trigger_sites,
        trigger_names,
    }
}
