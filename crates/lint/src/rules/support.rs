//! Shared helpers for the rules: scope and entry-point matching, call-site
//! detection, per-function CFG construction, and line mapping.

use crate::cfg::Cfg;
use crate::lexer::{Token, TokenKind};
use crate::source::{FnItem, SourceFile};
use std::collections::BTreeMap;

/// `true` if the identifier token at `i` is used as a call: directly
/// followed by `(`, or by a turbofish `::<…>(`.
pub fn is_call_at(tokens: &[Token], i: usize) -> bool {
    if tokens[i].kind != TokenKind::Ident {
        return false;
    }
    match tokens.get(i + 1) {
        Some(t) if t.is_punct("(") => true,
        Some(t) if t.is_punct("::") => tokens.get(i + 2).is_some_and(|t| t.is_punct("<")),
        _ => false,
    }
}

/// `true` if `file` lies under one of the `scopes` path prefixes.
pub fn in_scope(file: &SourceFile, scopes: &[String]) -> bool {
    scopes.iter().any(|s| file.rel_path.starts_with(s.as_str()))
}

/// Word-boundary prefix match: `solve` matches `solve` and
/// `solve_with_assumptions` but not `solver_config`.
pub fn matches_prefix(name: &str, prefixes: &[String]) -> bool {
    prefixes.iter().any(|p| {
        name.strip_prefix(p.as_str())
            .is_some_and(|rest| rest.is_empty() || rest.starts_with('_'))
    })
}

/// A per-file cache of function CFGs keyed by the function's body range, so
/// rules sharing the workspace don't rebuild graphs.
#[derive(Default)]
pub struct CfgCache {
    by_fn: BTreeMap<(String, usize, usize), Cfg>,
}

impl CfgCache {
    /// The CFG of `f`'s body within `file` (built on first request).
    pub fn cfg(&mut self, file: &SourceFile, f: &FnItem) -> &Cfg {
        self.by_fn
            .entry((file.rel_path.clone(), f.body.start, f.body.end))
            .or_insert_with(|| Cfg::build(&file.tokens()[f.body.clone()]))
    }
}

/// The source line of body-relative token `i` of `f` (falling back to the
/// `fn` line for empty bodies).
pub fn body_token_line(file: &SourceFile, f: &FnItem, i: usize) -> u32 {
    file.tokens()
        .get(f.body.start + i)
        .map(|t| t.line)
        .unwrap_or(f.line)
}

/// All `(body-relative index, called name)` pairs in `f`'s body.
pub fn call_sites<'a>(file: &'a SourceFile, f: &FnItem) -> Vec<(usize, &'a str)> {
    let body = &file.tokens()[f.body.clone()];
    (0..body.len())
        .filter(|&i| is_call_at(body, i))
        .map(|i| (i, body[i].text.as_str()))
        .collect()
}
