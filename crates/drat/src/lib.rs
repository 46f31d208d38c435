//! manthan3-drat: a dependency-free RUP/DRAT proof checker.
//!
//! This crate is the **trusted core** of the workspace's certification
//! story: every UNSAT verdict the solver layer produces is accompanied by a
//! DRAT proof (emitted by `manthan3-sat`'s `ProofTracer`), and this checker
//! — which shares *no code* with the solver, not even the literal types —
//! replays the proof against the formula by unit propagation alone. A wrong
//! UNSAT verdict therefore cannot survive: either the solver's proof has a
//! non-RUP/non-RAT step and is rejected, or the derivation genuinely ends in
//! the empty clause.
//!
//! The crate is deliberately small and dependency-free (no unsafe code, no
//! workspace or external dependencies): the fewer lines stand between a
//! proof and its verdict, the more the verdict is worth.
//!
//! # Contents
//!
//! Two entry points share one checker core: two-watched-literal unit
//! propagation with a persistent top-level trail over clauses stored as
//! literal sets in one flat arena, deletion by literal set through hash
//! chains (deletions of unit clauses are ignored, the drat-trim convention
//! that keeps the persistent trail sound), and a per-lemma RUP check. Both
//! take the formula and the proof steps as DIMACS integers straight from
//! the caller, and poll an `is_cancelled` callback between proof chunks so
//! a long check inside a budgeted synthesis run stays preemptible.
//!
//! * [`check`] — the one-shot forward RUP/DRAT checker: one formula, one
//!   proof, a RAT-on-first-literal fallback for lemmas that are not RUP,
//!   and acceptance at the first verified empty clause. The
//!   `manthan3-drat check` binary and the tests use it.
//! * [`Session`] — a RUP-only checker that follows one solver's growing
//!   proof log across all of its UNSAT verdicts. Each
//!   [`Session::advance`] loads only the formula clauses and checks only
//!   the proof steps the log gained since the previous verdict, then proves
//!   the verdict by propagating its assumptions to a conflict. It admits
//!   RUP lemmas only: a RUP lemma stays implied when later formula clauses
//!   arrive, a RAT lemma need not (a later clause may contain its pivot's
//!   negation). Every lemma a `manthan3-sat` solver logs is RUP.
//! * [`parse_dimacs`] / [`write_dimacs`] — DIMACS CNF files (header
//!   optional on input, comments and blank lines skipped).
//! * [`parse_proof`] / [`parse_text_proof`] / [`parse_binary_proof`] /
//!   [`write_text_proof`] — DRAT proof files. Text is the classic `-1 2 0`
//!   / `d -1 2 0` line format; binary is the drat-trim wire format
//!   (`a`/`d` prefix bytes with variable-length literal encoding).
//!   [`parse_proof`] auto-detects. Text exists only at file boundaries:
//!   the `manthan3-drat check` binary and the dump of a rejected
//!   certificate.
//!
//! # Checking a certificate
//!
//! ```
//! use manthan3_drat::{check, CheckOutcome, Proof, ProofStep};
//!
//! // (x) ∧ (¬x ∨ y) ∧ (¬y) is UNSAT; deriving (y) and then ⊥ is RUP.
//! let cnf = vec![vec![1], vec![-1, 2], vec![-2]];
//! let proof = Proof {
//!     steps: vec![ProofStep::Add(vec![2]), ProofStep::Add(vec![])],
//! };
//! assert!(matches!(check(&cnf, &proof, || false), CheckOutcome::Verified(_)));
//! ```
//!
//! # Following a growing log
//!
//! ```
//! use manthan3_drat::{ProofStep, Session};
//!
//! let mut session = Session::new();
//! // Verdict 1: (¬x ∨ y) ∧ (¬y) is UNSAT under the assumption x, and the
//! // log holds the core clause (¬x).
//! let cnf = vec![vec![-1, 2], vec![-2]];
//! let log = vec![ProofStep::Add(vec![-1])];
//! assert!(session.advance(&cnf, log, &[1], || false).is_verified());
//! // Verdict 2: the solver gained (x ∨ z) and answered UNSAT under ¬z. The
//! // session loads the new clause only; (¬x) is still in force.
//! let no_steps: Vec<ProofStep> = Vec::new();
//! assert!(session.advance([[1, 3]], no_steps, &[-3], || false).is_verified());
//! ```
//!
//! From the command line:
//! `cargo run -p manthan3-drat -- check formula.cnf proof.drat`.

#![warn(missing_docs)]

mod checker;
mod parse;
mod write;

pub use checker::{check, CheckOutcome, CheckStats, Session};
pub use parse::{
    parse_binary_proof, parse_dimacs, parse_proof, parse_text_proof, Dimacs, ParseError,
};
pub use write::{write_dimacs, write_text_proof};

/// A DIMACS literal: nonzero, sign is polarity (`3` = variable 3 true,
/// `-3` = variable 3 false).
pub type Lit = i32;

/// One step of a DRAT proof. `L` holds the literals: owned in a parsed
/// [`Proof`], borrowed (`&[Lit]`) when a caller hands its own log to
/// [`check`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProofStep<L = Vec<Lit>> {
    /// Add the clause to the formula, after checking it is RUP (or RAT on
    /// its first literal). The empty clause ends the proof.
    Add(L),
    /// Delete the clause from the formula. Deletions of unit or empty
    /// clauses are ignored (the drat-trim convention: retracting a unit
    /// would invalidate the persistent trail).
    Delete(L),
}

impl<L: AsRef<[Lit]>> ProofStep<L> {
    /// The same step with its literals borrowed.
    pub fn as_slice(&self) -> ProofStep<&[Lit]> {
        match self {
            ProofStep::Add(lits) => ProofStep::Add(lits.as_ref()),
            ProofStep::Delete(lits) => ProofStep::Delete(lits.as_ref()),
        }
    }
}

/// A `(deletion, literals)` pair: the form in which a proof log hands its
/// steps over without depending on this crate.
impl<L> From<(bool, L)> for ProofStep<L> {
    fn from((delete, lits): (bool, L)) -> Self {
        if delete {
            ProofStep::Delete(lits)
        } else {
            ProofStep::Add(lits)
        }
    }
}

/// A parsed DRAT proof: the ordered add/delete steps.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Proof {
    /// The proof steps, in emission order.
    pub steps: Vec<ProofStep>,
}

/// A parsed proof is checked (or written) step by borrowed step.
impl<'a> IntoIterator for &'a Proof {
    type Item = ProofStep<&'a [Lit]>;
    type IntoIter =
        std::iter::Map<std::slice::Iter<'a, ProofStep>, fn(&'a ProofStep) -> Self::Item>;

    fn into_iter(self) -> Self::IntoIter {
        self.steps.iter().map(ProofStep::as_slice)
    }
}
