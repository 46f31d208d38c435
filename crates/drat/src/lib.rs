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
//! * [`parse_dimacs`] — a minimal DIMACS CNF parser (header optional,
//!   comments and blank lines skipped).
//! * [`parse_proof`] / [`parse_text_proof`] / [`parse_binary_proof`] — the
//!   DRAT proof parsers. Text is the classic `-1 2 0` / `d -1 2 0` line
//!   format; binary is the drat-trim wire format (`a`/`d` prefix bytes with
//!   variable-length literal encoding). [`parse_proof`] auto-detects.
//! * [`check`] / [`check_with_cancel`] — the forward RUP/DRAT checker:
//!   two-watched-literal unit propagation with a persistent top-level trail,
//!   per-lemma RUP check with a RAT-on-first-literal fallback, deletion
//!   handling (deletions of unit clauses are ignored, the drat-trim
//!   convention that keeps the persistent trail sound), and acceptance at
//!   the first verified empty clause.
//! * [`CancelFlag`] — a minimal cooperative-cancellation handle the checker
//!   polls between proof chunks, so a long verification inside a budgeted
//!   synthesis run stays preemptible.
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
//! assert!(matches!(check(&cnf, &proof), CheckOutcome::Verified(_)));
//! ```
//!
//! From the command line:
//! `cargo run -p manthan3-drat -- check formula.cnf proof.drat`.

#![warn(missing_docs)]

mod cancel;
mod checker;
mod parse;

pub use cancel::CancelFlag;
pub use checker::{check, check_with_cancel, CheckOutcome, CheckStats};
pub use parse::{
    parse_binary_proof, parse_dimacs, parse_proof, parse_text_proof, Dimacs, ParseError,
};

/// A DIMACS literal: nonzero, sign is polarity (`3` = variable 3 true,
/// `-3` = variable 3 false).
pub type Lit = i32;

/// One step of a DRAT proof.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProofStep {
    /// Add the clause to the formula, after checking it is RUP (or RAT on
    /// its first literal). The empty clause ends the proof.
    Add(Vec<Lit>),
    /// Delete the clause from the formula. Deletions of unit or empty
    /// clauses are ignored (the drat-trim convention: retracting a unit
    /// would invalidate the persistent trail).
    Delete(Vec<Lit>),
}

/// A parsed DRAT proof: the ordered add/delete steps.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Proof {
    /// The proof steps, in emission order.
    pub steps: Vec<ProofStep>,
}

impl Proof {
    /// Number of addition steps.
    pub fn num_adds(&self) -> usize {
        self.steps
            .iter()
            .filter(|s| matches!(s, ProofStep::Add(_)))
            .count()
    }

    /// Number of deletion steps.
    pub fn num_deletes(&self) -> usize {
        self.steps.len() - self.num_adds()
    }
}
