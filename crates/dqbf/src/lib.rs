//! DQBF formulas, Henkin functions and certificate checking.
//!
//! A *Dependency Quantified Boolean Formula* (DQBF) has the form
//! `∀x1…xn ∃^{H1}y1 … ∃^{Hm}ym. ϕ(X,Y)` where every existential variable
//! `y_i` is annotated with a *Henkin dependency set* `H_i ⊆ X`. The formula is
//! **true** iff there exist functions `f_i : {0,1}^{|H_i|} → {0,1}` such that
//! substituting each `y_i` by `f_i(H_i)` makes `ϕ` a tautology; such an
//! `f = ⟨f_1,…,f_m⟩` is a *Henkin function vector*, and computing one is the
//! **Henkin synthesis** problem solved by Manthan3.
//!
//! This crate provides:
//!
//! * [`Dqbf`] — the formula type (prefix + CNF matrix),
//! * [`parse_dqdimacs`] / [`write_dqdimacs`] — the DQDIMACS exchange format,
//! * [`HenkinVector`] — candidate/final function vectors stored as AIGs,
//! * [`verify`] — the SAT-based certificate check
//!   `¬ϕ(X,Y') ∧ (Y' ↔ f)` of Lemma 1 in the paper,
//! * [`semantics`] — brute-force truth evaluation for small instances
//!   (used as an independent test oracle),
//! * [`unique`] — Padoa-style unique-definition extraction (the role played
//!   by the UNIQUE tool in the paper's implementation).
//!
//! # Examples
//!
//! ```
//! use manthan3_cnf::{Lit, Var};
//! use manthan3_dqbf::{Dqbf, HenkinVector, verify::check};
//!
//! // ∀x1 ∃^{x1}y1. (x1 ∨ y1): y1 := ¬x1 is a Henkin function.
//! let x1 = Var::new(0);
//! let y1 = Var::new(1);
//! let mut dqbf = Dqbf::new();
//! dqbf.add_universal(x1);
//! dqbf.add_existential(y1, [x1]);
//! dqbf.add_clause([x1.positive(), y1.positive()]);
//!
//! let mut vector = HenkinVector::new();
//! let input = vector.aig_mut().input(x1.index());
//! vector.set(y1, !input);
//! assert!(check(&dqbf, &vector).is_valid());
//! ```

#![warn(missing_docs)]

mod formula;
mod henkin;
mod parser;
pub mod semantics;
pub mod unique;
pub mod verify;

pub use formula::{Dqbf, DqbfError};
pub use henkin::HenkinVector;
pub use parser::{parse_dqdimacs, write_dqdimacs, ParseDqdimacsError};
