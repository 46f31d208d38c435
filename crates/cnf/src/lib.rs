//! CNF infrastructure for the Manthan3 reproduction.
//!
//! This crate provides the propositional building blocks shared by every other
//! crate in the workspace:
//!
//! * [`Var`] and [`Lit`] — compact, copyable variable/literal handles,
//! * [`Clause`] and [`Cnf`] — clause and formula containers with evaluation,
//! * [`Assignment`] — total valuations,
//! * [`dimacs`] — DIMACS parsing and printing,
//! * [`ClauseSink`] — the destination of generated clauses: a [`Cnf`] here, a
//!   SAT solver in `manthan3-sat`, so encoders write straight into the solver
//!   that uses their clauses.
//!
//! # Examples
//!
//! ```
//! use manthan3_cnf::{Cnf, Lit, Var};
//!
//! let mut cnf = Cnf::new(2);
//! let a = Lit::positive(Var::new(0));
//! let b = Lit::positive(Var::new(1));
//! cnf.add_clause([a, b]);
//! cnf.add_clause([!a, !b]);
//! assert_eq!(cnf.num_clauses(), 2);
//! ```

#![warn(missing_docs)]

mod assignment;
mod clause;
pub mod dimacs;
mod formula;
mod lit;
mod sink;

pub use assignment::Assignment;
pub use clause::Clause;
pub use dimacs::ParseDimacsError;
pub use formula::Cnf;
pub use lit::{Lit, Var};
pub use sink::ClauseSink;
