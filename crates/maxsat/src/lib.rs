//! A weighted partial MaxSAT solver for the Manthan3 reproduction.
//!
//! This crate plays the role of Open-WBO in the original Manthan3 toolchain.
//! Manthan3 uses MaxSAT inside `FindCandi` (Algorithm 3, line 2): the
//! specification `ϕ(X,Y) ∧ (X ↔ σ[X])` is added as *hard* clauses and each
//! `(y_i ↔ σ[y'_i])` as a *soft* clause; the candidates selected for repair
//! are exactly the outputs whose soft clause is violated in the optimal
//! solution.
//!
//! The implementation relaxes each soft clause with a fresh relaxation
//! variable and searches linearly (UNSAT→SAT, then SAT→UNSAT) over the
//! number of violated softs, using a totalizer cardinality encoding and
//! assumption-based bounds on top of the [`manthan3_sat`] CDCL solver,
//! warm-started at the previous call's optimum. Integer weights are
//! supported by replicating relaxation literals inside the totalizer.
//!
//! # Incremental use
//!
//! The solver is built for long-lived incremental use, clausal-abstraction
//! style: hard clauses, soft clauses, and the totalizer are encoded **once**
//! (the totalizer lazily, cached across solve calls), and per-iteration
//! state rides in through [`MaxSatSolver::solve_under_assumptions`] — every
//! internal SAT query is made under the caller's assumption literals, so
//! "hard units" that change between iterations (a repair loop's `σ[X]` and
//! `σ[Y']` valuations, pinned via indirection variables) are retracted by
//! simply not assuming them on the next call. The underlying CDCL solver and
//! its learnt clauses survive between calls; periodic
//! [`MaxSatSolver::maintain`] passes (learnt-DB halving, level-0
//! compaction and inprocessing, via `Solver::maintain`) keep
//! hundreds-of-calls instances bounded.
//!
//! The only limit the solver itself observes is the
//! [`CancelToken`](manthan3_sat::CancelToken) of its SAT configuration,
//! polled before every internal probe; wall-clock deadlines are enforced
//! by the caller (the core crate's oracle refuses calls past the deadline).
//! Either way the call returns [`MaxSatResult::Unknown`].
//!
//! # Examples
//!
//! ```
//! use manthan3_cnf::{Lit, Var};
//! use manthan3_maxsat::{MaxSatResult, MaxSatSolver};
//!
//! let a = Var::new(0).positive();
//! let b = Var::new(1).positive();
//! let mut solver = MaxSatSolver::new();
//! solver.add_hard([a, b]);        // a ∨ b must hold
//! let s1 = solver.add_soft([!a], 1); // prefer ¬a
//! let s2 = solver.add_soft([!b], 1); // prefer ¬b
//! let result = solver.solve();
//! assert_eq!(result, MaxSatResult::Optimum { cost: 1 });
//! // Exactly one of the two soft clauses is violated.
//! assert_eq!(solver.violated_softs().len(), 1);
//! assert!(solver.violated_softs()[0] == s1 || solver.violated_softs()[0] == s2);
//! ```

#![warn(missing_docs)]

mod solver;
mod totalizer;

pub use solver::{MaxSatResult, MaxSatSolver, MaxSatStats, SoftId};
pub use totalizer::Totalizer;
