//! A partial MaxSAT solver for the Manthan3 reproduction: every soft clause
//! has weight 1, the one shape FindCandidates asks for.
//!
//! This crate plays the role of Open-WBO in the original Manthan3 toolchain.
//! Manthan3 uses MaxSAT inside `FindCandi` (Algorithm 3, line 2): the
//! specification `ϕ(X,Y) ∧ (X ↔ δ[X])` is added as *hard* clauses and each
//! `(y_i ↔ δ[y'_i])` as a *soft* clause, for the counterexample δ; the candidates selected for repair
//! are exactly the outputs whose soft clause is violated in the optimal
//! solution.
//!
//! The implementation relaxes each soft clause with a fresh relaxation
//! variable and searches linearly (UNSAT→SAT, then SAT→UNSAT) over the
//! number of violated softs, using a totalizer cardinality encoding and
//! assumption-based bounds on top of the [`manthan3_sat`] CDCL solver,
//! warm-started at the previous call's optimum.
//!
//! The search opens with the optimistic probe, every soft clause assumed
//! satisfied, and makes no separate check that the hard clauses are
//! satisfiable: its first SAT probe shows that. A refuted probe whose UNSAT
//! core holds none of the probe's own literals (relaxation or bound
//! literals) shows the hard clauses refuted under the caller's assumptions;
//! one plain probe under those assumptions then gives the
//! [`MaxSatResult::HardUnsat`] verdict, so its certificate scopes in the
//! caller's assumptions alone.
//!
//! # Incremental use
//!
//! The solver is built for long-lived incremental use, clausal-abstraction
//! style: hard clauses, soft clauses, and the totalizer are encoded **once**
//! (the totalizer lazily, cached across solve calls), and per-iteration
//! state rides in through [`MaxSatSolver::solve_under_assumptions`] — every
//! internal SAT query is made under the caller's assumption literals, so
//! "hard units" that change between iterations (a repair loop's `δ[X]` and
//! `δ[Y']` valuations, pinned via indirection variables) are retracted by
//! simply not assuming them on the next call. The underlying CDCL solver and
//! its learnt clauses survive between calls. The instance keeps itself
//! bounded: the call after every 32nd opens with a maintenance pass
//! (learnt-DB halving and level-0 compaction, via `Solver::maintain`), so
//! hundreds-of-calls instances need no maintenance from their owner.
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
//! let s1 = solver.add_soft([!a]); // prefer ¬a
//! let s2 = solver.add_soft([!b]); // prefer ¬b
//! let result = solver.solve();
//! assert_eq!(result, MaxSatResult::Optimum { cost: 1 });
//! // Exactly one of the two soft clauses is violated.
//! let violated: Vec<_> = solver.violated_softs().collect();
//! assert_eq!(violated.len(), 1);
//! assert!(violated[0] == s1 || violated[0] == s2);
//! ```

#![warn(missing_docs)]

mod solver;
mod totalizer;

pub use solver::{MaxSatResult, MaxSatSolver, MaxSatStats, SoftId};
pub use totalizer::Totalizer;
