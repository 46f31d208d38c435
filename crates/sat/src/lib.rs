//! A CDCL SAT solver for the Manthan3 reproduction.
//!
//! This crate plays the role of PicoSAT / CryptoMiniSat in the original
//! Manthan3 toolchain. It provides:
//!
//! * conflict-driven clause learning with two-watched-literal propagation
//!   over a flat clause arena, VSIDS branching over an indexed activity
//!   heap (rebuilt when activities are rescaled), phase saving + rephasing,
//!   Glucose-style EMA restarts, LBD-managed learnt-clause deletion, and
//!   maintenance passes (learnt-DB reduction, level-0 simplification,
//!   arena compaction) that the solver schedules itself, at the start of
//!   the solve after every 32 retired activation literals,
//! * incremental solving under **assumptions**, with extraction of an
//!   **unsatisfiable core** over the assumption literals (the mechanism
//!   Manthan3 uses to compute repair cubes from `UnsatCore(G_k)`),
//! * configurable randomized branching and polarities, used by the
//!   constrained sampler crate `manthan3-sampler`,
//! * optional **DRAT proof logging** ([`SolverConfig::proof_logging`]):
//!   every UNSAT verdict — including assumption-scoped verdicts of
//!   incremental sessions — yields a [`Certificate`], a view of the
//!   integer proof log that the independent `manthan3-drat` crate checks
//!   without copying it.
//!
//! # Examples
//!
//! ```
//! use manthan3_sat::{SolveResult, Solver};
//!
//! let mut solver = Solver::new();
//! let a = solver.new_var().positive();
//! let b = solver.new_var().positive();
//! solver.add_clause([a, b]);
//! solver.add_clause([!a, b]);
//! assert_eq!(solver.solve(), SolveResult::Sat);
//! assert_eq!(solver.value(b.var()), Some(true));
//!
//! // Under the assumption ¬b the formula is unsatisfiable, and the core
//! // names the failing assumption.
//! assert_eq!(solver.solve_with_assumptions(&[!b]), SolveResult::Unsat);
//! assert_eq!(solver.unsat_core(), &[!b]);
//! ```

#![warn(missing_docs)]

pub mod arena;
mod cancel;
mod config;
mod lbd;
pub mod proof;
pub mod restart;
mod solver;
mod var_heap;

pub use cancel::CancelToken;
pub use config::SolverConfig;
pub use proof::{Certificate, LogPosition, ProofTracer};
pub use solver::{SolveResult, Solver, SolverStats};

use manthan3_cnf::{Assignment, Cnf};

/// Convenience helper: decides satisfiability of a [`Cnf`] and returns a
/// model if one exists, `None` if the formula is unsatisfiable.
///
/// # Examples
///
/// ```
/// use manthan3_cnf::dimacs::parse_dimacs;
/// use manthan3_sat::solve_cnf;
///
/// let cnf = parse_dimacs("p cnf 2 2\n1 2 0\n-1 0\n")?;
/// let model = solve_cnf(&cnf).expect("satisfiable");
/// assert!(cnf.eval(&model));
/// # Ok::<(), manthan3_cnf::ParseDimacsError>(())
/// ```
pub fn solve_cnf(cnf: &Cnf) -> Option<Assignment> {
    let mut solver = Solver::new();
    solver.add_cnf(cnf);
    match solver.solve() {
        SolveResult::Sat => Some(solver.model()),
        _ => None,
    }
}
