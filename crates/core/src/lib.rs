//! Manthan3: data-driven Henkin function synthesis.
//!
//! This crate implements the core contribution of *"Synthesis with Explicit
//! Dependencies"* (DATE 2023): given a DQBF
//! `∀X ∃^{H1}y1 … ∃^{Hm}ym. ϕ(X,Y)`, synthesize a Henkin function vector
//! `f = ⟨f1,…,fm⟩` (each `f_i` over its dependency set `H_i` only) such that
//! `ϕ(X, f(H))` is a tautology — or report that the formula is false.
//!
//! # Architecture: a staged pipeline on a persistent oracle layer
//!
//! [`Manthan3::synthesize`] runs five explicit stages that share one
//! `SynthesisCtx` (the run's candidate vector, statistics, and [`Oracle`]):
//!
//! ```text
//! Preprocess → Sample → Learn → Order → VerifyRepair
//! ```
//!
//! 1. **Preprocess** — open the run's persistent [`VerifySession`], rule out
//!    a trivially false matrix, and extract unique definitions via Padoa's
//!    method (the role of the UNIQUE tool in the paper's implementation).
//! 2. **Sample** — draw satisfying assignments of ϕ as training data
//!    (`manthan3-sampler`), drawn through the run's [`Oracle`] so the
//!    sampler shares the run's budget and cancellation token.
//! 3. **Learn** — per output, learn a decision tree over the valuations of
//!    its Henkin dependencies (plus compatible `Y` variables) and take the
//!    disjunction of all paths to label 1 (`manthan3-dtree`), recording the
//!    inter-candidate dependencies this introduces.
//! 4. **Order** — derive a linear extension of the learned dependencies.
//! 5. **VerifyRepair** — the CEGIS loop (Algorithms 1 and 3).
//!
//! Two pieces make the hot loop incremental:
//!
//! * The [`Oracle`] owns the run's [`Budget`] (a wall-clock deadline and a
//!   cancellation token) and funnels the synthesis loop's SAT, MaxSAT, and
//!   sampling calls through it, collecting [`OracleStats`]
//!   (unique-definition preprocessing runs its own solvers but inherits the
//!   cancellation token). The baseline engines in `manthan3-baselines` run
//!   on the same layer, so all engines share budget semantics and report
//!   comparable counters.
//! * The [`VerifySession`] Tseitin-encodes the error formula
//!   `E(X,Y') = ¬ϕ(X,Y') ∧ (Y' ↔ f)` **once**, guards each candidate
//!   function's equivalence behind an activation literal, and re-solves
//!   under assumptions on each verification. When repair replaces a
//!   candidate, the old activation literal is retired and a fresh guarded
//!   equivalence is appended — the solver, its learnt clauses, and the
//!   shared encoding cache all survive, so iteration cost tracks the *size
//!   of the change*, not the size of the formula. Every 32 retirements the
//!   session runs a maintenance pass on the error solver (learnt-DB
//!   trimming plus garbage collection of retired generations), so even
//!   hundreds-of-iterations repair runs keep a bounded solver state. The
//!   repair queries `G_k` (and their UNSAT cores, which become repair
//!   cubes) run on the same session's persistent matrix solver.
//! * The [`RepairSession`] is the MaxSAT twin: the FindCandidates encoding
//!   (matrix hard clauses, per-output target indirections, soft units, and
//!   the totalizer) is built **once** on the first counterexample, and
//!   every FindCandidates query is answered under assumptions pinning
//!   `σ[X]` and `σ[Y']` — counterexample state is retracted automatically
//!   between iterations, nothing is re-encoded. With both sessions in
//!   place the CEGIS loop is allocation-stable end to end:
//!   `OracleStats::maxsat_hard_encodings` stays at one however many repair
//!   iterations run, next to `sat_solvers_constructed` staying at two.
//!
//! Each FindCandidates optimum is located by the MaxSAT crate's one search:
//! a warm-started two-phase totalizer-bound search, one SAT probe per cost
//! unit the optimum moved since the previous counterexample.
//! `OracleStats::maxsat_probes` makes the probe economy observable.
//!
//! # Cancellation: racing engines in a portfolio
//!
//! Every [`Budget`] carries a [`CancelToken`](manthan3_sat::CancelToken)
//! shared by its clones. The token flows from the budget into every solver
//! the oracle constructs (`Budget` → `Oracle` → CDCL/MaxSAT/sampler
//! configurations), and the CDCL search loop polls it once per decision,
//! so cancelling the token stops all in-flight oracle work
//! within milliseconds. Each stopped call returns `Unknown`, and the engine
//! asks the budget why: it reports [`UnknownReason::Cancelled`]. A
//! portfolio runner (see the `manthan3-portfolio` crate) builds one budget
//! when the race starts, hands each engine a clone via
//! [`Manthan3::synthesize_with_budget`], and cancels the token as soon as
//! the first engine returns a decisive verdict — the losing engines stop
//! almost immediately instead of burning the remaining wall-clock budget.
//!
//! Manthan3 is sound (every returned vector passes the independent
//! certificate check of `manthan3_dqbf::verify`) but **not complete**: for
//! some true instances the repair loop cannot make progress (the paper's §5
//! "Limitations"); the engine then reports
//! [`UnknownReason::RepairStuck`].
//!
//! # Examples
//!
//! ```
//! use manthan3_core::{Manthan3, Manthan3Config, SynthesisOutcome};
//! use manthan3_dqbf::{verify, Dqbf};
//!
//! let dqbf = Dqbf::paper_example();
//! let engine = Manthan3::new(Manthan3Config::default());
//! let result = engine.synthesize(&dqbf);
//! match result.outcome {
//!     SynthesisOutcome::Realizable(vector) => {
//!         assert!(verify::check(&dqbf, &vector).is_valid());
//!     }
//!     other => panic!("expected synthesis to succeed, got {other:?}"),
//! }
//! // However many repair iterations ran, the whole loop used one matrix
//! // solver and one error-formula solver.
//! assert_eq!(result.stats.oracle.sat_solvers_constructed, 2);
//! ```
//!
//! Driving the session directly (as the benchmarks do):
//!
//! ```
//! use manthan3_core::{Budget, Oracle, VerifyOutcome, VerifySession};
//! use manthan3_dqbf::{Dqbf, HenkinVector};
//! use manthan3_cnf::Var;
//!
//! let dqbf = Dqbf::paper_example();
//! let mut oracle = Oracle::new(Budget::unlimited());
//! let mut session = VerifySession::new(&dqbf, &mut oracle);
//!
//! // The hand-derived correct vector from the paper.
//! let mut vector = HenkinVector::new();
//! let x1 = vector.aig_mut().input(0);
//! let x2 = vector.aig_mut().input(1);
//! let x3 = vector.aig_mut().input(2);
//! vector.set(Var::new(3), !x1);
//! let f2 = vector.aig_mut().or(!x2, !x1);
//! vector.set(Var::new(4), f2);
//! let f3 = vector.aig_mut().or(x2, x3);
//! vector.set(Var::new(5), f3);
//! assert_eq!(session.verify(&dqbf, &vector, &mut oracle), VerifyOutcome::Valid);
//! ```

#![warn(missing_docs)]

mod config;
mod engine;
mod learn;
mod oracle;
mod order;
mod preprocess;
mod repair;
#[cfg(test)]
mod repair_equivalence;
mod session;
mod stats;

pub use config::Manthan3Config;
pub use engine::{Manthan3, SynthesisOutcome, SynthesisResult};
pub use oracle::{Budget, CertificationFailure, Oracle, OracleStats, UnknownReason};
pub use order::{DependencyState, Order};
pub use repair::{repair_vector, RepairOutcome, Sigma};
pub use session::{Delta, RepairSession, VerifyOutcome, VerifySession};
pub use stats::SynthesisStats;
