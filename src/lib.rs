//! # manthan3
//!
//! A from-scratch Rust reproduction of *"Synthesis with Explicit
//! Dependencies"* (Golia, Roy, Meel; DATE 2023) — the **Manthan3** Henkin
//! function synthesizer for Dependency Quantified Boolean Formulas (DQBF) —
//! together with every substrate the system depends on (CDCL SAT solver,
//! MaxSAT solver, constrained sampler, decision-tree learner, AIG package,
//! DQBF front end) and the baseline engines it is compared against.
//!
//! This crate is a thin facade that re-exports the workspace crates under one
//! name; see the individual crates for details:
//!
//! | module | crate | role |
//! |--------|-------|------|
//! | [`cnf`] | `manthan3-cnf` | literals, clauses, DIMACS, clause sink |
//! | [`sat`] | `manthan3-sat` | CDCL SAT solver: assumptions, cores, activation literals |
//! | [`maxsat`] | `manthan3-maxsat` | unit-weight partial MaxSAT (Open-WBO stand-in) |
//! | [`sampler`] | `manthan3-sampler` | near-uniform sampling (CMSGen stand-in) |
//! | [`aig`] | `manthan3-aig` | And-Inverter Graphs (ABC stand-in) |
//! | [`dtree`] | `manthan3-dtree` | ID3/Gini decision trees (scikit-learn stand-in) |
//! | [`dqbf`] | `manthan3-dqbf` | DQBF formulas, DQDIMACS, certificates |
//! | [`drat`] | `manthan3-drat` | dependency-free RUP/DRAT proof checker (trusted core) |
//! | [`core`] | `manthan3-core` | the synthesis pipeline and the shared oracle layer |
//! | [`baselines`] | `manthan3-baselines` | HQS2-like and Pedant-like engines (same oracle layer) |
//! | [`portfolio`] | `manthan3-portfolio` | parallel engine race with cooperative cancellation |
//! | [`gen`] | `manthan3-gen` | synthetic benchmark families |
//!
//! The benchmark harness lives in the unexported `manthan3-bench` crate
//! (`cargo run --release -p manthan3-bench --bin harness`). The workspace
//! builds offline: `rand` and `proptest` are vendored API stand-ins under
//! `vendor/`.
//!
//! # Quickstart
//!
//! ```
//! use manthan3::core::{Manthan3, Manthan3Config, SynthesisOutcome};
//! use manthan3::dqbf::{verify, Dqbf};
//!
//! let dqbf = Dqbf::paper_example();
//! let result = Manthan3::new(Manthan3Config::default()).synthesize(&dqbf);
//! if let SynthesisOutcome::Realizable(vector) = result.outcome {
//!     assert!(verify::check(&dqbf, &vector).is_valid());
//! } else {
//!     panic!("the paper example is a true DQBF");
//! }
//! // The verify–repair loop ran on one persistent incremental session:
//! assert_eq!(result.stats.oracle.sat_solvers_constructed, 2);
//! ```

#![warn(missing_docs)]

pub use manthan3_aig as aig;
pub use manthan3_baselines as baselines;
pub use manthan3_cnf as cnf;
pub use manthan3_core as core;
pub use manthan3_dqbf as dqbf;
pub use manthan3_drat as drat;
pub use manthan3_dtree as dtree;
pub use manthan3_gen as gen;
pub use manthan3_maxsat as maxsat;
pub use manthan3_portfolio as portfolio;
pub use manthan3_sampler as sampler;
pub use manthan3_sat as sat;
