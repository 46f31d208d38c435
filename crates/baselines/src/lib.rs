//! Baseline Henkin synthesizers used for the paper's comparison.
//!
//! The evaluation of the Manthan3 paper compares against two state-of-the-art
//! Henkin function synthesis engines, **HQS2** (quantifier-elimination /
//! expansion based) and **Pedant** (definition extraction + arbiter based).
//! Neither tool is available as a library, so this crate re-implements
//! simplified engines with the same architectural character; what the
//! paper's comparison turns on is which instance families each
//! architecture handles, which the simplified engines keep:
//!
//! * [`ExpansionSolver`] — an HQS2-style *universal expansion* solver. It
//!   instantiates one copy of every existential output per valuation of its
//!   dependency set, grounds the matrix over all universal assignments, and
//!   reads the Henkin functions off a single SAT call. It is exact and very
//!   fast on instances with few universals / small dependency sets, and gives
//!   up (like HQS2 running out of memory/time) when the expansion exceeds its
//!   budget.
//! * [`ArbiterSolver`] — a Pedant-style engine: it first extracts functions
//!   for uniquely defined outputs, then fills in the remaining outputs with
//!   lazily-built arbiter tables refined from counterexamples (CEGIS). It
//!   excels when most outputs are (almost) defined by their dependencies and
//!   struggles otherwise.
//!
//! Both engines are unit structs with no settings: their caps (the
//! expansion's universal, copy and ground-clause limits, the arbiter's
//! iteration and table-size limits) are fixed constants, and a run's only
//! input besides the formula is its [`Budget`](manthan3_core::Budget).
//!
//! Both engines return the same
//! [`SynthesisResult`](manthan3_core::SynthesisResult) as Manthan3, and every
//! vector they return passes the independent certificate checker in
//! [`manthan3_dqbf::verify`]. They also run on the same **oracle layer**
//! ([`Oracle`](manthan3_core::Oracle) / [`Budget`](manthan3_core::Budget)) as
//! the Manthan3 engine, so wall-clock deadlines and cancellation have
//! identical semantics across all three engines. Of the
//! [`SynthesisStats`](manthan3_core::SynthesisStats) a baseline fills the
//! oracle counters and the total time; the arbiter engine also counts its
//! unique definitions.
//!
//! # Examples
//!
//! ```
//! use manthan3_baselines::ExpansionSolver;
//! use manthan3_dqbf::{verify, Dqbf};
//!
//! let dqbf = Dqbf::paper_example();
//! let result = ExpansionSolver.synthesize(&dqbf);
//! let vector = result.vector().expect("true instance");
//! assert!(verify::check(&dqbf, vector).is_valid());
//! ```

#![warn(missing_docs)]

mod arbiter;
mod expansion;

pub use arbiter::ArbiterSolver;
pub use expansion::ExpansionSolver;
