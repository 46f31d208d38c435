//! Synthetic DQBF benchmark instance generators.
//!
//! The paper evaluates Manthan3 on 563 instances from the DQBF tracks of
//! QBFEval'18/'19/'20, which "encompass equivalence checking problems,
//! controller synthesis, and succinct DQBF representations of propositional
//! satisfiability problems". Those archives are not redistributable here, so
//! this crate generates *seeded synthetic instances of the same families*,
//! sized so that a full suite runs in seconds and every instance's truth
//! value is known by construction or by an exact baseline:
//!
//! * [`pec`] — equivalence checking of partial circuits: a random AIG-style
//!   circuit with some gates blanked out as black boxes whose outputs are
//!   existential with restricted dependencies,
//! * [`controller`] — request/grant controller synthesis under partial
//!   observation,
//! * [`planted`] — random gate-defined outputs with dropped clauses
//!   (guaranteed-true) and dependency-violating variants (guaranteed-false),
//! * [`succinct`] — propositional satisfiability wrapped as DQBF with empty
//!   dependency sets,
//! * [`skolem`] — full-dependency (2-QBF / Skolem) instances.
//!
//! [`suite::suite`] builds the deterministic mixed benchmark set used by the
//! harness that regenerates the paper's figures.
//!
//! # Examples
//!
//! ```
//! use manthan3_gen::{planted, suite};
//!
//! let instance = planted::planted_true(&planted::PlantedParams::default(), 7);
//! assert_eq!(instance.expected, Some(true));
//! assert!(instance.dqbf.validate().is_ok());
//!
//! let small_suite = suite::suite(1, 1);
//! assert!(!small_suite.is_empty());
//! ```

#![warn(missing_docs)]

pub mod controller;
pub mod pec;
pub mod planted;
pub mod skolem;
pub mod succinct;
pub mod suite;

use manthan3_dqbf::Dqbf;
use std::fmt;

/// The benchmark family an instance belongs to (mirrors the instance classes
/// named in the paper's evaluation section).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Family {
    /// Equivalence checking of partial circuits.
    PartialEquivalence,
    /// Controller synthesis with partial observation.
    Controller,
    /// Random gate-planted DQBF.
    Planted,
    /// Succinct DQBF encodings of propositional satisfiability.
    Succinct,
    /// Full-dependency (Skolem) instances.
    Skolem,
}

impl fmt::Display for Family {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Family::PartialEquivalence => "pec",
            Family::Controller => "controller",
            Family::Planted => "planted",
            Family::Succinct => "succinct",
            Family::Skolem => "skolem",
        };
        write!(f, "{name}")
    }
}

/// One benchmark instance: a formula plus metadata used by the harness.
#[derive(Debug, Clone)]
pub struct Instance {
    /// Unique, human-readable name (stable across runs for a fixed seed).
    pub name: String,
    /// Family of the instance.
    pub family: Family,
    /// The formula.
    pub dqbf: Dqbf,
    /// Ground-truth status if the generator knows it by construction
    /// (`Some(true)` / `Some(false)`), `None` otherwise.
    pub expected: Option<bool>,
}

impl Instance {
    /// Creates an instance.
    pub fn new(
        name: impl Into<String>,
        family: Family,
        dqbf: Dqbf,
        expected: Option<bool>,
    ) -> Self {
        Instance {
            name: name.into(),
            family,
            dqbf,
            expected,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn family_names_are_short() {
        assert_eq!(Family::PartialEquivalence.to_string(), "pec");
        assert_eq!(Family::Controller.to_string(), "controller");
        assert_eq!(Family::Planted.to_string(), "planted");
        assert_eq!(Family::Succinct.to_string(), "succinct");
        assert_eq!(Family::Skolem.to_string(), "skolem");
    }

    #[test]
    fn instance_constructor_stores_fields() {
        let i = Instance::new("x", Family::Planted, Dqbf::paper_example(), Some(true));
        assert_eq!(i.name, "x");
        assert_eq!(i.family, Family::Planted);
        assert_eq!(i.expected, Some(true));
    }
}
