//! Preprocessing: unique-definition extraction (the role of the UNIQUE tool
//! in the paper's implementation).

use crate::config::Manthan3Config;
use crate::oracle::Oracle;
use crate::stats::SynthesisStats;
use manthan3_cnf::Var;
use manthan3_dqbf::{unique, Dqbf, HenkinVector};
use manthan3_sat::SolverConfig;

/// Largest dependency-set size for which unique definitions are extracted
/// explicitly.
const MAX_UNIQUE_DEFINITION_DEPS: usize = 6;

/// Extracts functions for uniquely defined outputs before learning starts.
///
/// Returns the variables whose function was fixed by preprocessing; those
/// variables are skipped by the learning phase (their definitions already
/// respect the Henkin dependencies by construction). The Padoa and
/// enumeration SAT calls run their own solvers but inherit the run's
/// cancellation token through `oracle`.
pub fn extract_unique_definitions(
    dqbf: &Dqbf,
    vector: &mut HenkinVector,
    config: &Manthan3Config,
    oracle: &Oracle,
    stats: &mut SynthesisStats,
) -> Vec<Var> {
    if !config.use_unique_definitions {
        return Vec::new();
    }
    let solver_config = SolverConfig::default().with_cancel(oracle.budget().cancel_token().clone());
    let defined =
        unique::extract_definitions_with(dqbf, vector, MAX_UNIQUE_DEFINITION_DEPS, &solver_config);
    stats.unique_definitions = defined.len();
    defined
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extraction_can_be_disabled() {
        let dqbf = Dqbf::paper_example();
        let config = Manthan3Config {
            use_unique_definitions: false,
            ..Manthan3Config::default()
        };
        let oracle = Oracle::new(crate::Budget::unlimited());
        let mut stats = SynthesisStats::default();
        let mut vector = HenkinVector::new();
        assert!(
            extract_unique_definitions(&dqbf, &mut vector, &config, &oracle, &mut stats).is_empty()
        );
        assert_eq!(stats.unique_definitions, 0);
    }

    #[test]
    fn paper_example_extracts_y3() {
        let dqbf = Dqbf::paper_example();
        let config = Manthan3Config::default();
        let oracle = Oracle::new(crate::Budget::unlimited());
        let mut stats = SynthesisStats::default();
        let mut vector = HenkinVector::new();
        let defined = extract_unique_definitions(&dqbf, &mut vector, &config, &oracle, &mut stats);
        assert!(defined.contains(&Var::new(5)));
        assert_eq!(stats.unique_definitions, defined.len());
    }
}
