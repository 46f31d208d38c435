use manthan3_dtree::DecisionTreeConfig;
use std::time::Duration;

/// Configuration of the Manthan3 synthesis engine.
///
/// The defaults correspond to the settings described in the paper scaled to
/// the laptop-sized instances produced by `manthan3-gen`; the ablation
/// benchmarks flip the `use_*` switches.
#[derive(Debug, Clone, PartialEq)]
pub struct Manthan3Config {
    /// Number of satisfying assignments sampled as training data.
    pub num_samples: usize,
    /// Upper bound on verification/repair iterations before giving up.
    pub max_repair_iterations: usize,
    /// Upper bound on individual candidate repairs within one iteration.
    pub max_repairs_per_iteration: usize,
    /// Decision-tree hyper-parameters used for candidate learning.
    pub tree: DecisionTreeConfig,
    /// Random seed (sampling and tie-breaking).
    pub seed: u64,
    /// Run Padoa-based unique-definition extraction before learning
    /// (the role of the UNIQUE tool in the paper's implementation).
    pub use_unique_definitions: bool,
    /// Largest dependency-set size for which unique definitions are
    /// extracted explicitly.
    pub max_unique_definition_deps: usize,
    /// Allow other `Y` variables as decision-tree features when their
    /// dependency sets are subsets (Algorithm 2, line 3). Disabling this is
    /// the `learn-without-Y` ablation.
    pub use_y_features: bool,
    /// Constrain the repair formula `G_k` with the `Ŷ` variables
    /// (Formula 1). Disabling this is the paper's §5 discussion ablation.
    pub constrain_y_hat: bool,
    /// Certify UNSAT verdicts in-process: every SAT and MaxSAT solver the
    /// oracle constructs logs DRAT proofs, and every UNSAT answer routed
    /// through the oracle is checked immediately by the independent
    /// `manthan3-drat` checker (threaded Config → [`Oracle`](crate::Oracle)
    /// via [`Oracle::with_certification`](crate::Oracle::with_certification);
    /// the bench harness flag `--certify`). Checking never changes a
    /// verdict; rejections are counted in
    /// [`OracleStats::certificates_rejected`](crate::OracleStats::certificates_rejected)
    /// and the first offender surfaces in
    /// [`SynthesisStats::certification_failure`](crate::SynthesisStats).
    pub certify: bool,
    /// Optional wall-clock budget for one synthesis call.
    pub time_budget: Option<Duration>,
    /// Optional conflict budget for each SAT oracle call (`None` = unlimited).
    pub sat_conflict_budget: Option<u64>,
    /// Optional bound on the total number of SAT oracle calls per synthesis
    /// run (`None` = unlimited). Enforced by the shared
    /// [`Budget`](crate::Budget).
    pub sat_call_budget: Option<u64>,
}

impl Default for Manthan3Config {
    fn default() -> Self {
        Manthan3Config {
            num_samples: 400,
            max_repair_iterations: 400,
            max_repairs_per_iteration: 64,
            tree: DecisionTreeConfig::default(),
            seed: 0xDA7E_2023,
            use_unique_definitions: true,
            max_unique_definition_deps: 6,
            use_y_features: true,
            constrain_y_hat: true,
            certify: false,
            time_budget: None,
            sat_conflict_budget: None,
            sat_call_budget: None,
        }
    }
}

impl Manthan3Config {
    /// A configuration with a wall-clock budget, used by the benchmark
    /// harness to emulate the paper's per-instance timeout.
    pub fn with_time_budget(budget: Duration) -> Self {
        Manthan3Config {
            time_budget: Some(budget),
            ..Manthan3Config::default()
        }
    }

    /// A lightweight configuration for unit tests (few samples, small trees).
    pub fn fast() -> Self {
        Manthan3Config {
            num_samples: 100,
            max_repair_iterations: 100,
            ..Manthan3Config::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sensible() {
        let c = Manthan3Config::default();
        assert!(c.num_samples > 0);
        assert!(c.max_repair_iterations > 0);
        assert!(c.use_y_features);
        assert!(c.constrain_y_hat);
        assert!(c.time_budget.is_none());
    }

    #[test]
    fn budgeted_constructor_sets_budget() {
        let c = Manthan3Config::with_time_budget(Duration::from_millis(50));
        assert_eq!(c.time_budget, Some(Duration::from_millis(50)));
    }

    #[test]
    fn fast_config_is_smaller() {
        assert!(Manthan3Config::fast().num_samples <= Manthan3Config::default().num_samples);
    }

    #[test]
    fn certification_defaults_off() {
        assert!(!Manthan3Config::default().certify);
    }
}
