use std::time::Duration;

/// Configuration of the Manthan3 synthesis engine.
///
/// The defaults correspond to the settings described in the paper scaled to
/// the laptop-sized instances produced by `manthan3-gen`; the ablation
/// benchmarks flip the `use_*` switches.
///
/// The default training set is small (16 samples). Candidates are decision
/// trees grown to purity, so they grow with the data, and every verify call
/// pays for the candidate's size; verify/repair fixes what a small sample
/// missed for less than it costs to verify large candidates. In the sweep
/// recorded in `BENCH_learner.json` (10, 16, 25, 32 and 50 samples against
/// 400, `m3perf` seeds 1–3), 16 samples gave the lowest `wall_s` on both
/// workloads: `cegis_repair` 2.99 → 0.95 s and `certified` 1.33 → 0.68 s
/// (medians), with 0 failed instances.
#[derive(Debug, Clone, PartialEq)]
pub struct Manthan3Config {
    /// Number of satisfying assignments sampled as training data.
    pub num_samples: usize,
    /// Upper bound on verification/repair iterations before giving up.
    pub max_repair_iterations: usize,
    /// Random seed (sampling and tie-breaking).
    pub seed: u64,
    /// Run Padoa-based unique-definition extraction before learning
    /// (the role of the UNIQUE tool in the paper's implementation).
    pub use_unique_definitions: bool,
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
}

impl Default for Manthan3Config {
    fn default() -> Self {
        Manthan3Config {
            num_samples: 16,
            max_repair_iterations: 400,
            seed: 0xDA7E_2023,
            use_unique_definitions: true,
            use_y_features: true,
            constrain_y_hat: true,
            certify: false,
            time_budget: None,
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
    fn certification_defaults_off() {
        assert!(!Manthan3Config::default().certify);
    }
}
