use crate::CancelToken;

/// Tuning parameters for the CDCL [`Solver`](crate::Solver).
///
/// The defaults follow the modernized (Glucose-style) settings and are
/// appropriate for the formula sizes produced by the Manthan3 pipeline. The
/// sampler crate overrides the `random_*` fields to obtain diverse models.
///
/// # Examples
///
/// ```
/// use manthan3_sat::{Solver, SolverConfig};
///
/// let config = SolverConfig {
///     random_polarity: true,
///     seed: 7,
///     ..SolverConfig::default()
/// };
/// let solver = Solver::with_config(config);
/// assert!(solver.config().random_polarity);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SolverConfig {
    /// Probability of picking a random (rather than highest-activity)
    /// decision variable.
    pub random_var_freq: f64,
    /// If `true`, decision polarities are chosen uniformly at random instead
    /// of using saved phases. Used by the sampler.
    pub random_polarity: bool,
    /// Default polarity used before any phase has been saved.
    pub default_polarity: bool,
    /// Number of learnt clauses tolerated before the first database
    /// reduction; each reduction raises the threshold by a quarter.
    pub first_reduce_db: usize,
    /// If `true`, the solver periodically resets decision phases to the
    /// best (deepest-trail) assignment seen, on a restart boundary with a
    /// geometrically growing interval.
    pub rephase: bool,
    /// Upper bound on conflicts for a single `solve` call; `None` means no
    /// limit. When the budget is exhausted the solver reports
    /// [`SolveResult::Unknown`](crate::SolveResult::Unknown).
    pub max_conflicts: Option<u64>,
    /// Optional cooperative cancellation flag, polled by the search loop
    /// alongside the conflict budget. When the token is cancelled, the
    /// current (and any future) solve call returns
    /// [`SolveResult::Unknown`](crate::SolveResult::Unknown) at its next
    /// poll point.
    pub cancel: Option<CancelToken>,
    /// If `true`, the solver records a DRAT proof log of every clause
    /// addition and deletion, and every UNSAT verdict yields a checkable
    /// [`Certificate`](crate::Certificate) through
    /// [`Solver::certificate`](crate::Solver::certificate). Off by default:
    /// logging costs time and memory proportional to the clause traffic.
    pub proof_logging: bool,
    /// Seed for the solver's internal pseudo random number generator.
    pub seed: u64,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            random_var_freq: 0.0,
            random_polarity: false,
            default_polarity: false,
            first_reduce_db: 4000,
            rephase: true,
            max_conflicts: None,
            cancel: None,
            proof_logging: false,
            seed: 91_648_253,
        }
    }
}

impl SolverConfig {
    /// Returns a configuration suitable for diverse-model sampling:
    /// fully random branching variables and polarities. Rephasing is off —
    /// it would fight the sampler's explicit phase biasing.
    pub fn sampling(seed: u64) -> Self {
        SolverConfig {
            random_var_freq: 0.7,
            random_polarity: true,
            rephase: false,
            seed,
            ..SolverConfig::default()
        }
    }

    /// Returns a configuration with a conflict budget, used for budgeted
    /// oracle calls inside the synthesis engines.
    pub fn budgeted(max_conflicts: u64) -> Self {
        SolverConfig {
            max_conflicts: Some(max_conflicts),
            ..SolverConfig::default()
        }
    }

    /// Attaches a cancellation token (builder style).
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Enables or disables DRAT proof logging (builder style).
    pub fn with_proof_logging(mut self, enabled: bool) -> Self {
        self.proof_logging = enabled;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_has_no_conflict_limit() {
        let c = SolverConfig::default();
        assert!(c.max_conflicts.is_none());
    }

    #[test]
    fn default_is_the_modern_profile() {
        let c = SolverConfig::default();
        assert!(c.rephase && !c.proof_logging);
    }

    #[test]
    fn sampling_config_randomizes() {
        let c = SolverConfig::sampling(3);
        assert!(c.random_polarity);
        assert!(c.random_var_freq > 0.0);
        assert!(!c.rephase);
        assert_eq!(c.seed, 3);
    }

    #[test]
    fn budgeted_config_sets_limit() {
        assert_eq!(SolverConfig::budgeted(42).max_conflicts, Some(42));
    }
}
