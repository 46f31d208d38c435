use crate::CancelToken;

/// Tuning parameters for the CDCL [`Solver`](crate::Solver).
///
/// The defaults follow the modernized (Glucose-style) settings and are
/// appropriate for the formula sizes produced by the Manthan3 pipeline. The
/// sampler crate raises `random_var_freq` to obtain diverse models.
///
/// # Examples
///
/// ```
/// use manthan3_sat::{Solver, SolverConfig};
///
/// let config = SolverConfig {
///     random_var_freq: 0.5,
///     seed: 7,
///     ..SolverConfig::default()
/// };
/// let solver = Solver::with_config(config);
/// assert_eq!(solver.config().seed, 7);
/// assert_eq!(solver.config().random_var_freq, 0.5);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SolverConfig {
    /// Probability of picking a random (rather than highest-activity)
    /// decision variable.
    pub random_var_freq: f64,
    /// Number of learnt clauses tolerated before the first database
    /// reduction; each reduction raises the threshold by a quarter.
    pub first_reduce_db: usize,
    /// Optional cooperative cancellation flag, polled by the search loop
    /// once per decision. When the token is cancelled, the current (and any
    /// future) solve call returns
    /// [`SolveResult::Unknown`](crate::SolveResult::Unknown) at its next
    /// poll point.
    pub cancel: Option<CancelToken>,
    /// If `true`, the solver records a DRAT proof log of every clause
    /// addition and deletion, as DIMACS `i32` literals, and every UNSAT
    /// verdict yields a checkable [`Certificate`](crate::Certificate), a
    /// view borrowed from that log, through
    /// [`Solver::certificate`](crate::Solver::certificate). Off by default:
    /// logging costs time and memory proportional to the clause traffic
    /// (4 bytes per logged literal and per clause terminator).
    pub proof_logging: bool,
    /// Seed for the solver's internal pseudo random number generator.
    pub seed: u64,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            random_var_freq: 0.0,
            first_reduce_db: 4000,
            cancel: None,
            proof_logging: false,
            seed: 91_648_253,
        }
    }
}

impl SolverConfig {
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
    fn default_is_the_modern_profile() {
        let c = SolverConfig::default();
        assert!(c.random_var_freq == 0.0 && c.cancel.is_none() && !c.proof_logging);
    }
}
