//! Constrained near-uniform sampling of satisfying assignments.
//!
//! This crate plays the role of CMSGen / WAPS in the original Manthan3
//! toolchain. Manthan3 only needs *diverse, roughly representative* samples
//! of the specification's solution space to use as training data for the
//! decision-tree learner, so exact uniformity is not required.
//!
//! The sampler draws models from a CDCL solver whose decision variables and
//! polarities are randomized, and applies **adaptive weighted sampling**
//! (the scheme used by Manthan/Manthan2): after each batch, per-variable
//! biases are updated so that variables whose valuations are skewed in the
//! samples collected so far are nudged towards the under-represented value
//! in subsequent samples.
//!
//! A Manthan3 run draws all of its training data from one [`Sampler`],
//! built through the core crate's oracle: the sampler polls the run's
//! [`CancelToken`] before every per-sample solve and counts the solves it
//! performs ([`Sampler::solves`]), which the oracle bills to its statistics.
//!
//! A batch shorter than requested means one of two things: the formula was
//! proved unsatisfiable ([`Sampler::known_satisfiable`] is `Some(false)`),
//! or the sampler was cancelled. The reason for a cancellation stays with
//! whoever raised the token.
//!
//! # Examples
//!
//! ```
//! use manthan3_cnf::dimacs::parse_dimacs;
//! use manthan3_sampler::{Sampler, SamplerConfig};
//!
//! let cnf = parse_dimacs("p cnf 3 2\n1 2 0\n-1 3 0\n")?;
//! let mut sampler = Sampler::new(&cnf, SamplerConfig { seed: 7, ..SamplerConfig::default() });
//! let samples = sampler.sample(20);
//! assert_eq!(samples.len(), 20);
//! for s in &samples {
//!     assert!(cnf.eval(s));
//! }
//! # Ok::<(), manthan3_cnf::ParseDimacsError>(())
//! ```

#![warn(missing_docs)]

use manthan3_cnf::{Assignment, Cnf, Var};
use manthan3_sat::{CancelToken, SolveResult, Solver, SolverConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Probability of making a random branching decision inside the
/// sampler's solver.
const RANDOM_VAR_FREQ: f64 = 0.6;

/// Configuration for a [`Sampler`].
#[derive(Debug, Clone, PartialEq)]
pub struct SamplerConfig {
    /// Random seed.
    pub seed: u64,
    /// Optional cooperative cancellation token, polled by the underlying
    /// solver: a cancelled sampler stops emitting samples at its next solve
    /// call (the batch collected so far is kept).
    pub cancel: Option<CancelToken>,
}

impl Default for SamplerConfig {
    fn default() -> Self {
        SamplerConfig {
            seed: 0xDA7A,
            cancel: None,
        }
    }
}

/// Samples satisfying assignments of a CNF formula.
///
/// See the [crate-level documentation](crate) for background and an example.
#[derive(Debug, Clone)]
pub struct Sampler {
    solver: Solver,
    num_vars: usize,
    /// Per-variable count of `true` valuations over emitted samples.
    true_counts: Vec<usize>,
    emitted: usize,
    satisfiable: Option<bool>,
    rng: SmallRng,
    cancel: Option<CancelToken>,
    /// Solver calls performed over the sampler's lifetime.
    solves: u64,
}

impl Sampler {
    /// Creates a sampler for `cnf`.
    pub fn new(cnf: &Cnf, config: SamplerConfig) -> Self {
        let solver_config = SolverConfig {
            random_var_freq: RANDOM_VAR_FREQ,
            cancel: config.cancel.clone(),
            seed: config.seed,
            ..SolverConfig::default()
        };
        let mut solver = Solver::with_config(solver_config);
        solver.add_cnf(cnf);
        solver.ensure_vars(cnf.num_vars());
        Sampler {
            solver,
            num_vars: cnf.num_vars(),
            true_counts: vec![0; cnf.num_vars()],
            emitted: 0,
            satisfiable: None,
            rng: SmallRng::seed_from_u64(config.seed ^ 0x5EED),
            cancel: config.cancel,
            solves: 0,
        }
    }

    /// Number of variables of the underlying formula.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Returns whether the formula is satisfiable, if that is already known.
    pub fn known_satisfiable(&self) -> Option<bool> {
        self.satisfiable
    }

    /// Number of solver calls performed so far over the sampler's lifetime
    /// (one per [`Sampler::sample_one`] that reached the solver).
    pub fn solves(&self) -> u64 {
        self.solves
    }

    fn is_cancelled(&self) -> bool {
        self.cancel.as_ref().is_some_and(CancelToken::is_cancelled)
    }

    fn refresh_phases(&mut self) {
        for v in 0..self.num_vars {
            let bias = if self.emitted > 0 {
                // Probability of choosing `true` is pushed towards the value
                // that is under-represented so far.
                let ratio = self.true_counts[v] as f64 / self.emitted as f64;
                1.0 - ratio
            } else {
                0.5
            };
            let phase = self.rng.gen::<f64>() < bias;
            self.solver.set_phase(Var::new(v as u32), phase);
        }
        let seed = self.rng.gen();
        self.solver.reseed(seed);
    }

    /// Draws one satisfying assignment, or `None` if the formula is
    /// unsatisfiable or the sampler was cancelled;
    /// [`Sampler::known_satisfiable`] says which.
    ///
    /// A cancelled sampler refuses the sample *before* the solver is
    /// touched.
    pub fn sample_one(&mut self) -> Option<Assignment> {
        if self.satisfiable == Some(false) || self.is_cancelled() {
            return None;
        }
        self.solves += 1;
        self.refresh_phases();
        match self.solver.solve() {
            SolveResult::Sat => {
                self.satisfiable = Some(true);
                let model = self.solver.model();
                for v in 0..self.num_vars {
                    if model.get(Var::new(v as u32)).unwrap_or(false) {
                        self.true_counts[v] += 1;
                    }
                }
                self.emitted += 1;
                Some(model)
            }
            SolveResult::Unsat => {
                self.satisfiable = Some(false);
                None
            }
            // Only a cancelled solve ends without a verdict.
            SolveResult::Unknown => None,
        }
    }

    /// Draws up to `n` satisfying assignments (fewer if the formula is
    /// unsatisfiable or the sampler is cancelled; see
    /// [`Sampler::known_satisfiable`]).
    pub fn sample(&mut self, n: usize) -> Vec<Assignment> {
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            match self.sample_one() {
                Some(a) => out.push(a),
                None => break,
            }
        }
        out
    }

    /// Number of samples emitted so far over the sampler's lifetime.
    pub fn emitted(&self) -> usize {
        self.emitted
    }

    /// Fraction of emitted samples in which `var` was `true`.
    ///
    /// Returns 0.5 before any sample has been drawn.
    pub fn true_ratio(&self, var: Var) -> f64 {
        if self.emitted == 0 {
            0.5
        } else {
            self.true_counts[var.index()] as f64 / self.emitted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use manthan3_cnf::Lit;
    use std::collections::HashSet;

    fn lit(d: i64) -> Lit {
        Lit::from_dimacs(d)
    }

    #[test]
    fn samples_satisfy_the_formula() {
        let mut cnf = Cnf::new(4);
        cnf.add_clause([lit(1), lit(2)]);
        cnf.add_clause([lit(-1), lit(3)]);
        cnf.add_clause([lit(-2), lit(4)]);
        let mut s = Sampler::new(&cnf, SamplerConfig::default());
        let samples = s.sample(50);
        assert_eq!(samples.len(), 50);
        for a in &samples {
            assert!(cnf.eval(a));
        }
        assert_eq!(s.known_satisfiable(), Some(true));
    }

    #[test]
    fn unsat_formula_yields_no_samples() {
        let mut cnf = Cnf::new(1);
        cnf.add_clause([lit(1)]);
        cnf.add_clause([lit(-1)]);
        let mut s = Sampler::new(&cnf, SamplerConfig::default());
        assert!(s.sample(5).is_empty());
        assert_eq!(s.known_satisfiable(), Some(false));
    }

    #[test]
    fn samples_are_diverse_on_unconstrained_variables() {
        // x1 is forced, x2..x5 are free: sampling must exercise both values
        // of every free variable.
        let mut cnf = Cnf::new(5);
        cnf.add_clause([lit(1)]);
        let mut s = Sampler::new(&cnf, SamplerConfig::default());
        let samples = s.sample(60);
        let distinct: HashSet<Vec<bool>> = samples.iter().map(|a| a.as_slice().to_vec()).collect();
        assert!(
            distinct.len() >= 6,
            "expected diverse samples, got {} distinct",
            distinct.len()
        );
        for v in 1..5u32 {
            let ratio = s.true_ratio(Var::new(v));
            assert!(
                ratio > 0.05 && ratio < 0.95,
                "variable {v} is badly skewed: {ratio}"
            );
        }
        // The forced variable is always true.
        assert_eq!(s.true_ratio(Var::new(0)), 1.0);
    }

    #[test]
    fn adaptive_bias_balances_samples() {
        // Free formula over 6 variables: with adaptive sampling the observed
        // true-ratio of every variable stays near 1/2.
        let cnf = Cnf::new(6);
        let mut s = Sampler::new(
            &cnf,
            SamplerConfig {
                seed: 99,
                ..SamplerConfig::default()
            },
        );
        let _ = s.sample(80);
        for v in 0..6u32 {
            let ratio = s.true_ratio(Var::new(v));
            assert!(
                (0.25..=0.75).contains(&ratio),
                "variable {v} ratio {ratio} out of range"
            );
        }
    }

    #[test]
    fn cancellation_stops_sampling_with_the_batch_kept() {
        let cnf = Cnf::new(4);
        let token = CancelToken::new();
        let mut s = Sampler::new(
            &cnf,
            SamplerConfig {
                cancel: Some(token.clone()),
                ..SamplerConfig::default()
            },
        );
        assert_eq!(s.sample(4).len(), 4);
        token.cancel();
        assert!(s.sample(4).is_empty());
        // A cancelled batch is short without the formula being refuted.
        assert_eq!(s.known_satisfiable(), Some(true));
        assert_eq!(s.emitted(), 4);
    }

    #[test]
    fn deterministic_for_a_fixed_seed() {
        let mut cnf = Cnf::new(4);
        cnf.add_clause([lit(1), lit(2), lit(3), lit(4)]);
        let config = SamplerConfig {
            seed: 1234,
            ..SamplerConfig::default()
        };
        let a: Vec<_> = Sampler::new(&cnf, config.clone()).sample(10);
        let b: Vec<_> = Sampler::new(&cnf, config).sample(10);
        assert_eq!(a, b);
    }
}
