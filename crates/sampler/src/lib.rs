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
//! built through the core crate's oracle: every per-sample solve draws on
//! the run's shared [`CallBudget`] and stops when its [`CancelToken`] is
//! raised.
//!
//! Shortfalls are first-class: [`Sampler::sample_with_outcome`] reports a
//! [`SampleOutcome`] that says how many samples were requested and emitted,
//! and *why* a short batch stopped ([`ShortfallReason`]: proved
//! unsatisfiable, budget cut, or cancelled) — the synthesis engine uses this
//! to distinguish "the formula has no models" from "the race was lost".
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

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use manthan3_cnf::{Assignment, Cnf, Var};
use manthan3_sat::{CallBudget, CancelToken, SolveResult, Solver, SolverConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::fmt;

/// Configuration for a [`Sampler`].
#[derive(Debug, Clone, PartialEq)]
pub struct SamplerConfig {
    /// Random seed.
    pub seed: u64,
    /// Enables adaptive weighted sampling (per-variable bias adjustment).
    pub adaptive: bool,
    /// Probability of making a random branching decision inside the solver.
    pub random_var_freq: f64,
    /// Conflict budget per individual sample; `None` means unlimited.
    pub max_conflicts_per_sample: Option<u64>,
    /// Optional cooperative cancellation token, polled by the underlying
    /// solver: a cancelled sampler stops emitting samples at its next solve
    /// call (the batch collected so far is kept).
    pub cancel: Option<CancelToken>,
    /// Optional shared call allowance: every per-sample solver call first
    /// draws on this budget, and the sampler stops (with
    /// [`ShortfallReason::Budget`]) once it is exhausted. The oracle layer
    /// passes the run's shared SAT/MaxSAT call budget here, so sampler
    /// solves are billed to — and refused by — the same allowance as every
    /// other oracle call.
    pub calls: Option<CallBudget>,
}

impl Default for SamplerConfig {
    fn default() -> Self {
        SamplerConfig {
            seed: 0xDA7A,
            adaptive: true,
            random_var_freq: 0.6,
            max_conflicts_per_sample: None,
            cancel: None,
            calls: None,
        }
    }
}

/// Why a sampling request emitted fewer samples than requested.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShortfallReason {
    /// The formula was proved unsatisfiable (no further samples exist).
    Unsat,
    /// A budget cut sampling short: the shared [`CallBudget`] was exhausted,
    /// or a per-sample conflict limit made a solve give up.
    Budget,
    /// The cooperative [`CancelToken`] was raised.
    Cancelled,
}

impl fmt::Display for ShortfallReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let label = match self {
            ShortfallReason::Unsat => "unsat",
            ShortfallReason::Budget => "budget",
            ShortfallReason::Cancelled => "cancelled",
        };
        write!(f, "{label}")
    }
}

/// The observable outcome of one sampling request: how many samples were
/// asked for, how many were actually emitted, and — when the batch is short —
/// why it stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SampleOutcome {
    /// Number of samples the caller requested.
    pub requested: usize,
    /// Number of samples actually emitted.
    pub emitted: usize,
    /// Why the batch is short; `None` when the request was met in full.
    pub reason: Option<ShortfallReason>,
}

impl SampleOutcome {
    /// `true` when fewer samples were emitted than requested.
    pub fn is_short(&self) -> bool {
        self.emitted < self.requested
    }
}

/// Samples satisfying assignments of a CNF formula.
///
/// See the [crate-level documentation](crate) for background and an example.
#[derive(Debug, Clone)]
pub struct Sampler {
    solver: Solver,
    num_vars: usize,
    adaptive: bool,
    /// Per-variable count of `true` valuations over emitted samples.
    true_counts: Vec<usize>,
    emitted: usize,
    satisfiable: Option<bool>,
    rng: SmallRng,
    cancel: Option<CancelToken>,
    calls: CallBudget,
    /// Why the most recent [`Sampler::sample_one`] returned `None`.
    last_stop: Option<ShortfallReason>,
}

impl Sampler {
    /// Creates a sampler for `cnf`.
    pub fn new(cnf: &Cnf, config: SamplerConfig) -> Self {
        let solver_config = SolverConfig {
            random_var_freq: config.random_var_freq,
            random_polarity: false,
            max_conflicts: config.max_conflicts_per_sample,
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
            adaptive: config.adaptive,
            true_counts: vec![0; cnf.num_vars()],
            emitted: 0,
            satisfiable: None,
            rng: SmallRng::seed_from_u64(config.seed ^ 0x5EED),
            cancel: config.cancel,
            calls: config.calls.unwrap_or_default(),
            last_stop: None,
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

    fn refresh_phases(&mut self) {
        for v in 0..self.num_vars {
            let bias = if self.adaptive && self.emitted > 0 {
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
    /// unsatisfiable, a budget was exhausted, or the sampler was cancelled;
    /// [`Sampler::last_stop`] says which.
    ///
    /// Every performed solve first draws one call from the shared
    /// [`CallBudget`] (when one was configured): an exhausted allowance
    /// refuses the sample *before* the solver is touched.
    pub fn sample_one(&mut self) -> Option<Assignment> {
        if self.satisfiable == Some(false) {
            self.last_stop = Some(ShortfallReason::Unsat);
            return None;
        }
        if self.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
            self.last_stop = Some(ShortfallReason::Cancelled);
            return None;
        }
        if !self.calls.try_acquire() {
            self.last_stop = Some(ShortfallReason::Budget);
            return None;
        }
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
                self.last_stop = None;
                Some(model)
            }
            SolveResult::Unsat => {
                self.satisfiable = Some(false);
                self.last_stop = Some(ShortfallReason::Unsat);
                None
            }
            SolveResult::Unknown => {
                self.last_stop = Some(
                    if self.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
                        ShortfallReason::Cancelled
                    } else {
                        ShortfallReason::Budget
                    },
                );
                None
            }
        }
    }

    /// Draws up to `n` satisfying assignments (fewer if the formula is
    /// unsatisfiable or budgets are exhausted).
    pub fn sample(&mut self, n: usize) -> Vec<Assignment> {
        self.sample_with_outcome(n).0
    }

    /// Like [`Sampler::sample`], but also reports a [`SampleOutcome`] saying
    /// how many samples were emitted and why a short batch stopped.
    pub fn sample_with_outcome(&mut self, n: usize) -> (Vec<Assignment>, SampleOutcome) {
        let mut out = Vec::with_capacity(n);
        let mut reason = None;
        for _ in 0..n {
            match self.sample_one() {
                Some(a) => out.push(a),
                None => {
                    reason = self.last_stop;
                    break;
                }
            }
        }
        let outcome = SampleOutcome {
            requested: n,
            emitted: out.len(),
            reason,
        };
        (out, outcome)
    }

    /// Why the most recent failed [`Sampler::sample_one`] stopped, if the
    /// last draw failed.
    pub fn last_stop(&self) -> Option<ShortfallReason> {
        self.last_stop
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
    fn unsat_shortfall_is_reported() {
        let mut cnf = Cnf::new(1);
        cnf.add_clause([lit(1)]);
        cnf.add_clause([lit(-1)]);
        let mut s = Sampler::new(&cnf, SamplerConfig::default());
        let (samples, outcome) = s.sample_with_outcome(5);
        assert!(samples.is_empty());
        assert_eq!(
            outcome,
            SampleOutcome {
                requested: 5,
                emitted: 0,
                reason: Some(ShortfallReason::Unsat),
            }
        );
        assert!(outcome.is_short());
    }

    #[test]
    fn full_batches_report_no_shortfall() {
        let cnf = Cnf::new(3);
        let mut s = Sampler::new(&cnf, SamplerConfig::default());
        let (samples, outcome) = s.sample_with_outcome(8);
        assert_eq!(samples.len(), 8);
        assert_eq!(outcome.reason, None);
        assert!(!outcome.is_short());
    }

    #[test]
    fn call_budget_cuts_sampling_short() {
        let cnf = Cnf::new(4);
        let budget = manthan3_sat::CallBudget::limited(3);
        let mut s = Sampler::new(
            &cnf,
            SamplerConfig {
                calls: Some(budget.clone()),
                ..SamplerConfig::default()
            },
        );
        let (samples, outcome) = s.sample_with_outcome(10);
        assert_eq!(samples.len(), 3);
        assert_eq!(outcome.reason, Some(ShortfallReason::Budget));
        assert!(budget.exhausted());
        // Refused draws never touch the solver, so the allowance stays at
        // exactly its limit however often we retry.
        assert!(s.sample(2).is_empty());
        assert_eq!(budget.consumed(), 3);
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
        let (samples, outcome) = s.sample_with_outcome(4);
        assert!(samples.is_empty());
        assert_eq!(outcome.reason, Some(ShortfallReason::Cancelled));
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
