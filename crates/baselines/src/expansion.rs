//! An HQS2-style expansion-based Henkin synthesizer.
//!
//! The engine grounds the DQBF: it introduces one Boolean variable
//! `y_i^α` for every existential `y_i` and every valuation `α` of its
//! dependency set `H_i`, then instantiates the matrix for every assignment
//! `ξ` of the universal variables, substituting each `y_i` by `y_i^{ξ|H_i}`.
//! The resulting propositional formula is satisfiable iff the DQBF is true,
//! and a model directly provides the truth tables of the Henkin functions.
//!
//! Exact quantifier elimination of this kind is what elimination-based DQBF
//! solvers (HQS/HQS2) perform, with far more engineering (BDDs, dependency
//! scheduling, preprocessing). Like those tools, this engine shines when the
//! universal set and the dependency sets are small and gives up when the
//! expansion exceeds its budget.

use manthan3_cnf::{Lit, Var};
use manthan3_core::{
    Budget, Oracle, SynthesisOutcome, SynthesisResult, SynthesisStats, UnknownReason,
};
use manthan3_dqbf::{Dqbf, HenkinVector};
use manthan3_sat::SolveResult;
use std::collections::HashSet;

/// Largest number of universal variables (the grounding enumerates
/// `2^|X|` assignments).
const MAX_UNIVERSALS: usize = 14;
/// Largest total number of existential copies `Σ_i 2^|H_i|`.
const MAX_COPIES: usize = 4096;
/// Largest number of grounded clauses.
const MAX_GROUND_CLAUSES: usize = 400_000;

/// The expansion-based baseline engine. See the
/// [crate documentation](crate).
#[derive(Debug, Clone, Copy, Default)]
pub struct ExpansionSolver;

impl ExpansionSolver {
    /// Synthesizes a Henkin function vector for `dqbf` by universal
    /// expansion, with no wall-clock budget.
    ///
    /// # Panics
    ///
    /// Panics if `dqbf` fails [`Dqbf::validate`].
    pub fn synthesize(&self, dqbf: &Dqbf) -> SynthesisResult {
        self.synthesize_with_budget(dqbf, Budget::unlimited())
    }

    /// Like [`ExpansionSolver::synthesize`], but under an externally
    /// supplied [`Budget`] — the way a portfolio runner shares one deadline
    /// and one cancellation token across racing engines.
    ///
    /// # Panics
    ///
    /// Panics if `dqbf` fails [`Dqbf::validate`].
    pub fn synthesize_with_budget(&self, dqbf: &Dqbf, budget: Budget) -> SynthesisResult {
        dqbf.validate().expect("well-formed DQBF");
        let mut oracle = Oracle::new(budget);
        let outcome = self.expand(dqbf, &mut oracle);
        SynthesisResult::finish(outcome, SynthesisStats::default(), oracle)
    }

    /// Grounds `dqbf` and reads the Henkin functions off one SAT call.
    fn expand(&self, dqbf: &Dqbf, oracle: &mut Oracle) -> SynthesisOutcome {
        let num_x = dqbf.universals().len();
        if num_x > MAX_UNIVERSALS {
            return SynthesisOutcome::Unknown(UnknownReason::OracleBudget);
        }
        // Allocate copy variables y_i^α.
        let existentials: Vec<Var> = dqbf.existentials().to_vec();
        let deps: Vec<Vec<Var>> = existentials
            .iter()
            .map(|&y| dqbf.dependencies(y).iter().copied().collect())
            .collect();
        let mut copy_base = Vec::with_capacity(existentials.len());
        let mut total_copies = 0usize;
        for d in &deps {
            if d.len() >= usize::BITS as usize - 1 {
                return SynthesisOutcome::Unknown(UnknownReason::OracleBudget);
            }
            copy_base.push(total_copies);
            total_copies += 1usize << d.len();
            if total_copies > MAX_COPIES {
                return SynthesisOutcome::Unknown(UnknownReason::OracleBudget);
            }
        }

        // Ground the matrix over all universal assignments.
        let mut solver = oracle.new_solver();
        solver.ensure_vars(total_copies);
        let mut seen_clauses: HashSet<Vec<Lit>> = HashSet::new();
        let mut ground_clauses = 0usize;
        let universals: Vec<Var> = dqbf.universals().to_vec();

        for xi_bits in 0u64..(1u64 << num_x) {
            if let Some(reason) = oracle.exhausted() {
                return SynthesisOutcome::Unknown(reason);
            }
            let x_value = |v: Var| -> Option<bool> {
                universals
                    .iter()
                    .position(|&u| u == v)
                    .map(|i| xi_bits >> i & 1 == 1)
            };
            'clauses: for clause in dqbf.matrix().clauses() {
                let mut ground: Vec<Lit> = Vec::new();
                for &lit in clause {
                    if let Some(value) = x_value(lit.var()) {
                        if value == lit.is_positive() {
                            continue 'clauses; // clause satisfied by ξ
                        }
                        continue; // literal falsified: drop it
                    }
                    // Existential literal: map to the copy for ξ|H_i.
                    let idx = existentials
                        .iter()
                        .position(|&y| y == lit.var())
                        .expect("validated formula: non-universal literal is existential");
                    let mut alpha = 0usize;
                    for (j, &d) in deps[idx].iter().enumerate() {
                        if x_value(d).unwrap_or(false) {
                            alpha |= 1 << j;
                        }
                    }
                    let copy = Var::new((copy_base[idx] + alpha) as u32);
                    ground.push(Lit::new(copy, lit.is_positive()));
                }
                if ground.is_empty() {
                    // The clause is falsified by ξ alone: the DQBF is false.
                    return SynthesisOutcome::Unrealizable;
                }
                ground.sort();
                ground.dedup();
                if seen_clauses.insert(ground.clone()) {
                    ground_clauses += 1;
                    if ground_clauses > MAX_GROUND_CLAUSES {
                        return SynthesisOutcome::Unknown(UnknownReason::OracleBudget);
                    }
                    solver.add_clause(ground);
                }
            }
        }

        match oracle.solve(&mut solver) {
            SolveResult::Unsat => SynthesisOutcome::Unrealizable,
            SolveResult::Unknown => SynthesisOutcome::Unknown(oracle.give_up_reason()),
            SolveResult::Sat => {
                let model = solver.model();
                let mut vector = HenkinVector::new();
                for (idx, &y) in existentials.iter().enumerate() {
                    let n = deps[idx].len();
                    let rows = (0usize..(1usize << n))
                        .filter(|alpha| {
                            let copy = Var::new((copy_base[idx] + alpha) as u32);
                            model.get(copy).unwrap_or(false)
                        })
                        .map(|alpha| (0..n).map(move |j| alpha >> j & 1 == 1));
                    let f = vector.truth_table(&deps[idx], rows);
                    vector.set(y, f);
                }
                SynthesisOutcome::Realizable(vector)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use manthan3_dqbf::verify::check;

    #[test]
    fn solves_the_paper_example() {
        let dqbf = Dqbf::paper_example();
        let result = ExpansionSolver.synthesize(&dqbf);
        let vector = result.vector().expect("true instance");
        assert!(check(&dqbf, vector).is_valid());
        // One grounding solver, one final SAT call, via the oracle layer.
        assert_eq!(result.stats.oracle.sat_solvers_constructed, 1);
        assert_eq!(result.stats.oracle.sat_calls, 1);
    }

    #[test]
    fn solves_the_xor_limitation_example() {
        // The instance on which Manthan3's repair gets stuck is easy for the
        // expansion engine — the orthogonality the paper's portfolio analysis
        // relies on.
        let dqbf = Dqbf::xor_limitation_example();
        let result = ExpansionSolver.synthesize(&dqbf);
        let vector = result.vector().expect("true instance");
        assert!(check(&dqbf, vector).is_valid());
    }

    #[test]
    fn detects_false_instances() {
        // ∀x1 x2 ∃^{x1}y. (y ↔ x2) is false.
        let (x1, x2, y) = (Var::new(0), Var::new(1), Var::new(2));
        let mut dqbf = Dqbf::new();
        dqbf.add_universal(x1);
        dqbf.add_universal(x2);
        dqbf.add_existential(y, [x1]);
        dqbf.add_clause([y.negative(), x2.positive()]);
        dqbf.add_clause([y.positive(), x2.negative()]);
        let result = ExpansionSolver.synthesize(&dqbf);
        assert!(matches!(result.outcome, SynthesisOutcome::Unrealizable));
    }

    #[test]
    fn detects_matrix_level_falsity() {
        let (x, y) = (Var::new(0), Var::new(1));
        let mut dqbf = Dqbf::new();
        dqbf.add_universal(x);
        dqbf.add_existential(y, [x]);
        dqbf.add_clause([x.negative()]);
        let result = ExpansionSolver.synthesize(&dqbf);
        assert!(matches!(result.outcome, SynthesisOutcome::Unrealizable));
    }

    #[test]
    fn gives_up_beyond_its_budget() {
        let mut dqbf = Dqbf::new();
        let xs: Vec<Var> = (0..20).map(Var::new).collect();
        for &x in &xs {
            dqbf.add_universal(x);
        }
        dqbf.add_existential(Var::new(30), xs.iter().copied());
        dqbf.add_clause([Var::new(30).positive(), xs[0].positive()]);
        let result = ExpansionSolver.synthesize(&dqbf);
        assert!(matches!(result.outcome, SynthesisOutcome::Unknown(_)));
    }

    #[test]
    fn agrees_with_brute_force_on_small_random_instances() {
        use manthan3_dqbf::semantics::brute_force_truth;
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(7);
        for round in 0..25 {
            let num_x = rng.gen_range(1..=3usize);
            let num_y = rng.gen_range(1..=2usize);
            let mut dqbf = Dqbf::new();
            let xs: Vec<Var> = (0..num_x as u32).map(Var::new).collect();
            for &x in &xs {
                dqbf.add_universal(x);
            }
            for j in 0..num_y {
                let y = Var::new((num_x + j) as u32);
                let deps: Vec<Var> = xs.iter().copied().filter(|_| rng.gen()).collect();
                dqbf.add_existential(y, deps);
            }
            let total_vars = num_x + num_y;
            for _ in 0..rng.gen_range(1..5) {
                let len = rng.gen_range(1..=3);
                let clause: Vec<Lit> = (0..len)
                    .map(|_| Lit::new(Var::new(rng.gen_range(0..total_vars) as u32), rng.gen()))
                    .collect();
                dqbf.add_clause(clause);
            }
            let expected = brute_force_truth(&dqbf, 16).expect("small instance");
            let result = ExpansionSolver.synthesize(&dqbf);
            match (&result.outcome, expected) {
                (SynthesisOutcome::Realizable(v), true) => {
                    assert!(check(&dqbf, v).is_valid(), "round {round}");
                }
                (SynthesisOutcome::Unrealizable, false) => {}
                (outcome, expected) => {
                    panic!("round {round}: expected {expected}, got {outcome:?}")
                }
            }
        }
    }
}
