//! SAT-based certificate checking for Henkin function vectors.
//!
//! By Lemma 1 of the paper, `f` is a Henkin function vector for
//! `∀X ∃^H Y. ϕ(X,Y)` iff (a) every `f_i` only depends on `H_i` and (b) the
//! *error formula* `E(X,Y') = ¬ϕ(X,Y') ∧ (Y' ↔ f)` is unsatisfiable. This
//! module implements exactly that check against an independent SAT solver,
//! so it can be used to validate the output of any synthesis engine in this
//! workspace (Manthan3 and both baselines).
//!
//! `¬ϕ` is encoded with one indicator per matrix clause
//! ([`encode_negated_matrix`]), and E is refuted one clause at a time on the
//! one solver that holds it ([`refute_by_clause`]): E is UNSAT exactly when
//! E ∧ d_c is UNSAT for every clause indicator d_c. Each query asks only
//! whether the vector can falsify clause c, and the queries share the
//! solver's learnt clauses; on the benchmark's returned vectors that took
//! fewer conflicts than one query over the whole disjunction. The engine's
//! `VerifySession` refutes its persistent error formula the same way.

use crate::{Dqbf, HenkinVector};
use manthan3_cnf::{Assignment, ClauseSink, Lit, Var};
use manthan3_sat::{SolveResult, Solver};
use std::collections::{BTreeMap, HashMap};

/// A witness that a candidate vector violates the specification: an
/// assignment of the universal variables together with the candidate
/// functions' outputs under which `ϕ` evaluates to false.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterExample {
    /// Full assignment found by the SAT solver (universal variables are the
    /// meaningful part).
    pub assignment: Assignment,
    /// Outputs of the candidate functions (`δ[Y']` in the paper).
    pub y_outputs: BTreeMap<Var, bool>,
}

/// Result of [`check`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckOutcome {
    /// The vector is a valid Henkin function vector.
    Valid,
    /// Some existential variable has no function.
    MissingFunction(Var),
    /// A function mentions a variable outside its Henkin dependency set.
    DependencyViolation {
        /// The existential variable whose function is illegal.
        existential: Var,
        /// The variable outside the dependency set.
        offending: Var,
    },
    /// The error formula is satisfiable: the vector does not realize the
    /// specification.
    Falsified(CounterExample),
}

impl CheckOutcome {
    /// Returns `true` for [`CheckOutcome::Valid`].
    pub fn is_valid(&self) -> bool {
        matches!(self, CheckOutcome::Valid)
    }
}

/// Encodes `¬ϕ(vars)` into `sink`: one fresh indicator per clause that
/// implies the clause is falsified, plus a disjunction of all indicators.
/// Returns the indicators, one per matrix clause in matrix order, for
/// [`refute_by_clause`]. The sink must already declare the formula's
/// variables, so the indicators are numbered after them.
pub fn encode_negated_matrix(dqbf: &Dqbf, sink: &mut impl ClauseSink) -> Vec<Lit> {
    let mut indicators = Vec::with_capacity(dqbf.num_clauses());
    for clause in dqbf.matrix().clauses() {
        let n = sink.fresh_var().positive();
        for &lit in clause {
            sink.add_clause(&[!n, !lit]);
        }
        indicators.push(n);
    }
    sink.add_clause(&indicators);
    indicators
}

/// Refutes the error formula one matrix clause at a time: calls `solve`
/// under `assumptions` followed by one indicator `d_c`, for each indicator
/// of [`encode_negated_matrix`] in order, and returns the first answer that
/// is not UNSAT. A SAT answer's model falsifies clause `c`, so it is a model
/// of the error formula itself. If every query is UNSAT, the error formula
/// is UNSAT, because its indicator disjunction needs some `d_c` true.
pub fn refute_by_clause(
    indicators: &[Lit],
    assumptions: &[Lit],
    mut solve: impl FnMut(&[Lit]) -> SolveResult,
) -> SolveResult {
    let mut query = assumptions.to_vec();
    for &indicator in indicators {
        query.push(indicator);
        let result = solve(&query);
        if result != SolveResult::Unsat {
            return result;
        }
        query.pop();
    }
    SolveResult::Unsat
}

/// Checks whether `vector` is a Henkin function vector for `dqbf`
/// (Lemma 1 of the paper).
///
/// The check is fully independent of the synthesis engines: it encodes the
/// error formula straight into a fresh SAT solver and refutes it there, one
/// matrix clause at a time ([`refute_by_clause`]).
///
/// # Examples
///
/// See the [crate-level documentation](crate).
pub fn check(dqbf: &Dqbf, vector: &HenkinVector) -> CheckOutcome {
    // (a) every output must have a function …
    for &y in dqbf.existentials() {
        if vector.get(y).is_none() {
            return CheckOutcome::MissingFunction(y);
        }
    }
    // … that respects its dependency set.
    if let Some((existential, offending)) = vector.dependency_violation(dqbf) {
        return CheckOutcome::DependencyViolation {
            existential,
            offending,
        };
    }
    // (b) E(X,Y) = ¬ϕ(X,Y) ∧ (Y ↔ f(X)) must be UNSAT. Because the functions
    // only mention universal variables, the original Y variables can play the
    // role of Y'.
    let mut solver = Solver::new();
    solver.ensure_vars(dqbf.num_vars());
    let indicators = encode_negated_matrix(dqbf, &mut solver);
    // One cache for every output: after `substitute_down` the functions share
    // cones, and each shared node is encoded once.
    let mut cache = HashMap::new();
    for &y in dqbf.existentials() {
        let f = vector.get(y).expect("checked above");
        let out = vector.aig().encode_cnf(f, &mut solver, &mut cache);
        solver.add_clause([y.negative(), out]);
        solver.add_clause([y.positive(), !out]);
    }
    match refute_by_clause(&indicators, &[], |query| {
        solver.solve_with_assumptions(query)
    }) {
        SolveResult::Unsat => CheckOutcome::Valid,
        SolveResult::Unknown => unreachable!("the vector check's solver has no budget"),
        SolveResult::Sat => {
            let assignment = solver.model();
            let y_outputs = dqbf
                .existentials()
                .iter()
                .map(|&y| (y, assignment.get(y).unwrap_or(false)))
                .collect();
            CheckOutcome::Falsified(CounterExample {
                assignment,
                y_outputs,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn x(i: u32) -> Var {
        Var::new(i)
    }
    fn y(i: u32) -> Var {
        Var::new(3 + i)
    }

    /// The hand-derived Henkin vector for the paper example:
    /// f1 = ¬x1, f2 = ¬x2 ∨ ¬x1, f3 = x2 ∨ x3.
    fn paper_vector() -> HenkinVector {
        let mut v = HenkinVector::new();
        let in_x1 = v.aig_mut().input(x(0).index());
        let in_x2 = v.aig_mut().input(x(1).index());
        let in_x3 = v.aig_mut().input(x(2).index());
        v.set(y(0), !in_x1);
        let f2 = v.aig_mut().or(!in_x2, !in_x1);
        v.set(y(1), f2);
        let f3 = v.aig_mut().or(in_x2, in_x3);
        v.set(y(2), f3);
        v
    }

    #[test]
    fn accepts_a_correct_vector() {
        let dqbf = Dqbf::paper_example();
        assert!(check(&dqbf, &paper_vector()).is_valid());
    }

    #[test]
    fn rejects_an_incorrect_vector() {
        let dqbf = Dqbf::paper_example();
        let mut v = paper_vector();
        // Break f3: make it constant false; the clause y3 ↔ (x2 ∨ x3) fails.
        v.set(y(2), v.aig().constant(false));
        match check(&dqbf, &v) {
            CheckOutcome::Falsified(cex) => {
                // The counterexample must indeed falsify the matrix when the
                // candidate outputs are used for Y.
                let mut full = cex.assignment.clone();
                for (&yv, &val) in &cex.y_outputs {
                    full.set(yv, val);
                }
                assert!(!dqbf.eval_matrix(&full));
            }
            other => panic!("expected Falsified, got {other:?}"),
        }
    }

    /// `∀x1 x2 x3 ∃y. y ↔ x1 ∧ x2 ∧ x3`, as the clauses `(¬y ∨ x_i)` and then
    /// `(¬x1 ∨ ¬x2 ∨ ¬x3 ∨ y)`. Against `y := ⊥` only the last clause can
    /// fail, so a refutation that stopped short of the last indicator would
    /// call the vector valid.
    #[test]
    fn only_the_last_clause_can_fail() {
        let xs = [x(0), x(1), x(2)];
        let out = y(0);
        let mut dqbf = Dqbf::new();
        for &v in &xs {
            dqbf.add_universal(v);
            dqbf.add_clause([out.negative(), v.positive()]);
        }
        dqbf.add_existential(out, xs);
        dqbf.add_clause(
            xs.iter()
                .map(|v| v.negative())
                .chain(std::iter::once(out.positive())),
        );
        let mut v = HenkinVector::new();
        v.set(out, v.aig().constant(false));
        match check(&dqbf, &v) {
            CheckOutcome::Falsified(cex) => {
                let mut full = cex.assignment.clone();
                full.set(out, cex.y_outputs[&out]);
                let last = dqbf.clauses().last().expect("four clauses");
                assert!(last
                    .iter()
                    .all(|&l| full.get(l.var()) == Some(!l.is_positive())));
            }
            other => panic!("expected Falsified, got {other:?}"),
        }
    }

    #[test]
    fn reports_missing_functions() {
        let dqbf = Dqbf::paper_example();
        let mut v = paper_vector();
        let mut partial = HenkinVector::new();
        let in_x1 = partial.aig_mut().input(x(0).index());
        partial.set(y(0), !in_x1);
        assert_eq!(check(&dqbf, &partial), CheckOutcome::MissingFunction(y(1)));
        let _ = &mut v;
    }

    #[test]
    fn reports_dependency_violations() {
        let dqbf = Dqbf::paper_example();
        let mut v = paper_vector();
        // y1 may only depend on x1; force a function over x3.
        let in_x3 = v.aig_mut().input(x(2).index());
        v.set(y(0), in_x3);
        assert_eq!(
            check(&dqbf, &v),
            CheckOutcome::DependencyViolation {
                existential: y(0),
                offending: x(2)
            }
        );
    }

    #[test]
    fn xor_example_certificate() {
        let dqbf = Dqbf::xor_limitation_example();
        // f1(x1,x2) = x2, f2(x2,x3) = x2 is a valid Henkin vector.
        let mut v = HenkinVector::new();
        let in_x2 = v.aig_mut().input(1);
        v.set(Var::new(3), in_x2);
        v.set(Var::new(4), in_x2);
        assert!(check(&dqbf, &v).is_valid());
        // f1 = x2, f2 = ¬x2 is not.
        let mut bad = HenkinVector::new();
        let in_x2 = bad.aig_mut().input(1);
        bad.set(Var::new(3), in_x2);
        bad.set(Var::new(4), !in_x2);
        assert!(!check(&dqbf, &bad).is_valid());
    }
}
