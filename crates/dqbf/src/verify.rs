//! SAT-based certificate checking for Henkin function vectors.
//!
//! By Lemma 1 of the paper, `f` is a Henkin function vector for
//! `∀X ∃^H Y. ϕ(X,Y)` iff (a) every `f_i` only depends on `H_i` and (b) the
//! *error formula* `E(X,Y') = ¬ϕ(X,Y') ∧ (Y' ↔ f)` is unsatisfiable. This
//! module implements exactly that check against an independent SAT solver,
//! so it can be used to validate the output of any synthesis engine in this
//! workspace (Manthan3 and both baselines).
//!
//! E is refuted one matrix clause at a time on one solver
//! ([`refute_by_clause`]): ϕ is false exactly when some clause `c` is, and
//! `¬c` is a conjunction of literals, so E is UNSAT exactly when the solver
//! holding `Y' ↔ f` is UNSAT under the assumptions `¬c` for every `c`.
//! The solver holds no part of `¬ϕ`: each query asks only whether the
//! vector can falsify clause `c`, and the queries share the solver's learnt
//! clauses. The engine's `VerifySession` refutes its persistent error
//! formula the same way.
//!
//! A counterexample is a model δ of E restricted to the formula's
//! variables: one [`Assignment`] whose universal entries are `δ[X]` and
//! whose existential entries are the vector's outputs `δ[Y']` on them, so
//! it falsifies the matrix as it stands.

use crate::{Dqbf, HenkinVector};
use manthan3_cnf::{Assignment, Lit, Var};
use manthan3_sat::{SolveResult, Solver};
use std::collections::HashMap;

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
    /// specification. The counterexample assigns the formula's variables:
    /// `δ[X]` to the universals, the vector's outputs `δ[Y']` to the
    /// existentials.
    Falsified(Assignment),
}

impl CheckOutcome {
    /// Returns `true` for [`CheckOutcome::Valid`].
    pub fn is_valid(&self) -> bool {
        matches!(self, CheckOutcome::Valid)
    }
}

/// Refutes the error formula one matrix clause at a time: for each clause
/// `c` of `dqbf`'s matrix in order, calls `solve` on `query` extended by
/// the negations of `c`'s literals, and returns the first answer that is
/// not UNSAT. `query` holds the caller's assumption prefix on entry and is
/// restored to it on return, so a caller that keeps the buffer makes no
/// allocation per query once it has room for the longest clause.
///
/// A SAT answer's model falsifies `c`, so it is a model of the error
/// formula itself. If every query is UNSAT, no model of the solver's
/// clauses and the prefix falsifies any clause, so the error formula is
/// UNSAT. A tautological clause, or one that repeats a literal, needs no
/// special case: assuming both `l` and `¬l` is refuted by the assumptions
/// themselves, and a repeated assumption is satisfied when it is reached.
pub fn refute_by_clause(
    dqbf: &Dqbf,
    query: &mut Vec<Lit>,
    mut solve: impl FnMut(&[Lit]) -> SolveResult,
) -> SolveResult {
    let prefix = query.len();
    for clause in dqbf.clauses() {
        query.extend(clause.iter().map(|&l| !l));
        let result = solve(query);
        query.truncate(prefix);
        if result != SolveResult::Unsat {
            return result;
        }
    }
    SolveResult::Unsat
}

/// Checks whether `vector` is a Henkin function vector for `dqbf`
/// (Lemma 1 of the paper).
///
/// The check is fully independent of the synthesis engines: it encodes the
/// functions and their links `Y ↔ f` straight into a fresh SAT solver and
/// refutes the error formula there, one matrix clause at a time
/// ([`refute_by_clause`]).
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
    // The formula's variables come first, so the Tseitin variables are
    // numbered after them.
    solver.ensure_vars(dqbf.num_vars());
    // One cache for every output: after `substitute_down` the functions share
    // cones, and each shared node is encoded once.
    let mut cache = HashMap::new();
    for &y in dqbf.existentials() {
        let f = vector.get(y).expect("checked above");
        let out = vector.aig().encode_cnf(f, &mut solver, &mut cache);
        solver.add_clause([y.negative(), out]);
        solver.add_clause([y.positive(), !out]);
    }
    match refute_by_clause(dqbf, &mut Vec::new(), |query| {
        solver.solve_with_assumptions(query)
    }) {
        SolveResult::Unsat => CheckOutcome::Valid,
        SolveResult::Unknown => unreachable!("the vector check's solver has no budget"),
        SolveResult::Sat => CheckOutcome::Falsified(Assignment::from_values(
            (0..dqbf.num_vars())
                .map(|v| solver.value(Var::new(v as u32)) == Some(true))
                .collect(),
        )),
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
            // The counterexample must indeed falsify the matrix.
            CheckOutcome::Falsified(cex) => assert!(!dqbf.eval_matrix(&cex)),
            other => panic!("expected Falsified, got {other:?}"),
        }
    }

    /// `∀x1 x2 x3 ∃y. y ↔ x1 ∧ x2 ∧ x3`, as the clauses `(¬y ∨ x_i)` and then
    /// `(¬x1 ∨ ¬x2 ∨ ¬x3 ∨ y)`. Against `y := ⊥` only the last clause can
    /// fail, so a refutation that stopped short of the last clause would
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
                let last = dqbf.clauses().last().expect("four clauses");
                assert!(last.iter().all(|&l| !cex.lit_value(l)));
            }
            other => panic!("expected Falsified, got {other:?}"),
        }
    }

    /// `∀x ∃^{x}y` with the clauses `(x ∨ ¬x ∨ y)`, a tautology, and
    /// `(y ∨ x ∨ y)`, which repeats `y`. The first clause's query assumes
    /// both `x` and `¬x`, so its own assumptions refute it whatever the
    /// vector; the second is falsified exactly when `x` and `y` are false.
    #[test]
    fn tautological_and_repeated_literal_clauses_are_refuted_by_their_assumptions() {
        let (xv, yv) = (Var::new(0), Var::new(1));
        let mut dqbf = Dqbf::new();
        dqbf.add_universal(xv);
        dqbf.add_existential(yv, [xv]);
        dqbf.add_clause([xv.positive(), xv.negative(), yv.positive()]);
        dqbf.add_clause([yv.positive(), xv.positive(), yv.positive()]);
        let mut v = HenkinVector::new();
        let input = v.aig_mut().input(xv.index());
        v.set(yv, !input);
        assert!(check(&dqbf, &v).is_valid());
        // y := x falsifies the second clause at x = 0 and nothing else.
        v.set(yv, input);
        match check(&dqbf, &v) {
            // x = 0 and y = 0.
            CheckOutcome::Falsified(cex) => assert_eq!(cex, Assignment::new_false(2)),
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
