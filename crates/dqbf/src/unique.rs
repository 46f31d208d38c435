//! Unique-definition extraction (the role of the UNIQUE tool in the paper).
//!
//! An existential variable `y` is *uniquely defined* by its dependency set
//! `H` relative to `ϕ` if any two models of `ϕ` that agree on `H` agree on
//! `y`. For such variables a Henkin function can be extracted directly,
//! without learning or repair. Manthan3's implementation runs this as a
//! preprocessing step.
//!
//! [`extract_definitions`] runs on two incremental solvers, whatever the
//! number of outputs:
//!
//! * **One Padoa session** decides definability. It holds two renamed
//!   copies of the matrix, `ϕ(X,Y) ∧ ϕ(X′,Y′)`, and one selector `e_x` per
//!   dependency `x` of the outputs it checks, with the guarded clauses
//!   `e_x → (x ↔ x′)`. Output `y` is defined iff the query under
//!   `{e_x : x ∈ H_y} ∪ {y, ¬y′}` is UNSAT, so every output is one query on
//!   the same solver, and what the solver learns about the two copies
//!   carries over from output to output.
//! * **One enumerator** over `ϕ` extracts the definitions, with one query
//!   per valuation `α` of `H_y` that assumes `α`. Padoa's verdict
//!   guarantees that every model extending `α` agrees on `y`, so a SAT
//!   answer's model gives the forced value (a true one adds `α`'s cube to
//!   the function), and an UNSAT answer means `α` has no extension and
//!   contributes nothing.
//!
//! Enumeration is a simplified stand-in for the interpolation-based
//! extraction of the original UNIQUE tool: it is exponential in `|H|` but
//! needs no interpolating solver, and the small dependency sets of the
//! generated instances keep it cheap.
//!
//! Both solvers watch the caller's [`CancelToken`] and nothing else; they
//! stay off the engine's certifying oracle. Certifying their UNSAT answers
//! would add a DRAT check per defined output and per valuation without an
//! extension, a cost the forward checker cannot yet absorb.

use crate::{Dqbf, HenkinVector};
use manthan3_cnf::{Lit, Var};
use manthan3_sat::{CancelToken, SolveResult, Solver, SolverConfig};
use std::collections::BTreeMap;

/// Extracts, for every existential variable that is uniquely defined and has
/// at most `max_deps` dependencies, an explicit definition and stores it in
/// `vector`. Returns the variables for which a definition was extracted, in
/// the order of [`Dqbf::existentials`].
///
/// Variables with larger dependency sets are skipped even if they are
/// defined (extraction enumerates `2^|H|` valuations). No solver is built
/// when no variable is small enough.
///
/// The solvers poll `cancel`: once a query comes back `Unknown`, extraction
/// stops and returns the variables finished so far (sound: the rest fall
/// through to the learning phase).
///
/// # Examples
///
/// ```
/// use manthan3_cnf::Var;
/// use manthan3_dqbf::{unique, Dqbf, HenkinVector};
/// use manthan3_sat::CancelToken;
///
/// // y ↔ (x1 ∨ x2) uniquely defines y.
/// let (x1, x2, y) = (Var::new(0), Var::new(1), Var::new(2));
/// let mut dqbf = Dqbf::new();
/// dqbf.add_universal(x1);
/// dqbf.add_universal(x2);
/// dqbf.add_existential(y, [x1, x2]);
/// dqbf.add_clause([y.negative(), x1.positive(), x2.positive()]);
/// dqbf.add_clause([y.positive(), x1.negative()]);
/// dqbf.add_clause([y.positive(), x2.negative()]);
/// let mut vector = HenkinVector::new();
/// let defined = unique::extract_definitions(&dqbf, &mut vector, 2, &CancelToken::new());
/// assert_eq!(defined, vec![y]);
/// assert_eq!(vector.eval_one(y, &[false, true]), Some(true));
/// ```
pub fn extract_definitions(
    dqbf: &Dqbf,
    vector: &mut HenkinVector,
    max_deps: usize,
    cancel: &CancelToken,
) -> Vec<Var> {
    let candidates: Vec<Var> = dqbf
        .existentials()
        .iter()
        .copied()
        .filter(|&y| dqbf.dependencies(y).len() <= max_deps)
        .collect();
    if candidates.is_empty() {
        return Vec::new();
    }
    let config = SolverConfig::default().with_cancel(cancel.clone());
    let n = dqbf.num_vars();
    let shift = |v: Var| Var::new((v.index() + n) as u32);

    let mut padoa = Solver::with_config(config.clone());
    padoa.add_cnf(dqbf.matrix());
    for clause in dqbf.matrix().clauses() {
        padoa.add_clause(
            clause
                .iter()
                .map(|&l| Lit::new(shift(l.var()), l.is_positive())),
        );
    }
    padoa.ensure_vars(2 * n);
    let mut selectors: BTreeMap<Var, Lit> = BTreeMap::new();
    for &x in candidates.iter().flat_map(|&y| dqbf.dependencies(y)) {
        selectors.entry(x).or_insert_with(|| {
            let e = padoa.new_activation_lit();
            padoa.add_guarded_clause(e, [x.negative(), shift(x).positive()]);
            padoa.add_guarded_clause(e, [x.positive(), shift(x).negative()]);
            e
        });
    }

    let mut enumerator = Solver::with_config(config);
    enumerator.add_cnf(dqbf.matrix());
    enumerator.ensure_vars(n);

    let mut extracted = Vec::new();
    for y in candidates {
        let deps = dqbf.dependencies(y);
        let mut query: Vec<Lit> = deps.iter().map(|d| selectors[d]).collect();
        query.extend([y.positive(), shift(y).negative()]);
        match padoa.solve_with_assumptions(&query) {
            SolveResult::Unsat => {}
            SolveResult::Sat => continue,
            SolveResult::Unknown => return extracted,
        }
        let mut true_rows = Vec::new();
        for valuation in 0u64..(1u64 << deps.len()) {
            let alpha: Vec<Lit> = deps
                .iter()
                .enumerate()
                .map(|(i, &d)| d.lit(valuation >> i & 1 == 1))
                .collect();
            match enumerator.solve_with_assumptions(&alpha) {
                SolveResult::Sat if enumerator.value(y) == Some(true) => true_rows.push(valuation),
                // Forced false, or no extension: contributes nothing.
                SolveResult::Sat | SolveResult::Unsat => {}
                SolveResult::Unknown => return extracted,
            }
        }
        let rows = true_rows
            .into_iter()
            .map(|valuation| (0..deps.len()).map(move |i| valuation >> i & 1 == 1));
        let f = vector.truth_table(deps, rows);
        vector.set(y, f);
        extracted.push(y);
    }
    extracted
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::check;

    fn extract(dqbf: &Dqbf, max_deps: usize) -> (Vec<Var>, HenkinVector) {
        let mut vector = HenkinVector::new();
        let extracted = extract_definitions(dqbf, &mut vector, max_deps, &CancelToken::new());
        (extracted, vector)
    }

    fn gate_example() -> Dqbf {
        // y1 ↔ (x1 ∧ x2), y2 free (only constrained by a clause it can satisfy
        // in several ways).
        let (x1, x2) = (Var::new(0), Var::new(1));
        let (y1, y2) = (Var::new(2), Var::new(3));
        let mut dqbf = Dqbf::new();
        dqbf.add_universal(x1);
        dqbf.add_universal(x2);
        dqbf.add_existential(y1, [x1, x2]);
        dqbf.add_existential(y2, [x1]);
        dqbf.add_clause([y1.negative(), x1.positive()]);
        dqbf.add_clause([y1.negative(), x2.positive()]);
        dqbf.add_clause([y1.positive(), x1.negative(), x2.negative()]);
        dqbf.add_clause([y2.positive(), x1.positive()]);
        dqbf
    }

    #[test]
    fn padoa_distinguishes_defined_from_free() {
        let (extracted, vector) = extract(&gate_example(), 8);
        assert_eq!(extracted, vec![Var::new(2)]);
        assert!(vector.get(Var::new(3)).is_none());
    }

    #[test]
    fn extraction_produces_the_gate_function() {
        let (extracted, vector) = extract(&gate_example(), 8);
        assert_eq!(extracted, vec![Var::new(2)]);
        // The extracted definition is x1 ∧ x2.
        for bits in 0..4u32 {
            let values = vec![bits & 1 == 1, bits & 2 == 2];
            assert_eq!(
                vector.eval_one(Var::new(2), &values),
                Some(values[0] && values[1])
            );
        }
    }

    #[test]
    fn definition_not_extracted_beyond_dependency_budget() {
        let (extracted, vector) = extract(&gate_example(), 1);
        assert!(extracted.is_empty());
        assert!(vector.get(Var::new(2)).is_none());
    }

    #[test]
    fn definedness_respects_dependency_sets() {
        // y ↔ x2 but y is only allowed to depend on x1: not defined by H.
        let (x1, x2, y) = (Var::new(0), Var::new(1), Var::new(2));
        let mut dqbf = Dqbf::new();
        dqbf.add_universal(x1);
        dqbf.add_universal(x2);
        dqbf.add_existential(y, [x1]);
        dqbf.add_clause([y.negative(), x2.positive()]);
        dqbf.add_clause([y.positive(), x2.negative()]);
        assert!(extract(&dqbf, 8).0.is_empty());
    }

    #[test]
    fn paper_example_definitions_verify() {
        // In the paper example y2 and y3 are gate-defined once y1 is known;
        // only y3 is defined purely from its dependencies {x2, x3}.
        let dqbf = Dqbf::paper_example();
        let (extracted, mut vector) = extract(&dqbf, 8);
        assert_eq!(extracted, vec![Var::new(5)]);
        // Completing the remaining functions by hand yields a valid vector.
        let in_x1 = vector.aig_mut().input(0);
        let in_x2 = vector.aig_mut().input(1);
        vector.set(Var::new(3), !in_x1);
        let f2 = vector.aig_mut().or(!in_x1, !in_x2);
        vector.set(Var::new(4), f2);
        assert!(check(&dqbf, &vector).is_valid());
    }

    #[test]
    fn cancelled_token_extracts_nothing() {
        let cancel = CancelToken::new();
        cancel.cancel();
        let mut vector = HenkinVector::new();
        let extracted = extract_definitions(&gate_example(), &mut vector, 8, &cancel);
        assert!(extracted.is_empty());
        assert!(vector.is_empty());
        assert_eq!(
            vector.aig().num_nodes(),
            HenkinVector::new().aig().num_nodes()
        );
    }
}
