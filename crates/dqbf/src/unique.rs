//! Unique-definition extraction (the role of the UNIQUE tool in the paper).
//!
//! An existential variable `y` is *uniquely defined* by its dependency set
//! `H` relative to `ϕ` if any two models of `ϕ` that agree on `H` agree on
//! `y`. For such variables a Henkin function can be extracted directly,
//! without learning or repair. Manthan3's implementation runs this as a
//! preprocessing step.
//!
//! Definability is decided with Padoa's method (a single SAT call on two
//! renamed copies of the matrix). The definition itself is extracted, for
//! dependency sets up to a configurable size, by enumerating the dependency
//! valuations and asking a SAT oracle which output value is forced — a
//! simplified stand-in for the interpolation-based extraction used by the
//! original UNIQUE tool. Both give the same function; enumeration is
//! exponential in `|H|` but needs no interpolating solver, and the small
//! dependency sets of the generated instances keep it cheap.

use crate::{Dqbf, HenkinVector};
use manthan3_cnf::{Lit, Var};
use manthan3_sat::{SolveResult, Solver, SolverConfig};

/// Decides, with Padoa's method, whether `y` is uniquely defined by its
/// Henkin dependency set relative to the matrix of `dqbf`.
///
/// # Panics
///
/// Panics if `y` is not an existential variable of `dqbf`.
///
/// # Examples
///
/// ```
/// use manthan3_cnf::Var;
/// use manthan3_dqbf::{unique, Dqbf};
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
/// assert!(unique::is_uniquely_defined(&dqbf, y));
/// ```
pub fn is_uniquely_defined(dqbf: &Dqbf, y: Var) -> bool {
    is_uniquely_defined_with(dqbf, y, &SolverConfig::default())
}

/// Like [`is_uniquely_defined`], but the Padoa SAT call runs under the given
/// solver configuration (in particular its cancellation token). A call that
/// is cancelled conservatively reports "not defined".
pub fn is_uniquely_defined_with(dqbf: &Dqbf, y: Var, config: &SolverConfig) -> bool {
    let deps = dqbf.dependencies(y);
    let n = dqbf.num_vars();
    let shift = |v: Var| Var::new((v.index() + n) as u32);
    let shift_lit = |l: Lit| Lit::new(shift(l.var()), l.is_positive());

    let mut solver = Solver::with_config(config.clone());
    solver.add_cnf(dqbf.matrix());
    for clause in dqbf.matrix().clauses() {
        solver.add_clause(clause.iter().map(|&l| shift_lit(l)));
    }
    // Dependencies agree across the two copies.
    for &d in deps {
        solver.add_clause([d.negative(), shift(d).positive()]);
        solver.add_clause([d.positive(), shift(d).negative()]);
    }
    // … but the defined variable differs.
    solver.add_clause([y.positive()]);
    solver.add_clause([shift(y).negative()]);
    solver.solve() == SolveResult::Unsat
}

/// Extracts, for every existential variable that is uniquely defined and has
/// at most `max_deps` dependencies, an explicit definition and stores it in
/// `vector`. Returns the variables for which a definition was extracted.
///
/// Variables with larger dependency sets are skipped even if they are
/// defined (extraction would require enumerating `2^|H|` valuations).
pub fn extract_definitions(dqbf: &Dqbf, vector: &mut HenkinVector, max_deps: usize) -> Vec<Var> {
    extract_definitions_with(dqbf, vector, max_deps, &SolverConfig::default())
}

/// Like [`extract_definitions`], but every SAT call runs under the given
/// solver configuration (in particular its cancellation token), so
/// cancelling a shared engine budget stops preprocessing too. Variables
/// whose definability or definition cannot be settled before cancellation
/// are skipped (sound: they fall through to the learning phase).
pub fn extract_definitions_with(
    dqbf: &Dqbf,
    vector: &mut HenkinVector,
    max_deps: usize,
    config: &SolverConfig,
) -> Vec<Var> {
    let mut extracted = Vec::new();
    for &y in dqbf.existentials() {
        let deps: Vec<Var> = dqbf.dependencies(y).iter().copied().collect();
        if deps.len() > max_deps {
            continue;
        }
        if !is_uniquely_defined_with(dqbf, y, config) {
            continue;
        }
        if let Some(f) = definition_by_enumeration(dqbf, y, &deps, vector, config) {
            vector.set(y, f);
            extracted.push(y);
        }
    }
    extracted
}

/// Builds the definition of a uniquely defined `y` as a DNF over its
/// dependency valuations, using one SAT call per valuation. Returns `None`
/// when `y` turns out not to be defined for some valuation, or when any call
/// is cancelled (an `Unknown` must not be mistaken for "forced", so the
/// whole extraction is abandoned for `y`).
fn definition_by_enumeration(
    dqbf: &Dqbf,
    y: Var,
    deps: &[Var],
    vector: &mut HenkinVector,
    config: &SolverConfig,
) -> Option<manthan3_aig::AigRef> {
    let mut solver = Solver::with_config(config.clone());
    solver.add_cnf(dqbf.matrix());
    let mut positive_cubes = Vec::new();
    for valuation in 0u64..(1u64 << deps.len()) {
        let mut assumptions: Vec<Lit> = deps
            .iter()
            .enumerate()
            .map(|(i, &d)| d.lit(valuation >> i & 1 == 1))
            .collect();
        assumptions.push(y.positive());
        let true_result = solver.solve_with_assumptions(&assumptions);
        *assumptions.last_mut().expect("non-empty") = y.negative();
        let false_result = solver.solve_with_assumptions(&assumptions);
        if true_result == SolveResult::Unknown || false_result == SolveResult::Unknown {
            return None;
        }
        let can_be_true = true_result == SolveResult::Sat;
        let can_be_false = false_result == SolveResult::Sat;
        match (can_be_true, can_be_false) {
            (true, true) => return None, // not actually defined for this valuation
            (true, false) => {
                let cube: Vec<_> = deps
                    .iter()
                    .enumerate()
                    .map(|(i, &d)| {
                        let input = vector.aig_mut().input(d.index());
                        if valuation >> i & 1 == 1 {
                            input
                        } else {
                            !input
                        }
                    })
                    .collect();
                let c = vector.aig_mut().and_list(&cube);
                positive_cubes.push(c);
            }
            // Forced false or unconstrained valuation: contribute nothing.
            (false, _) => {}
        }
    }
    Some(vector.aig_mut().or_list(&positive_cubes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::check;

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
        let dqbf = gate_example();
        assert!(is_uniquely_defined(&dqbf, Var::new(2)));
        assert!(!is_uniquely_defined(&dqbf, Var::new(3)));
    }

    #[test]
    fn extraction_produces_the_gate_function() {
        let dqbf = gate_example();
        let mut vector = HenkinVector::new();
        let extracted = extract_definitions(&dqbf, &mut vector, 8);
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
        let dqbf = gate_example();
        let mut vector = HenkinVector::new();
        let extracted = extract_definitions(&dqbf, &mut vector, 1);
        assert!(extracted.is_empty());
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
        assert!(!is_uniquely_defined(&dqbf, y));
    }

    #[test]
    fn paper_example_definitions_verify() {
        // In the paper example y2 and y3 are gate-defined once y1 is known;
        // only y3 is defined purely from its dependencies {x2, x3}.
        let dqbf = Dqbf::paper_example();
        let mut vector = HenkinVector::new();
        let extracted = extract_definitions(&dqbf, &mut vector, 8);
        assert!(extracted.contains(&Var::new(5)));
        // Completing the remaining functions by hand yields a valid vector.
        let in_x1 = vector.aig_mut().input(0);
        let in_x2 = vector.aig_mut().input(1);
        vector.set(Var::new(3), !in_x1);
        let f2 = vector.aig_mut().or(!in_x1, !in_x2);
        vector.set(Var::new(4), f2);
        assert!(check(&dqbf, &vector).is_valid());
    }
}
