//! Brute-force DQBF semantics for small instances.
//!
//! These routines enumerate Henkin function tables explicitly and are only
//! feasible for tiny formulas. They serve as an *independent oracle* in the
//! test suite: the synthesis engines and the certificate checker are compared
//! against them on randomly generated small instances.

use crate::{Dqbf, HenkinVector};
use manthan3_cnf::{Assignment, Var};

/// Upper bound on `Σ_i 2^|H_i|` (total truth-table bits) and on `|X|` for
/// which brute-force evaluation is attempted by default.
pub const DEFAULT_LIMIT_BITS: u32 = 16;

fn table_bits(dqbf: &Dqbf) -> Option<u32> {
    let mut total: u32 = 0;
    for &y in dqbf.existentials() {
        let deps = dqbf.dependencies(y).len() as u32;
        if deps > 12 {
            return None;
        }
        total = total.checked_add(1u32.checked_shl(deps)?)?;
        if total > 30 {
            return None;
        }
    }
    Some(total)
}

/// Decides a small DQBF by explicit enumeration of all Henkin function
/// tables.
///
/// Returns `None` if the instance is too large (more than `limit_bits` total
/// table bits or more than 16 universal variables); otherwise returns
/// `Some(true)` / `Some(false)`.
///
/// # Examples
///
/// ```
/// use manthan3_dqbf::{semantics, Dqbf};
/// let dqbf = Dqbf::paper_example();
/// assert_eq!(semantics::brute_force_truth(&dqbf, 16), Some(true));
/// ```
pub fn brute_force_truth(dqbf: &Dqbf, limit_bits: u32) -> Option<bool> {
    brute_force_synthesize(dqbf, limit_bits).map(|v| v.is_some())
}

/// Like [`brute_force_truth`] but also returns a witnessing
/// [`HenkinVector`] (as truth-table DNFs) for true instances.
pub fn brute_force_synthesize(dqbf: &Dqbf, limit_bits: u32) -> Option<Option<HenkinVector>> {
    let bits = table_bits(dqbf)?;
    if bits > limit_bits || dqbf.universals().len() > 16 {
        return None;
    }
    let num_x = dqbf.universals().len();
    let existentials: Vec<Var> = dqbf.existentials().to_vec();
    let deps: Vec<Vec<Var>> = existentials
        .iter()
        .map(|&y| dqbf.dependencies(y).iter().copied().collect())
        .collect();
    let table_sizes: Vec<u32> = deps.iter().map(|d| 1u32 << d.len()).collect();
    let offsets: Vec<u32> = table_sizes
        .iter()
        .scan(0u32, |acc, &s| {
            let o = *acc;
            *acc += s;
            Some(o)
        })
        .collect();

    'tables: for tables in 0u64..(1u64 << bits) {
        // Check all universal assignments against this table combination.
        for x_bits in 0u32..(1u32 << num_x) {
            let mut values = vec![false; dqbf.num_vars()];
            for (i, &x) in dqbf.universals().iter().enumerate() {
                values[x.index()] = x_bits >> i & 1 == 1;
            }
            for (i, &y) in existentials.iter().enumerate() {
                let mut index = 0u32;
                for (j, &d) in deps[i].iter().enumerate() {
                    if values[d.index()] {
                        index |= 1 << j;
                    }
                }
                let bit = offsets[i] + index;
                values[y.index()] = tables >> bit & 1 == 1;
            }
            if !dqbf.eval_matrix(&Assignment::from_values(values)) {
                continue 'tables;
            }
        }
        // All assignments satisfied: build the witnessing vector.
        let mut vector = HenkinVector::new();
        for (i, &y) in existentials.iter().enumerate() {
            let rows = (0..table_sizes[i])
                .filter(|index| tables >> (offsets[i] + index) & 1 == 1)
                .map(|index| (0..deps[i].len()).map(move |j| index >> j & 1 == 1));
            let f = vector.truth_table(&deps[i], rows);
            vector.set(y, f);
        }
        return Some(Some(vector));
    }
    Some(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::check;
    use manthan3_cnf::Lit;

    #[test]
    fn paper_example_is_true() {
        let dqbf = Dqbf::paper_example();
        let vector = brute_force_synthesize(&dqbf, 16)
            .expect("small enough")
            .expect("true instance");
        assert!(check(&dqbf, &vector).is_valid());
    }

    #[test]
    fn xor_limitation_example_is_true() {
        let dqbf = Dqbf::xor_limitation_example();
        assert_eq!(brute_force_truth(&dqbf, 16), Some(true));
    }

    #[test]
    fn detects_false_instances() {
        // ∀x1 x2 ∃^{x1}y. (y ↔ x2): y would have to depend on x2.
        let x1 = Var::new(0);
        let x2 = Var::new(1);
        let y = Var::new(2);
        let mut dqbf = Dqbf::new();
        dqbf.add_universal(x1);
        dqbf.add_universal(x2);
        dqbf.add_existential(y, [x1]);
        dqbf.add_clause([y.negative(), x2.positive()]);
        dqbf.add_clause([y.positive(), x2.negative()]);
        assert_eq!(brute_force_truth(&dqbf, 16), Some(false));

        // With the right dependency the same matrix is true.
        let mut ok = Dqbf::new();
        ok.add_universal(x1);
        ok.add_universal(x2);
        ok.add_existential(y, [x2]);
        ok.add_clause([y.negative(), x2.positive()]);
        ok.add_clause([y.positive(), x2.negative()]);
        assert_eq!(brute_force_truth(&ok, 16), Some(true));
    }

    #[test]
    fn unsat_matrix_is_false() {
        let x = Var::new(0);
        let y = Var::new(1);
        let mut dqbf = Dqbf::new();
        dqbf.add_universal(x);
        dqbf.add_existential(y, [x]);
        dqbf.add_clause([Lit::positive(y)]);
        dqbf.add_clause([Lit::negative(y)]);
        assert_eq!(brute_force_truth(&dqbf, 16), Some(false));
    }

    #[test]
    fn too_large_instances_are_rejected() {
        let mut dqbf = Dqbf::new();
        let xs: Vec<Var> = (0..14).map(Var::new).collect();
        for &x in &xs {
            dqbf.add_universal(x);
        }
        dqbf.add_existential(Var::new(20), xs.iter().copied());
        assert_eq!(brute_force_truth(&dqbf, 16), None);
    }
}
