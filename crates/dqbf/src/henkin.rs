use crate::Dqbf;
use manthan3_aig::{Aig, AigRef};
use manthan3_cnf::{Assignment, Lit, Var};
use std::collections::{BTreeMap, HashMap};

/// A (candidate or final) Henkin function vector `f = ⟨f_1, …, f_m⟩`.
///
/// Functions are stored as cones in a shared [`Aig`] whose input labels are
/// the [`Var::index`] values of the formula's variables. During Manthan3's
/// repair loop a candidate `f_i` may still mention other existential
/// variables; [`HenkinVector::substitute_down`] expands those occurrences so
/// that the final functions are expressed purely over their Henkin
/// dependencies (Algorithm 1, line 19 of the paper).
///
/// # Examples
///
/// ```
/// use manthan3_cnf::Var;
/// use manthan3_dqbf::HenkinVector;
///
/// let y = Var::new(1);
/// let mut vector = HenkinVector::new();
/// let x = vector.aig_mut().input(0);
/// vector.set(y, !x);
/// assert_eq!(vector.functions().len(), 1);
/// assert!(vector.eval_one(y, &[true]) == Some(false));
/// ```
#[derive(Debug, Clone, Default)]
pub struct HenkinVector {
    aig: Aig,
    functions: BTreeMap<Var, AigRef>,
}

impl HenkinVector {
    /// Creates an empty vector.
    pub fn new() -> Self {
        HenkinVector {
            aig: Aig::new(),
            functions: BTreeMap::new(),
        }
    }

    /// The shared AIG holding all function cones.
    pub fn aig(&self) -> &Aig {
        &self.aig
    }

    /// Mutable access to the shared AIG (used to build new cones).
    pub fn aig_mut(&mut self) -> &mut Aig {
        &mut self.aig
    }

    /// Sets (or replaces) the function for existential variable `y`.
    pub fn set(&mut self, y: Var, f: AigRef) {
        self.functions.insert(y, f);
    }

    /// Builds the conjunction of `literals` in the shared AIG, each literal
    /// read as the input labelled with its variable's index, in the given
    /// order.
    pub fn cube(&mut self, literals: impl IntoIterator<Item = Lit>) -> AigRef {
        let inputs: Vec<AigRef> = literals
            .into_iter()
            .map(|l| {
                let input = self.aig.input(l.var().index());
                if l.is_positive() {
                    input
                } else {
                    !input
                }
            })
            .collect();
        self.aig.and_list(&inputs)
    }

    /// The function for `y`, if defined.
    pub fn get(&self, y: Var) -> Option<AigRef> {
        self.functions.get(&y).copied()
    }

    /// All `(variable, function)` pairs in variable order.
    pub fn functions(&self) -> &BTreeMap<Var, AigRef> {
        &self.functions
    }

    /// Number of defined functions.
    pub fn len(&self) -> usize {
        self.functions.len()
    }

    /// Returns `true` if no function is defined.
    pub fn is_empty(&self) -> bool {
        self.functions.is_empty()
    }

    /// The support of `f_y` as variable indices, if `y` is defined.
    pub fn support(&self, y: Var) -> Option<Vec<Var>> {
        self.functions.get(&y).map(|&f| {
            self.aig
                .support(f)
                .into_iter()
                .map(|i| Var::new(i as u32))
                .collect()
        })
    }

    /// Evaluates `f_y` under an assignment given by variable index
    /// (`values[i]` is the value of variable `i`).
    pub fn eval_one(&self, y: Var, values: &[bool]) -> Option<bool> {
        self.functions.get(&y).map(|&f| self.aig.eval(f, values))
    }

    /// Simulates the functions of `order` on `words` words of 64 patterns
    /// ([`Aig::simulate`]): `values` holds `words` words per variable index,
    /// and each `f_y` overwrites the words of `y`. Functions may read
    /// existential variables evaluated before them, so `order` must list
    /// suppliers first. Variables of `order` without a function keep their
    /// words.
    pub fn simulate(&self, order: &[Var], words: usize, values: &mut [u64]) {
        let outputs = order
            .iter()
            .filter_map(|y| self.functions.get(y).map(|&f| (y.index(), f)));
        self.aig.simulate(words, values, outputs);
    }

    /// Completes an assignment of the universal variables into a full
    /// assignment of the formula's variables by evaluating the functions in
    /// the given order: the one-word case of [`HenkinVector::simulate`].
    /// Functions may refer to previously evaluated existential variables, so
    /// `order` must be a valid topological order (later functions may depend
    /// on earlier ones).
    pub fn extend_assignment(
        &self,
        dqbf: &Dqbf,
        x_values: &Assignment,
        order: &[Var],
    ) -> Assignment {
        let mut words = vec![0u64; dqbf.num_vars()];
        for &x in dqbf.universals() {
            words[x.index()] = u64::from(x_values.get(x).unwrap_or(false));
        }
        self.simulate(order, 1, &mut words);
        Assignment::from_values(words.into_iter().map(|w| w & 1 == 1).collect())
    }

    /// Expands, in every function, references to other existential variables
    /// by their functions, processing variables in `order` (earlier entries
    /// may appear inside later entries). After this call every function whose
    /// referenced variables were themselves defined is expressed over
    /// universal variables only.
    pub fn substitute_down(&mut self, order: &[Var]) {
        // Process in order: whenever y_j appears in f_i and f_j has already
        // been fully expanded, replace it.
        let mut expanded: HashMap<usize, AigRef> = HashMap::new();
        for &y in order {
            let Some(&f) = self.functions.get(&y) else {
                continue;
            };
            let new_f = self.aig.compose(f, &expanded);
            self.functions.insert(y, new_f);
            expanded.insert(y.index(), new_f);
        }
    }

    /// Checks that every defined function only mentions variables in its
    /// Henkin dependency set; returns the first violating pair
    /// `(existential, offending variable)` if any.
    pub fn dependency_violation(&self, dqbf: &Dqbf) -> Option<(Var, Var)> {
        for (&y, &f) in &self.functions {
            let deps = dqbf.dependencies(y);
            for label in self.aig.support(f) {
                let v = Var::new(label as u32);
                if !deps.contains(&v) {
                    return Some((y, v));
                }
            }
        }
        None
    }

    /// Total number of AND gates across all function cones (a size metric
    /// reported by the benchmark harness).
    pub fn total_size(&self) -> usize {
        self.functions
            .values()
            .map(|&f| self.aig.cone_size(f))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_and_eval() {
        let mut v = HenkinVector::new();
        let y = Var::new(2);
        let x0 = v.aig_mut().input(0);
        let x1 = v.aig_mut().input(1);
        let f = v.aig_mut().xor(x0, x1);
        v.set(y, f);
        assert_eq!(v.len(), 1);
        assert_eq!(v.eval_one(y, &[true, false]), Some(true));
        assert_eq!(v.eval_one(y, &[true, true]), Some(false));
        assert_eq!(v.eval_one(Var::new(9), &[]), None);
        assert_eq!(v.support(y), Some(vec![Var::new(0), Var::new(1)]));
    }

    #[test]
    fn dependency_violation_detection() {
        // y1 depends on x1 only, but its function uses x2.
        let x1 = Var::new(0);
        let x2 = Var::new(1);
        let y1 = Var::new(2);
        let mut dqbf = Dqbf::new();
        dqbf.add_universal(x1);
        dqbf.add_universal(x2);
        dqbf.add_existential(y1, [x1]);

        let mut v = HenkinVector::new();
        let bad = v.aig_mut().input(x2.index());
        v.set(y1, bad);
        assert_eq!(v.dependency_violation(&dqbf), Some((y1, x2)));

        let good = v.aig_mut().input(x1.index());
        v.set(y1, good);
        assert_eq!(v.dependency_violation(&dqbf), None);
    }

    #[test]
    fn substitution_expands_nested_functions() {
        // f_{y2} = y1 ∨ x2 and f_{y1} = ¬x1: after substitution f_{y2} must
        // not mention y1 any more.
        let x1 = Var::new(0);
        let x2 = Var::new(1);
        let y1 = Var::new(2);
        let y2 = Var::new(3);
        let mut v = HenkinVector::new();
        let in_x1 = v.aig_mut().input(x1.index());
        let in_x2 = v.aig_mut().input(x2.index());
        let in_y1 = v.aig_mut().input(y1.index());
        v.set(y1, !in_x1);
        let f2 = v.aig_mut().or(in_y1, in_x2);
        v.set(y2, f2);

        v.substitute_down(&[y1, y2]);
        let support = v.support(y2).unwrap();
        assert!(!support.contains(&y1));
        // Semantics preserved: y2 = ¬x1 ∨ x2.
        for bits in 0..4u32 {
            let values = vec![bits & 1 == 1, bits & 2 == 2];
            let expected = !values[0] || values[1];
            assert_eq!(v.eval_one(y2, &values), Some(expected));
        }
    }

    #[test]
    fn extend_assignment_follows_order() {
        let dqbf = Dqbf::paper_example();
        let y = |i: u32| Var::new(3 + i);
        let x = |i: u32| Var::new(i);
        let mut v = HenkinVector::new();
        let in_x1 = v.aig_mut().input(x(0).index());
        let in_x2 = v.aig_mut().input(x(1).index());
        let in_x3 = v.aig_mut().input(x(2).index());
        let in_y1 = v.aig_mut().input(y(0).index());
        v.set(y(0), !in_x1);
        let f2 = v.aig_mut().or(in_y1, !in_x2);
        v.set(y(1), f2);
        let f3 = v.aig_mut().or(in_x2, in_x3);
        v.set(y(2), f3);

        let mut x_assignment = Assignment::new_false(3);
        x_assignment.set(x(0), true);
        let full = v.extend_assignment(&dqbf, &x_assignment, &[y(0), y(1), y(2)]);
        assert!(!full.value(y(0))); // ¬x1 = false
        assert!(full.value(y(1))); // y1 ∨ ¬x2 = false ∨ true
        assert!(!full.value(y(2))); // x2 ∨ x3 = false
    }

    #[test]
    fn total_size_counts_gates() {
        let mut v = HenkinVector::new();
        let a = v.aig_mut().input(0);
        let b = v.aig_mut().input(1);
        let f = v.aig_mut().and(a, b);
        v.set(Var::new(2), f);
        assert_eq!(v.total_size(), 1);
        assert!(!v.is_empty());
    }
}
