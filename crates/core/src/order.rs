//! `FindOrder`: turning the learned inter-output dependencies into a linear
//! order (Algorithm 1, line 8 of the paper).

use manthan3_cnf::Var;
use std::collections::{BTreeMap, BTreeSet};

/// The dependency bookkeeping `D` of Algorithm 1: `depends_on_me[y]` is the
/// set of existential variables that (transitively) depend on `y`, i.e. the
/// variables that are *not* allowed to appear inside `f_y`'s feature set.
///
/// Unlike the paper's pseudo-code, which only pushes `{y_i} ∪ d_i` into `d_k`
/// when `y_k` appears in `f_i`, this implementation maintains the full
/// transitive closure in both directions. Without the closure, chains of
/// outputs with *equal* dependency sets (e.g. the succinct-SAT family, where
/// every `H_i = ∅`) can build reference cycles such as
/// `y_4 → y_2 → y_0 → y_4`, which would make the final substitution step
/// unsound.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DependencyState {
    /// Variables that (transitively) depend on the key (`d_i` in the paper).
    depends_on_me: BTreeMap<Var, BTreeSet<Var>>,
    /// Variables the key (transitively) depends on (the reverse relation).
    suppliers: BTreeMap<Var, BTreeSet<Var>>,
}

impl DependencyState {
    /// Initializes `D` for the given existential variables: every set starts
    /// empty (Algorithm 1, line 2).
    pub fn new(existentials: &[Var]) -> Self {
        DependencyState {
            depends_on_me: existentials.iter().map(|&y| (y, BTreeSet::new())).collect(),
            suppliers: existentials.iter().map(|&y| (y, BTreeSet::new())).collect(),
        }
    }

    /// Records that `dependent` depends on `supplier` (i.e. `supplier` may
    /// appear inside `f_dependent`) and updates the transitive closure
    /// (Algorithm 2, lines 11–12, strengthened as described on the type).
    pub fn record_dependency(&mut self, dependent: Var, supplier: Var) {
        // Everything that depends on `dependent` (plus itself) now also
        // depends on `supplier` and on everything `supplier` depends on.
        let mut dependents: BTreeSet<Var> = self
            .depends_on_me
            .get(&dependent)
            .cloned()
            .unwrap_or_default();
        dependents.insert(dependent);
        let mut suppliers: BTreeSet<Var> =
            self.suppliers.get(&supplier).cloned().unwrap_or_default();
        suppliers.insert(supplier);
        for &s in &suppliers {
            self.depends_on_me
                .entry(s)
                .or_default()
                .extend(dependents.iter().copied());
        }
        for &d in &dependents {
            self.suppliers
                .entry(d)
                .or_default()
                .extend(suppliers.iter().copied());
        }
    }

    /// Records the static constraint from Algorithm 1, lines 3–5: if
    /// `H_j ⊂ H_i` then `y_i` may depend on `y_j`, hence `y_i ∈ d_j`.
    pub fn record_subset_constraint(&mut self, may_depend: Var, supplier: Var) {
        if let Some(set) = self.depends_on_me.get_mut(&supplier) {
            set.insert(may_depend);
        }
    }

    /// Returns `true` if `candidate_feature` is allowed to appear in the
    /// feature set of `target`: it must not already (transitively) depend on
    /// `target`, and must not be `target` itself (Algorithm 2, line 3).
    pub fn allowed_as_feature(&self, target: Var, candidate_feature: Var) -> bool {
        if target == candidate_feature {
            return false;
        }
        match self.depends_on_me.get(&target) {
            Some(set) => !set.contains(&candidate_feature),
            None => true,
        }
    }

    /// The set of variables depending on `y`.
    pub fn dependents(&self, y: Var) -> BTreeSet<Var> {
        self.depends_on_me.get(&y).cloned().unwrap_or_default()
    }
}

/// A linear extension of the learned dependencies
/// (the `Order` of Algorithm 1, line 8).
///
/// Convention (matching the worked example in §5 of the paper): if `y_i`
/// depends on `y_j` (that is, `y_j` appears inside `f_i`), then `y_j` comes
/// **later** in the order — `position(y_i) < position(y_j)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Order {
    sequence: Vec<Var>,
    position: BTreeMap<Var, usize>,
}

impl Order {
    /// Computes a linear extension from the dependency state.
    ///
    /// The construction is a topological sort of the "depends on" relation;
    /// variables with no dependents come first. Ties are broken by variable
    /// index so the result is deterministic.
    pub fn from_dependencies(existentials: &[Var], state: &DependencyState) -> Self {
        // Edge y -> d for every d that depends on y means d must come BEFORE y.
        // Kahn's algorithm on the reversed relation.
        let mut remaining: BTreeSet<Var> = existentials.iter().copied().collect();
        let mut sequence = Vec::with_capacity(existentials.len());
        while !remaining.is_empty() {
            // Pick a variable none of whose dependents is still unplaced
            // *except* variables already known to be unplaceable (cycle
            // safety: fall back to the largest remaining variable).
            let next = remaining
                .iter()
                .copied()
                .find(|&y| {
                    state
                        .dependents(y)
                        .iter()
                        .all(|d| !remaining.contains(d) || *d == y)
                })
                .or_else(|| remaining.iter().copied().next_back());
            let Some(y) = next else { break };
            // `y` has no unplaced dependents, so everything depending on it is
            // already in the sequence; place it next (dependents first).
            remaining.remove(&y);
            sequence.push(y);
        }
        let position = sequence.iter().enumerate().map(|(i, &v)| (v, i)).collect();
        Order { sequence, position }
    }

    /// The variables in order (dependents first, suppliers later).
    pub fn sequence(&self) -> &[Var] {
        &self.sequence
    }

    /// Position of `y` in the order.
    ///
    /// # Panics
    ///
    /// Panics if `y` is not part of the order.
    pub fn position(&self, y: Var) -> usize {
        self.position[&y]
    }

    /// The order in which functions must be substituted into each other so
    /// that suppliers are expanded before their dependents
    /// (used by `HenkinVector::substitute_down`).
    pub fn substitution_order(&self) -> Vec<Var> {
        self.sequence.iter().rev().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: u32) -> Var {
        Var::new(i)
    }

    #[test]
    fn feature_permission_respects_dependencies() {
        let ys = [v(0), v(1), v(2)];
        let mut d = DependencyState::new(&ys);
        // y0 depends on y1 (y1 appears in f0).
        d.record_dependency(v(0), v(1));
        // Now y1 must not use y0 as a feature, but y2 may use either.
        assert!(!d.allowed_as_feature(v(1), v(0)));
        assert!(d.allowed_as_feature(v(0), v(2)));
        assert!(d.allowed_as_feature(v(2), v(0)));
        assert!(!d.allowed_as_feature(v(1), v(1)));
    }

    #[test]
    fn transitive_dependencies_are_propagated() {
        let ys = [v(0), v(1), v(2)];
        let mut d = DependencyState::new(&ys);
        d.record_dependency(v(0), v(1)); // f0 uses y1
        d.record_dependency(v(1), v(2)); // f1 uses y2
                                         // y2 now has both y1 and y0 as (transitive) dependents.
        let dependents = d.dependents(v(2));
        assert!(dependents.contains(&v(0)));
        assert!(dependents.contains(&v(1)));
        // Therefore y2 may not use y0 as a feature.
        assert!(!d.allowed_as_feature(v(2), v(0)));
    }

    #[test]
    fn subset_constraint_matches_algorithm1() {
        let ys = [v(0), v(1)];
        let mut d = DependencyState::new(&ys);
        // H_1 ⊂ H_0 ⇒ y0 may depend on y1 ⇒ y0 ∈ d_1.
        d.record_subset_constraint(v(0), v(1));
        assert!(d.dependents(v(1)).contains(&v(0)));
        assert!(!d.allowed_as_feature(v(1), v(0)));
        assert!(d.allowed_as_feature(v(0), v(1)));
    }

    #[test]
    fn order_places_dependents_first() {
        let ys = [v(0), v(1), v(2)];
        let mut d = DependencyState::new(&ys);
        d.record_dependency(v(1), v(0)); // f1 uses y0 ⇒ y1 before y0
        let order = Order::from_dependencies(&ys, &d);
        assert!(order.position(v(1)) < order.position(v(0)));
        assert_eq!(order.sequence().len(), 3);
    }

    #[test]
    fn substitution_order_is_reverse() {
        let ys = [v(0), v(1)];
        let mut d = DependencyState::new(&ys);
        d.record_dependency(v(0), v(1));
        let order = Order::from_dependencies(&ys, &d);
        let sub = order.substitution_order();
        // y1 (the supplier) must be substituted before y0 (the dependent).
        let pos_y1 = sub.iter().position(|&x| x == v(1)).unwrap();
        let pos_y0 = sub.iter().position(|&x| x == v(0)).unwrap();
        assert!(pos_y1 < pos_y0);
    }

    #[test]
    fn order_is_total_even_without_dependencies() {
        let ys = [v(5), v(3), v(9)];
        let d = DependencyState::new(&ys);
        let order = Order::from_dependencies(&ys, &d);
        assert_eq!(order.sequence().len(), 3);
        for &y in &ys {
            let _ = order.position(y);
        }
    }
}
