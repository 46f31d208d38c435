use std::collections::HashMap;
use std::fmt;

/// A (possibly complemented) edge into an [`Aig`] node.
///
/// Encoded as `2 * node_id + complement`, mirroring the classic AIGER
/// convention. The constant node has id `0`; [`AigRef::FALSE`] is the
/// non-complemented constant and [`AigRef::TRUE`] its complement.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AigRef(u32);

impl AigRef {
    /// The constant-false function.
    pub const FALSE: AigRef = AigRef(0);
    /// The constant-true function.
    pub const TRUE: AigRef = AigRef(1);

    fn new(id: u32, complement: bool) -> Self {
        AigRef(id << 1 | u32::from(complement))
    }

    /// Identifier of the referenced node.
    pub fn node_id(self) -> usize {
        (self.0 >> 1) as usize
    }

    /// Returns `true` if the edge is complemented.
    pub fn is_complemented(self) -> bool {
        self.0 & 1 == 1
    }

    /// Returns `true` if this is one of the two constant functions.
    pub fn is_constant(self) -> bool {
        self.node_id() == 0
    }
}

impl std::ops::Not for AigRef {
    type Output = AigRef;

    fn not(self) -> AigRef {
        AigRef(self.0 ^ 1)
    }
}

impl fmt::Debug for AigRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if *self == AigRef::FALSE {
            write!(f, "0")
        } else if *self == AigRef::TRUE {
            write!(f, "1")
        } else {
            write!(
                f,
                "{}n{}",
                if self.is_complemented() { "!" } else { "" },
                self.node_id()
            )
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Node {
    Constant,
    /// Primary input identified by an external label.
    Input(usize),
    /// Two-input AND gate.
    And(AigRef, AigRef),
}

/// A structurally hashed And-Inverter Graph.
///
/// Inputs are identified by arbitrary `usize` labels chosen by the caller
/// (the Manthan3 pipeline uses the index of the corresponding CNF variable).
/// See the [crate-level documentation](crate) for an example.
#[derive(Debug, Clone, Default)]
pub struct Aig {
    nodes: Vec<Node>,
    strash: HashMap<(AigRef, AigRef), u32>,
    input_ids: HashMap<usize, u32>,
}

impl Aig {
    /// Creates an empty AIG containing only the constant node.
    pub fn new() -> Self {
        Aig {
            nodes: vec![Node::Constant],
            strash: HashMap::new(),
            input_ids: HashMap::new(),
        }
    }

    /// Number of nodes (constant + inputs + AND gates).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of AND gates.
    pub fn num_ands(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n, Node::And(_, _)))
            .count()
    }

    /// Number of primary inputs.
    pub fn num_inputs(&self) -> usize {
        self.input_ids.len()
    }

    /// Returns (creating it if necessary) the primary input with the given
    /// external label.
    pub fn input(&mut self, label: usize) -> AigRef {
        if let Some(&id) = self.input_ids.get(&label) {
            return AigRef::new(id, false);
        }
        let id = self.nodes.len() as u32;
        self.nodes.push(Node::Input(label));
        self.input_ids.insert(label, id);
        AigRef::new(id, false)
    }

    /// Returns the constant function for `value`.
    pub fn constant(&self, value: bool) -> AigRef {
        if value {
            AigRef::TRUE
        } else {
            AigRef::FALSE
        }
    }

    /// Builds `a ∧ b` with structural hashing and local simplification.
    pub fn and(&mut self, a: AigRef, b: AigRef) -> AigRef {
        // Constant and trivial cases.
        if a == AigRef::FALSE || b == AigRef::FALSE || a == !b {
            return AigRef::FALSE;
        }
        if a == AigRef::TRUE || a == b {
            return b;
        }
        if b == AigRef::TRUE {
            return a;
        }
        // Canonical operand order for hashing.
        let (x, y) = if a <= b { (a, b) } else { (b, a) };
        if let Some(&id) = self.strash.get(&(x, y)) {
            return AigRef::new(id, false);
        }
        let id = self.nodes.len() as u32;
        self.nodes.push(Node::And(x, y));
        self.strash.insert((x, y), id);
        AigRef::new(id, false)
    }

    /// Builds `a ∨ b`.
    pub fn or(&mut self, a: AigRef, b: AigRef) -> AigRef {
        !self.and(!a, !b)
    }

    /// Builds `¬a` (no node is created; the complement bit is flipped).
    pub fn not(&self, a: AigRef) -> AigRef {
        !a
    }

    /// Builds `a ⊕ b`.
    pub fn xor(&mut self, a: AigRef, b: AigRef) -> AigRef {
        let l = self.and(a, !b);
        let r = self.and(!a, b);
        self.or(l, r)
    }

    /// Builds `a ↔ b`.
    pub fn iff(&mut self, a: AigRef, b: AigRef) -> AigRef {
        !self.xor(a, b)
    }

    /// Builds `ite(c, t, e)`.
    pub fn ite(&mut self, c: AigRef, t: AigRef, e: AigRef) -> AigRef {
        let pos = self.and(c, t);
        let neg = self.and(!c, e);
        self.or(pos, neg)
    }

    /// Builds the conjunction of the given functions (`⊤` when empty).
    pub fn and_list(&mut self, refs: &[AigRef]) -> AigRef {
        let mut acc = AigRef::TRUE;
        for &r in refs {
            acc = self.and(acc, r);
        }
        acc
    }

    /// Builds the disjunction of the given functions (`⊥` when empty).
    pub fn or_list(&mut self, refs: &[AigRef]) -> AigRef {
        let mut acc = AigRef::FALSE;
        for &r in refs {
            acc = self.or(acc, r);
        }
        acc
    }

    /// Evaluates `f` under an assignment of values to input labels.
    ///
    /// `values[label]` is the value of the input with that label; labels
    /// outside the slice evaluate to `false`.
    pub fn eval(&self, f: AigRef, values: &[bool]) -> bool {
        let mut cache: Vec<Option<bool>> = vec![None; self.nodes.len()];
        self.eval_rec(f, values, &mut cache)
    }

    fn eval_rec(&self, f: AigRef, values: &[bool], cache: &mut Vec<Option<bool>>) -> bool {
        let id = f.node_id();
        let value = if let Some(v) = cache[id] {
            v
        } else {
            let v = match self.nodes[id] {
                Node::Constant => false,
                Node::Input(label) => values.get(label).copied().unwrap_or(false),
                Node::And(a, b) => {
                    self.eval_rec(a, values, cache) && self.eval_rec(b, values, cache)
                }
            };
            cache[id] = Some(v);
            v
        };
        value ^ f.is_complemented()
    }

    /// Returns the sorted list of input labels in the transitive fan-in of `f`.
    pub fn support(&self, f: AigRef) -> Vec<usize> {
        let mut seen = vec![false; self.nodes.len()];
        let mut labels = Vec::new();
        let mut stack = vec![f.node_id()];
        while let Some(id) = stack.pop() {
            if seen[id] {
                continue;
            }
            seen[id] = true;
            match self.nodes[id] {
                Node::Constant => {}
                Node::Input(label) => labels.push(label),
                Node::And(a, b) => {
                    stack.push(a.node_id());
                    stack.push(b.node_id());
                }
            }
        }
        labels.sort_unstable();
        labels.dedup();
        labels
    }

    /// Number of AND gates in the transitive fan-in of `f`.
    pub fn cone_size(&self, f: AigRef) -> usize {
        let mut seen = vec![false; self.nodes.len()];
        let mut count = 0;
        let mut stack = vec![f.node_id()];
        while let Some(id) = stack.pop() {
            if seen[id] {
                continue;
            }
            seen[id] = true;
            if let Node::And(a, b) = self.nodes[id] {
                count += 1;
                stack.push(a.node_id());
                stack.push(b.node_id());
            }
        }
        count
    }

    /// Substitutes, inside `f`, every input whose label appears in
    /// `substitution` by the corresponding function, and returns the new root.
    ///
    /// This is how Manthan3's final `Substitute` step expands candidate
    /// functions that mention other existential variables into functions over
    /// their Henkin dependencies only.
    pub fn compose(&mut self, f: AigRef, substitution: &HashMap<usize, AigRef>) -> AigRef {
        let mut cache: HashMap<usize, AigRef> = HashMap::new();
        self.compose_rec(f, substitution, &mut cache)
    }

    fn compose_rec(
        &mut self,
        f: AigRef,
        substitution: &HashMap<usize, AigRef>,
        cache: &mut HashMap<usize, AigRef>,
    ) -> AigRef {
        let id = f.node_id();
        let mapped = if let Some(&m) = cache.get(&id) {
            m
        } else {
            let m = match self.nodes[id] {
                Node::Constant => AigRef::FALSE,
                Node::Input(label) => match substitution.get(&label) {
                    Some(&g) => g,
                    None => AigRef::new(id as u32, false),
                },
                Node::And(a, b) => {
                    let na = self.compose_rec(a, substitution, cache);
                    let nb = self.compose_rec(b, substitution, cache);
                    self.and(na, nb)
                }
            };
            cache.insert(id, m);
            m
        };
        if f.is_complemented() {
            !mapped
        } else {
            mapped
        }
    }

    /// Copies the cone of `f` from `source` into this AIG and returns the
    /// equivalent root here.
    ///
    /// Inputs are matched by label, so a cone built over CNF-variable labels
    /// in one AIG means the same function after the import. Structural
    /// hashing applies on the way in: shared sub-cones (and cones already
    /// present in `self`) are reused, not duplicated. So two vectors imported
    /// into one AIG are structurally identical exactly when their functions
    /// import to the same references, which is how a benchmark can tell that
    /// repeated runs returned the same vector without re-checking it.
    pub fn import(&mut self, source: &Aig, f: AigRef) -> AigRef {
        let mut cache: HashMap<usize, AigRef> = HashMap::new();
        self.import_rec(source, f, &mut cache)
    }

    fn import_rec(
        &mut self,
        source: &Aig,
        f: AigRef,
        cache: &mut HashMap<usize, AigRef>,
    ) -> AigRef {
        let id = f.node_id();
        let mapped = if let Some(&m) = cache.get(&id) {
            m
        } else {
            let m = match source.nodes[id] {
                Node::Constant => AigRef::FALSE,
                Node::Input(label) => self.input(label),
                Node::And(a, b) => {
                    let na = self.import_rec(source, a, cache);
                    let nb = self.import_rec(source, b, cache);
                    self.and(na, nb)
                }
            };
            cache.insert(id, m);
            m
        };
        if f.is_complemented() {
            !mapped
        } else {
            mapped
        }
    }

    /// Returns the label of the input node referenced by `f`, if `f` is a
    /// (possibly complemented) primary input.
    pub fn input_label(&self, f: AigRef) -> Option<usize> {
        match self.nodes[f.node_id()] {
            Node::Input(label) => Some(label),
            _ => None,
        }
    }

    pub(crate) fn node_kind(&self, id: usize) -> NodeKind {
        match self.nodes[id] {
            Node::Constant => NodeKind::Constant,
            Node::Input(label) => NodeKind::Input(label),
            Node::And(a, b) => NodeKind::And(a, b),
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub(crate) enum NodeKind {
    Constant,
    Input(usize),
    And(AigRef, AigRef),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_behave() {
        let mut aig = Aig::new();
        let x = aig.input(0);
        assert_eq!(aig.and(x, AigRef::FALSE), AigRef::FALSE);
        assert_eq!(aig.and(x, AigRef::TRUE), x);
        assert_eq!(aig.and(x, !x), AigRef::FALSE);
        assert_eq!(aig.and(x, x), x);
        assert_eq!(aig.constant(true), AigRef::TRUE);
        assert_eq!(!AigRef::TRUE, AigRef::FALSE);
    }

    #[test]
    fn structural_hashing_reuses_nodes() {
        let mut aig = Aig::new();
        let x = aig.input(0);
        let y = aig.input(1);
        let g1 = aig.and(x, y);
        let g2 = aig.and(y, x);
        assert_eq!(g1, g2);
        assert_eq!(aig.num_ands(), 1);
    }

    #[test]
    fn gate_truth_tables() {
        let mut aig = Aig::new();
        let x = aig.input(0);
        let y = aig.input(1);
        let z = aig.input(2);
        let and = aig.and(x, y);
        let or = aig.or(x, y);
        let xor = aig.xor(x, y);
        let iff = aig.iff(x, y);
        let ite = aig.ite(x, y, z);
        for bits in 0..8u32 {
            let v: Vec<bool> = (0..3).map(|i| bits >> i & 1 == 1).collect();
            assert_eq!(aig.eval(and, &v), v[0] && v[1]);
            assert_eq!(aig.eval(or, &v), v[0] || v[1]);
            assert_eq!(aig.eval(xor, &v), v[0] ^ v[1]);
            assert_eq!(aig.eval(iff, &v), v[0] == v[1]);
            assert_eq!(aig.eval(ite, &v), if v[0] { v[1] } else { v[2] });
        }
    }

    #[test]
    fn and_or_lists() {
        let mut aig = Aig::new();
        let ins: Vec<AigRef> = (0..4).map(|i| aig.input(i)).collect();
        let all = aig.and_list(&ins);
        let any = aig.or_list(&ins);
        let empty_and = aig.and_list(&[]);
        let empty_or = aig.or_list(&[]);
        assert_eq!(empty_and, AigRef::TRUE);
        assert_eq!(empty_or, AigRef::FALSE);
        for bits in 0..16u32 {
            let v: Vec<bool> = (0..4).map(|i| bits >> i & 1 == 1).collect();
            assert_eq!(aig.eval(all, &v), v.iter().all(|&b| b));
            assert_eq!(aig.eval(any, &v), v.iter().any(|&b| b));
        }
    }

    #[test]
    fn support_and_cone_size() {
        let mut aig = Aig::new();
        let x = aig.input(10);
        let y = aig.input(20);
        let _z = aig.input(30);
        let g = aig.and(x, y);
        let h = aig.or(g, x);
        assert_eq!(aig.support(h), vec![10, 20]);
        assert!(aig.cone_size(h) >= 1);
        assert_eq!(aig.support(AigRef::TRUE), Vec::<usize>::new());
    }

    #[test]
    fn compose_substitutes_inputs() {
        let mut aig = Aig::new();
        let x = aig.input(0);
        let y = aig.input(1);
        let z = aig.input(2);
        // f = x ⊕ y, substitute y := x ∧ z  ⇒  f' = x ⊕ (x ∧ z)
        let f = aig.xor(x, y);
        let sub_fn = aig.and(x, z);
        let mut sub = HashMap::new();
        sub.insert(1usize, sub_fn);
        let g = aig.compose(f, &sub);
        for bits in 0..8u32 {
            let v: Vec<bool> = (0..3).map(|i| bits >> i & 1 == 1).collect();
            let expected = v[0] ^ (v[0] && v[2]);
            assert_eq!(aig.eval(g, &v), expected);
        }
        // The substituted input no longer appears in the support.
        assert!(!aig.support(g).contains(&1));
    }

    #[test]
    fn compose_handles_complemented_roots() {
        let mut aig = Aig::new();
        let x = aig.input(0);
        let y = aig.input(1);
        let f = aig.and(x, y);
        let mut sub = HashMap::new();
        sub.insert(0usize, AigRef::TRUE);
        let g = aig.compose(!f, &sub);
        for bits in 0..4u32 {
            let v: Vec<bool> = (0..2).map(|i| bits >> i & 1 == 1).collect();
            assert_eq!(aig.eval(g, &v), !v[1]);
        }
    }

    #[test]
    fn import_preserves_semantics_across_managers() {
        let mut src = Aig::new();
        let x = src.input(0);
        let y = src.input(1);
        let z = src.input(2);
        let f = src.xor(x, y);
        let g = src.ite(f, z, !x);

        let mut dst = Aig::new();
        // Pre-populate dst so node ids diverge from src.
        let _noise = dst.input(7);
        let imported = dst.import(&src, g);
        let imported_neg = dst.import(&src, !g);
        for bits in 0..8u32 {
            let v: Vec<bool> = (0..3).map(|i| bits >> i & 1 == 1).collect();
            assert_eq!(dst.eval(imported, &v), src.eval(g, &v));
            assert_eq!(dst.eval(imported_neg, &v), !src.eval(g, &v));
        }
        // Complemented root maps to the complement of the same node.
        assert_eq!(imported_neg, !imported);
        // Inputs are matched by label, not by node id.
        let mut support = dst.support(imported);
        support.sort_unstable();
        assert_eq!(support, vec![0, 1, 2]);
    }

    #[test]
    fn import_dedups_through_structural_hashing() {
        let mut src = Aig::new();
        let x = src.input(0);
        let y = src.input(1);
        let f = src.and(x, y);

        let mut dst = Aig::new();
        let dx = dst.input(0);
        let dy = dst.input(1);
        let existing = dst.and(dx, dy);
        let before = dst.num_nodes();
        let imported = dst.import(&src, f);
        // The cone already exists in dst: nothing new is allocated and the
        // import lands on the existing node.
        assert_eq!(dst.num_nodes(), before);
        assert_eq!(imported, existing);
        // Importing again is idempotent.
        assert_eq!(dst.import(&src, f), existing);
        // Constants map to constants.
        assert_eq!(dst.import(&src, AigRef::FALSE), AigRef::FALSE);
        assert_eq!(dst.import(&src, AigRef::TRUE), AigRef::TRUE);
    }

    #[test]
    fn input_labels_are_stable() {
        let mut aig = Aig::new();
        let a = aig.input(5);
        let b = aig.input(5);
        assert_eq!(a, b);
        assert_eq!(aig.num_inputs(), 1);
        assert_eq!(aig.input_label(a), Some(5));
        let g = aig.and(a, AigRef::TRUE);
        assert_eq!(aig.input_label(g), Some(5));
    }
}
