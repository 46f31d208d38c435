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

    /// The image of this edge under a node-id-indexed map: the mapped node,
    /// complemented when this edge is.
    fn mapped(self, map: &[AigRef]) -> AigRef {
        AigRef(map[self.node_id()].0 ^ (self.0 & 1))
    }

    /// The word that complements a simulated node's 64 patterns along this
    /// edge: all ones on a complemented edge, zero otherwise.
    fn word_mask(self) -> u64 {
        0u64.wrapping_sub(u64::from(self.is_complemented()))
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
pub(crate) enum Node {
    Constant,
    /// Primary input identified by an external label.
    Input(usize),
    /// Two-input AND gate.
    And(AigRef, AigRef),
}

/// A node's state during [`Aig::simulate`]: the place of its words among
/// the live ones (or `UNSEEN`/`SEEN` while the walk runs) and the number of
/// readers, parent gates and written outputs, that have yet to read them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Visit {
    place: u32,
    readers: u32,
}

impl Visit {
    const UNSEEN: Visit = Visit {
        place: UNSEEN,
        readers: 0,
    };
}

/// [`Visit::place`] of a node the walk has not reached.
const UNSEEN: u32 = u32::MAX;
/// [`Visit::place`] of a node the walk has reached but not simulated.
const SEEN: u32 = u32::MAX - 1;
/// The step of [`Aig::simulate`]'s order that writes the next output back.
const WRITE: u32 = u32::MAX;
/// Tags a node id on [`Aig::simulate`]'s walk stack whose operands have been
/// pushed. Node ids stay below it, since an [`AigRef`] holds one in 31 bits.
const FINISH: u32 = 1 << 31;

/// The end of [`Aig::simulate`]'s list of free places.
const NO_PLACE: u64 = u64::MAX;

/// The live words of [`Aig::simulate`]: `words` words per place, and a
/// list of the free places threaded through their first words.
struct Places {
    words: usize,
    live: Vec<u64>,
    free: u64,
}

impl Places {
    /// A free place, reused or new.
    fn take(&mut self) -> usize {
        if self.free == NO_PLACE {
            self.live.resize(self.live.len() + self.words, 0);
            return self.live.len() / self.words - 1;
        }
        let place = self.free as usize;
        self.free = self.live[place * self.words];
        place
    }

    /// One reader of node `id` has run: frees its place after the last one.
    fn release(&mut self, visits: &mut [Visit], id: usize) {
        visits[id].readers -= 1;
        if visits[id].readers == 0 {
            let place = visits[id].place as usize;
            self.live[place * self.words] = self.free;
            self.free = place as u64;
        }
    }

    /// The words at `place`.
    fn at(&mut self, place: usize) -> &mut [u64] {
        &mut self.live[place * self.words..][..self.words]
    }
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

    /// Evaluates `f` under an assignment of values to input labels: the
    /// one-word case of [`Aig::simulate`].
    ///
    /// `values[label]` is the value of the input with that label; labels
    /// outside the slice evaluate to `false`.
    pub fn eval(&self, f: AigRef, values: &[bool]) -> bool {
        let mut words: Vec<u64> = values.iter().map(|&b| u64::from(b)).collect();
        // The result goes to a label one past the slice. `f` may read that
        // label as an input too; it is still 0 when read, i.e. `false`.
        let out = words.len();
        words.push(0);
        self.simulate(1, &mut words, [(out, f)]);
        words[out] & 1 == 1
    }

    /// Bit-parallel simulation: evaluates each `(label, f)` of `outputs`, in
    /// order, on `words` words of 64 input patterns, and writes the result
    /// back as the words of input `label`.
    ///
    /// `values` holds `words` consecutive `u64`s per input label: bit `j` of
    /// `values[label * words + w]` is the value of that input in pattern
    /// `64 * w + j`. Labels whose words lie past the end of `values` read as
    /// all-false. Because each output's words are written back before the
    /// next output runs, a later function may read an earlier output as an
    /// input: list suppliers first, as in a substitution order.
    ///
    /// The call walks the union of the outputs' cones once, in post-order,
    /// so a node shared by several outputs is simulated once; then it
    /// simulates the nodes in that order. A node's words live only until
    /// their last reader has run, and their place is reused. The call
    /// allocates four buffers, whatever the number of outputs: per AIG node
    /// a place and a reader count, the order, the walk's stack and the live
    /// words, which also hold the list of free places. An output that
    /// writes the label of an input the walk has already read makes every
    /// node simulated so far stale, so the outputs after it start a new walk
    /// over the updated words. A suppliers-first order never writes such a
    /// label, so it is simulated in one walk.
    ///
    /// # Panics
    ///
    /// Panics if an output's label has no words in `values`.
    ///
    /// # Examples
    ///
    /// ```
    /// use manthan3_aig::Aig;
    ///
    /// let mut aig = Aig::new();
    /// let x = aig.input(0);
    /// let y = aig.input(1);
    /// let f = aig.xor(x, y);
    /// let z = aig.input(2);
    /// let g = aig.and(z, !x);
    /// // One word per label; label 2 receives f, which g then reads.
    /// let mut values = [0b0101, 0b0011, 0, 0];
    /// aig.simulate(1, &mut values, [(2, f), (3, g)]);
    /// assert_eq!(values[2], 0b0110);
    /// assert_eq!(values[3], 0b0010);
    /// ```
    pub fn simulate<I>(&self, words: usize, values: &mut [u64], outputs: I)
    where
        I: IntoIterator<Item = (usize, AigRef)>,
        I::IntoIter: Clone,
    {
        if words == 0 {
            return;
        }
        let mut outputs = outputs.into_iter();
        let mut visits = vec![Visit::UNSEEN; self.nodes.len()];
        // Post-order node ids, with `WRITE` where an output is written back.
        let mut order: Vec<u32> = Vec::with_capacity(self.nodes.len() + outputs.size_hint().0);
        // Node ids to walk, `FINISH`-tagged once their operands are pushed.
        let mut stack: Vec<u32> = Vec::new();
        let mut places = Places {
            words,
            live: Vec::new(),
            free: NO_PLACE,
        };
        loop {
            // Walk: each node once, children first, counting its readers.
            let epoch = outputs.clone();
            for (label, f) in outputs.by_ref() {
                stack.push(f.node_id() as u32);
                while let Some(entry) = stack.pop() {
                    let id = (entry & !FINISH) as usize;
                    if entry & FINISH != 0 {
                        order.push(id as u32);
                        if let Node::And(a, b) = self.nodes[id] {
                            visits[a.node_id()].readers += 1;
                            visits[b.node_id()].readers += 1;
                        }
                    } else if visits[id].place == UNSEEN {
                        visits[id].place = SEEN;
                        stack.push(entry | FINISH);
                        if let Node::And(a, b) = self.nodes[id] {
                            stack.push(b.node_id() as u32);
                            stack.push(a.node_id() as u32);
                        }
                    }
                }
                visits[f.node_id()].readers += 1;
                order.push(WRITE);
                let read = |&id: &u32| visits[id as usize].place != UNSEEN;
                if self.input_ids.get(&label).is_some_and(read) {
                    break;
                }
            }
            if order.is_empty() {
                return;
            }
            // Simulate in walk order; a node's place is freed after its last
            // reader.
            let mut writes = epoch;
            for &step in &order {
                if step == WRITE {
                    // invariant: the walk took one output from the same
                    // sequence per `WRITE`.
                    let (label, f) = writes.next().expect("an output per write");
                    let root = places.at(visits[f.node_id()].place as usize);
                    let root_mask = f.word_mask();
                    for (out, &word) in values[label * words..][..words].iter_mut().zip(&*root) {
                        *out = word ^ root_mask;
                    }
                    places.release(&mut visits, f.node_id());
                    continue;
                }
                let id = step as usize;
                let place = places.take();
                visits[id].place = place as u32;
                match self.nodes[id] {
                    Node::Constant => places.at(place).fill(0),
                    Node::Input(input) => match values.get(input * words..(input + 1) * words) {
                        Some(input_words) => places.at(place).copy_from_slice(input_words),
                        None => places.at(place).fill(0),
                    },
                    Node::And(a, b) => {
                        let a_start = visits[a.node_id()].place as usize * words;
                        let b_start = visits[b.node_id()].place as usize * words;
                        let (a_mask, b_mask) = (a.word_mask(), b.word_mask());
                        let live = &mut places.live;
                        for w in 0..words {
                            live[place * words + w] =
                                (live[a_start + w] ^ a_mask) & (live[b_start + w] ^ b_mask);
                        }
                        places.release(&mut visits, a.node_id());
                        places.release(&mut visits, b.node_id());
                    }
                }
            }
            // Every reader has run, so every count is back to 0; what the
            // next walk needs reset is the places.
            for &step in &order {
                if step != WRITE {
                    visits[step as usize].place = UNSEEN;
                }
            }
            debug_assert!(visits.iter().all(|v| *v == Visit::UNSEEN));
            order.clear();
            places.live.clear();
            places.free = NO_PLACE;
        }
    }

    /// Returns the sorted list of input labels in the transitive fan-in of `f`.
    pub fn support(&self, f: AigRef) -> Vec<usize> {
        let mut labels: Vec<usize> = self
            .post_order(f, |_| false)
            .into_iter()
            .filter_map(|id| match self.nodes[id] {
                Node::Input(label) => Some(label),
                _ => None,
            })
            .collect();
        labels.sort_unstable();
        labels
    }

    /// Number of AND gates in the transitive fan-in of `f`.
    pub fn cone_size(&self, f: AigRef) -> usize {
        self.post_order(f, |_| false)
            .into_iter()
            .filter(|&id| matches!(self.nodes[id], Node::And(_, _)))
            .count()
    }

    /// Substitutes, inside `f`, every input whose label appears in
    /// `substitution` by the corresponding function, and returns the new root.
    ///
    /// This is how Manthan3's final `Substitute` step expands candidate
    /// functions that mention other existential variables into functions over
    /// their Henkin dependencies only.
    pub fn compose(&mut self, f: AigRef, substitution: &HashMap<usize, AigRef>) -> AigRef {
        let mut map = vec![AigRef::FALSE; self.nodes.len()];
        for id in self.post_order(f, |_| false) {
            map[id] = match self.nodes[id] {
                Node::Constant => AigRef::FALSE,
                Node::Input(label) => substitution
                    .get(&label)
                    .copied()
                    .unwrap_or(AigRef::new(id as u32, false)),
                Node::And(a, b) => self.and(a.mapped(&map), b.mapped(&map)),
            };
        }
        f.mapped(&map)
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
        let mut map = vec![AigRef::FALSE; source.nodes.len()];
        for id in source.post_order(f, |_| false) {
            map[id] = match source.nodes[id] {
                Node::Constant => AigRef::FALSE,
                Node::Input(label) => self.input(label),
                Node::And(a, b) => self.and(a.mapped(&map), b.mapped(&map)),
            };
        }
        f.mapped(&map)
    }

    /// Returns every node of the cone of `f` that `done` does not cover,
    /// each once, children before parents and the first operand's cone
    /// before the second's. The cone below a covered node is not entered.
    ///
    /// This is the crate's one traversal. The stack is explicit, so cone
    /// depth is bounded by memory, not by the call stack. Nodes finish in
    /// the order a depth-first recursion finishes them, so a caller that
    /// allocates per node (Tseitin variables, new AIG nodes) allocates in
    /// that order.
    pub(crate) fn post_order(&self, f: AigRef, mut done: impl FnMut(usize) -> bool) -> Vec<usize> {
        let mut seen = vec![false; self.nodes.len()];
        let mut order = Vec::new();
        let mut stack = vec![(f.node_id(), false)];
        while let Some((id, finished)) = stack.pop() {
            if finished {
                order.push(id);
                continue;
            }
            if seen[id] || done(id) {
                continue;
            }
            seen[id] = true;
            stack.push((id, true));
            if let Node::And(a, b) = self.nodes[id] {
                stack.push((b.node_id(), false));
                stack.push((a.node_id(), false));
            }
        }
        order
    }

    /// The node with id `id`.
    pub(crate) fn node(&self, id: usize) -> Node {
        self.nodes[id]
    }
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
    }
}
