//! Tseitin encoding of AIG cones into CNF.

use crate::manager::{Aig, AigRef, Node};
use manthan3_cnf::{CnfBuilder, Lit};
use std::collections::HashMap;

impl Aig {
    /// Encodes the cone of `f` into `builder` and returns a literal that is
    /// equivalent to `f`.
    ///
    /// `input_lit` maps input labels to CNF literals; every label in the
    /// support of `f` must be present.
    ///
    /// `cache` maps node ids to the literals already encoded for them. Nodes
    /// found there cost no fresh variable or clause, and every node encoded
    /// by this call is added. So repeated encodings of overlapping cones into
    /// one builder share their Tseitin variables and clauses: this is what
    /// makes verification incremental when a repair step extends a candidate
    /// cone, and what lets a vector check encode a cone shared by several
    /// outputs once. The cache is keyed by node id, so one cache serves one
    /// AIG and one builder; mixing caches across AIGs or builders produces
    /// nonsense encodings. Pass an empty map to encode from scratch.
    ///
    /// # Panics
    ///
    /// Panics if an input label in the support of `f` has no entry in
    /// `input_lit`.
    ///
    /// # Examples
    ///
    /// ```
    /// use manthan3_aig::Aig;
    /// use manthan3_cnf::{CnfBuilder, Var};
    /// use std::collections::HashMap;
    ///
    /// let mut aig = Aig::new();
    /// let x = aig.input(0);
    /// let y = aig.input(1);
    /// let f = aig.and(x, y);
    ///
    /// let mut builder = CnfBuilder::new(2);
    /// let mut map = HashMap::new();
    /// map.insert(0usize, Var::new(0).positive());
    /// map.insert(1usize, Var::new(1).positive());
    /// let mut cache = HashMap::new();
    /// let out = aig.encode_cnf(f, &mut builder, &map, &mut cache);
    /// builder.assert_lit(out); // force f to be true
    /// assert!(builder.cnf().num_clauses() >= 3);
    /// // The cone is cached: encoding it again adds nothing.
    /// let vars = builder.num_vars();
    /// assert_eq!(aig.encode_cnf(f, &mut builder, &map, &mut cache), out);
    /// assert_eq!(builder.num_vars(), vars);
    /// ```
    pub fn encode_cnf(
        &self,
        f: AigRef,
        builder: &mut CnfBuilder,
        input_lit: &HashMap<usize, Lit>,
        cache: &mut HashMap<usize, Lit>,
    ) -> Lit {
        let edge = |cache: &HashMap<usize, Lit>, r: AigRef| {
            cache[&r.node_id()].apply_sign(!r.is_complemented())
        };
        for id in self.post_order(f, |id| cache.contains_key(&id)) {
            let lit = match self.node(id) {
                Node::Constant => {
                    // A fresh literal asserted false stands for the constant.
                    let l = builder.fresh_lit();
                    builder.assert_lit(!l);
                    l
                }
                Node::Input(label) => *input_lit
                    .get(&label)
                    .unwrap_or_else(|| panic!("no CNF literal for AIG input label {label}")),
                Node::And(a, b) => builder.and(edge(cache, a), edge(cache, b)),
            };
            cache.insert(id, lit);
        }
        edge(cache, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use manthan3_cnf::{Assignment, Var};

    fn identity_inputs(num_inputs: usize) -> HashMap<usize, Lit> {
        (0..num_inputs)
            .map(|i| (i, Var::new(i as u32).positive()))
            .collect()
    }

    /// Encodes every root through one cache into one builder, then checks
    /// exhaustively that the CNF is satisfiable under every input assignment
    /// and that each root literal agrees with the AIG evaluation in every
    /// model.
    fn check_encoding(aig: &Aig, roots: &[AigRef], num_inputs: usize) {
        let mut builder = CnfBuilder::new(num_inputs);
        let map = identity_inputs(num_inputs);
        let mut cache = HashMap::new();
        let outs: Vec<Lit> = roots
            .iter()
            .map(|&f| aig.encode_cnf(f, &mut builder, &map, &mut cache))
            .collect();
        let cnf = builder.into_cnf();
        let aux = cnf.num_vars() - num_inputs;
        for bits in 0..1u32 << num_inputs {
            let inputs: Vec<bool> = (0..num_inputs).map(|i| bits >> i & 1 == 1).collect();
            let mut witnessed = false;
            for aux_bits in 0..1u64 << aux {
                let mut values = inputs.clone();
                for i in 0..aux {
                    values.push(aux_bits >> i & 1 == 1);
                }
                let a = Assignment::from_values(values);
                if cnf.eval(&a) {
                    witnessed = true;
                    for (&f, &out) in roots.iter().zip(&outs) {
                        assert_eq!(
                            a.lit_value(out),
                            aig.eval(f, &inputs),
                            "{f:?} at {inputs:?}"
                        );
                    }
                }
            }
            assert!(witnessed, "encoding unsatisfiable for inputs {inputs:?}");
        }
    }

    #[test]
    fn encodes_simple_gates() {
        let mut aig = Aig::new();
        let x = aig.input(0);
        let y = aig.input(1);
        let f = aig.xor(x, y);
        let g = aig.and(x, y);
        check_encoding(&aig, &[f], 2);
        check_encoding(&aig, &[!g], 2);
        check_encoding(&aig, &[f, !g, g, x], 2);
    }

    #[test]
    fn encodes_constants() {
        let aig = Aig::new();
        check_encoding(&aig, &[AigRef::TRUE], 1);
        check_encoding(&aig, &[AigRef::FALSE], 1);
        check_encoding(&aig, &[AigRef::TRUE, AigRef::FALSE], 1);
    }

    #[test]
    fn encodes_nested_cones() {
        let mut aig = Aig::new();
        let ins: Vec<AigRef> = (0..4).map(|i| aig.input(i)).collect();
        let a = aig.xor(ins[0], ins[1]);
        let b = aig.ite(ins[2], a, ins[3]);
        let f = aig.or(b, ins[0]);
        check_encoding(&aig, &[f], 4);
        // Roots whose cones overlap, encoded through one cache.
        let g = aig.and(a, !ins[3]);
        check_encoding(&aig, &[f, g, !a, b], 4);
    }

    #[test]
    fn cached_encoding_shares_tseitin_variables() {
        let mut aig = Aig::new();
        let x = aig.input(0);
        let y = aig.input(1);
        let z = aig.input(2);
        let shared = aig.and(x, y);
        let f = aig.or(shared, z);
        let g = aig.xor(shared, z);
        let map = identity_inputs(3);

        // Encoding f then g with a shared cache must not re-encode `shared`.
        let mut builder = CnfBuilder::new(3);
        let mut cache = HashMap::new();
        let _ = aig.encode_cnf(f, &mut builder, &map, &mut cache);
        let vars_after_f = builder.num_vars();
        let _ = aig.encode_cnf(g, &mut builder, &map, &mut cache);
        let shared_cache_vars = builder.num_vars() - vars_after_f;

        // With a fresh cache the second cone re-allocates `shared`'s variable.
        let mut builder2 = CnfBuilder::new(3);
        let _ = aig.encode_cnf(f, &mut builder2, &map, &mut HashMap::new());
        let vars_after_f2 = builder2.num_vars();
        let _ = aig.encode_cnf(g, &mut builder2, &map, &mut HashMap::new());
        let fresh_cache_vars = builder2.num_vars() - vars_after_f2;
        assert!(
            shared_cache_vars < fresh_cache_vars,
            "shared cache allocated {shared_cache_vars} vars, fresh caches {fresh_cache_vars}"
        );
    }

    #[test]
    #[should_panic(expected = "no CNF literal")]
    fn missing_input_mapping_panics() {
        let mut aig = Aig::new();
        let x = aig.input(7);
        let mut builder = CnfBuilder::new(0);
        let _ = aig.encode_cnf(x, &mut builder, &HashMap::new(), &mut HashMap::new());
    }
}
