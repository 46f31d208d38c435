//! Tseitin encoding of AIG cones into CNF.

use crate::manager::{Aig, AigRef, Node};
use manthan3_cnf::{ClauseSink, Lit, Var};
use std::collections::HashMap;

impl Aig {
    /// Encodes the cone of `f` into `sink` and returns a literal that is
    /// equivalent to `f`.
    ///
    /// Input label `i` is variable `i` of the sink, the convention of
    /// `HenkinVector`. The sink must already declare every such variable:
    /// each gate takes a fresh variable from `sink`, numbered after the ones
    /// it declares, and would otherwise collide with an input. The sink is
    /// the SAT solver that uses the clauses, or a [`Cnf`](manthan3_cnf::Cnf)
    /// when the clauses are wanted as a formula.
    ///
    /// `cache` maps node ids to the literals already encoded for them. Nodes
    /// found there cost no fresh variable or clause, and every node encoded
    /// by this call is added. So repeated encodings of overlapping cones into
    /// one sink share their Tseitin variables and clauses: this is what
    /// makes verification incremental when a repair step extends a candidate
    /// cone, and what lets a vector check encode a cone shared by several
    /// outputs once. The cache is keyed by node id, so one cache serves one
    /// AIG and one sink; mixing caches across AIGs or sinks produces
    /// nonsense encodings. Pass an empty map to encode from scratch.
    ///
    /// # Examples
    ///
    /// ```
    /// use manthan3_aig::Aig;
    /// use manthan3_cnf::Cnf;
    /// use std::collections::HashMap;
    ///
    /// let mut aig = Aig::new();
    /// let x = aig.input(0);
    /// let y = aig.input(1);
    /// let f = aig.and(x, y);
    ///
    /// // Inputs 0 and 1 are variables 0 and 1 of the formula.
    /// let mut cnf = Cnf::new(2);
    /// let mut cache = HashMap::new();
    /// let out = aig.encode_cnf(f, &mut cnf, &mut cache);
    /// cnf.add_clause([out]); // force f to be true
    /// assert_eq!((cnf.num_vars(), cnf.num_clauses()), (3, 4));
    /// // The cone is cached: encoding it again adds nothing.
    /// assert_eq!(aig.encode_cnf(f, &mut cnf, &mut cache), out);
    /// assert_eq!((cnf.num_vars(), cnf.num_clauses()), (3, 4));
    /// ```
    pub fn encode_cnf<S: ClauseSink>(
        &self,
        f: AigRef,
        sink: &mut S,
        cache: &mut HashMap<usize, Lit>,
    ) -> Lit {
        let edge = |cache: &HashMap<usize, Lit>, r: AigRef| {
            cache[&r.node_id()].apply_sign(!r.is_complemented())
        };
        for id in self.post_order(f, |id| cache.contains_key(&id)) {
            let lit = match self.node(id) {
                Node::Constant => {
                    // A fresh literal asserted false stands for the constant.
                    let l = sink.fresh_var().positive();
                    sink.add_clause(&[!l]);
                    l
                }
                Node::Input(label) => Var::new(label as u32).positive(),
                Node::And(a, b) => {
                    // out ↔ (a ∧ b)
                    let (a, b) = (edge(cache, a), edge(cache, b));
                    let out = sink.fresh_var().positive();
                    sink.add_clause(&[!out, a]);
                    sink.add_clause(&[!out, b]);
                    sink.add_clause(&[!a, !b, out]);
                    out
                }
            };
            cache.insert(id, lit);
        }
        edge(cache, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use manthan3_cnf::{Assignment, Cnf};

    /// Encodes every root through one cache into one formula, then checks
    /// exhaustively that the CNF is satisfiable under every input assignment
    /// and that each root literal agrees with the AIG evaluation in every
    /// model.
    fn check_encoding(aig: &Aig, roots: &[AigRef], num_inputs: usize) {
        let mut cnf = Cnf::new(num_inputs);
        let mut cache = HashMap::new();
        let outs: Vec<Lit> = roots
            .iter()
            .map(|&f| aig.encode_cnf(f, &mut cnf, &mut cache))
            .collect();
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

        // Encoding f then g with a shared cache must not re-encode `shared`.
        let mut cnf = Cnf::new(3);
        let mut cache = HashMap::new();
        let _ = aig.encode_cnf(f, &mut cnf, &mut cache);
        let vars_after_f = cnf.num_vars();
        let _ = aig.encode_cnf(g, &mut cnf, &mut cache);
        let shared_cache_vars = cnf.num_vars() - vars_after_f;

        // With a fresh cache the second cone re-allocates `shared`'s variable.
        let mut cnf2 = Cnf::new(3);
        let _ = aig.encode_cnf(f, &mut cnf2, &mut HashMap::new());
        let vars_after_f2 = cnf2.num_vars();
        let _ = aig.encode_cnf(g, &mut cnf2, &mut HashMap::new());
        let fresh_cache_vars = cnf2.num_vars() - vars_after_f2;
        assert!(
            shared_cache_vars < fresh_cache_vars,
            "shared cache allocated {shared_cache_vars} vars, fresh caches {fresh_cache_vars}"
        );
    }
}
