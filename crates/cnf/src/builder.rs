use crate::{Cnf, Lit, Var};

/// A Tseitin-style CNF builder.
///
/// `CnfBuilder` owns a growing [`Cnf`] and provides gate-encoding helpers that
/// allocate fresh variables for gate outputs. It is used throughout the
/// Manthan3 pipeline to build the verification formula
/// `E(X,Y') = ¬ϕ(X,Y') ∧ (Y' ↔ f)` and the repair formulas `G_k`.
///
/// # Examples
///
/// ```
/// use manthan3_cnf::{CnfBuilder, Var};
///
/// let mut b = CnfBuilder::new(2);
/// let x = Var::new(0).positive();
/// let y = Var::new(1).positive();
/// let g = b.and(x, y);
/// b.assert_lit(g);
/// let cnf = b.into_cnf();
/// assert!(cnf.num_clauses() >= 3);
/// ```
#[derive(Debug, Clone, Default)]
pub struct CnfBuilder {
    cnf: Cnf,
}

impl CnfBuilder {
    /// Creates a builder whose formula already declares `num_vars` variables.
    pub fn new(num_vars: usize) -> Self {
        CnfBuilder {
            cnf: Cnf::new(num_vars),
        }
    }

    /// Returns the formula built so far.
    pub fn cnf(&self) -> &Cnf {
        &self.cnf
    }

    /// Consumes the builder and returns the formula.
    pub fn into_cnf(self) -> Cnf {
        self.cnf
    }

    /// Number of variables currently declared.
    pub fn num_vars(&self) -> usize {
        self.cnf.num_vars()
    }

    /// Allocates a fresh variable.
    pub fn fresh_var(&mut self) -> Var {
        self.cnf.fresh_var()
    }

    /// Allocates a fresh variable and returns its positive literal.
    pub fn fresh_lit(&mut self) -> Lit {
        self.fresh_var().positive()
    }

    /// Adds a raw clause.
    pub fn add_clause<C>(&mut self, clause: C)
    where
        C: IntoIterator<Item = Lit>,
    {
        self.cnf.add_clause(clause);
    }

    /// Asserts that a literal is true (adds a unit clause).
    pub fn assert_lit(&mut self, lit: Lit) {
        self.cnf.add_unit(lit);
    }

    /// Adds clauses forcing `a ↔ b`.
    pub fn assert_equiv(&mut self, a: Lit, b: Lit) {
        self.add_clause([!a, b]);
        self.add_clause([a, !b]);
    }

    /// Encodes `out ↔ (a ∧ b)` and returns `out` (a fresh literal).
    pub fn and(&mut self, a: Lit, b: Lit) -> Lit {
        let out = self.fresh_lit();
        self.encode_and(out, &[a, b]);
        out
    }

    /// Encodes `out ↔ ⋀ inputs` and returns `out` (a fresh literal).
    ///
    /// An empty conjunction yields a literal constrained to be true.
    pub fn and_many(&mut self, inputs: &[Lit]) -> Lit {
        let out = self.fresh_lit();
        self.encode_and(out, inputs);
        out
    }

    /// Encodes `out ↔ (a ∨ b)` and returns `out` (a fresh literal).
    pub fn or(&mut self, a: Lit, b: Lit) -> Lit {
        let out = self.fresh_lit();
        self.encode_or(out, &[a, b]);
        out
    }

    /// Encodes `out ↔ ⋁ inputs` and returns `out` (a fresh literal).
    ///
    /// An empty disjunction yields a literal constrained to be false.
    pub fn or_many(&mut self, inputs: &[Lit]) -> Lit {
        let out = self.fresh_lit();
        self.encode_or(out, inputs);
        out
    }

    /// Encodes `out ↔ ¬a`. No fresh variable is needed; returns `!a`.
    pub fn not(&mut self, a: Lit) -> Lit {
        !a
    }

    /// Encodes `out ↔ (a ⊕ b)` and returns `out` (a fresh literal).
    pub fn xor(&mut self, a: Lit, b: Lit) -> Lit {
        let out = self.fresh_lit();
        self.encode_xor(out, a, b);
        out
    }

    /// Encodes `out ↔ (a ↔ b)` and returns `out` (a fresh literal).
    pub fn iff(&mut self, a: Lit, b: Lit) -> Lit {
        let out = self.xor(a, b);
        !out
    }

    /// Encodes `out ↔ ite(c, t, e)` and returns `out` (a fresh literal).
    pub fn ite(&mut self, c: Lit, t: Lit, e: Lit) -> Lit {
        let out = self.fresh_lit();
        // c → (out ↔ t)
        self.add_clause([!c, !t, out]);
        self.add_clause([!c, t, !out]);
        // ¬c → (out ↔ e)
        self.add_clause([c, !e, out]);
        self.add_clause([c, e, !out]);
        out
    }

    /// Adds clauses defining `out ↔ ⋀ inputs` for an existing output literal.
    pub fn encode_and(&mut self, out: Lit, inputs: &[Lit]) {
        if inputs.is_empty() {
            self.assert_lit(out);
            return;
        }
        // out → each input
        for &i in inputs {
            self.add_clause([!out, i]);
        }
        // all inputs → out
        let mut clause: Vec<Lit> = inputs.iter().map(|&l| !l).collect();
        clause.push(out);
        self.add_clause(clause);
    }

    /// Adds clauses defining `out ↔ ⋁ inputs` for an existing output literal.
    pub fn encode_or(&mut self, out: Lit, inputs: &[Lit]) {
        if inputs.is_empty() {
            self.assert_lit(!out);
            return;
        }
        // each input → out
        for &i in inputs {
            self.add_clause([!i, out]);
        }
        // out → some input
        let mut clause: Vec<Lit> = inputs.to_vec();
        clause.push(!out);
        self.add_clause(clause);
    }

    /// Adds clauses defining `out ↔ (a ⊕ b)` for an existing output literal.
    pub fn encode_xor(&mut self, out: Lit, a: Lit, b: Lit) {
        self.add_clause([!out, a, b]);
        self.add_clause([!out, !a, !b]);
        self.add_clause([out, !a, b]);
        self.add_clause([out, a, !b]);
    }

    /// Adds the clauses of `other`, assuming its variables are already
    /// consistent with this builder's numbering.
    pub fn extend_from(&mut self, other: &Cnf) {
        self.cnf.extend_from(other);
    }

    /// Adds clauses asserting that at most one of `lits` is true
    /// (pairwise encoding).
    pub fn at_most_one(&mut self, lits: &[Lit]) {
        for i in 0..lits.len() {
            for j in i + 1..lits.len() {
                self.add_clause([!lits[i], !lits[j]]);
            }
        }
    }

    /// Adds clauses asserting that exactly one of `lits` is true.
    pub fn exactly_one(&mut self, lits: &[Lit]) {
        self.add_clause(lits.to_vec());
        self.at_most_one(lits);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Assignment;

    /// Brute-force check: for every assignment over the first `n_inputs`
    /// variables, the built CNF must be satisfiable by extending the
    /// assignment, and in every satisfying extension `out` must equal
    /// `expected(inputs)`.
    fn check_gate<F>(builder: &CnfBuilder, n_inputs: usize, out: Lit, expected: F)
    where
        F: Fn(&[bool]) -> bool,
    {
        let cnf = builder.cnf();
        let n = cnf.num_vars();
        for bits in 0..1u32 << n_inputs {
            let inputs: Vec<bool> = (0..n_inputs).map(|i| bits >> i & 1 == 1).collect();
            let mut found = false;
            // enumerate auxiliary variables
            let aux = n - n_inputs;
            for aux_bits in 0..1u64 << aux {
                let mut values = inputs.clone();
                for i in 0..aux {
                    values.push(aux_bits >> i & 1 == 1);
                }
                let a = Assignment::from_values(values);
                if cnf.eval(&a) {
                    found = true;
                    assert_eq!(
                        a.lit_value(out),
                        expected(&inputs),
                        "wrong gate value for inputs {inputs:?}"
                    );
                }
            }
            assert!(found, "gate CNF unsatisfiable for inputs {inputs:?}");
        }
    }

    #[test]
    fn and_gate_truth_table() {
        let mut b = CnfBuilder::new(2);
        let x = Var::new(0).positive();
        let y = Var::new(1).positive();
        let g = b.and(x, y);
        check_gate(&b, 2, g, |i| i[0] && i[1]);
    }

    #[test]
    fn or_gate_truth_table() {
        let mut b = CnfBuilder::new(2);
        let x = Var::new(0).positive();
        let y = Var::new(1).positive();
        let g = b.or(x, !y);
        check_gate(&b, 2, g, |i| i[0] || !i[1]);
    }

    #[test]
    fn xor_and_iff_gates() {
        let mut b = CnfBuilder::new(2);
        let x = Var::new(0).positive();
        let y = Var::new(1).positive();
        let g = b.xor(x, y);
        check_gate(&b, 2, g, |i| i[0] ^ i[1]);

        let mut b = CnfBuilder::new(2);
        let x = Var::new(0).positive();
        let y = Var::new(1).positive();
        let g = b.iff(x, y);
        check_gate(&b, 2, g, |i| i[0] == i[1]);
    }

    #[test]
    fn ite_gate_truth_table() {
        let mut b = CnfBuilder::new(3);
        let c = Var::new(0).positive();
        let t = Var::new(1).positive();
        let e = Var::new(2).positive();
        let g = b.ite(c, t, e);
        check_gate(&b, 3, g, |i| if i[0] { i[1] } else { i[2] });
    }

    #[test]
    fn empty_and_or_are_constants() {
        let mut b = CnfBuilder::new(0);
        let t = b.and_many(&[]);
        let f = b.or_many(&[]);
        let cnf = b.cnf();
        // Only assignments where t=1, f=0 satisfy the formula.
        for bits in 0..4u32 {
            let a = Assignment::from_values(vec![bits & 1 == 1, bits & 2 == 2]);
            let ok = a.lit_value(t) && !a.lit_value(f);
            assert_eq!(cnf.eval(&a), ok);
        }
    }

    #[test]
    fn wide_and_gate() {
        let mut b = CnfBuilder::new(3);
        let ins: Vec<Lit> = (0..3).map(|i| Var::new(i).positive()).collect();
        let g = b.and_many(&ins);
        check_gate(&b, 3, g, |i| i.iter().all(|&x| x));
    }

    #[test]
    fn exactly_one_constraint() {
        let mut b = CnfBuilder::new(3);
        let lits: Vec<Lit> = (0..3).map(|i| Var::new(i).positive()).collect();
        b.exactly_one(&lits);
        let cnf = b.into_cnf();
        for bits in 0..8u32 {
            let a = Assignment::from_values((0..3).map(|i| bits >> i & 1 == 1).collect());
            let count = (0..3).filter(|i| bits >> i & 1 == 1).count();
            assert_eq!(cnf.eval(&a), count == 1);
        }
    }

    #[test]
    fn assert_equiv_forces_equality() {
        let mut b = CnfBuilder::new(2);
        let x = Var::new(0).positive();
        let y = Var::new(1).positive();
        b.assert_equiv(x, !y);
        let cnf = b.into_cnf();
        for bits in 0..4u32 {
            let a = Assignment::from_values(vec![bits & 1 == 1, bits & 2 == 2]);
            assert_eq!(cnf.eval(&a), a.value(Var::new(0)) != a.value(Var::new(1)));
        }
    }
}
