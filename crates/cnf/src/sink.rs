use crate::{Cnf, Lit, Var};

/// A destination for generated clauses: something that allocates fresh
/// variables and takes clauses.
///
/// The Tseitin encoder (`Aig::encode_cnf` in `manthan3-aig`) writes
/// through this trait, so the error formula's candidate cones go straight
/// into the SAT solver that refutes the formula. [`Cnf`] implements it too, for callers that want the
/// clauses as a formula (the encoder tests evaluate one).
///
/// # Examples
///
/// ```
/// use manthan3_cnf::{ClauseSink, Cnf};
///
/// let mut cnf = Cnf::new(1);
/// let v = ClauseSink::fresh_var(&mut cnf);
/// ClauseSink::add_clause(&mut cnf, &[v.negative()]);
/// assert_eq!((cnf.num_vars(), cnf.num_clauses()), (2, 1));
/// ```
pub trait ClauseSink {
    /// Allocates a fresh variable, numbered after every variable the sink
    /// already declares.
    fn fresh_var(&mut self) -> Var;

    /// Adds a clause.
    fn add_clause(&mut self, clause: &[Lit]);
}

impl ClauseSink for Cnf {
    fn fresh_var(&mut self) -> Var {
        Cnf::fresh_var(self)
    }

    fn add_clause(&mut self, clause: &[Lit]) {
        Cnf::add_clause(self, clause.iter().copied());
    }
}
