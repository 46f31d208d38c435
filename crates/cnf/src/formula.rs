use crate::{Assignment, Clause, Lit, Var};
use std::fmt;

/// A CNF formula: a conjunction of [`Clause`]s over `num_vars` variables.
///
/// # Examples
///
/// ```
/// use manthan3_cnf::{Cnf, Lit, Var};
/// let mut cnf = Cnf::new(2);
/// let a = Var::new(0).positive();
/// let b = Var::new(1).positive();
/// cnf.add_clause([a, b]);
/// cnf.add_clause([!a]);
/// assert_eq!(cnf.num_clauses(), 2);
/// assert_eq!(cnf.num_vars(), 2);
/// ```
#[derive(Clone, PartialEq, Eq, Default)]
pub struct Cnf {
    num_vars: usize,
    clauses: Vec<Clause>,
}

impl Cnf {
    /// Creates an empty formula over `num_vars` variables.
    pub fn new(num_vars: usize) -> Self {
        Cnf {
            num_vars,
            clauses: Vec::new(),
        }
    }

    /// Number of variables declared for this formula.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Number of clauses.
    pub fn num_clauses(&self) -> usize {
        self.clauses.len()
    }

    /// Returns `true` if the formula has no clauses.
    pub fn is_empty(&self) -> bool {
        self.clauses.is_empty()
    }

    /// The clauses of the formula.
    pub fn clauses(&self) -> &[Clause] {
        &self.clauses
    }

    /// Iterates over the clauses.
    pub fn iter(&self) -> std::slice::Iter<'_, Clause> {
        self.clauses.iter()
    }

    /// Ensures the formula declares at least `num_vars` variables.
    pub fn ensure_vars(&mut self, num_vars: usize) {
        if num_vars > self.num_vars {
            self.num_vars = num_vars;
        }
    }

    /// Allocates and returns a fresh variable.
    pub fn fresh_var(&mut self) -> Var {
        let v = Var::new(self.num_vars as u32);
        self.num_vars += 1;
        v
    }

    /// Adds a clause, growing the declared variable count if the clause
    /// mentions a larger variable.
    pub fn add_clause<C>(&mut self, clause: C)
    where
        C: IntoIterator<Item = Lit>,
    {
        let clause: Clause = clause.into_iter().collect();
        if let Some(v) = clause.max_var() {
            self.ensure_vars(v.index() + 1);
        }
        self.clauses.push(clause);
    }

    /// Evaluates the formula under a total assignment.
    pub fn eval(&self, assignment: &Assignment) -> bool {
        self.clauses.iter().all(|c| c.eval(assignment))
    }
}

impl FromIterator<Clause> for Cnf {
    fn from_iter<T: IntoIterator<Item = Clause>>(iter: T) -> Self {
        let mut cnf = Cnf::new(0);
        for c in iter {
            if let Some(v) = c.max_var() {
                cnf.ensure_vars(v.index() + 1);
            }
            cnf.clauses.push(c);
        }
        cnf
    }
}

impl Extend<Clause> for Cnf {
    fn extend<T: IntoIterator<Item = Clause>>(&mut self, iter: T) {
        for c in iter {
            if let Some(v) = c.max_var() {
                self.ensure_vars(v.index() + 1);
            }
            self.clauses.push(c);
        }
    }
}

impl fmt::Debug for Cnf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Cnf({} vars, {} clauses)",
            self.num_vars,
            self.clauses.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(d: i64) -> Lit {
        Lit::from_dimacs(d)
    }

    #[test]
    fn add_clause_grows_vars() {
        let mut cnf = Cnf::new(0);
        cnf.add_clause([lit(1), lit(-5)]);
        assert_eq!(cnf.num_vars(), 5);
        assert_eq!(cnf.num_clauses(), 1);
    }

    #[test]
    fn evaluation_of_small_formula() {
        // (x1 ∨ x2) ∧ (¬x1 ∨ x3)
        let mut cnf = Cnf::new(3);
        cnf.add_clause([lit(1), lit(2)]);
        cnf.add_clause([lit(-1), lit(3)]);
        let mut a = Assignment::new_false(3);
        assert!(!cnf.eval(&a)); // first clause false
        a.set(Var::new(1), true);
        assert!(cnf.eval(&a));
        a.set(Var::new(0), true);
        assert!(!cnf.eval(&a)); // second clause false
        a.set(Var::new(2), true);
        assert!(cnf.eval(&a));
    }

    #[test]
    fn fresh_vars_are_distinct() {
        let mut cnf = Cnf::new(2);
        let a = cnf.fresh_var();
        let b = cnf.fresh_var();
        assert_ne!(a, b);
        assert_eq!(cnf.num_vars(), 4);
    }

    #[test]
    fn collect_from_clauses() {
        let cnf: Cnf = vec![Clause::unit(lit(2)), Clause::new(vec![lit(-1), lit(3)])]
            .into_iter()
            .collect();
        assert_eq!(cnf.num_vars(), 3);
        assert_eq!(cnf.num_clauses(), 2);
    }
}
