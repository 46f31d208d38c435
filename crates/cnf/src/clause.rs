use crate::{Assignment, Lit, Var};
use std::fmt;

/// A disjunction of literals.
///
/// # Examples
///
/// ```
/// use manthan3_cnf::{Clause, Lit, Var};
/// let a = Lit::positive(Var::new(0));
/// let b = Lit::negative(Var::new(1));
/// let c = Clause::new(vec![a, b]);
/// assert_eq!(c.len(), 2);
/// assert!(c.contains(a));
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct Clause {
    lits: Vec<Lit>,
}

impl Clause {
    /// Creates a clause from the given literals.
    pub fn new(lits: Vec<Lit>) -> Self {
        Clause { lits }
    }

    /// Creates an empty (unsatisfiable) clause.
    pub fn empty() -> Self {
        Clause { lits: Vec::new() }
    }

    /// Creates a unit clause.
    pub fn unit(lit: Lit) -> Self {
        Clause { lits: vec![lit] }
    }

    /// Number of literals in the clause.
    pub fn len(&self) -> usize {
        self.lits.len()
    }

    /// Returns `true` if the clause has no literals.
    pub fn is_empty(&self) -> bool {
        self.lits.is_empty()
    }

    /// Returns `true` if the clause contains the given literal.
    pub fn contains(&self, lit: Lit) -> bool {
        self.lits.contains(&lit)
    }

    /// Returns the literals of the clause.
    pub fn lits(&self) -> &[Lit] {
        &self.lits
    }

    /// Iterates over the literals of the clause.
    pub fn iter(&self) -> std::slice::Iter<'_, Lit> {
        self.lits.iter()
    }

    /// Evaluates the clause under a total assignment.
    pub fn eval(&self, assignment: &Assignment) -> bool {
        self.lits.iter().any(|&l| assignment.lit_value(l))
    }

    /// Returns the largest variable mentioned by this clause, if any.
    pub fn max_var(&self) -> Option<Var> {
        self.lits.iter().map(|l| l.var()).max()
    }
}

impl From<Vec<Lit>> for Clause {
    fn from(lits: Vec<Lit>) -> Self {
        Clause::new(lits)
    }
}

impl FromIterator<Lit> for Clause {
    fn from_iter<T: IntoIterator<Item = Lit>>(iter: T) -> Self {
        Clause::new(iter.into_iter().collect())
    }
}

impl<'a> IntoIterator for &'a Clause {
    type Item = &'a Lit;
    type IntoIter = std::slice::Iter<'a, Lit>;

    fn into_iter(self) -> Self::IntoIter {
        self.lits.iter()
    }
}

impl IntoIterator for Clause {
    type Item = Lit;
    type IntoIter = std::vec::IntoIter<Lit>;

    fn into_iter(self) -> Self::IntoIter {
        self.lits.into_iter()
    }
}

impl fmt::Debug for Clause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, l) in self.lits.iter().enumerate() {
            if i > 0 {
                write!(f, " ∨ ")?;
            }
            write!(f, "{l}")?;
        }
        write!(f, ")")
    }
}

impl fmt::Display for Clause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for l in &self.lits {
            write!(f, "{l} ")?;
        }
        write!(f, "0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(d: i64) -> Lit {
        Lit::from_dimacs(d)
    }

    #[test]
    fn clause_evaluation() {
        let c = Clause::new(vec![lit(1), lit(-2)]);
        let mut a = Assignment::new_false(2);
        assert!(c.eval(&a)); // -2 is true
        a.set(Var::new(1), true);
        assert!(!c.eval(&a));
        a.set(Var::new(0), true);
        assert!(c.eval(&a));
    }

    #[test]
    fn unit_and_empty_constructors() {
        assert_eq!(Clause::unit(lit(5)).len(), 1);
        assert!(Clause::empty().is_empty());
    }

    #[test]
    fn max_var_of_clause() {
        let c = Clause::new(vec![lit(1), lit(-7), lit(3)]);
        assert_eq!(c.max_var(), Some(Var::from_dimacs(7)));
        assert_eq!(Clause::empty().max_var(), None);
    }

    #[test]
    fn display_is_dimacs_row() {
        let c = Clause::new(vec![lit(1), lit(-2)]);
        assert_eq!(c.to_string(), "1 -2 0");
    }
}
