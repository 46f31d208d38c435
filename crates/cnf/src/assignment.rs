use crate::{Lit, Var};
use std::fmt;

/// A total assignment of Boolean values to the first `n` variables.
///
/// # Examples
///
/// ```
/// use manthan3_cnf::{Assignment, Lit, Var};
/// let mut a = Assignment::new_false(3);
/// a.set(Var::new(1), true);
/// assert!(a.value(Var::new(1)));
/// assert!(!a.value(Var::new(0)));
/// assert!(a.lit_value(Lit::negative(Var::new(2))));
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct Assignment {
    values: Vec<bool>,
}

impl Assignment {
    /// Creates an all-false assignment over `num_vars` variables.
    pub fn new_false(num_vars: usize) -> Self {
        Assignment {
            values: vec![false; num_vars],
        }
    }

    /// Creates an assignment from a vector of values; index `i` is the value
    /// of variable `i`.
    pub fn from_values(values: Vec<bool>) -> Self {
        Assignment { values }
    }

    /// Number of variables covered by this assignment.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Returns `true` if the assignment covers no variables.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Returns the value of `var`.
    ///
    /// # Panics
    ///
    /// Panics if `var` is outside the assignment.
    pub fn value(&self, var: Var) -> bool {
        self.values[var.index()]
    }

    /// Returns the value of `var`, or `None` if it is outside the assignment.
    pub fn get(&self, var: Var) -> Option<bool> {
        self.values.get(var.index()).copied()
    }

    /// Returns the truth value of a literal under this assignment.
    pub fn lit_value(&self, lit: Lit) -> bool {
        self.value(lit.var()) == lit.is_positive()
    }

    /// Sets the value of `var`, growing the assignment with `false` values if
    /// necessary.
    pub fn set(&mut self, var: Var, value: bool) {
        if var.index() >= self.values.len() {
            self.values.resize(var.index() + 1, false);
        }
        self.values[var.index()] = value;
    }

    /// Makes a literal true under this assignment.
    pub fn set_lit(&mut self, lit: Lit) {
        self.set(lit.var(), lit.is_positive());
    }

    /// Returns the underlying value vector.
    pub fn as_slice(&self) -> &[bool] {
        &self.values
    }

    /// Iterates over `(Var, bool)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (Var, bool)> + '_ {
        self.values
            .iter()
            .enumerate()
            .map(|(i, &b)| (Var::new(i as u32), b))
    }
}

impl fmt::Debug for Assignment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Assignment[")?;
        for (i, b) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{}", if *b { i as i64 + 1 } else { -(i as i64 + 1) })?;
        }
        write!(f, "]")
    }
}

impl std::ops::Index<Var> for Assignment {
    type Output = bool;

    fn index(&self, var: Var) -> &bool {
        &self.values[var.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assignment_set_and_get() {
        let mut a = Assignment::new_false(4);
        a.set(Var::new(2), true);
        assert!(a.value(Var::new(2)));
        assert!(!a.value(Var::new(0)));
        assert_eq!(a.get(Var::new(9)), None);
    }

    #[test]
    fn assignment_grows_on_set() {
        let mut a = Assignment::new_false(1);
        a.set(Var::new(5), true);
        assert_eq!(a.len(), 6);
        assert!(a.value(Var::new(5)));
        assert!(!a.value(Var::new(3)));
    }

    #[test]
    fn literal_values_respect_polarity() {
        let mut a = Assignment::new_false(2);
        a.set(Var::new(0), true);
        assert!(a.lit_value(Lit::positive(Var::new(0))));
        assert!(!a.lit_value(Lit::negative(Var::new(0))));
        assert!(a.lit_value(Lit::negative(Var::new(1))));
    }

    #[test]
    fn set_lit_sets_polarity() {
        let mut a = Assignment::new_false(2);
        a.set_lit(Lit::negative(Var::new(0)));
        a.set_lit(Lit::positive(Var::new(1)));
        assert!(!a.value(Var::new(0)));
        assert!(a.value(Var::new(1)));
    }
}
