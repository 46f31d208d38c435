use std::fmt;

/// A propositional variable, identified by a zero-based index.
///
/// Variables are cheap, copyable handles. The DIMACS representation of
/// variable `i` is `i + 1`.
///
/// # Examples
///
/// ```
/// use manthan3_cnf::Var;
/// let v = Var::new(3);
/// assert_eq!(v.index(), 3);
/// assert_eq!(v.to_dimacs(), 4);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Var(u32);

impl Var {
    /// Creates a variable with the given zero-based index.
    #[inline]
    pub fn new(index: u32) -> Self {
        Var(index)
    }

    /// Returns the zero-based index of this variable.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Returns the raw `u32` index of this variable.
    #[inline]
    pub fn raw(self) -> u32 {
        self.0
    }

    /// The largest DIMACS identifier a variable may have: a [`Lit`] packs
    /// `2 * index + sign` into a `u32`, so indices stop at `2^31 - 1`.
    pub const MAX_DIMACS: u64 = 1 << 31;

    /// Creates a variable from its DIMACS identifier, or returns `None` when
    /// the identifier is 0 or above [`Var::MAX_DIMACS`]. The text parsers
    /// use this to reject identifiers a [`Lit`] cannot hold.
    ///
    /// # Examples
    ///
    /// ```
    /// use manthan3_cnf::Var;
    /// assert_eq!(Var::try_from_dimacs(4), Some(Var::new(3)));
    /// assert_eq!(Var::try_from_dimacs(0), None);
    /// assert_eq!(Var::try_from_dimacs(Var::MAX_DIMACS + 1), None);
    /// ```
    #[inline]
    pub fn try_from_dimacs(dimacs: u64) -> Option<Self> {
        if (1..=Var::MAX_DIMACS).contains(&dimacs) {
            Some(Var((dimacs - 1) as u32))
        } else {
            None
        }
    }

    /// Creates a variable from its (positive) DIMACS identifier.
    ///
    /// # Panics
    ///
    /// Panics if `dimacs` is zero or above [`Var::MAX_DIMACS`].
    #[inline]
    pub fn from_dimacs(dimacs: u32) -> Self {
        match Var::try_from_dimacs(u64::from(dimacs)) {
            Some(var) => var,
            None => panic!("{dimacs} is not a DIMACS variable identifier"),
        }
    }

    /// Returns the one-based DIMACS identifier of this variable.
    #[inline]
    pub fn to_dimacs(self) -> u32 {
        self.0 + 1
    }

    /// Returns the positive literal over this variable.
    #[inline]
    pub fn positive(self) -> Lit {
        Lit::positive(self)
    }

    /// Returns the negative literal over this variable.
    #[inline]
    pub fn negative(self) -> Lit {
        Lit::negative(self)
    }

    /// Returns the literal over this variable with the given polarity
    /// (`true` means positive).
    #[inline]
    pub fn lit(self, polarity: bool) -> Lit {
        Lit::new(self, polarity)
    }
}

impl fmt::Debug for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_dimacs())
    }
}

/// A literal: a variable together with a polarity.
///
/// Internally encoded MiniSat-style as `2 * var + sign`, where `sign == 1`
/// means the literal is negated. This makes literals usable directly as array
/// indices in the SAT solver.
///
/// # Examples
///
/// ```
/// use manthan3_cnf::{Lit, Var};
/// let v = Var::new(0);
/// let p = Lit::positive(v);
/// assert_eq!(!p, Lit::negative(v));
/// assert_eq!(p.var(), v);
/// assert!(p.is_positive());
/// assert_eq!(p.to_dimacs(), 1);
/// assert_eq!((!p).to_dimacs(), -1);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Lit(u32);

impl Lit {
    /// Creates a literal with the given polarity (`true` means positive).
    #[inline]
    pub fn new(var: Var, polarity: bool) -> Self {
        Lit(var.0 << 1 | u32::from(!polarity))
    }

    /// Creates the positive literal over `var`.
    #[inline]
    pub fn positive(var: Var) -> Self {
        Lit(var.0 << 1)
    }

    /// Creates the negative literal over `var`.
    #[inline]
    pub fn negative(var: Var) -> Self {
        Lit(var.0 << 1 | 1)
    }

    /// Returns the variable of this literal.
    #[inline]
    pub fn var(self) -> Var {
        Var(self.0 >> 1)
    }

    /// Returns `true` if the literal is positive (non-negated).
    #[inline]
    pub fn is_positive(self) -> bool {
        self.0 & 1 == 0
    }

    /// Returns the MiniSat-style code `2 * var + sign` of this literal.
    #[inline]
    pub fn code(self) -> usize {
        self.0 as usize
    }

    /// Reconstructs a literal from its [`code`](Lit::code).
    #[inline]
    pub fn from_code(code: usize) -> Self {
        Lit(code as u32)
    }

    /// Creates a literal from a DIMACS integer, or returns `None` when its
    /// variable is out of range (see [`Var::try_from_dimacs`]).
    #[inline]
    pub fn try_from_dimacs(dimacs: i64) -> Option<Self> {
        Var::try_from_dimacs(dimacs.unsigned_abs()).map(|var| Lit::new(var, dimacs > 0))
    }

    /// Creates a literal from a non-zero DIMACS integer.
    ///
    /// # Panics
    ///
    /// Panics if `dimacs` is zero or its variable is above
    /// [`Var::MAX_DIMACS`].
    #[inline]
    pub fn from_dimacs(dimacs: i64) -> Self {
        match Lit::try_from_dimacs(dimacs) {
            Some(lit) => lit,
            None => panic!("{dimacs} is not a DIMACS literal"),
        }
    }

    /// Returns the signed DIMACS representation of this literal.
    #[inline]
    pub fn to_dimacs(self) -> i64 {
        let v = self.var().to_dimacs() as i64;
        if self.is_positive() {
            v
        } else {
            -v
        }
    }

    /// Returns this literal with the requested polarity applied on top of the
    /// current one: `apply_sign(true)` is the identity, `apply_sign(false)`
    /// negates.
    #[inline]
    pub fn apply_sign(self, keep: bool) -> Self {
        if keep {
            self
        } else {
            !self
        }
    }
}

impl std::ops::Not for Lit {
    type Output = Lit;

    #[inline]
    fn not(self) -> Lit {
        Lit(self.0 ^ 1)
    }
}

impl fmt::Debug for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_dimacs())
    }
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_dimacs())
    }
}

impl From<Var> for Lit {
    fn from(var: Var) -> Self {
        Lit::positive(var)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn var_roundtrips_through_dimacs() {
        for i in 0..100 {
            let v = Var::new(i);
            assert_eq!(Var::from_dimacs(v.to_dimacs()), v);
        }
    }

    #[test]
    fn literal_polarity_and_negation() {
        let v = Var::new(7);
        let p = Lit::positive(v);
        let n = Lit::negative(v);
        assert!(p.is_positive());
        assert_eq!(!p, n);
        assert_eq!(!n, p);
        assert_eq!(p.var(), v);
        assert_eq!(n.var(), v);
    }

    #[test]
    fn literal_codes_are_dense() {
        let v = Var::new(3);
        assert_eq!(Lit::positive(v).code(), 6);
        assert_eq!(Lit::negative(v).code(), 7);
        assert_eq!(Lit::from_code(6), Lit::positive(v));
        assert_eq!(Lit::from_code(7), Lit::negative(v));
    }

    #[test]
    fn literal_dimacs_roundtrip() {
        for d in [-42i64, -1, 1, 13, 99] {
            assert_eq!(Lit::from_dimacs(d).to_dimacs(), d);
        }
    }

    #[test]
    fn apply_sign_matches_negation() {
        let l = Lit::positive(Var::new(2));
        assert_eq!(l.apply_sign(true), l);
        assert_eq!(l.apply_sign(false), !l);
    }

    #[test]
    #[should_panic]
    fn zero_dimacs_literal_panics() {
        let _ = Lit::from_dimacs(0);
    }
}
