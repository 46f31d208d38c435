use manthan3_cnf::{Assignment, Clause, Cnf, Lit, Var};
use std::collections::{BTreeMap, BTreeSet};
use std::error::Error;
use std::fmt;

/// A structural error detected by [`Dqbf::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DqbfError {
    /// A variable was quantified twice.
    DuplicateVariable(Var),
    /// A dependency refers to a variable that is not universally quantified.
    UnknownDependency {
        /// The existential variable whose dependency set is malformed.
        existential: Var,
        /// The offending dependency.
        dependency: Var,
    },
    /// The matrix mentions a variable that is not quantified.
    UnquantifiedVariable(Var),
    /// An existential lists itself in its own Henkin dependency set.
    SelfDependency(Var),
}

impl fmt::Display for DqbfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DqbfError::DuplicateVariable(v) => write!(f, "variable {v} is quantified twice"),
            DqbfError::UnknownDependency {
                existential,
                dependency,
            } => write!(
                f,
                "dependency {dependency} of existential {existential} is not universal"
            ),
            DqbfError::UnquantifiedVariable(v) => {
                write!(f, "matrix variable {v} is not quantified")
            }
            DqbfError::SelfDependency(v) => {
                write!(f, "existential {v} depends on itself")
            }
        }
    }
}

impl Error for DqbfError {}

/// A Dependency Quantified Boolean Formula
/// `∀X ∃^{H1}y1 … ∃^{Hm}ym. ϕ(X,Y)` with a CNF matrix.
///
/// See the [crate-level documentation](crate) for background and an example.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Dqbf {
    universals: Vec<Var>,
    existentials: Vec<Var>,
    dependencies: BTreeMap<Var, BTreeSet<Var>>,
    matrix: Cnf,
}

impl Dqbf {
    /// Creates an empty formula.
    pub fn new() -> Self {
        Dqbf::default()
    }

    /// Declares a universally quantified variable.
    pub fn add_universal(&mut self, var: Var) {
        self.universals.push(var);
        self.matrix.ensure_vars(var.index() + 1);
    }

    /// Declares an existentially quantified variable with the given Henkin
    /// dependency set.
    pub fn add_existential<I>(&mut self, var: Var, dependencies: I)
    where
        I: IntoIterator<Item = Var>,
    {
        self.existentials.push(var);
        self.dependencies
            .insert(var, dependencies.into_iter().collect());
        self.matrix.ensure_vars(var.index() + 1);
    }

    /// Adds a clause to the matrix.
    pub fn add_clause<C>(&mut self, clause: C)
    where
        C: IntoIterator<Item = Lit>,
    {
        self.matrix.add_clause(clause);
    }

    /// The universally quantified variables, in declaration order.
    pub fn universals(&self) -> &[Var] {
        &self.universals
    }

    /// The existentially quantified variables, in declaration order.
    pub fn existentials(&self) -> &[Var] {
        &self.existentials
    }

    /// The Henkin dependency set of `y`.
    ///
    /// # Panics
    ///
    /// Panics if `y` is not an existential variable of this formula.
    pub fn dependencies(&self, y: Var) -> &BTreeSet<Var> {
        self.dependencies
            .get(&y)
            .unwrap_or_else(|| panic!("{y:?} is not an existential variable"))
    }

    /// Returns `true` if `var` is existentially quantified.
    pub fn is_existential(&self, var: Var) -> bool {
        self.dependencies.contains_key(&var)
    }

    /// Returns `true` if `var` is universally quantified.
    pub fn is_universal(&self, var: Var) -> bool {
        self.universals.contains(&var)
    }

    /// The CNF matrix ϕ(X,Y).
    pub fn matrix(&self) -> &Cnf {
        &self.matrix
    }

    /// Number of variables declared by the matrix (including any auxiliary
    /// Tseitin variables the matrix may contain).
    pub fn num_vars(&self) -> usize {
        self.matrix.num_vars()
    }

    /// Number of clauses in the matrix.
    pub fn num_clauses(&self) -> usize {
        self.matrix.num_clauses()
    }

    /// Returns `true` if every dependency set equals the full set of
    /// universal variables, i.e. the formula is an ordinary 2-QBF
    /// (`∀X ∃Y`) and Henkin synthesis degenerates to Skolem synthesis.
    pub fn is_skolem(&self) -> bool {
        let all: BTreeSet<Var> = self.universals.iter().copied().collect();
        self.existentials
            .iter()
            .all(|y| self.dependencies[y] == all)
    }

    /// Checks structural well-formedness.
    ///
    /// # Errors
    ///
    /// Returns a [`DqbfError`] describing the first problem found: duplicate
    /// quantification, an existential depending on itself, a dependency that
    /// is not universal, or a matrix variable that is not quantified.
    pub fn validate(&self) -> Result<(), DqbfError> {
        let mut seen: BTreeSet<Var> = BTreeSet::new();
        for &v in self.universals.iter().chain(self.existentials.iter()) {
            if !seen.insert(v) {
                return Err(DqbfError::DuplicateVariable(v));
            }
        }
        let universal_set: BTreeSet<Var> = self.universals.iter().copied().collect();
        for (&y, deps) in &self.dependencies {
            for &d in deps {
                if d == y {
                    return Err(DqbfError::SelfDependency(y));
                }
                if !universal_set.contains(&d) {
                    return Err(DqbfError::UnknownDependency {
                        existential: y,
                        dependency: d,
                    });
                }
            }
        }
        for clause in self.matrix.clauses() {
            for lit in clause {
                if !seen.contains(&lit.var()) {
                    return Err(DqbfError::UnquantifiedVariable(lit.var()));
                }
            }
        }
        Ok(())
    }

    /// Evaluates the matrix under a total assignment.
    pub fn eval_matrix(&self, assignment: &Assignment) -> bool {
        self.matrix.eval(assignment)
    }

    /// A short human-readable summary (used in logs and benchmark output).
    pub fn summary(&self) -> String {
        format!(
            "DQBF: {} universals, {} existentials, {} clauses",
            self.universals.len(),
            self.existentials.len(),
            self.matrix.num_clauses()
        )
    }

    /// Builds the paper's running example (Example 1, Section 5):
    /// `∀x1x2x3 ∃^{x1}y1 ∃^{x1,x2}y2 ∃^{x2,x3}y3.
    ///  (x1 ∨ y1) ∧ (y2 ↔ (y1 ∨ ¬x2)) ∧ (y3 ↔ (x2 ∨ x3))`.
    ///
    /// Variables are numbered `x1,x2,x3,y1,y2,y3 = 0..6`.
    pub fn paper_example() -> Self {
        let x = |i: u32| Var::new(i);
        let y = |i: u32| Var::new(3 + i);
        let mut dqbf = Dqbf::new();
        for i in 0..3 {
            dqbf.add_universal(x(i));
        }
        dqbf.add_existential(y(0), [x(0)]);
        dqbf.add_existential(y(1), [x(0), x(1)]);
        dqbf.add_existential(y(2), [x(1), x(2)]);
        // (x1 ∨ y1)
        dqbf.add_clause([x(0).positive(), y(0).positive()]);
        // y2 ↔ (y1 ∨ ¬x2)
        dqbf.add_clause([y(1).negative(), y(0).positive(), x(1).negative()]);
        dqbf.add_clause([y(1).positive(), y(0).negative()]);
        dqbf.add_clause([y(1).positive(), x(1).positive()]);
        // y3 ↔ (x2 ∨ x3)
        dqbf.add_clause([y(2).negative(), x(1).positive(), x(2).positive()]);
        dqbf.add_clause([y(2).positive(), x(1).negative()]);
        dqbf.add_clause([y(2).positive(), x(2).negative()]);
        dqbf
    }

    /// Builds the paper's incompleteness example (Section 5, "Limitations"):
    /// `∀x1x2x3 ∃^{x1,x2}y1 ∃^{x2,x3}y2. ¬(y1 ⊕ y2)`.
    ///
    /// The formula is true (both functions can be `x2`), but Manthan3's
    /// repair can fail on it.
    pub fn xor_limitation_example() -> Self {
        let x = |i: u32| Var::new(i);
        let y = |i: u32| Var::new(3 + i);
        let mut dqbf = Dqbf::new();
        for i in 0..3 {
            dqbf.add_universal(x(i));
        }
        dqbf.add_existential(y(0), [x(0), x(1)]);
        dqbf.add_existential(y(1), [x(1), x(2)]);
        // ¬(y1 ⊕ y2)  ≡  (y1 ∨ ¬y2) ∧ (¬y1 ∨ y2)
        dqbf.add_clause([y(0).positive(), y(1).negative()]);
        dqbf.add_clause([y(0).negative(), y(1).positive()]);
        dqbf
    }

    /// Returns the clauses of the matrix as owned values (convenience for
    /// engines that rewrite the matrix).
    pub fn clauses(&self) -> &[Clause] {
        self.matrix.clauses()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_query_prefix() {
        let x = Var::new(0);
        let y = Var::new(1);
        let mut dqbf = Dqbf::new();
        dqbf.add_universal(x);
        dqbf.add_existential(y, [x]);
        dqbf.add_clause([x.positive(), y.positive()]);
        assert_eq!(dqbf.universals(), &[x]);
        assert_eq!(dqbf.existentials(), &[y]);
        assert!(dqbf.dependencies(y).contains(&x));
        assert!(dqbf.is_existential(y));
        assert!(dqbf.is_universal(x));
        assert!(dqbf.is_skolem());
        assert!(dqbf.validate().is_ok());
        assert_eq!(dqbf.num_clauses(), 1);
    }

    #[test]
    fn skolem_detection_is_strict() {
        let x0 = Var::new(0);
        let x1 = Var::new(1);
        let y = Var::new(2);
        let mut dqbf = Dqbf::new();
        dqbf.add_universal(x0);
        dqbf.add_universal(x1);
        dqbf.add_existential(y, [x0]);
        assert!(!dqbf.is_skolem());
    }

    #[test]
    fn validation_catches_errors() {
        let x = Var::new(0);
        let y = Var::new(1);
        let z = Var::new(2);

        let mut duplicate = Dqbf::new();
        duplicate.add_universal(x);
        duplicate.add_existential(x, []);
        assert_eq!(duplicate.validate(), Err(DqbfError::DuplicateVariable(x)));

        let mut bad_dep = Dqbf::new();
        bad_dep.add_universal(x);
        bad_dep.add_existential(y, [z]);
        assert!(matches!(
            bad_dep.validate(),
            Err(DqbfError::UnknownDependency { .. })
        ));

        let mut unquantified = Dqbf::new();
        unquantified.add_universal(x);
        unquantified.add_clause([z.positive()]);
        assert_eq!(
            unquantified.validate(),
            Err(DqbfError::UnquantifiedVariable(z))
        );
    }

    #[test]
    fn validation_rejects_self_dependency() {
        // Regression: an existential listing itself in its own dependency
        // set used to surface as UnknownDependency (or, worse, slip through
        // if the variable was also declared universal elsewhere); it must be
        // rejected with the dedicated variant.
        let x = Var::new(0);
        let y = Var::new(1);
        let mut dqbf = Dqbf::new();
        dqbf.add_universal(x);
        dqbf.add_existential(y, [x, y]);
        assert_eq!(dqbf.validate(), Err(DqbfError::SelfDependency(y)));
        assert!(DqbfError::SelfDependency(y)
            .to_string()
            .contains("depends on itself"));
    }

    #[test]
    fn paper_example_is_well_formed() {
        let dqbf = Dqbf::paper_example();
        assert!(dqbf.validate().is_ok());
        assert_eq!(dqbf.universals().len(), 3);
        assert_eq!(dqbf.existentials().len(), 3);
        assert_eq!(dqbf.num_clauses(), 7);
        assert!(!dqbf.is_skolem());
        // Check the matrix against a direct evaluation of the specification.
        for bits in 0..64u32 {
            let a = Assignment::from_values((0..6).map(|i| bits >> i & 1 == 1).collect());
            let (x1, x2, x3) = (
                a.value(Var::new(0)),
                a.value(Var::new(1)),
                a.value(Var::new(2)),
            );
            let (y1, y2, y3) = (
                a.value(Var::new(3)),
                a.value(Var::new(4)),
                a.value(Var::new(5)),
            );
            let spec = (x1 || y1) && (y2 == (y1 || !x2)) && (y3 == (x2 || x3));
            assert_eq!(dqbf.eval_matrix(&a), spec, "assignment {bits:06b}");
        }
    }

    #[test]
    fn xor_example_is_well_formed() {
        let dqbf = Dqbf::xor_limitation_example();
        assert!(dqbf.validate().is_ok());
        for bits in 0..32u32 {
            let a = Assignment::from_values((0..5).map(|i| bits >> i & 1 == 1).collect());
            let (y1, y2) = (a.value(Var::new(3)), a.value(Var::new(4)));
            assert_eq!(dqbf.eval_matrix(&a), y1 == y2);
        }
    }

    #[test]
    fn summary_mentions_sizes() {
        let dqbf = Dqbf::paper_example();
        let s = dqbf.summary();
        assert!(s.contains("3 universals"));
        assert!(s.contains("3 existentials"));
    }
}
