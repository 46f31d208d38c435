//! A Pedant-style definition + arbiter CEGIS Henkin synthesizer.
//!
//! Pedant (Reichl, Slivovsky, Szeider; SAT 2021) extracts *definitions* for
//! existential variables that are uniquely determined by their dependencies,
//! and introduces *arbiter variables* that fix the value of an existential
//! variable for dependency valuations where it is not uniquely defined; a
//! CEGIS loop then refines the arbiter assignments from counterexamples.
//!
//! This engine keeps that architecture in a simplified form:
//!
//! 1. Padoa-based unique-definition extraction ([`manthan3_dqbf::unique`]).
//! 2. For the remaining outputs, a lazily-grown **arbiter table** per output
//!    maps dependency valuations to output values (default: constant false).
//! 3. Each CEGIS iteration verifies the current vector with the independent
//!    certificate checker; a counterexample either proves the formula false
//!    (its universal part has no extension at all) or yields new / updated
//!    arbiter entries taken from a witness extension.
//!
//! The interpolation-based definition extraction and conflict-driven arbiter
//! reasoning of the real tool are out of scope; see DESIGN.md §3.

use crate::common::BaselineResult;
use manthan3_cnf::{Lit, Var};
use manthan3_core::{Budget, Oracle, SynthesisOutcome, UnknownReason};
use manthan3_dqbf::{unique, verify, Dqbf, HenkinVector};
use manthan3_sat::{SolveResult, SolverConfig};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Budgets and switches for [`ArbiterSolver`].
#[derive(Debug, Clone, PartialEq)]
pub struct ArbiterConfig {
    /// Maximum number of CEGIS iterations.
    pub max_iterations: usize,
    /// Maximum number of arbiter entries per output (each entry is a cube
    /// over the output's dependency set).
    pub max_arbiter_entries: usize,
    /// Run unique-definition extraction first (the defining feature of the
    /// Pedant approach; disabling it degrades the engine to pure CEGIS).
    pub use_definitions: bool,
    /// Largest dependency-set size for which definitions are extracted.
    pub max_definition_deps: usize,
    /// Optional wall-clock budget.
    pub time_budget: Option<Duration>,
}

impl Default for ArbiterConfig {
    fn default() -> Self {
        ArbiterConfig {
            max_iterations: 2000,
            max_arbiter_entries: 2048,
            use_definitions: true,
            max_definition_deps: 8,
            time_budget: None,
        }
    }
}

/// The definition + arbiter baseline engine. See the
/// [crate documentation](crate).
#[derive(Debug, Clone, Default)]
pub struct ArbiterSolver {
    config: ArbiterConfig,
}

impl ArbiterSolver {
    /// Creates an engine with the given configuration.
    pub fn new(config: ArbiterConfig) -> Self {
        ArbiterSolver { config }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &ArbiterConfig {
        &self.config
    }

    /// Synthesizes a Henkin function vector for `dqbf` by definition
    /// extraction and arbiter-table CEGIS.
    ///
    /// # Panics
    ///
    /// Panics if `dqbf` fails [`Dqbf::validate`].
    pub fn synthesize(&self, dqbf: &Dqbf) -> BaselineResult {
        // All oracle calls share one budget: the oracle layer enforces the
        // engine deadline.
        self.synthesize_with_budget(dqbf, Budget::new(self.config.time_budget))
    }

    /// Like [`ArbiterSolver::synthesize`], but under an externally supplied
    /// [`Budget`] — the way a portfolio runner shares one deadline and one
    /// cancellation token across racing engines.
    ///
    /// # Panics
    ///
    /// Panics if `dqbf` fails [`Dqbf::validate`].
    pub fn synthesize_with_budget(&self, dqbf: &Dqbf, budget: Budget) -> BaselineResult {
        dqbf.validate().expect("well-formed DQBF");
        let start = Instant::now();
        let mut oracle = Oracle::new(budget);
        let finish = |outcome: SynthesisOutcome, details: String, oracle: &Oracle| BaselineResult {
            outcome,
            runtime: start.elapsed(),
            details,
            oracle: *oracle.stats(),
        };

        let mut phi_solver = oracle.new_solver();
        phi_solver.add_cnf(dqbf.matrix());
        phi_solver.ensure_vars(dqbf.num_vars());
        match oracle.solve(&mut phi_solver) {
            SolveResult::Unsat => {
                return finish(
                    SynthesisOutcome::Unrealizable,
                    "matrix is unsatisfiable".to_string(),
                    &oracle,
                )
            }
            SolveResult::Unknown => {
                return finish(
                    SynthesisOutcome::Unknown(oracle.give_up_reason()),
                    "matrix satisfiability check gave up".to_string(),
                    &oracle,
                )
            }
            SolveResult::Sat => {}
        }

        // Phase 1: definitions (SAT calls stop on the engine's cancel token,
        // like every other oracle interaction).
        let mut vector = HenkinVector::new();
        let defined: Vec<Var> = if self.config.use_definitions {
            let solver_config =
                SolverConfig::default().with_cancel(oracle.budget().cancel_token().clone());
            unique::extract_definitions_with(
                dqbf,
                &mut vector,
                self.config.max_definition_deps,
                &solver_config,
            )
        } else {
            Vec::new()
        };

        // Phase 2: arbiter tables for the undefined outputs.
        let undefined: Vec<Var> = dqbf
            .existentials()
            .iter()
            .copied()
            .filter(|y| !defined.contains(y))
            .collect();
        let deps: BTreeMap<Var, Vec<Var>> = undefined
            .iter()
            .map(|&y| (y, dqbf.dependencies(y).iter().copied().collect()))
            .collect();
        let mut tables: BTreeMap<Var, BTreeMap<Vec<bool>, bool>> =
            undefined.iter().map(|&y| (y, BTreeMap::new())).collect();

        let mut iterations = 0usize;
        loop {
            iterations += 1;
            if iterations > self.config.max_iterations {
                return finish(
                    SynthesisOutcome::Unknown(UnknownReason::IterationLimit),
                    format!(
                        "gave up after {} CEGIS iterations",
                        self.config.max_iterations
                    ),
                    &oracle,
                );
            }
            if let Some(reason) = oracle.exhausted() {
                return finish(
                    SynthesisOutcome::Unknown(reason),
                    format!("shared budget exhausted ({reason:?}) after {iterations} iterations"),
                    &oracle,
                );
            }
            // Materialize the arbiter tables into the vector.
            for &y in &undefined {
                let f = table_to_function(&mut vector, &deps[&y], &tables[&y]);
                vector.set(y, f);
            }
            // Verify.
            match verify::check(dqbf, &vector) {
                verify::CheckOutcome::Valid => {
                    let entries: usize = tables.values().map(|t| t.len()).sum();
                    return finish(
                        SynthesisOutcome::Realizable(vector),
                        format!(
                            "definitions={} arbiter_entries={entries} iterations={iterations}",
                            defined.len()
                        ),
                        &oracle,
                    );
                }
                verify::CheckOutcome::MissingFunction(_)
                | verify::CheckOutcome::DependencyViolation { .. } => {
                    unreachable!("engine always produces dependency-respecting functions")
                }
                verify::CheckOutcome::Falsified(cex) => {
                    // Does the universal part of the counterexample admit any
                    // extension at all?
                    let assumptions: Vec<Lit> = dqbf
                        .universals()
                        .iter()
                        .map(|&x| x.lit(cex.assignment.get(x).unwrap_or(false)))
                        .collect();
                    let witness = match oracle.solve_with_assumptions(&mut phi_solver, &assumptions)
                    {
                        SolveResult::Unsat => {
                            return finish(
                                SynthesisOutcome::Unrealizable,
                                format!(
                                    "universal assignment with no extension found after \
                                     {iterations} iterations"
                                ),
                                &oracle,
                            )
                        }
                        SolveResult::Unknown => {
                            return finish(
                                SynthesisOutcome::Unknown(oracle.give_up_reason()),
                                "extension check gave up".to_string(),
                                &oracle,
                            )
                        }
                        SolveResult::Sat => phi_solver.model(),
                    };
                    // Update arbiter entries from the witness extension.
                    let mut changed = false;
                    for &y in &undefined {
                        let key: Vec<bool> = deps[&y]
                            .iter()
                            .map(|&d| cex.assignment.get(d).unwrap_or(false))
                            .collect();
                        let value = witness.get(y).unwrap_or(false);
                        let table = tables.get_mut(&y).expect("table exists");
                        if table.len() >= self.config.max_arbiter_entries
                            && !table.contains_key(&key)
                        {
                            return finish(
                                SynthesisOutcome::Unknown(UnknownReason::OracleBudget),
                                "arbiter table budget exceeded".to_string(),
                                &oracle,
                            );
                        }
                        let previous = table.insert(key, value);
                        if previous != Some(value) {
                            changed = true;
                        }
                    }
                    if !changed {
                        // The witness agrees with every current table entry,
                        // yet verification failed: the arbiter abstraction
                        // cannot make progress (analogous to Pedant giving up
                        // on instances needing cross-output reasoning).
                        return finish(
                            SynthesisOutcome::Unknown(UnknownReason::RepairStuck),
                            format!("no arbiter progress after {iterations} iterations"),
                            &oracle,
                        );
                    }
                }
            }
        }
    }
}

/// Builds the DNF of all table entries mapped to `true` over the dependency
/// variables.
fn table_to_function(
    vector: &mut HenkinVector,
    deps: &[Var],
    table: &BTreeMap<Vec<bool>, bool>,
) -> manthan3_aig::AigRef {
    let mut cubes = Vec::new();
    for (key, &value) in table {
        if !value {
            continue;
        }
        let lits: Vec<_> = deps
            .iter()
            .zip(key)
            .map(|(&d, &bit)| {
                let input = vector.aig_mut().input(d.index());
                if bit {
                    input
                } else {
                    !input
                }
            })
            .collect();
        let cube = vector.aig_mut().and_list(&lits);
        cubes.push(cube);
    }
    vector.aig_mut().or_list(&cubes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use manthan3_dqbf::verify::check;

    #[test]
    fn solves_the_paper_example() {
        let dqbf = Dqbf::paper_example();
        let result = ArbiterSolver::default().synthesize(&dqbf);
        let vector = result.vector().expect("true instance");
        assert!(check(&dqbf, vector).is_valid());
        assert!(result.details.contains("definitions"));
        // The engine's SAT work went through the shared oracle layer.
        assert_eq!(result.oracle.sat_solvers_constructed, 1);
        assert!(result.oracle.sat_calls >= 1);
    }

    #[test]
    fn solves_the_xor_limitation_example() {
        let dqbf = Dqbf::xor_limitation_example();
        let result = ArbiterSolver::default().synthesize(&dqbf);
        match result.outcome {
            SynthesisOutcome::Realizable(v) => assert!(check(&dqbf, &v).is_valid()),
            // Cross-output reasoning may also defeat the simplified arbiter
            // engine; it must never misreport, though.
            SynthesisOutcome::Unknown(_) => {}
            SynthesisOutcome::Unrealizable => panic!("instance is true"),
        }
    }

    #[test]
    fn detects_false_instances() {
        let (x1, x2, y) = (Var::new(0), Var::new(1), Var::new(2));
        let mut dqbf = Dqbf::new();
        dqbf.add_universal(x1);
        dqbf.add_universal(x2);
        dqbf.add_existential(y, [x1]);
        dqbf.add_clause([y.negative(), x2.positive()]);
        dqbf.add_clause([y.positive(), x2.negative()]);
        let result = ArbiterSolver::default().synthesize(&dqbf);
        match result.outcome {
            SynthesisOutcome::Unrealizable | SynthesisOutcome::Unknown(_) => {}
            SynthesisOutcome::Realizable(_) => panic!("false instance cannot be realizable"),
        }
    }

    #[test]
    fn detects_matrix_level_falsity() {
        let (x, y) = (Var::new(0), Var::new(1));
        let mut dqbf = Dqbf::new();
        dqbf.add_universal(x);
        dqbf.add_existential(y, [x]);
        dqbf.add_clause([y.positive()]);
        dqbf.add_clause([y.negative()]);
        let result = ArbiterSolver::default().synthesize(&dqbf);
        assert!(matches!(result.outcome, SynthesisOutcome::Unrealizable));
    }

    #[test]
    fn definition_heavy_instances_need_no_arbiters() {
        // Every output is a gate of its dependencies: Pedant-style extraction
        // solves this without a single CEGIS refinement.
        let x: Vec<Var> = (0..3).map(Var::new).collect();
        let y1 = Var::new(3);
        let y2 = Var::new(4);
        let mut dqbf = Dqbf::new();
        for &xi in &x {
            dqbf.add_universal(xi);
        }
        dqbf.add_existential(y1, [x[0], x[1]]);
        dqbf.add_existential(y2, [x[1], x[2]]);
        // y1 ↔ (x1 ∧ x2), y2 ↔ (x2 ∨ x3)
        dqbf.add_clause([y1.negative(), x[0].positive()]);
        dqbf.add_clause([y1.negative(), x[1].positive()]);
        dqbf.add_clause([y1.positive(), x[0].negative(), x[1].negative()]);
        dqbf.add_clause([y2.negative(), x[1].positive(), x[2].positive()]);
        dqbf.add_clause([y2.positive(), x[1].negative()]);
        dqbf.add_clause([y2.positive(), x[2].negative()]);
        let result = ArbiterSolver::default().synthesize(&dqbf);
        let vector = result.vector().expect("true instance");
        assert!(check(&dqbf, vector).is_valid());
        assert!(result.details.contains("definitions=2"));
        assert!(result.details.contains("arbiter_entries=0"));
    }

    #[test]
    fn respects_iteration_budget() {
        let dqbf = Dqbf::paper_example();
        let config = ArbiterConfig {
            max_iterations: 0,
            use_definitions: false,
            ..ArbiterConfig::default()
        };
        let result = ArbiterSolver::new(config).synthesize(&dqbf);
        assert!(matches!(
            result.outcome,
            SynthesisOutcome::Unknown(UnknownReason::IterationLimit)
        ));
    }
}
