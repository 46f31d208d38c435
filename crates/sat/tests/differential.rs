//! Differential property tests against an independent reference: on random
//! CNF formulas of at most 16 variables, every verdict of an incremental
//! session — a plain solve, then assumption solves with inter-call
//! maintenance in between — must match brute-force enumeration over all
//! assignments, with proof logging off and on. Every SAT model must satisfy
//! the formula and the call's assumptions, and every UNSAT verdict, re-run
//! with proof logging on, must come with a certificate the independent
//! `manthan3-drat` checker accepts. A second session keeps one proof-logging
//! solver busy on guarded pigeonhole rounds until its VSIDS activities have
//! been rescaled, under the same checks.

use manthan3_cnf::{Cnf, Lit, Var};
use manthan3_drat::{check, CheckOutcome, ProofStep};
use manthan3_sat::{SolveResult, Solver, SolverConfig};
use proptest::prelude::*;

/// A random formula in the mixed SAT/UNSAT regime: short clauses over few
/// variables, so unit propagation alone rarely settles the verdict.
fn formula() -> impl Strategy<Value = Cnf> {
    // Literal indices are drawn from the full 0..16 range and folded into the
    // drawn variable count with a modulus, since the vendored proptest has no
    // `prop_flat_map` to make one range depend on another.
    (
        4u32..=16,
        collection::vec(collection::vec((0u32..16, any::<bool>()), 1..=3), 8..=72),
    )
        .prop_map(|(num_vars, clauses)| {
            let mut cnf = Cnf::new(num_vars as usize);
            for clause in clauses {
                cnf.add_clause(
                    clause
                        .into_iter()
                        .map(|(v, polarity)| Var::new(v % num_vars).lit(polarity)),
                );
            }
            cnf
        })
}

/// The assumptions of the session's calls: a plain solve, then two
/// assumption solves.
fn calls() -> [Vec<Lit>; 3] {
    [
        Vec::new(),
        vec![Var::new(0).positive()],
        vec![Var::new(0).negative(), Var::new(1).positive()],
    ]
}

/// A clause as a pair of bit masks over the variables: the positive and the
/// negative literals it contains.
fn masks(lits: &[Lit]) -> (u32, u32) {
    lits.iter().fold((0, 0), |(pos, neg), lit| {
        let bit = 1 << lit.var().index();
        if lit.is_positive() {
            (pos | bit, neg)
        } else {
            (pos, neg | bit)
        }
    })
}

/// Decides `cnf` plus one unit clause per assumption by enumerating every
/// assignment.
fn brute_force(cnf: &Cnf, assumptions: &[Lit]) -> SolveResult {
    let clauses: Vec<(u32, u32)> = cnf
        .iter()
        .map(|c| masks(c.lits()))
        .chain(assumptions.iter().map(|&a| masks(&[a])))
        .collect();
    let satisfiable = (0u32..1 << cnf.num_vars()).any(|bits| {
        clauses
            .iter()
            .all(|&(pos, neg)| bits & pos != 0 || !bits & neg != 0)
    });
    if satisfiable {
        SolveResult::Sat
    } else {
        SolveResult::Unsat
    }
}

/// Decides `cnf` by enumerating assignments in variable order, abandoning a
/// prefix as soon as it falsifies a clause whose variables it fully assigns.
/// Only falsified clauses prune, so this is exhaustive like [`brute_force`],
/// but it reaches formulas over more variables than a bit mask holds when
/// most prefixes die early.
fn exhaustive(cnf: &Cnf) -> SolveResult {
    // Each clause is checked once, at the variable that completes it.
    let mut completed_by: Vec<Vec<Vec<Lit>>> = vec![Vec::new(); cnf.num_vars()];
    for clause in cnf.iter() {
        let last = clause.lits().iter().map(|l| l.var().index()).max();
        completed_by[last.expect("no empty clauses")].push(clause.lits().to_vec());
    }
    fn extend(values: &mut Vec<bool>, completed_by: &[Vec<Vec<Lit>>]) -> bool {
        let Some(clauses) = completed_by.get(values.len()) else {
            return true;
        };
        for value in [false, true] {
            values.push(value);
            let consistent = clauses
                .iter()
                .all(|c| c.iter().any(|l| values[l.var().index()] == l.is_positive()));
            if consistent && extend(values, completed_by) {
                return true;
            }
            values.pop();
        }
        false
    }
    if extend(&mut Vec::new(), &completed_by) {
        SolveResult::Sat
    } else {
        SolveResult::Unsat
    }
}

/// Accepts an UNSAT verdict's certificate only if the independent checker
/// verifies its proof and its CNF is the formula plus assumption units.
fn assert_certified(solver: &Solver, cnf: &Cnf, assumptions: &[Lit]) {
    let cert = solver
        .certificate()
        .expect("unsat verdict yields a certificate");
    let dimacs = |lits: &[Lit]| -> Vec<i32> { lits.iter().map(|l| l.to_dimacs() as i32).collect() };
    for clause in cert.cnf() {
        let from_formula = cnf.iter().any(|c| dimacs(c.lits()) == clause);
        let assumed = clause.len() == 1 && dimacs(assumptions).contains(&clause[0]);
        assert!(
            from_formula || assumed,
            "certificate clause {clause:?} is not an input"
        );
    }
    let steps = cert.steps().map(ProofStep::from);
    match check(cert.cnf(), steps, || false) {
        CheckOutcome::Verified(_) => {}
        other => panic!("certificate rejected: {other:?}"),
    }
}

/// Runs the session's calls under `config`, with maintenance (reduction,
/// simplification) between them, and checks every verdict
/// against the brute-force `expected` one, every SAT model against the
/// formula and the assumptions, and — when `config` logs proofs — every
/// UNSAT certificate.
fn session(cnf: &Cnf, config: SolverConfig, expected: &[SolveResult]) -> Result<(), TestCaseError> {
    let logging = config.proof_logging;
    let mut solver = Solver::with_config(config);
    solver.add_cnf(cnf);
    solver.ensure_vars(cnf.num_vars());
    for (call, (assumptions, &want)) in calls().iter().zip(expected).enumerate() {
        if call > 0 {
            solver.maintain();
        }
        let verdict = solver.solve_with_assumptions(assumptions);
        prop_assert!(
            verdict == want,
            "call {call} (proof logging {logging}): {verdict:?}, brute force says {want:?}"
        );
        match verdict {
            SolveResult::Sat => {
                let model = solver.model();
                prop_assert!(cnf.eval(&model), "SAT model violates the formula");
                prop_assert!(
                    assumptions.iter().all(|&a| model.lit_value(a)),
                    "SAT model violates an assumption"
                );
            }
            SolveResult::Unsat if logging => assert_certified(&solver, cnf, assumptions),
            _ => {}
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// With and without proof logging, the session agrees with brute force
    /// on every verdict.
    #[test]
    fn proof_logging_matrix_agrees_with_brute_force(cnf in formula()) {
        let expected: Vec<SolveResult> = calls().iter().map(|a| brute_force(&cnf, a)).collect();
        for proof_logging in [false, true] {
            let config = SolverConfig {
                // Tiny threshold so reductions actually run on these small
                // formulas.
                first_reduce_db: 2,
                proof_logging,
                ..SolverConfig::default()
            };
            session(&cnf, config, &expected)?;
        }
    }
}

/// The pigeonhole formula with `holes + 1` pigeons, variable
/// `pigeon * holes + hole` meaning "the pigeon sits in the hole": no two
/// pigeons share a hole, and every pigeon but the last sits somewhere. The
/// second value is the last pigeon's at-least-one clause; adding it makes
/// the formula unsatisfiable, and refuting it takes hundreds of conflicts.
fn pigeonhole(holes: usize) -> (Cnf, Vec<Lit>) {
    let var = |pigeon: usize, hole: usize| Var::new((pigeon * holes + hole) as u32);
    let mut cnf = Cnf::new((holes + 1) * holes);
    for pigeon in 0..holes {
        cnf.add_clause((0..holes).map(|hole| var(pigeon, hole).positive()));
    }
    for hole in 0..holes {
        for p in 0..=holes {
            for q in p + 1..=holes {
                cnf.add_clause([var(p, hole).negative(), var(q, hole).negative()]);
            }
        }
    }
    let last = (0..holes).map(|hole| var(holes, hole).positive()).collect();
    (cnf, last)
}

/// One proof-logging solver serves guarded rounds of the 7-pigeon, 6-hole
/// formula until it has seen more than 4,600 conflicts. Every conflict
/// divides the VSIDS decay factor (0.95) into the activity increment, so by
/// then the increment has passed 1e100 and the solver has rescaled every
/// activity at least once. Each round adds the formula under a fresh
/// activation literal and the last pigeon's clause under a second one,
/// solves once without that clause (SAT) and once with it (UNSAT), then
/// retires both activations and runs session maintenance. Every verdict must
/// match exhaustive enumeration, every model must satisfy the round's
/// formula, and every UNSAT certificate must pass the independent checker.
#[test]
fn verdicts_survive_an_activity_rescale() {
    let (cnf, last) = pigeonhole(6);
    let mut with_last = cnf.clone();
    with_last.add_clause(last.iter().copied());
    let expected = [exhaustive(&cnf), exhaustive(&with_last)];
    assert_eq!(expected, [SolveResult::Sat, SolveResult::Unsat]);

    let mut solver = Solver::with_config(SolverConfig {
        proof_logging: true,
        ..SolverConfig::default()
    });
    solver.ensure_vars(cnf.num_vars());
    // Every clause given to the solver, as given: the certificate's CNF.
    let mut inputs = Cnf::new(cnf.num_vars());
    let mut rounds = 0;
    while solver.stats().conflicts <= 4_600 {
        rounds += 1;
        assert!(
            rounds <= 40,
            "too few conflicts per round to reach a rescale"
        );
        let formula = solver.new_activation_lit();
        let pigeon = solver.new_activation_lit();
        let guarded = cnf
            .iter()
            .map(|c| (formula, c.lits()))
            .chain(std::iter::once((pigeon, last.as_slice())));
        for (activation, lits) in guarded {
            let clause: Vec<Lit> = std::iter::once(!activation)
                .chain(lits.iter().copied())
                .collect();
            solver.add_clause(clause.iter().copied());
            inputs.add_clause(clause);
        }
        for (assumptions, want) in [vec![formula], vec![formula, pigeon]].iter().zip(expected) {
            let verdict = solver.solve_with_assumptions(assumptions);
            assert_eq!(verdict, want, "round {rounds}, assumptions {assumptions:?}");
            if verdict == SolveResult::Sat {
                let model = solver.model();
                assert!(cnf.eval(&model), "SAT model violates the formula");
                assert!(assumptions.iter().all(|&a| model.lit_value(a)));
            } else {
                assert_certified(&solver, &inputs, assumptions);
            }
        }
        for activation in [formula, pigeon] {
            solver.retire_activation(activation);
            inputs.add_clause([!activation]);
        }
        solver.maintain();
    }
}
