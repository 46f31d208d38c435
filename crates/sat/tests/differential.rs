//! Differential property tests against an independent reference: on random
//! CNF formulas of at most 16 variables, every verdict of an incremental
//! session — a plain solve, then assumption solves with inter-call
//! maintenance in between — must match brute-force enumeration over all
//! assignments, with proof logging off and on. Every SAT model must satisfy
//! the formula and the call's assumptions, and every UNSAT verdict, re-run
//! with proof logging on, must come with a certificate the independent
//! `manthan3-drat` checker accepts.

use manthan3_cnf::{Cnf, Lit, Var};
use manthan3_drat::{check, parse_text_proof, CheckOutcome};
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

/// Accepts an UNSAT verdict's certificate only if the independent checker
/// verifies its proof and its CNF is the formula plus assumption units.
fn assert_certified(solver: &Solver, cnf: &Cnf, assumptions: &[Lit]) {
    let cert = solver
        .certificate()
        .expect("unsat verdict yields a certificate");
    for clause in &cert.cnf {
        let from_formula = cnf.iter().any(|c| c.lits() == clause.as_slice());
        let assumed = clause.len() == 1 && assumptions.contains(&clause[0]);
        assert!(
            from_formula || assumed,
            "certificate clause {clause:?} is not an input"
        );
    }
    let text = std::str::from_utf8(&cert.proof).expect("text-DRAT proofs are ASCII");
    let proof = parse_text_proof(text).expect("solver emits well-formed proofs");
    match check(&cert.dimacs_cnf(), &proof) {
        CheckOutcome::Verified(_) => {}
        other => panic!("certificate rejected: {other:?}"),
    }
}

/// Runs the session's calls under `config`, with maintenance (reduction,
/// simplification, inprocessing) between them, and checks every verdict
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
            solver.reduce_learnt_db();
            solver.simplify();
            solver.inprocess();
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
