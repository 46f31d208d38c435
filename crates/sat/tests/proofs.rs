//! End-to-end certification round trips: every UNSAT verdict the solver
//! produces under proof logging must yield a certificate the independent
//! `manthan3-drat` checker accepts, across level-0 refutations,
//! assumption-scoped verdicts, learning, restarts, and database maintenance.

use manthan3_cnf::Lit;
use manthan3_drat::{check, parse_text_proof, CheckOutcome, Proof, ProofStep};
use manthan3_sat::{SolveResult, Solver, SolverConfig};

fn logging_solver(config: SolverConfig) -> Solver {
    Solver::with_config(config.with_proof_logging(true))
}

fn lit(d: i64) -> Lit {
    Lit::from_dimacs(d)
}

fn parse_certificate(proof_bytes: &[u8]) -> Proof {
    let text = std::str::from_utf8(proof_bytes).expect("text-DRAT proofs are ASCII");
    parse_text_proof(text).expect("solver emits well-formed proofs")
}

/// Checks a certificate with the independent checker, returning the outcome.
fn check_certificate(cert: &manthan3_sat::Certificate) -> CheckOutcome {
    check(&cert.dimacs_cnf(), &parse_certificate(&cert.proof))
}

fn assert_verified(cert: &manthan3_sat::Certificate) {
    match check_certificate(cert) {
        CheckOutcome::Verified(_) => {}
        other => panic!("certificate rejected: {other:?}"),
    }
}

/// Pigeonhole principle PHP(holes + 1, holes): unsatisfiable, and hard
/// enough to force genuine clause learning.
fn pigeonhole(solver: &mut Solver, holes: usize) {
    let pigeons = holes + 1;
    let var = |p: usize, h: usize| lit((p * holes + h + 1) as i64);
    for p in 0..pigeons {
        solver.add_clause((0..holes).map(|h| var(p, h)));
    }
    for h in 0..holes {
        for p1 in 0..pigeons {
            for p2 in (p1 + 1)..pigeons {
                solver.add_clause([!var(p1, h), !var(p2, h)]);
            }
        }
    }
}

#[test]
fn level0_refutation_certificate_checks_out() {
    let mut s = logging_solver(SolverConfig::default());
    s.add_clause([lit(1), lit(2)]);
    s.add_clause([lit(1), lit(-2)]);
    s.add_clause([lit(-1), lit(2)]);
    s.add_clause([lit(-1), lit(-2)]);
    assert_eq!(s.solve(), SolveResult::Unsat);
    let cert = s.certificate().expect("unsat verdict yields a certificate");
    assert!(cert.adds > 0);
    assert_verified(&cert);
}

#[test]
fn assumption_scoped_certificate_needs_its_assumptions() {
    let mut s = logging_solver(SolverConfig::default());
    // Satisfiable chain: 1 → 2 → 3, plus ¬1 ∨ ¬3.
    s.add_clause([lit(-1), lit(2)]);
    s.add_clause([lit(-2), lit(3)]);
    s.add_clause([lit(-1), lit(-3)]);
    assert_eq!(s.solve_with_assumptions(&[lit(1)]), SolveResult::Unsat);
    let cert = s.certificate().expect("unsat verdict yields a certificate");
    // The assumption appears as a unit clause of the certificate CNF.
    assert!(cert.dimacs_cnf().contains(&vec![1]));
    assert_verified(&cert);
    // Scoping control: without the assumption units the formula is
    // satisfiable and the same proof must NOT check out.
    let mut unscoped = cert.clone();
    unscoped.cnf.retain(|c| c.len() > 1);
    assert!(!matches!(
        check_certificate(&unscoped),
        CheckOutcome::Verified(_)
    ));
    // A SAT verdict withdraws the certificate.
    assert_eq!(s.solve(), SolveResult::Sat);
    assert!(s.certificate().is_none());
}

#[test]
fn pigeonhole_certificate_survives_learning() {
    let mut s = logging_solver(SolverConfig::default());
    pigeonhole(&mut s, 4);
    assert_eq!(s.solve(), SolveResult::Unsat);
    let cert = s.certificate().expect("unsat verdict yields a certificate");
    assert_verified(&cert);
}

#[test]
fn incremental_session_certificates_survive_maintenance() {
    let mut s = logging_solver(SolverConfig::default());
    pigeonhole(&mut s, 3);
    // Guarded side constraint retired mid-session, with maintenance passes
    // (reduction, simplification) between the solve calls —
    // the persistent proof log must absorb all of their clause traffic.
    let a = s.new_activation_lit();
    let extra = lit((3 * 4 + 1) as i64);
    s.add_guarded_clause(a, [extra]);
    assert_eq!(s.solve_with_assumptions(&[a]), SolveResult::Unsat);
    let cert = s.certificate().expect("first unsat certificate");
    assert_verified(&cert);
    s.maintain();
    s.retire_activation(a);
    assert_eq!(s.solve_with_assumptions(&[a, extra]), SolveResult::Unsat);
    let cert = s.certificate().expect("second unsat certificate");
    assert_verified(&cert);
}

#[test]
fn add_clause_preprocessing_is_logged() {
    let mut s = logging_solver(SolverConfig::default());
    s.add_clause([lit(1)]);
    // Duplicated, unsorted, and carrying a literal falsified at level 0:
    // the processed form is logged as an add/delete pair against the
    // caller's original.
    s.add_clause([lit(3), lit(-1), lit(2), lit(3)]);
    s.add_clause([lit(-2), lit(-3)]);
    s.add_clause([lit(2), lit(-3)]);
    s.add_clause([lit(-2), lit(3)]);
    assert_eq!(s.solve(), SolveResult::Unsat);
    let cert = s.certificate().expect("unsat verdict yields a certificate");
    assert!(cert.dimacs_cnf().contains(&vec![3, -1, 2, 3]));
    assert_verified(&cert);
}

#[test]
fn mutated_or_truncated_proofs_are_rejected() {
    let mut s = logging_solver(SolverConfig::default());
    pigeonhole(&mut s, 3);
    assert_eq!(s.solve(), SolveResult::Unsat);
    let cert = s.certificate().expect("unsat verdict yields a certificate");
    let cnf = cert.dimacs_cnf();
    let mut proof = parse_certificate(&cert.proof);
    assert!(matches!(check(&cnf, &proof), CheckOutcome::Verified(_)));
    // The checker stops at the first empty-clause addition (a level-0
    // refutation logs one permanently; the certificate tail appends a
    // harmless duplicate), so mutations must target that step. Dropping
    // everything after it keeps the proof valid…
    let first_empty = proof
        .steps
        .iter()
        .position(|s| matches!(s, ProofStep::Add(lits) if lits.is_empty()))
        .expect("refutation proofs derive the empty clause");
    proof.steps.truncate(first_empty + 1);
    assert!(matches!(check(&cnf, &proof), CheckOutcome::Verified(_)));
    // …corrupting it breaks the derivation (a fresh pure literal can be
    // admitted, but the empty clause is never derived)…
    proof.steps[first_empty] = ProofStep::Add(vec![9_999]);
    assert!(!matches!(check(&cnf, &proof), CheckOutcome::Verified(_)));
    // …and truncating it away drops the refutation entirely.
    proof.steps.truncate(first_empty);
    assert!(!matches!(check(&cnf, &proof), CheckOutcome::Verified(_)));
}

#[test]
fn proof_accounting_is_exposed_and_logging_off_by_default() {
    let mut on = logging_solver(SolverConfig::default());
    let mut off = Solver::new();
    for s in [&mut on, &mut off] {
        pigeonhole(s, 3);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }
    assert!(on.proof_len() > 0);
    let (adds, _deletes) = on.proof_steps();
    assert!(adds > 0);
    assert_eq!(off.proof_len(), 0);
    assert_eq!(off.proof_steps(), (0, 0));
    assert!(off.certificate().is_none());
    // In debug builds every SAT verdict is re-verified against the clause
    // database (none here: both verdicts were UNSAT).
    assert_eq!(on.stats().models_verified, 0);
}

#[test]
fn debug_builds_verify_sat_models() {
    let mut s = Solver::new();
    s.add_clause([lit(1), lit(2)]);
    s.add_clause([lit(-1), lit(2)]);
    assert_eq!(s.solve(), SolveResult::Sat);
    let expected = u64::from(cfg!(debug_assertions));
    assert_eq!(s.stats().models_verified, expected);
}

mod random_certificates {
    use super::*;
    use proptest::prelude::*;

    /// Short clauses over few variables: dense enough that most draws are
    /// unsatisfiable (exercising the refutation path), with enough SAT
    /// draws left to exercise certificate withdrawal. Literals are drawn as
    /// (variable, sign) pairs, matching the vendored proptest's API.
    fn clauses() -> impl Strategy<Value = Vec<Vec<i64>>> {
        collection::vec(
            collection::vec((1i64..=6, any::<bool>()), 1..=3),
            8..40usize,
        )
        .prop_map(|cnf| {
            cnf.into_iter()
                .map(|clause| {
                    clause
                        .into_iter()
                        .map(|(v, pos)| if pos { v } else { -v })
                        .collect()
                })
                .collect()
        })
    }

    /// Distinct variables with independent signs — assumption sets free of
    /// internal `x`/`¬x` contradictions (last-drawn sign wins per variable).
    fn assumptions() -> impl Strategy<Value = Vec<i64>> {
        collection::vec((1i64..=6, any::<bool>()), 1..=3).prop_map(|draws| {
            let signed: std::collections::BTreeMap<i64, bool> = draws.into_iter().collect();
            signed
                .into_iter()
                .map(|(v, pos)| if pos { v } else { -v })
                .collect()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Every UNSAT verdict under proof logging yields a certificate the
        /// independent checker accepts — and directed, guaranteed-breaking
        /// mutations of that proof are rejected. (Sign flips can survive via
        /// vacuous-RAT pure-literal admission, so the mutations corrupt the
        /// first empty-clause addition — the step the checker stops at —
        /// with a fresh pure literal, then drop the refutation entirely.)
        #[test]
        fn random_unsat_runs_round_trip_and_resist_mutation(cnf in clauses()) {
            let mut s = logging_solver(SolverConfig::default());
            for clause in &cnf {
                s.add_clause(clause.iter().map(|&d| lit(d)));
            }
            match s.solve() {
                SolveResult::Unsat => {
                    let cert = s.certificate().expect("unsat verdict yields a certificate");
                    let dimacs = cert.dimacs_cnf();
                    let mut proof = parse_certificate(&cert.proof);
                    prop_assert!(
                        matches!(check(&dimacs, &proof), CheckOutcome::Verified(_)),
                        "pristine certificate rejected"
                    );
                    let first_empty = proof
                        .steps
                        .iter()
                        .position(|s| matches!(s, ProofStep::Add(lits) if lits.is_empty()))
                        .expect("refutation proofs derive the empty clause");
                    // Drop the tail past the first refutation before
                    // corrupting it — a later duplicate empty-clause step
                    // would otherwise still carry the proof.
                    proof.steps.truncate(first_empty + 1);
                    prop_assert!(
                        matches!(check(&dimacs, &proof), CheckOutcome::Verified(_)),
                        "tailless certificate rejected"
                    );
                    proof.steps[first_empty] = ProofStep::Add(vec![9_999]);
                    prop_assert!(
                        !matches!(check(&dimacs, &proof), CheckOutcome::Verified(_)),
                        "corrupted refutation accepted"
                    );
                    proof.steps.truncate(first_empty);
                    prop_assert!(
                        !matches!(check(&dimacs, &proof), CheckOutcome::Verified(_)),
                        "truncated refutation accepted"
                    );
                }
                SolveResult::Sat => prop_assert!(s.certificate().is_none()),
                other => prop_assert!(false, "unbudgeted solve returned {other:?}"),
            }
        }

        /// Assumption-scoped UNSAT verdicts certify against the formula plus
        /// one unit per assumption of the failing call. When the refutation
        /// is independent of the assumptions (the database is permanently
        /// refuted) the certificate needs no assumption units; otherwise
        /// every assumption of the call appears as a unit clause.
        #[test]
        fn random_assumption_verdicts_scope_into_the_certificate(
            cnf in clauses(),
            assumed in assumptions(),
        ) {
            let mut s = logging_solver(SolverConfig::default());
            for clause in &cnf {
                s.add_clause(clause.iter().map(|&d| lit(d)));
            }
            let lits: Vec<Lit> = assumed.iter().map(|&d| lit(d)).collect();
            match s.solve_with_assumptions(&lits) {
                SolveResult::Unsat => {
                    let cert = s.certificate().expect("unsat verdict yields a certificate");
                    let dimacs = cert.dimacs_cnf();
                    if !s.is_known_unsat() {
                        for &d in &assumed {
                            prop_assert!(
                                dimacs.contains(&vec![d as i32]),
                                "assumption {d} missing from the certificate CNF"
                            );
                        }
                    }
                    prop_assert!(
                        matches!(check(&dimacs, &parse_certificate(&cert.proof)),
                            CheckOutcome::Verified(_)),
                        "assumption-scoped certificate rejected"
                    );
                }
                SolveResult::Sat => prop_assert!(s.certificate().is_none()),
                other => prop_assert!(false, "unbudgeted solve returned {other:?}"),
            }
        }
    }
}
