//! End-to-end certification round trips: every UNSAT verdict the solver
//! produces under proof logging must yield a certificate the independent
//! `manthan3-drat` checker accepts, across level-0 refutations,
//! assumption-scoped verdicts, learning, restarts, and database maintenance.
//! The checker reads the solver's integer log directly; the text files the
//! `manthan3-drat` writers render from it must round-trip too.
//!
//! Every certificate is checked twice, by the one-shot `check` and by a
//! checking `Session`, and both must reach the same verdict. A session
//! never accepts what `check` rejects: mutated logs whose certificate
//! `check` rejects must be rejected by the session as well.

use manthan3_cnf::Lit;
use manthan3_drat::{
    check, parse_dimacs, parse_text_proof, write_dimacs, write_text_proof, CheckOutcome, Proof,
    ProofStep, Session,
};
use manthan3_sat::{Certificate, LogPosition, SolveResult, Solver, SolverConfig};

fn logging_solver(config: SolverConfig) -> Solver {
    Solver::with_config(config.with_proof_logging(true))
}

fn lit(d: i64) -> Lit {
    Lit::from_dimacs(d)
}

/// A certificate's CNF and proof copied into owned values, for tests that
/// mutate them.
fn owned(cert: Certificate<'_>) -> (Vec<Vec<i32>>, Proof) {
    let cnf = cert.cnf().map(<[i32]>::to_vec).collect();
    let steps = cert.steps().map(|(d, lits)| (d, lits.to_vec()).into());
    (
        cnf,
        Proof {
            steps: steps.collect(),
        },
    )
}

/// A literal no test formula uses.
const FRESH: i32 = 9_999;

/// Checks a certificate in place with the one-shot checker and with a new
/// session (the oracle's path for a log's first certificate), requiring the
/// same verdict from both.
fn check_certificate(cert: Certificate<'_>) -> CheckOutcome {
    let one_shot = check(cert.cnf(), cert.steps().map(ProofStep::from), || false);
    let start = LogPosition::default();
    let session = Session::new().advance(
        cert.originals_since(start),
        cert.steps_since(start).map(ProofStep::from),
        cert.assumptions(),
        || false,
    );
    assert_eq!(
        one_shot.is_verified(),
        session.is_verified(),
        "one-shot {one_shot:?} vs session {session:?}"
    );
    one_shot
}

/// The one-shot and the session verdict on `cert` with the log's steps
/// since `from` replaced by `suffix`. The session is a clone of `base`,
/// which has read the log up to `from`; the one-shot check gets the
/// certificate form: the whole log, then the empty-clause tail.
fn verdicts_on(
    base: &Session,
    from: LogPosition,
    cert: Certificate<'_>,
    suffix: &[ProofStep],
) -> (bool, bool) {
    let start = LogPosition::default();
    let prefix = cert.steps_since(start).count() - cert.steps_since(from).count();
    let tail = std::iter::once(ProofStep::Add(&[][..]));
    let steps = (cert.steps_since(start).take(prefix).map(ProofStep::from))
        .chain(suffix.iter().map(ProofStep::as_slice))
        .chain(tail);
    let one_shot = check(cert.cnf(), steps, || false).is_verified();
    let steps = suffix.iter().map(ProofStep::as_slice);
    let session = (base.clone())
        .advance(
            cert.originals_since(from),
            steps,
            cert.assumptions(),
            || false,
        )
        .is_verified();
    (one_shot, session)
}

/// Drops each lemma the log gained since `from` in turn, and replaces it
/// by a fresh pure literal (which the one-shot check admits as RAT); then
/// drops the verdict's assumptions. A session that has read the log up to
/// `from` must never accept a mutated certificate the one-shot check
/// rejects. Returns the number of mutations the one-shot check rejects:
/// each drops or corrupts a needed lemma, or needed assumptions.
fn assert_session_rejects_broken_logs(
    base: &Session,
    from: LogPosition,
    cert: Certificate<'_>,
) -> usize {
    let suffix: Vec<ProofStep> = cert
        .steps_since(from)
        .map(|(d, lits)| (d, lits.to_vec()).into())
        .collect();
    let mut rejected = 0;
    for (i, step) in suffix.iter().enumerate() {
        if !matches!(step, ProofStep::Add(_)) {
            continue;
        }
        let mut dropped = suffix.clone();
        dropped.remove(i);
        let mut corrupted = suffix.clone();
        corrupted[i] = ProofStep::Add(vec![FRESH]);
        for mutated in [dropped, corrupted] {
            let (one_shot, session) = verdicts_on(base, from, cert, &mutated);
            assert!(
                one_shot || !session,
                "session accepted a log the one-shot check rejects (new step {i} mutated)"
            );
            rejected += usize::from(!one_shot);
        }
    }
    // The same log under a verdict without its assumptions.
    let start = LogPosition::default();
    let one_shot = check(
        cert.originals_since(start),
        cert.steps().map(ProofStep::from),
        || false,
    )
    .is_verified();
    let session = (base.clone())
        .advance(
            cert.originals_since(from),
            cert.steps_since(from).map(ProofStep::from),
            &[],
            || false,
        )
        .is_verified();
    assert!(
        one_shot || !session,
        "session accepted a verdict without its assumptions"
    );
    rejected + usize::from(!one_shot)
}

/// Advances `session` over what `cert`'s log gained since `read`, requires
/// the verdict, and moves `read` to the end of the log. Returns the steps
/// the advance checked.
fn advance(session: &mut Session, read: &mut LogPosition, cert: Certificate<'_>) -> usize {
    let outcome = session.advance(
        cert.originals_since(*read),
        cert.steps_since(*read).map(ProofStep::from),
        cert.assumptions(),
        || false,
    );
    let CheckOutcome::Verified(stats) = outcome else {
        panic!("session rejected a verdict: {outcome:?}");
    };
    *read = cert.end();
    stats.steps_checked
}

fn assert_verified(cert: Certificate<'_>) {
    match check_certificate(cert) {
        CheckOutcome::Verified(_) => {}
        other => panic!("certificate rejected: {other:?}"),
    }
}

/// Pigeonhole principle PHP(holes + 1, holes): unsatisfiable, and hard
/// enough to force genuine clause learning.
fn pigeonhole(solver: &mut Solver, holes: usize) {
    guarded_pigeonhole(solver, holes, 0, None);
}

/// PHP(holes + 1, holes) over the variables after `offset`, every clause
/// guarded by `guard` when one is given.
fn guarded_pigeonhole(solver: &mut Solver, holes: usize, offset: usize, guard: Option<Lit>) {
    let pigeons = holes + 1;
    let var = |p: usize, h: usize| lit((offset + p * holes + h + 1) as i64);
    let mut add = |clause: Vec<Lit>| solver.add_clause(guard.map(|g| !g).into_iter().chain(clause));
    for p in 0..pigeons {
        add((0..holes).map(|h| var(p, h)).collect());
    }
    for h in 0..holes {
        for p1 in 0..pigeons {
            for p2 in (p1 + 1)..pigeons {
                add(vec![!var(p1, h), !var(p2, h)]);
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
    assert!(cert.step_counts().0 > 0);
    assert_verified(cert);
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
    assert!(cert.cnf().any(|c| c == [1]));
    assert_verified(cert);
    // Scoping control: without the assumption units the formula is
    // satisfiable and the same proof must NOT check out.
    let unscoped = cert.cnf().filter(|c| c.len() > 1);
    assert!(!check(unscoped, cert.steps().map(ProofStep::from), || false).is_verified());
    assert_eq!(
        assert_session_rejects_broken_logs(&Session::new(), LogPosition::default(), cert),
        1,
        "only the unscoped verdict breaks this certificate"
    );
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
    assert_verified(cert);
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
    assert_verified(cert);
    s.maintain();
    s.retire_activation(a);
    assert_eq!(s.solve_with_assumptions(&[a, extra]), SolveResult::Unsat);
    let cert = s.certificate().expect("second unsat certificate");
    assert_verified(cert);
}

/// One session follows a solver through several assumption-scoped
/// verdicts, with new original clauses and a maintenance pass (deletions)
/// between them. Each verdict advances the session over what the log
/// gained, and each also passes a fresh one-shot `check`. Dropping or
/// corrupting a needed lemma is rejected by the advancing session too.
#[test]
fn one_session_certifies_every_verdict_of_a_solver() {
    let mut s = logging_solver(SolverConfig::default());
    let (g, h) = (lit(100), lit(101));
    let mut session = Session::new();
    let mut read = LogPosition::default();
    let mut checked = 0;

    guarded_pigeonhole(&mut s, 3, 0, Some(g));
    assert_eq!(s.solve_with_assumptions(&[g]), SolveResult::Unsat);
    let cert = s.certificate().expect("first unsat certificate");
    assert_verified(cert);
    checked += advance(&mut session, &mut read, cert);

    // New original clauses, and a verdict that needs them.
    let (after_first, first_read) = (session.clone(), read);
    guarded_pigeonhole(&mut s, 3, 12, Some(h));
    assert_eq!(s.solve_with_assumptions(&[h]), SolveResult::Unsat);
    let cert = s.certificate().expect("second unsat certificate");
    assert_verified(cert);
    assert!(assert_session_rejects_broken_logs(&after_first, first_read, cert) > 0);
    checked += advance(&mut session, &mut read, cert);

    // Retiring `g` satisfies its clauses, so maintenance deletes them.
    let deletes_before = s.proof_steps().1;
    s.retire_activation(g);
    s.maintain();
    assert!(s.proof_steps().1 > deletes_before);
    for assumed in [[h, lit(1)], [g, h]] {
        assert_eq!(s.solve_with_assumptions(&assumed), SolveResult::Unsat);
        let cert = s.certificate().expect("later unsat certificate");
        assert_verified(cert);
        checked += advance(&mut session, &mut read, cert);
    }

    // Every log step was checked once, across all four verdicts.
    let (adds, deletes) = s.proof_steps();
    assert_eq!(checked as u64, adds + deletes);
}

/// A solver that swaps guarded generations frees them on its own: the
/// solve after the 32nd retirement opens with a maintenance pass, with no
/// `maintain()` call. The retired generations' clauses leave the database,
/// their deletions reach the log, and every certificate before and after
/// the pass verifies with `check`, with a fresh session and with one
/// session that follows the whole log.
#[test]
fn the_solve_after_32_retirements_frees_the_retired_generations() {
    let mut s = logging_solver(SolverConfig::default());
    let mut session = Session::new();
    let mut read = LogPosition::default();
    let mut solve_deleting = |s: &mut Solver, assumed: Lit| {
        let deletes = s.proof_steps().1;
        assert_eq!(s.solve_with_assumptions(&[assumed]), SolveResult::Unsat);
        let cert = s.certificate().expect("unsat certificate");
        assert_verified(cert);
        advance(&mut session, &mut read, cert);
        s.proof_steps().1 > deletes
    };
    for generation in 0..32 {
        let a = s.new_activation_lit();
        guarded_pigeonhole(&mut s, 3, 0, Some(a));
        assert!(
            !solve_deleting(&mut s, a),
            "generation {generation}: a solve deleted clauses before the 32nd retirement"
        );
        s.retire_activation(a);
    }
    let retired = s.num_clauses();

    let a = s.new_activation_lit();
    guarded_pigeonhole(&mut s, 3, 0, Some(a));
    let live = s.num_clauses() - retired;
    assert!(solve_deleting(&mut s, a), "the pass logged no deletions");
    // Only the live generation's clauses are left.
    assert!(retired > 0);
    assert_eq!(s.num_clauses(), live);
}

#[test]
fn add_clause_preprocessing_is_logged() {
    let mut s = logging_solver(SolverConfig::default());
    s.add_clause([lit(1)]);
    // Duplicated, unsorted, and carrying a literal falsified at level 0:
    // stripping shrinks the set, so the shorter clause is logged as an add
    // and the unstripped set as a delete.
    let before = s.proof_steps();
    s.add_clause([lit(3), lit(-1), lit(2), lit(3)]);
    assert_eq!(s.proof_steps(), (before.0 + 1, before.1 + 1));
    s.add_clause([lit(-2), lit(-3)]);
    s.add_clause([lit(2), lit(-3)]);
    s.add_clause([lit(-2), lit(3)]);
    assert_eq!(s.solve(), SolveResult::Unsat);
    let cert = s.certificate().expect("unsat verdict yields a certificate");
    assert!(cert.cnf().any(|c| c == [3, -1, 2, 3]));
    assert_verified(cert);
}

/// A clause the solver keeps as the same literal set logs no proof step,
/// however the caller ordered or repeated its literals: the checker stores
/// clauses as sets, so a reordering certifies nothing.
#[test]
fn a_reordered_clause_logs_no_step() {
    let mut s = logging_solver(SolverConfig::default());
    s.add_clause([lit(3), lit(-1), lit(2), lit(3)]);
    assert_eq!(s.proof_steps(), (0, 0));
    // The other seven sign patterns over 1, 2, 3, each out of order.
    for clause in [
        [3, 2, 1],
        [3, -2, 1],
        [-3, 2, 1],
        [-3, -2, 1],
        [3, -2, -1],
        [-3, 2, -1],
        [-3, -2, -1],
    ] {
        s.add_clause(clause.map(lit));
    }
    assert_eq!(s.proof_steps(), (0, 0));
    assert_eq!(s.solve(), SolveResult::Unsat);
    let cert = s.certificate().expect("unsat verdict yields a certificate");
    assert!(cert.cnf().any(|c| c == [3, -1, 2, 3]));
    assert_verified(cert);
}

/// A deletion names the solver's sorted form of a clause the CNF holds in
/// the caller's order. The checker matches it by literal set, and the text
/// files carry both orders unchanged.
#[test]
fn a_sorted_form_deletion_survives_the_text_round_trip() {
    let mut s = logging_solver(SolverConfig::default());
    let a = s.new_activation_lit();
    s.add_guarded_clause(a, [lit(3), lit(2)]);
    s.retire_activation(a);
    let deletes = s.proof_steps().1;
    s.simplify();
    assert_eq!(s.proof_steps().1, deletes + 1);
    for clause in [[3, 2], [3, -2], [-3, 2], [-3, -2]] {
        s.add_clause(clause.map(lit));
    }
    assert_eq!(s.solve(), SolveResult::Unsat);
    let cert = s.certificate().expect("unsat verdict yields a certificate");
    assert_text_round_trip(cert);

    // The guarded clause's CNF line and its deletion line list the same set
    // in different orders.
    let mut guarded = [(!a).to_dimacs() as i32, 2, 3];
    guarded.sort_unstable();
    let same_set = |line: &str| {
        let mut lits: Vec<i32> = line
            .split_whitespace()
            .map(|t| t.parse().unwrap())
            .collect();
        lits.pop(); // the terminating 0
        lits.sort_unstable();
        lits == guarded
    };
    let cnf = write_dimacs(cert.cnf());
    let proof = write_text_proof(cert.steps().map(ProofStep::from));
    let original = cnf.lines().skip(1).find(|l| same_set(l));
    let deletion = proof
        .lines()
        .filter_map(|l| l.strip_prefix("d "))
        .find(|l| same_set(l));
    let (original, deletion) = original.zip(deletion).expect("both lines are written");
    assert_ne!(original, deletion);
}

#[test]
fn mutated_or_truncated_proofs_are_rejected() {
    let mut s = logging_solver(SolverConfig::default());
    pigeonhole(&mut s, 3);
    assert_eq!(s.solve(), SolveResult::Unsat);
    let cert = s.certificate().expect("unsat verdict yields a certificate");
    assert_verified(cert);
    assert_session_rejects_broken_logs(&Session::new(), LogPosition::default(), cert);
    let (cnf, mut proof) = owned(cert);
    assert!(check(&cnf, &proof, || false).is_verified());
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
    assert!(check(&cnf, &proof, || false).is_verified());
    // …corrupting it breaks the derivation (a fresh pure literal can be
    // admitted, but the empty clause is never derived)…
    proof.steps[first_empty] = ProofStep::Add(vec![9_999]);
    assert!(!check(&cnf, &proof, || false).is_verified());
    // …and truncating it away drops the refutation entirely.
    proof.steps.truncate(first_empty);
    assert!(!check(&cnf, &proof, || false).is_verified());
}

/// Text exists only at file boundaries: the `.cnf`/`.drat` pair the
/// writers render from a solver certificate parses back to the same
/// clauses and steps, and the parsed pair checks out.
fn assert_text_round_trip(cert: Certificate<'_>) {
    assert_verified(cert);
    let (cnf, proof) = owned(cert);
    let dimacs = parse_dimacs(&write_dimacs(cert.cnf())).expect("written CNF parses");
    let parsed = parse_text_proof(&write_text_proof(cert.steps().map(ProofStep::from)))
        .expect("written proof parses");
    assert_eq!(dimacs.clauses, cnf);
    assert_eq!(parsed, proof);
    assert!(check(&dimacs.clauses, &parsed, || false).is_verified());
}

#[test]
fn certificate_files_round_trip_through_text() {
    let mut s = logging_solver(SolverConfig::default());
    pigeonhole(&mut s, 4);
    assert_eq!(s.solve(), SolveResult::Unsat);
    assert_text_round_trip(s.certificate().expect("pigeonhole certificate"));

    let mut s = logging_solver(SolverConfig::default());
    s.add_clause([lit(-1), lit(2)]);
    s.add_clause([lit(-2), lit(3)]);
    s.add_clause([lit(-1), lit(-3)]);
    assert_eq!(s.solve_with_assumptions(&[lit(1)]), SolveResult::Unsat);
    assert_text_round_trip(s.certificate().expect("assumption-scoped certificate"));
}

#[test]
fn proof_accounting_is_exposed_and_logging_off_by_default() {
    let mut on = logging_solver(SolverConfig::default());
    let mut off = Solver::new();
    for s in [&mut on, &mut off] {
        pigeonhole(s, 3);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }
    let (adds, _deletes) = on.proof_steps();
    assert!(adds > 0);
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
        /// one-shot checker and a session both accept; a session rejects
        /// every dropped or corrupted lemma the one-shot check rejects. And
        /// directed, guaranteed-breaking mutations of that proof are
        /// rejected by the one-shot check. (Sign flips can survive via
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
                    prop_assert!(
                        check_certificate(cert).is_verified(),
                        "pristine certificate rejected"
                    );
                    assert_session_rejects_broken_logs(&Session::new(), LogPosition::default(), cert);
                    let (dimacs, mut proof) = owned(cert);
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
                        check(&dimacs, &proof, || false).is_verified(),
                        "tailless certificate rejected"
                    );
                    proof.steps[first_empty] = ProofStep::Add(vec![9_999]);
                    prop_assert!(
                        !check(&dimacs, &proof, || false).is_verified(),
                        "corrupted refutation accepted"
                    );
                    proof.steps.truncate(first_empty);
                    prop_assert!(
                        !check(&dimacs, &proof, || false).is_verified(),
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
                    if !s.is_known_unsat() {
                        for &d in &assumed {
                            prop_assert!(
                                cert.cnf().any(|c| c == [d as i32]),
                                "assumption {d} missing from the certificate CNF"
                            );
                        }
                    }
                    prop_assert!(
                        check_certificate(cert).is_verified(),
                        "assumption-scoped certificate rejected"
                    );
                    assert_session_rejects_broken_logs(&Session::new(), LogPosition::default(), cert);
                }
                SolveResult::Sat => prop_assert!(s.certificate().is_none()),
                other => prop_assert!(false, "unbudgeted solve returned {other:?}"),
            }
        }
    }
}
