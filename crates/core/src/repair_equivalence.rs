//! Repair-equivalence suite: the incremental [`RepairSession`] must be
//! indistinguishable from the from-scratch MaxSAT rebuild it replaced, and
//! must stay incremental.
//!
//! Three angles, all on `suite(7, 1)`-class instances:
//!
//! * **Per-query equivalence** (randomized): for randomly generated
//!   counterexamples σ, the session's candidate set and the from-scratch
//!   set must be *optimal solutions of the same objective* — equal
//!   cardinality (the optimum cost, all softs being unit weight) and each
//!   feasible for the other encoding (leaving every unselected output pinned to its σ[Y'] value
//!   keeps `ϕ ∧ σ[X]` satisfiable). Literal set equality is not required:
//!   distinct optimal solutions are legitimate tie-breaks of the same
//!   optimum.
//! * **Loop convergence**: driving the full verify–repair loop from
//!   identical (constant-false) candidate vectors, the incremental and the
//!   from-scratch FindCandidates paths must converge to
//!   the same verdict, and every claimed vector must pass the independent
//!   certificate check.
//! * **One encoding per sweep**: a 30-call FindCandidates sweep on one
//!   session builds exactly one MaxSAT hard encoding and answers every call
//!   under assumptions.

use crate::repair::find_candidates_from_scratch;
use crate::{
    repair_vector, Budget, DependencyState, Manthan3Config, Oracle, Order, RepairSession, Sigma,
    SynthesisStats, VerifyOutcome, VerifySession,
};
use manthan3_cnf::{Lit, Var};
use manthan3_dqbf::{verify, Dqbf, HenkinVector};
use manthan3_gen::suite::suite;
use manthan3_sat::SolveResult;
use std::collections::BTreeMap;

/// Deterministic splitmix64, so the test needs no RNG dependency.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Random valuation of `vars` driven by the splitmix stream.
fn random_valuation(vars: &[Var], state: &mut u64) -> BTreeMap<Var, bool> {
    vars.iter()
        .map(|&v| (v, splitmix64(state) & 1 == 1))
        .collect()
}

/// Draws a random σ[X] and, if it extends to a model of ϕ (the only shape
/// the engine ever queries), returns σ with the witness extension as σ[Y]
/// and a random candidate output vector σ[Y'].
fn random_sigma(
    dqbf: &Dqbf,
    session: &mut VerifySession,
    oracle: &mut Oracle,
    state: &mut u64,
) -> Option<Sigma> {
    let x = random_valuation(dqbf.universals(), state);
    let x_assumptions: Vec<Lit> = x.iter().map(|(&v, &b)| v.lit(b)).collect();
    if session.solve_phi(oracle, &x_assumptions) != SolveResult::Sat {
        return None;
    }
    let pi = session.phi_model();
    Some(Sigma {
        x,
        y: dqbf
            .existentials()
            .iter()
            .map(|&y| (y, pi.get(y).unwrap_or(false)))
            .collect(),
        y_prime: random_valuation(dqbf.existentials(), state),
    })
}

/// `true` if leaving every output *outside* `selected` pinned to its σ[Y']
/// value keeps `ϕ ∧ σ[X]` satisfiable — i.e. `selected` is a feasible
/// candidate set for the FindCandidates objective.
fn is_feasible_candidate_set(
    dqbf: &Dqbf,
    sigma: &Sigma,
    selected: &[Var],
    session: &mut VerifySession,
    oracle: &mut Oracle,
) -> bool {
    let mut assumptions: Vec<Lit> = sigma.x.iter().map(|(&x, &v)| x.lit(v)).collect();
    for &y in dqbf.existentials() {
        if !selected.contains(&y) {
            assumptions.push(y.lit(sigma.y_prime.get(&y).copied().unwrap_or(false)));
        }
    }
    session.solve_phi(oracle, &assumptions) == SolveResult::Sat
}

#[test]
fn randomized_sigmas_yield_equivalent_candidate_sets() {
    let mut rng_state = 0x5EED_2026u64;
    let mut compared = 0usize;
    for instance in suite(7, 1) {
        let dqbf = &instance.dqbf;
        if dqbf.existentials().is_empty() {
            continue;
        }
        let mut oracle = Oracle::new(Budget::unlimited());
        let mut verify_session = VerifySession::new(dqbf, &mut oracle);
        if verify_session.check_matrix(&mut oracle) != SolveResult::Sat {
            continue;
        }
        let mut repair_session = RepairSession::new(dqbf, &mut oracle);
        for _ in 0..8 {
            let Some(sigma) = random_sigma(dqbf, &mut verify_session, &mut oracle, &mut rng_state)
            else {
                continue;
            };
            let incremental = repair_session.find_candidates(dqbf, &sigma, &mut oracle);
            let scratch = find_candidates_from_scratch(dqbf, &sigma, &mut oracle);

            // Same optimum cost (every soft is unit weight)…
            assert_eq!(
                incremental.len(),
                scratch.len(),
                "{}: incremental optimum {:?} vs from-scratch optimum {:?}",
                instance.name,
                incremental,
                scratch
            );
            // …and each solution is feasible for the shared objective.
            for (label, selected) in [("incremental", &incremental), ("from-scratch", &scratch)] {
                assert!(
                    is_feasible_candidate_set(
                        dqbf,
                        &sigma,
                        selected,
                        &mut verify_session,
                        &mut oracle
                    ),
                    "{}: {label} set {selected:?} is not a feasible repair set",
                    instance.name
                );
            }
            compared += 1;
        }
        // The session answered all its sigmas under assumptions on one
        // encoding; every other hard encoding belongs to a from-scratch
        // reference call (which pays one per call).
        assert_eq!(
            oracle.stats().maxsat_incremental_calls,
            repair_session.solves()
        );
        assert_eq!(
            oracle.stats().maxsat_hard_encodings,
            1 + (oracle.stats().maxsat_calls - oracle.stats().maxsat_incremental_calls)
        );
    }
    assert!(
        compared >= 40,
        "only {compared} sigma comparisons ran; the suite no longer exercises the query"
    );
}

/// How one custom verify–repair loop ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LoopVerdict {
    Valid,
    Unrealizable,
    Stuck,
    IterationLimit,
}

/// Drives the verify–repair loop from an all-constant-false candidate
/// vector, selecting repair candidates either on the persistent session
/// (`incremental`) or with the from-scratch rebuild, and reports how it
/// converged.
fn run_loop(dqbf: &Dqbf, incremental: bool) -> (LoopVerdict, usize) {
    let config = Manthan3Config::default();
    let mut stats = SynthesisStats::default();
    let mut oracle = Oracle::new(Budget::unlimited());
    let mut verify_session = VerifySession::new(dqbf, &mut oracle);
    let mut repair_session = incremental.then(|| RepairSession::new(dqbf, &mut oracle));
    let order = Order::from_dependencies(
        dqbf.existentials(),
        &DependencyState::new(dqbf.existentials()),
    );

    let mut vector = HenkinVector::new();
    let constant_false = vector.aig().constant(false);
    for &y in dqbf.existentials() {
        vector.set(y, constant_false);
    }

    for iteration in 0..256 {
        let delta = match verify_session.verify(dqbf, &vector, &mut oracle) {
            VerifyOutcome::Valid => {
                // The claimed vector must survive the independent
                // from-scratch certificate check, exactly like the engine's.
                vector.substitute_down(&order.substitution_order());
                assert!(
                    verify::check(dqbf, &vector).is_valid(),
                    "loop-repaired vector fails the certificate check"
                );
                return (LoopVerdict::Valid, iteration);
            }
            VerifyOutcome::Unknown => unreachable!("unlimited budget"),
            VerifyOutcome::CounterExample(delta) => delta,
        };
        let x_assumptions: Vec<Lit> = dqbf
            .universals()
            .iter()
            .map(|&x| x.lit(delta.x.get(&x).copied().unwrap_or(false)))
            .collect();
        let pi = match verify_session.solve_phi(&mut oracle, &x_assumptions) {
            SolveResult::Unsat => return (LoopVerdict::Unrealizable, iteration),
            SolveResult::Unknown => unreachable!("unlimited budget"),
            SolveResult::Sat => verify_session.phi_model(),
        };
        let mut sigma = Sigma {
            x: delta.x,
            y: dqbf
                .existentials()
                .iter()
                .map(|&y| (y, pi.get(y).unwrap_or(false)))
                .collect(),
            y_prime: delta.y_prime,
        };
        let candidates = match &mut repair_session {
            Some(session) => session.find_candidates(dqbf, &sigma, &mut oracle),
            None => find_candidates_from_scratch(dqbf, &sigma, &mut oracle),
        };
        let outcome = repair_vector(
            dqbf,
            &config,
            &mut verify_session,
            &mut oracle,
            &mut vector,
            &order,
            &mut sigma,
            candidates,
            &mut stats,
        );
        if outcome.stuck {
            return (LoopVerdict::Stuck, iteration);
        }
    }
    (LoopVerdict::IterationLimit, 256)
}

#[test]
fn loops_converge_to_the_same_verdicts() {
    let mut valid_runs = 0usize;
    for instance in suite(7, 1) {
        let dqbf = &instance.dqbf;
        if dqbf.existentials().is_empty() {
            continue;
        }
        let (incremental_verdict, _) = run_loop(dqbf, true);
        let (scratch_verdict, _) = run_loop(dqbf, false);
        assert_eq!(
            incremental_verdict, scratch_verdict,
            "{}: incremental and from-scratch loops diverged",
            instance.name
        );
        match incremental_verdict {
            LoopVerdict::Valid => {
                valid_runs += 1;
                if let Some(expected) = instance.expected {
                    assert!(expected, "{}: repaired a false instance", instance.name);
                }
            }
            LoopVerdict::Unrealizable => {
                if let Some(expected) = instance.expected {
                    assert!(!expected, "{}: misreported a true instance", instance.name);
                }
            }
            LoopVerdict::Stuck | LoopVerdict::IterationLimit => {}
        }
    }
    assert!(
        valid_runs > 0,
        "no instance was repaired to validity; the convergence check is vacuous"
    );
}

/// A repair-heavy FindCandidates sweep must be served by exactly one MaxSAT
/// hard-encoding construction, every call under assumptions. The workload is
/// the satisfiable `suite(7, 1)` instance with at least three outputs and
/// the largest matrix × output product, plus 30 counterexamples σ.
#[test]
fn a_repair_sweep_builds_one_hard_encoding() {
    const REPAIR_ITERATIONS: usize = 30;
    let dqbf = suite(7, 1)
        .into_iter()
        .map(|i| i.dqbf)
        .filter(|d| {
            let mut oracle = Oracle::new(Budget::unlimited());
            d.existentials().len() >= 3
                && VerifySession::new(d, &mut oracle).check_matrix(&mut oracle) == SolveResult::Sat
        })
        .max_by_key(|d| d.matrix().clauses().len() * d.existentials().len())
        .expect("the suite contains satisfiable instances with outputs");

    let mut phi_oracle = Oracle::new(Budget::unlimited());
    let mut phi_session = VerifySession::new(&dqbf, &mut phi_oracle);
    let mut rng_state = 0x0BE5_EED5u64;
    let mut sigmas = Vec::with_capacity(REPAIR_ITERATIONS);
    while sigmas.len() < REPAIR_ITERATIONS {
        sigmas.extend(random_sigma(
            &dqbf,
            &mut phi_session,
            &mut phi_oracle,
            &mut rng_state,
        ));
    }

    let mut oracle = Oracle::new(Budget::unlimited());
    let mut session = RepairSession::new(&dqbf, &mut oracle);
    for sigma in &sigmas {
        session.find_candidates(&dqbf, sigma, &mut oracle);
    }
    let stats = oracle.stats();
    assert_eq!(
        stats.maxsat_hard_encodings, 1,
        "a {REPAIR_ITERATIONS}-iteration repair sweep must build exactly one hard encoding"
    );
    assert_eq!(stats.maxsat_incremental_calls, REPAIR_ITERATIONS);
    assert_eq!(stats.maxsat_calls, REPAIR_ITERATIONS);
}
