//! Repair-equivalence suite: the incremental [`RepairSession`] must be
//! indistinguishable from the from-scratch MaxSAT rebuild it replaced, and
//! must stay incremental.
//!
//! Three angles, all on `suite(7, 1)`-class instances:
//!
//! * **Per-query equivalence** (randomized): for randomly generated
//!   counterexamples δ, the session's candidate set and the from-scratch
//!   set must be *optimal solutions of the same objective* — equal
//!   cardinality (the optimum cost, all softs being unit weight) and each
//!   feasible for the other encoding (leaving every unselected output pinned to its δ[Y'] value
//!   keeps `ϕ ∧ δ[X]` satisfiable). Literal set equality is not required:
//!   distinct optimal solutions are legitimate tie-breaks of the same
//!   optimum.
//! * **Loop convergence**: driving the engine's own verify–repair loop
//!   ([`verify_repair`]) from identical (constant-false) candidate vectors,
//!   once with the session's FindCandidates step and once with the
//!   from-scratch one, must end in the same verdict, and every claimed
//!   vector must pass the independent certificate check. Each check
//!   simulates the vector before it asks the error solver, and
//!   FindCandidates is the only query between a counterexample and repair,
//!   its MaxSAT search doubling as the X-extension check that proves a
//!   false instance unrealizable.
//! * **One encoding per sweep**: a 30-call FindCandidates sweep on one
//!   session builds exactly one MaxSAT solver and its hard encoding, and
//!   answers every call under assumptions.

use crate::engine::{verify_repair, Run};
use crate::repair::find_candidates_from_scratch;
use crate::{
    Budget, DependencyState, Manthan3Config, Oracle, Order, RepairSession, SynthesisOutcome,
    UnknownReason, VerifySession,
};
use manthan3_aig::AigRef;
use manthan3_cnf::{Assignment, Lit, Var};
use manthan3_dqbf::{verify, Dqbf, HenkinVector};
use manthan3_gen::suite::suite;
use manthan3_sat::SolveResult;

/// Deterministic splitmix64, so the test needs no RNG dependency.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Sets `vars` in `delta` to random values drawn from the splitmix stream.
fn randomize(delta: &mut Assignment, vars: &[Var], state: &mut u64) {
    for &v in vars {
        delta.set(v, splitmix64(state) & 1 == 1);
    }
}

/// Draws a random δ[X] and, if it extends to a model of ϕ (the only shape
/// whose candidates repair acts on), returns δ with a random candidate
/// output vector δ[Y'].
fn random_delta(
    dqbf: &Dqbf,
    session: &mut VerifySession,
    oracle: &mut Oracle,
    state: &mut u64,
) -> Option<Assignment> {
    let mut delta = Assignment::new_false(dqbf.num_vars());
    randomize(&mut delta, dqbf.universals(), state);
    let x_assumptions: Vec<Lit> = dqbf
        .universals()
        .iter()
        .map(|&x| x.lit(delta.value(x)))
        .collect();
    if session.solve_phi(oracle, &x_assumptions) != SolveResult::Sat {
        return None;
    }
    randomize(&mut delta, dqbf.existentials(), state);
    Some(delta)
}

/// `true` if leaving every output *outside* `selected` pinned to its δ[Y']
/// value keeps `ϕ ∧ δ[X]` satisfiable — i.e. `selected` is a feasible
/// candidate set for the FindCandidates objective.
fn is_feasible_candidate_set(
    dqbf: &Dqbf,
    delta: &Assignment,
    selected: &[Var],
    session: &mut VerifySession,
    oracle: &mut Oracle,
) -> bool {
    let unselected = dqbf.existentials().iter().filter(|y| !selected.contains(y));
    let pinned = dqbf.universals().iter().chain(unselected);
    let assumptions: Vec<Lit> = pinned.map(|&v| v.lit(delta.value(v))).collect();
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
        let mut incremental_calls = 0;
        for _ in 0..8 {
            let Some(delta) = random_delta(dqbf, &mut verify_session, &mut oracle, &mut rng_state)
            else {
                continue;
            };
            let incremental = repair_session
                .find_candidates(&delta, &mut oracle)
                .continue_value()
                .expect("δ[X] extends to a model of ϕ");
            incremental_calls += 1;
            let scratch = find_candidates_from_scratch(dqbf, &delta, &mut oracle)
                .continue_value()
                .expect("δ[X] extends to a model of ϕ");

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
                        &delta,
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
        // The session answered all its deltas under assumptions on one
        // encoding; every other MaxSAT solver belongs to a from-scratch
        // reference call (which builds one per call).
        assert_eq!(
            oracle.stats().maxsat_solvers_constructed,
            1 + (oracle.stats().maxsat_calls - incremental_calls)
        );
    }
    assert!(
        compared >= 40,
        "only {compared} delta comparisons ran; the suite no longer exercises the query"
    );
}

/// Runs the engine's verify–repair loop ([`verify_repair`]) from an
/// all-constant-false candidate vector, selecting repair candidates either
/// on a persistent [`RepairSession`] (`incremental`) or with the
/// from-scratch rebuild, and returns its verdict.
fn run_loop(dqbf: &Dqbf, incremental: bool) -> SynthesisOutcome {
    let config = Manthan3Config {
        max_repair_iterations: 256,
        ..Manthan3Config::default()
    };
    let mut oracle = Oracle::new(Budget::unlimited());
    let mut session = VerifySession::new(dqbf, &mut oracle);
    let mut repair = incremental.then(|| RepairSession::new(dqbf, &mut oracle));
    let order = Order::from_dependencies(
        dqbf.existentials(),
        &DependencyState::new(dqbf.existentials()),
    );
    let mut vector = HenkinVector::new();
    for &y in dqbf.existentials() {
        vector.set(y, AigRef::FALSE);
    }
    verify_repair(
        &mut Run::new(dqbf, &config, oracle),
        &mut session,
        vector,
        &order,
        |delta, oracle| match &mut repair {
            Some(session) => session.find_candidates(delta, oracle),
            None => find_candidates_from_scratch(dqbf, delta, oracle),
        },
        |_, _, _| {},
    )
}

#[test]
fn loops_converge_to_the_same_verdicts() {
    let mut valid_runs = 0usize;
    for instance in suite(7, 1) {
        let dqbf = &instance.dqbf;
        if dqbf.existentials().is_empty() {
            continue;
        }
        let incremental = run_loop(dqbf, true);
        let scratch = run_loop(dqbf, false);
        match (&incremental, &scratch) {
            (SynthesisOutcome::Realizable(a), SynthesisOutcome::Realizable(b)) => {
                // Every claimed vector must survive the independent
                // from-scratch certificate check.
                for vector in [a, b] {
                    assert!(
                        verify::check(dqbf, vector).is_valid(),
                        "{}: loop-repaired vector fails the certificate check",
                        instance.name
                    );
                }
                valid_runs += 1;
                if let Some(expected) = instance.expected {
                    assert!(expected, "{}: repaired a false instance", instance.name);
                }
            }
            (SynthesisOutcome::Unrealizable, SynthesisOutcome::Unrealizable) => {
                if let Some(expected) = instance.expected {
                    assert!(!expected, "{}: misreported a true instance", instance.name);
                }
            }
            // The loop's own two give-ups. On an unlimited budget any
            // other reason (a solver giving up, a cancellation) is a fault,
            // and falls through to the divergence panic.
            (SynthesisOutcome::Unknown(a), SynthesisOutcome::Unknown(b))
                if a == b
                    && matches!(
                        a,
                        UnknownReason::RepairStuck | UnknownReason::IterationLimit
                    ) => {}
            _ => panic!(
                "{}: incremental and from-scratch loops diverged or gave up on an unlimited \
                 budget: {incremental:?} vs {scratch:?}",
                instance.name
            ),
        }
    }
    assert!(
        valid_runs > 0,
        "no instance was repaired to validity; the convergence check is vacuous"
    );
}

/// A repair-heavy FindCandidates sweep must be served by exactly one MaxSAT
/// solver and its hard encoding, every call under assumptions. The workload is
/// the satisfiable `suite(7, 1)` instance with at least three outputs and
/// the largest matrix × output product, plus 30 counterexamples δ.
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
    let mut deltas = Vec::with_capacity(REPAIR_ITERATIONS);
    while deltas.len() < REPAIR_ITERATIONS {
        deltas.extend(random_delta(
            &dqbf,
            &mut phi_session,
            &mut phi_oracle,
            &mut rng_state,
        ));
    }

    let mut oracle = Oracle::new(Budget::unlimited());
    let mut session = RepairSession::new(&dqbf, &mut oracle);
    for delta in &deltas {
        let _ = session.find_candidates(delta, &mut oracle);
    }
    let stats = oracle.stats();
    assert_eq!(
        stats.maxsat_solvers_constructed, 1,
        "a {REPAIR_ITERATIONS}-iteration repair sweep must build exactly one hard encoding"
    );
    assert_eq!(stats.maxsat_calls, REPAIR_ITERATIONS);
}
