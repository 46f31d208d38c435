//! Regression tests for the persistent incremental oracle layer: however
//! many verify/repair iterations a run takes, it must construct exactly one
//! matrix solver and one error-formula solver, and its verdicts must agree
//! with the independent from-scratch certificate checker.

use manthan3_core::{Manthan3, Manthan3Config, SynthesisOutcome};
use manthan3_dqbf::verify;
use manthan3_gen::suite::suite;

#[test]
fn suite_runs_reuse_one_incremental_session() {
    let engine = Manthan3::new(Manthan3Config::fast());
    let mut repair_heavy_runs = 0usize;
    for instance in suite(5, 1) {
        let result = engine.synthesize(&instance.dqbf);
        let oracle = &result.stats.oracle;

        // The whole verify–repair loop runs on one persistent session: one
        // matrix solver + one error-formula solver, independent of how many
        // iterations were needed. (A run that never reaches verification
        // may legitimately construct fewer.)
        assert!(
            oracle.sat_solvers_constructed <= 2,
            "{}: constructed {} solvers over {} verification checks",
            instance.name,
            oracle.sat_solvers_constructed,
            result.stats.verification_checks
        );
        assert!(
            oracle.samplers_constructed <= 1,
            "{}: constructed {} samplers",
            instance.name,
            oracle.samplers_constructed
        );
        assert!(
            oracle.maxsat_hard_encodings <= 1,
            "{}: built {} MaxSAT hard encodings over {} repair iterations",
            instance.name,
            oracle.maxsat_hard_encodings,
            result.stats.repair_iterations
        );
        if result.stats.repair_iterations > 0 {
            repair_heavy_runs += 1;
        }

        // Verdicts must be identical to the from-scratch path: realizable
        // vectors pass the independent re-encoding check, and definite
        // verdicts match the generator's ground truth.
        match &result.outcome {
            SynthesisOutcome::Realizable(vector) => {
                assert!(
                    verify::check(&instance.dqbf, vector).is_valid(),
                    "{}: vector fails the from-scratch certificate check",
                    instance.name
                );
                if let Some(expected) = instance.expected {
                    assert!(expected, "{}: synthesized a false instance", instance.name);
                }
            }
            SynthesisOutcome::Unrealizable => {
                if let Some(expected) = instance.expected {
                    assert!(!expected, "{}: misreported a true instance", instance.name);
                }
            }
            SynthesisOutcome::Unknown(_) => {}
        }
    }
    // The suite must actually exercise the repair path, otherwise the
    // reuse assertion above is vacuous.
    assert!(
        repair_heavy_runs > 0,
        "no suite instance exercised the repair loop"
    );
}

#[test]
fn many_repair_iterations_share_one_error_solver() {
    // A planted instance that needs repair: force learning from few samples
    // so initial candidates are wrong and several repair iterations run.
    let config = Manthan3Config {
        num_samples: 4,
        use_unique_definitions: false,
        ..Manthan3Config::fast()
    };
    let engine = Manthan3::new(config);
    let mut exercised = false;
    for seed in 0..8u64 {
        let instance = manthan3_gen::planted::planted_true(
            &manthan3_gen::planted::PlantedParams::default(),
            seed,
        );
        let result = engine.synthesize(&instance.dqbf);
        if result.stats.repair_iterations >= 2 {
            exercised = true;
            assert_eq!(
                result.stats.oracle.sat_solvers_constructed, 2,
                "seed {seed}: repair iterations must not construct new solvers"
            );
            // Every verification and every repair G_k query went through the
            // same two solvers.
            assert!(
                result.stats.oracle.sat_calls
                    >= result.stats.verification_checks + result.stats.repair_sat_calls,
                "seed {seed}: oracle accounting is inconsistent"
            );
            // The MaxSAT side is equally incremental: one hard encoding for
            // the whole run, every FindCandidates call an assumption-served
            // solve on it.
            assert_eq!(
                result.stats.oracle.maxsat_hard_encodings, 1,
                "seed {seed}: repair iterations must not rebuild the MaxSAT encoding"
            );
            assert_eq!(result.stats.oracle.maxsat_solvers_constructed, 1);
            assert_eq!(
                result.stats.oracle.maxsat_incremental_calls, result.stats.oracle.maxsat_calls,
                "seed {seed}: a FindCandidates call bypassed the repair session"
            );
            assert!(
                result.stats.oracle.maxsat_calls >= result.stats.repair_iterations,
                "seed {seed}: every repair iteration starts with a FindCandidates call"
            );
        }
        if let SynthesisOutcome::Realizable(vector) = &result.outcome {
            assert!(verify::check(&instance.dqbf, vector).is_valid());
        }
    }
    assert!(exercised, "no seed produced a repair-heavy run");
}

/// The persistent repair session's acceptance check: across a run of at least
/// 20 repair iterations, the oracle must record exactly one MaxSAT
/// hard-encoding construction, with every FindCandidates call served under
/// assumptions on the persistent repair session.
#[test]
fn twenty_plus_repair_iterations_build_one_maxsat_encoding() {
    // One candidate repaired per counterexample round and learning starved
    // to two samples: the loop has to grind through many iterations.
    let config = Manthan3Config {
        num_samples: 2,
        use_unique_definitions: false,
        max_repairs_per_iteration: 1,
        max_repair_iterations: 800,
        ..Manthan3Config::fast()
    };
    let engine = Manthan3::new(config);
    let mut deepest_run = 0usize;
    for seed in 0..6u64 {
        let params = manthan3_gen::planted::PlantedParams {
            num_universals: 14,
            num_existentials: 20,
            max_dependencies: 5,
            ..manthan3_gen::planted::PlantedParams::default()
        };
        let instance = manthan3_gen::planted::planted_true(&params, seed);
        let result = engine.synthesize(&instance.dqbf);
        let oracle = &result.stats.oracle;
        deepest_run = deepest_run.max(result.stats.repair_iterations);
        if result.stats.repair_iterations > 0 {
            assert_eq!(
                oracle.maxsat_hard_encodings, 1,
                "seed {seed}: {} repair iterations rebuilt the MaxSAT encoding",
                result.stats.repair_iterations
            );
            assert_eq!(
                oracle.maxsat_incremental_calls, oracle.maxsat_calls,
                "seed {seed}: a FindCandidates call bypassed the session"
            );
            assert!(oracle.maxsat_calls >= result.stats.repair_iterations);
        }
        if let SynthesisOutcome::Realizable(vector) = &result.outcome {
            assert!(verify::check(&instance.dqbf, vector).is_valid());
        }
    }
    assert!(
        deepest_run >= 20,
        "no run reached 20 repair iterations (deepest: {deepest_run}); \
         the acceptance assertion above is too weak"
    );
}
