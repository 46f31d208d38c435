//! Regression tests for the persistent incremental oracle layer: however
//! many verify/repair iterations a run takes, it must construct exactly one
//! matrix solver and one error-formula solver, and its verdicts must agree
//! with the independent from-scratch certificate checker.

use manthan3_core::{Manthan3, Manthan3Config, SynthesisOutcome};
use manthan3_dqbf::verify;
use manthan3_gen::controller::{controller, ControllerParams};
use manthan3_gen::suite::suite;

#[test]
fn suite_runs_reuse_one_incremental_session() {
    // The suite's restricted PEC instances end at the iteration cap; 100
    // keeps this debug-build test short without changing what it checks.
    let engine = Manthan3::new(Manthan3Config {
        max_repair_iterations: 100,
        ..Manthan3Config::default()
    });
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
            oracle.maxsat_solvers_constructed <= 1,
            "{}: built {} MaxSAT solvers over {} repair iterations",
            instance.name,
            oracle.maxsat_solvers_constructed,
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
        ..Manthan3Config::default()
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
            // The matrix check, every verification that simulation did not
            // answer and every repair G_k query went through the same two
            // solvers, and nothing else did. A verification refutes the
            // error formula clause by clause: one to |ϕ| queries.
            let oracle = &result.stats.oracle;
            assert_eq!(
                oracle.sat_calls,
                1 + result.stats.verify_sat_calls + result.stats.repair_sat_calls,
                "seed {seed}: oracle accounting is inconsistent"
            );
            let unsimulated =
                result.stats.verification_checks - oracle.sim_counterexamples as usize;
            assert!(
                unsimulated <= result.stats.verify_sat_calls
                    && result.stats.verify_sat_calls <= unsimulated * instance.dqbf.num_clauses(),
                "seed {seed}: {} error-solver calls for {unsimulated} checks",
                result.stats.verify_sat_calls
            );
            // The MaxSAT side is equally incremental: one MaxSAT solver and
            // its hard encoding for the whole run, one assumption-served
            // FindCandidates solve on it per counterexample.
            assert_eq!(
                result.stats.oracle.maxsat_solvers_constructed, 1,
                "seed {seed}: repair iterations must not rebuild the MaxSAT encoding"
            );
            assert_eq!(
                result.stats.oracle.maxsat_calls, result.stats.repair_iterations,
                "seed {seed}: every repair iteration is one FindCandidates call"
            );
        }
        if let SynthesisOutcome::Realizable(vector) = &result.outcome {
            assert!(verify::check(&instance.dqbf, vector).is_valid());
        }
    }
    assert!(exercised, "no seed produced a repair-heavy run");
}

/// The persistent repair session's acceptance check: across a run of at least
/// 20 repair iterations, the oracle must construct exactly one MaxSAT solver
/// (the one hard encoding), with every FindCandidates call served under
/// assumptions on the persistent repair session.
#[test]
fn twenty_plus_repair_iterations_build_one_maxsat_encoding() {
    // A full-observation 10-client controller: with the default
    // configuration the loop grinds through dozens of counterexamples.
    let engine = Manthan3::new(Manthan3Config::default());
    let params = ControllerParams {
        num_clients: 10,
        observation_window: 10,
    };
    let instance = controller(&params, 0);
    let result = engine.synthesize(&instance.dqbf);
    let oracle = &result.stats.oracle;
    let iterations = result.stats.repair_iterations;
    assert_eq!(
        oracle.maxsat_solvers_constructed, 1,
        "{iterations} repair iterations rebuilt the MaxSAT encoding"
    );
    assert_eq!(oracle.maxsat_calls, iterations);
    if let SynthesisOutcome::Realizable(vector) = &result.outcome {
        assert!(verify::check(&instance.dqbf, vector).is_valid());
    }
    assert!(
        iterations >= 20,
        "the run took {iterations} repair iterations, fewer than 20; \
         the acceptance assertion above is too weak"
    );
}
