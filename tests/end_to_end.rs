//! Cross-crate integration tests: the full synthesis pipeline on each
//! benchmark family, cross-engine agreement, and the paper's worked examples.

use manthan3::baselines::{ArbiterSolver, ExpansionSolver};
use manthan3::core::{Manthan3, Manthan3Config, SynthesisOutcome};
use manthan3::dqbf::{parse_dqdimacs, semantics, verify, write_dqdimacs, Dqbf};
use manthan3::gen::controller::{controller, ControllerParams};
use manthan3::gen::pec::{pec, PecParams};
use manthan3::gen::planted::{planted_false, planted_true, PlantedParams};
use manthan3::gen::skolem::{skolem, SkolemParams};
use manthan3::gen::succinct::{succinct, SuccinctParams};
use manthan3::gen::suite::suite;

fn default_engine() -> Manthan3 {
    Manthan3::new(Manthan3Config::default())
}

/// Asserts that an engine outcome is sound with respect to the expected
/// status: realizable vectors verify, and definite verdicts match the ground
/// truth when it is known.
fn assert_sound(name: &str, dqbf: &Dqbf, outcome: &SynthesisOutcome, expected: Option<bool>) {
    match outcome {
        SynthesisOutcome::Realizable(vector) => {
            assert!(
                verify::check(dqbf, vector).is_valid(),
                "{name}: returned vector fails the certificate check"
            );
            if let Some(status) = expected {
                assert!(status, "{name}: synthesized a vector for a false instance");
            }
        }
        SynthesisOutcome::Unrealizable => {
            if let Some(status) = expected {
                assert!(!status, "{name}: declared a true instance unrealizable");
            }
        }
        SynthesisOutcome::Unknown(_) => {}
    }
}

#[test]
fn manthan3_solves_the_paper_example_and_the_result_verifies() {
    let dqbf = Dqbf::paper_example();
    let result = default_engine().synthesize(&dqbf);
    match result.outcome {
        SynthesisOutcome::Realizable(vector) => {
            assert!(verify::check(&dqbf, &vector).is_valid());
            assert!(vector.dependency_violation(&dqbf).is_none());
        }
        other => panic!("expected success on the paper example, got {other:?}"),
    }
}

#[test]
fn xor_limitation_example_is_never_misreported() {
    // Manthan3 may fail on this instance (the paper's incompleteness
    // discussion) but must not claim it false; the expansion baseline solves
    // it outright.
    let dqbf = Dqbf::xor_limitation_example();
    let manthan = default_engine().synthesize(&dqbf);
    assert!(
        !matches!(manthan.outcome, SynthesisOutcome::Unrealizable),
        "true instance declared false"
    );
    let expansion = ExpansionSolver.synthesize(&dqbf);
    let vector = expansion
        .vector()
        .expect("expansion solves the XOR example");
    assert!(verify::check(&dqbf, vector).is_valid());
}

#[test]
fn all_engines_agree_with_ground_truth_on_planted_instances() {
    for seed in 0..6 {
        let params = PlantedParams {
            num_universals: 4,
            num_existentials: 3,
            max_dependencies: 2,
            ..PlantedParams::default()
        };
        for instance in [planted_true(&params, seed), planted_false(&params, seed)] {
            let dqbf = &instance.dqbf;
            assert_sound(
                "manthan3",
                dqbf,
                &default_engine().synthesize(dqbf).outcome,
                instance.expected,
            );
            assert_sound(
                "expansion",
                dqbf,
                &ExpansionSolver.synthesize(dqbf).outcome,
                instance.expected,
            );
            assert_sound(
                "arbiter",
                dqbf,
                &ArbiterSolver.synthesize(dqbf).outcome,
                instance.expected,
            );
        }
    }
}

#[test]
fn pec_instances_are_synthesized_and_verified() {
    let params = PecParams {
        num_inputs: 3,
        num_gates: 4,
        num_blackboxes: 1,
        restrict_observability: false,
    };
    for seed in 0..3 {
        let instance = pec(&params, seed);
        let result = default_engine().synthesize(&instance.dqbf);
        assert_sound(
            "manthan3/pec",
            &instance.dqbf,
            &result.outcome,
            instance.expected,
        );
        let expansion = ExpansionSolver.synthesize(&instance.dqbf);
        assert_sound(
            "expansion/pec",
            &instance.dqbf,
            &expansion.outcome,
            instance.expected,
        );
    }
}

#[test]
fn controller_instances_match_their_known_status() {
    let realizable = controller(
        &ControllerParams {
            num_clients: 3,
            observation_window: 3,
        },
        0,
    );
    let unrealizable = controller(
        &ControllerParams {
            num_clients: 3,
            observation_window: 1,
        },
        0,
    );
    for instance in [&realizable, &unrealizable] {
        let expansion = ExpansionSolver.synthesize(&instance.dqbf);
        assert_sound(
            "expansion/controller",
            &instance.dqbf,
            &expansion.outcome,
            instance.expected,
        );
        let manthan = default_engine().synthesize(&instance.dqbf);
        assert_sound(
            "manthan3/controller",
            &instance.dqbf,
            &manthan.outcome,
            instance.expected,
        );
    }
    // The realizable side must actually be solved by the expansion engine.
    assert!(ExpansionSolver
        .synthesize(&realizable.dqbf)
        .outcome
        .is_realizable());
}

#[test]
fn succinct_and_skolem_families_are_solved() {
    let succinct_instance = succinct(
        &SuccinctParams {
            num_propositional: 6,
            num_clauses: 15,
            planted_satisfiable: true,
        },
        4,
    );
    let skolem_instance = skolem(
        &SkolemParams {
            num_universals: 4,
            num_existentials: 2,
            drop_probability: 0.1,
        },
        4,
    );
    for instance in [&succinct_instance, &skolem_instance] {
        let result = default_engine().synthesize(&instance.dqbf);
        assert_sound(
            "manthan3",
            &instance.dqbf,
            &result.outcome,
            instance.expected,
        );
        let arbiter = ArbiterSolver.synthesize(&instance.dqbf);
        assert_sound(
            "arbiter",
            &instance.dqbf,
            &arbiter.outcome,
            instance.expected,
        );
    }
}

#[test]
fn dqdimacs_round_trip_preserves_synthesis_results() {
    let instance = planted_true(
        &PlantedParams {
            num_universals: 4,
            num_existentials: 3,
            max_dependencies: 2,
            ..PlantedParams::default()
        },
        9,
    );
    let text = write_dqdimacs(&instance.dqbf);
    let reparsed = parse_dqdimacs(&text).expect("writer output parses");
    let result = default_engine().synthesize(&reparsed);
    assert_sound(
        "manthan3/reparsed",
        &reparsed,
        &result.outcome,
        instance.expected,
    );
}

#[test]
fn engines_never_contradict_the_brute_force_oracle_on_the_small_suite() {
    // Take the smallest instances of the generated suite that the
    // brute-force oracle can decide and check every engine against it.
    let mut checked = 0;
    for instance in suite(13, 1) {
        let Some(truth) = semantics::brute_force_truth(&instance.dqbf, 12) else {
            continue;
        };
        checked += 1;
        if let Some(expected) = instance.expected {
            assert_eq!(expected, truth, "generator mislabeled {}", instance.name);
        }
        for (name, outcome) in [
            (
                "manthan3",
                default_engine().synthesize(&instance.dqbf).outcome,
            ),
            (
                "expansion",
                ExpansionSolver.synthesize(&instance.dqbf).outcome,
            ),
            ("arbiter", ArbiterSolver.synthesize(&instance.dqbf).outcome),
        ] {
            assert_sound(name, &instance.dqbf, &outcome, Some(truth));
        }
    }
    assert!(
        checked > 0,
        "the suite must contain brute-forceable instances"
    );
}

#[test]
fn synthesis_statistics_are_populated() {
    let dqbf = Dqbf::paper_example();
    let result = default_engine().synthesize(&dqbf);
    assert!(result.stats.samples > 0);
    assert!(result.stats.total_time > std::time::Duration::ZERO);
    assert!(result.stats.verification_checks >= 1);
}
