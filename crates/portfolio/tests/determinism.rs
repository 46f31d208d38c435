//! Portfolio determinism: the parallel runner's verdict on generated suite
//! instances must agree with the sequential per-engine outcomes — the winner
//! is an engine that also solves the instance standalone, every claimed
//! vector passes the independent certificate check, and the solved set
//! equals the sequential VBS solved set.
//!
//! The engines are deterministic under unlimited wall clock (seeded RNGs,
//! structural budgets only), so cancellation is the only racing effect: a
//! decisive engine can only be preempted by another decisive engine, whose
//! verdict — by soundness — agrees.

use manthan3_core::{Budget, Manthan3Config, SynthesisOutcome};
use manthan3_dqbf::verify;
use manthan3_gen::suite::suite;
use manthan3_gen::Instance;
use manthan3_portfolio::{Portfolio, PortfolioConfig, PortfolioEngine};

/// Engine settings shared by the sequential reference runs and the races:
/// no wall clock (determinism) and, for debug-build test speed, a tight
/// Manthan3 repair budget; the baselines run with their fixed caps.
fn portfolio_config() -> PortfolioConfig {
    PortfolioConfig {
        manthan3: Manthan3Config {
            num_samples: 60,
            max_repair_iterations: 40,
            ..Manthan3Config::default()
        },
        ..PortfolioConfig::default()
    }
}

/// A cross-family sample of the generated suite, kept small (the full-suite
/// race runs in `manthan3-bench`'s `tests/acceptance.rs`).
fn instances() -> Vec<Instance> {
    // The suite's first 30 entries are its three smallest size steps; every
    // family appears within each 10-instance step.
    suite(7, 1).into_iter().take(30).step_by(4).collect()
}

/// The sequential reference: each engine standalone, unlimited wall clock.
fn sequential_outcome(engine: PortfolioEngine, instance: &Instance) -> SynthesisOutcome {
    engine
        .synthesize(&portfolio_config(), &instance.dqbf, Budget::unlimited())
        .outcome
}

fn synthesized(dqbf: &manthan3_dqbf::Dqbf, outcome: &SynthesisOutcome) -> bool {
    matches!(outcome, SynthesisOutcome::Realizable(v) if verify::check(dqbf, v).is_valid())
}

#[test]
fn race_outcomes_match_sequential_outcomes() {
    let instances = instances();
    assert!(instances.len() >= 8, "suite sample unexpectedly small");
    let mut vbs_solved = 0usize;
    let mut race_solved = 0usize;

    for instance in &instances {
        let sequential: Vec<(PortfolioEngine, SynthesisOutcome)> = PortfolioEngine::ALL
            .iter()
            .map(|&e| (e, sequential_outcome(e, instance)))
            .collect();
        let seq_solved = sequential
            .iter()
            .any(|(_, o)| synthesized(&instance.dqbf, o));
        let seq_unrealizable = sequential
            .iter()
            .any(|(_, o)| matches!(o, SynthesisOutcome::Unrealizable));
        // Sanity: sound engines never disagree on decisive verdicts.
        assert!(
            !(seq_solved && seq_unrealizable),
            "{}: engines contradict each other",
            instance.name
        );

        if seq_solved {
            vbs_solved += 1;
        }

        let result = Portfolio::new(portfolio_config()).run(&instance.dqbf);
        if synthesized(&instance.dqbf, &result.outcome) {
            race_solved += 1;
        }
        match &result.outcome {
            SynthesisOutcome::Realizable(vector) => {
                assert!(
                    verify::check(&instance.dqbf, vector).is_valid(),
                    "{}: unverified vector won the race",
                    instance.name
                );
                assert!(
                    seq_solved,
                    "{}: race solved an instance no engine solves sequentially",
                    instance.name
                );
                // The winner is an engine that also solves it standalone.
                let winner = result.winner.expect("realizable race has a winner");
                let (_, seq) = sequential
                    .iter()
                    .find(|(e, _)| *e == winner)
                    .expect("winner took part");
                assert!(
                    synthesized(&instance.dqbf, seq),
                    "{}: winner {winner} does not solve the instance sequentially",
                    instance.name
                );
            }
            SynthesisOutcome::Unrealizable => {
                assert!(
                    seq_unrealizable,
                    "{}: race proved falsity no engine proves sequentially",
                    instance.name
                );
            }
            SynthesisOutcome::Unknown(_) => {
                assert!(
                    !seq_solved && !seq_unrealizable,
                    "{}: race lost a verdict some engine finds sequentially",
                    instance.name
                );
            }
        }
        // Ground truth (when the generator knows it) is never violated.
        if let Some(expected) = instance.expected {
            match &result.outcome {
                SynthesisOutcome::Realizable(_) => assert!(expected, "{}", instance.name),
                SynthesisOutcome::Unrealizable => assert!(!expected, "{}", instance.name),
                SynthesisOutcome::Unknown(_) => {}
            }
        }
    }

    // The race never solves fewer instances than the sequential VBS.
    assert!(
        race_solved >= vbs_solved,
        "race solved {race_solved}, sequential VBS {vbs_solved}"
    );
    assert!(vbs_solved > 0, "sample exercised no solvable instance");
}
