//! Acceptance tests on the generated suite `suite(7, 1)`: the certifying
//! solver layer, the parallel portfolio and the learner's training-set size,
//! each checked end to end.

use manthan3_bench::{run_engine, EngineKind, RunRecord};
use manthan3_core::{Manthan3, Manthan3Config, SynthesisOutcome};
use manthan3_dqbf::{verify, Dqbf, HenkinVector};
use manthan3_gen::controller::{controller, ControllerParams};
use manthan3_gen::suite::suite;
use manthan3_portfolio::{Portfolio, PortfolioConfig};
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

/// The certifying solver layer: every UNSAT verdict the engine reaches
/// across the suite must come with a DRAT certificate the independent
/// `manthan3-drat` checker accepts. A single rejection is a soundness alarm.
/// Certification may not change any verdict, and the logging + in-process
/// checking overhead must stay bounded relative to the plain run.
#[test]
fn certified_suite_run_checks_every_unsat_verdict() {
    let instances = suite(7, 1);

    let mut checked_total = 0u64;
    let mut proof_bytes_total = 0u64;
    let mut certified_wall = Duration::ZERO;
    let mut plain_wall = Duration::ZERO;
    for instance in &instances {
        let start = Instant::now();
        let certified = Manthan3::new(Manthan3Config {
            certify: true,
            ..Manthan3Config::default()
        })
        .synthesize(&instance.dqbf);
        certified_wall += start.elapsed();

        let start = Instant::now();
        let plain = Manthan3::new(Manthan3Config::default()).synthesize(&instance.dqbf);
        plain_wall += start.elapsed();

        // Soundness: no rejected certificates, anywhere, ever.
        assert_eq!(
            certified.stats.oracle.certificates_rejected, 0,
            "instance {} produced a rejected DRAT certificate",
            instance.name
        );
        assert!(
            certified.stats.certification_failure.is_none(),
            "instance {} surfaced a certification failure",
            instance.name
        );
        // Certification is observation, not interference: verdicts agree
        // with the plain run, and a synthesized vector still passes the
        // independent whole-formula check.
        assert_eq!(
            std::mem::discriminant(&certified.outcome),
            std::mem::discriminant(&plain.outcome),
            "certification changed the verdict on instance {}",
            instance.name
        );
        if let SynthesisOutcome::Realizable(vector) = &certified.outcome {
            assert!(verify::check(&instance.dqbf, vector).is_valid());
        }
        checked_total += certified.stats.oracle.certificates_checked;
        proof_bytes_total += certified.stats.oracle.proof_bytes;
    }
    assert!(
        checked_total > 0,
        "the suite produced no UNSAT verdicts to certify"
    );
    assert!(
        proof_bytes_total > 0,
        "certifying runs logged no proof bytes"
    );
    // Proof logging + in-process RUP/RAT checking must not dominate the run.
    // The bound is deliberately loose (checking is quadratic on the hardest
    // refutations) but still catches pathological regressions.
    let overhead = certified_wall.as_secs_f64() / plain_wall.as_secs_f64().max(1e-9);
    assert!(
        overhead <= 5.0,
        "certification overhead {overhead:.2}x exceeds the 5x bound \
         (certified {certified_wall:?}, plain {plain_wall:?})"
    );
}

/// The parallel portfolio: with a 250 ms budget per instance, the race must
/// synthesize at least as many instances as the post-hoc sequential VBS, in
/// total wall clock below the *sum* of the sequential per-engine runs.
/// Cooperative cancellation stops the losing engines within milliseconds, so
/// the race never pays for much more than the winner.
///
/// The assertions are robust to machine variance: every instance this suite
/// solves at all is solved well under the 250 ms budget, and the wall-clock
/// comparison holds with a wide margin even on a single-core host (where the
/// racing threads time-slice); additional cores only widen the gap.
#[test]
fn race_solves_at_least_the_vbs_in_less_than_the_sequential_sum() {
    let instances = suite(7, 1);
    let budget = Duration::from_millis(250);

    let sequential_start = Instant::now();
    let records: Vec<RunRecord> = instances
        .iter()
        .flat_map(|instance| {
            EngineKind::ALL
                .iter()
                .map(|&engine| run_engine(engine, instance, budget, false))
        })
        .collect();
    let sequential_wall = sequential_start.elapsed();
    let vbs_solved: BTreeSet<&String> = records
        .iter()
        .filter(|r| r.synthesized)
        .map(|r| &r.instance)
        .collect();

    let race_start = Instant::now();
    let mut race_solved = 0usize;
    for instance in &instances {
        let config = PortfolioConfig::with_time_budget(budget);
        let result = Portfolio::new(config).run(&instance.dqbf);
        if result
            .vector()
            .is_some_and(|v| verify::check(&instance.dqbf, v).is_valid())
        {
            race_solved += 1;
        }
    }
    let race_wall = race_start.elapsed();

    assert!(
        race_solved >= vbs_solved.len(),
        "parallel portfolio solved {race_solved} < sequential VBS {}",
        vbs_solved.len()
    );
    assert!(
        race_wall < sequential_wall,
        "parallel race ({race_wall:?}) is not below the sum of sequential runs \
         ({sequential_wall:?})"
    );
}

/// The sample count the learner was tuned away from: trees grown to purity
/// over 400 samples.
const LARGE_TRAINING_SET: usize = 400;

fn synthesize_checked(dqbf: &Dqbf, config: Manthan3Config) -> Option<HenkinVector> {
    match Manthan3::new(config).synthesize(dqbf).outcome {
        SynthesisOutcome::Realizable(vector) if verify::check(dqbf, &vector).is_valid() => {
            Some(vector)
        }
        _ => None,
    }
}

/// The right-sized learner: the default training set yields candidates at
/// most a quarter the size of the ones 400 samples give, and verify/repair
/// closes the gap, so the default still synthesizes as many instances as the
/// large training set does.
#[test]
fn right_sized_learner_gives_small_candidates_and_loses_no_instance() {
    // Pure trees grow with their data: on the 10-client controller the
    // vector learned from 400 samples has about 6,600 AND gates.
    let dqbf = controller(
        &ControllerParams {
            num_clients: 10,
            observation_window: 10,
        },
        0,
    )
    .dqbf;
    let large = synthesize_checked(
        &dqbf,
        Manthan3Config {
            num_samples: LARGE_TRAINING_SET,
            ..Manthan3Config::default()
        },
    )
    .expect("400 samples synthesize the controller");
    let default = synthesize_checked(&dqbf, Manthan3Config::default())
        .expect("the default synthesizes the controller");
    assert!(
        4 * default.total_size() <= large.total_size(),
        "default vector has {} AND gates, more than a quarter of the {} that \
         {LARGE_TRAINING_SET} samples give",
        default.total_size(),
        large.total_size()
    );

    // Quality: on the suite's true instances under a 500 ms budget the
    // default synthesizes at least as many as the large training set.
    let budget = Some(Duration::from_millis(500));
    let (mut default_solved, mut large_solved) = (0usize, 0usize);
    for instance in suite(7, 1) {
        if instance.expected == Some(false) {
            continue;
        }
        let default = Manthan3Config {
            time_budget: budget,
            ..Manthan3Config::default()
        };
        let large = Manthan3Config {
            num_samples: LARGE_TRAINING_SET,
            ..default.clone()
        };
        default_solved += usize::from(synthesize_checked(&instance.dqbf, default).is_some());
        large_solved += usize::from(synthesize_checked(&instance.dqbf, large).is_some());
    }
    assert!(
        default_solved >= large_solved,
        "the default synthesized {default_solved} true instances, \
         {LARGE_TRAINING_SET} samples {large_solved}"
    );
}
