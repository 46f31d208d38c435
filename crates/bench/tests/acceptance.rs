//! Acceptance tests on the generated suite `suite(7, 1)`: the certifying
//! solver layer, the parallel portfolio and the learner's training-set size,
//! each checked end to end.

use manthan3_bench::{report, run_engine, run_suite, EngineKind, RunRecord};
use manthan3_core::{Manthan3, Manthan3Config, SynthesisOutcome};
use manthan3_dqbf::{verify, Dqbf, HenkinVector};
use manthan3_gen::controller::{controller, ControllerParams};
use manthan3_gen::suite::suite;
use manthan3_portfolio::PortfolioConfig;
use std::time::Duration;

/// The summed engine time of `records`.
fn total_time(records: &[RunRecord]) -> Duration {
    records.iter().map(|record| record.time).sum()
}

/// The certifying solver layer: every UNSAT verdict the engine reaches
/// across the suite must come with a DRAT certificate the independent
/// `manthan3-drat` checker accepts. A single rejection is a soundness alarm.
/// Certification may not change any verdict, and the logging + in-process
/// checking overhead must stay bounded relative to the plain run.
#[test]
fn certified_suite_run_checks_every_unsat_verdict() {
    let instances = suite(7, 1);
    let plain_config = PortfolioConfig::default();
    let mut certifying = plain_config.clone();
    certifying.manthan3.certify = true;

    let mut checked_total = 0u64;
    let mut proof_bytes_total = 0u64;
    let mut certified_wall = Duration::ZERO;
    let mut plain_wall = Duration::ZERO;
    for instance in &instances {
        let certified = run_engine(EngineKind::Manthan3, instance, &certifying);
        certified_wall += certified.time;
        let plain = run_engine(EngineKind::Manthan3, instance, &plain_config);
        plain_wall += plain.time;

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
        // with the plain run, and a claimed vector still passes the
        // independent whole-formula check (`run_engine` labels one that
        // fails it `invalid`).
        assert_eq!(
            certified.outcome, plain.outcome,
            "certification changed the verdict on instance {}",
            instance.name
        );
        assert_ne!(certified.outcome, "invalid", "instance {}", instance.name);
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
    // Proof logging + in-process RUP checking must not dominate the run.
    // Each solver's log is checked once, by one session that advances with
    // every verdict, but a forward check still verifies every lemma the log
    // holds, used or not, and a run's closing verdict is its error solver's
    // first certificate. The bound is therefore loose, and still catches
    // pathological regressions.
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
    let config = PortfolioConfig::with_time_budget(Duration::from_millis(250));

    let sequential = run_suite(&instances, &EngineKind::ALL, &config);
    let race = run_suite(&instances, &[EngineKind::Portfolio], &config);
    let (sequential_wall, race_wall) = (total_time(&sequential), total_time(&race));
    let summary = report::summary(&[sequential, race].concat());
    let race_solved = summary.portfolio_synthesized.expect("portfolio records");

    assert!(
        race_solved >= summary.vbs_with_manthan3,
        "parallel portfolio solved {race_solved} < sequential VBS {}",
        summary.vbs_with_manthan3
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

/// The vector Manthan3 synthesizes for `dqbf`, if it passes the independent
/// check. A [`RunRecord`] keeps no vector, so the size comparison below runs
/// the engine directly.
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
    let instances = suite(7, 1);
    let true_instances = instances
        .iter()
        .filter(|instance| instance.expected != Some(false));
    let default = PortfolioConfig::with_time_budget(Duration::from_millis(500));
    let mut large = default.clone();
    large.manthan3.num_samples = LARGE_TRAINING_SET;
    let solved = |config: &PortfolioConfig| {
        let records = run_suite(true_instances.clone(), &[EngineKind::Manthan3], config);
        records.iter().filter(|record| record.synthesized).count()
    };
    let (default_solved, large_solved) = (solved(&default), solved(&large));
    assert!(
        default_solved >= large_solved,
        "the default synthesized {default_solved} true instances, \
         {LARGE_TRAINING_SET} samples {large_solved}"
    );
}
