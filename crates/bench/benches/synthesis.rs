//! End-to-end synthesis benchmarks: one small instance per benchmark family,
//! each engine (Manthan3, HQS2-like expansion, Pedant-like arbiter).
//!
//! These are the per-engine timings underlying the Figure 6–10 data at a
//! micro scale; the full figure data is produced by the `harness` binary.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use manthan3_baselines::{ArbiterConfig, ArbiterSolver, ExpansionConfig, ExpansionSolver};
use manthan3_bench::{run_engine, EngineKind, RunRecord};
use manthan3_cnf::{Lit, Var};
use manthan3_core::{
    find_candidates_from_scratch, Budget, Manthan3, Manthan3Config, Oracle, RepairSession, Sigma,
    SynthesisOutcome, VerifySession,
};
use manthan3_dqbf::{verify, Dqbf, HenkinVector};
use manthan3_gen::controller::{controller, ControllerParams};
use manthan3_gen::pec::{pec, PecParams};
use manthan3_gen::planted::{planted_true, PlantedParams};
use manthan3_gen::skolem::{skolem, SkolemParams};
use manthan3_gen::succinct::{succinct, SuccinctParams};
use manthan3_gen::suite::suite;
use manthan3_gen::Instance;
use manthan3_portfolio::{Portfolio, PortfolioConfig};
use manthan3_sat::{SolveResult, Solver};
use std::collections::BTreeMap;
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

fn small_instances() -> Vec<Instance> {
    vec![
        planted_true(
            &PlantedParams {
                num_universals: 5,
                num_existentials: 3,
                max_dependencies: 3,
                ..PlantedParams::default()
            },
            21,
        ),
        pec(
            &PecParams {
                num_inputs: 3,
                num_gates: 4,
                num_blackboxes: 1,
                restrict_observability: false,
            },
            21,
        ),
        controller(
            &ControllerParams {
                num_clients: 3,
                observation_window: 3,
            },
            21,
        ),
        succinct(
            &SuccinctParams {
                num_propositional: 6,
                num_clauses: 18,
                planted_satisfiable: true,
            },
            21,
        ),
        skolem(
            &SkolemParams {
                num_universals: 4,
                num_existentials: 2,
                drop_probability: 0.1,
            },
            21,
        ),
    ]
}

fn bench_engines(c: &mut Criterion) {
    let mut group = c.benchmark_group("synthesis");
    for instance in small_instances() {
        group.bench_with_input(
            BenchmarkId::new("manthan3", &instance.name),
            &instance,
            |b, inst| {
                b.iter(|| {
                    std::hint::black_box(
                        Manthan3::new(Manthan3Config::fast()).synthesize(&inst.dqbf),
                    )
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("hqs2like", &instance.name),
            &instance,
            |b, inst| {
                b.iter(|| {
                    std::hint::black_box(
                        ExpansionSolver::new(ExpansionConfig::default()).synthesize(&inst.dqbf),
                    )
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("pedantlike", &instance.name),
            &instance,
            |b, inst| {
                b.iter(|| {
                    std::hint::black_box(
                        ArbiterSolver::new(ArbiterConfig::default()).synthesize(&inst.dqbf),
                    )
                })
            },
        );
    }
    group.finish();
}

/// Builds a verification workload: a planted instance, plus two candidate
/// vectors sharing one AIG that differ in a single output — the shape of a
/// repair iteration (one candidate changed, the rest untouched).
fn verification_workload() -> (Dqbf, HenkinVector, HenkinVector) {
    let instance = planted_true(
        &PlantedParams {
            num_universals: 8,
            num_existentials: 6,
            max_dependencies: 4,
            ..PlantedParams::default()
        },
        5,
    );
    let dqbf = instance.dqbf;
    let mut base = HenkinVector::new();
    for &y in dqbf.existentials() {
        // Arbitrary (mostly wrong) candidates: the parity of the first two
        // dependencies, or constant false.
        let deps: Vec<_> = dqbf.dependencies(y).iter().copied().collect();
        let f = match deps.as_slice() {
            [] => base.aig().constant(false),
            [d] => {
                let i = base.aig_mut().input(d.index());
                i
            }
            [a, b, ..] => {
                let ia = base.aig_mut().input(a.index());
                let ib = base.aig_mut().input(b.index());
                base.aig_mut().xor(ia, ib)
            }
        };
        base.set(y, f);
    }
    // The alternative generation: one output's candidate is extended, the
    // way repair strengthens/weakens a function.
    let &swapped = dqbf.existentials().first().expect("instance has outputs");
    let current = base.get(swapped).expect("candidate set");
    let first_universal = dqbf.universals()[0];
    let extra = base.aig_mut().input(first_universal.index());
    let extended = base.aig_mut().or(current, extra);
    let mut alt = base.clone();
    alt.set(swapped, extended);
    (dqbf, base, alt)
}

/// The acceptance benchmark for the persistent session: a verify loop of
/// `LOOP_ITERATIONS` iterations with one candidate change per iteration —
/// the shape of the engine's verify–repair loop. On the reused incremental
/// session each iteration pays only for the changed candidate (activation
/// swap + cached encoding); the from-scratch variant re-encodes the error
/// formula and rebuilds the solver every iteration, so its cost scales with
/// the full encoding instead of the change.
///
/// The 200-iteration length doubles as the error-solver hygiene watchdog
/// (ROADMAP "error-solver hygiene"): it spans several of the session's
/// periodic maintenance passes (learnt-DB trimming plus garbage collection
/// of retired activation generations, every 32 retirements), so a
/// regression that lets the solver state grow with the generation count
/// shows up here as super-linear per-iteration cost.
fn bench_verification_session(c: &mut Criterion) {
    const LOOP_ITERATIONS: usize = 200;
    let (dqbf, base, alt) = verification_workload();
    let mut group = c.benchmark_group("verify_session");

    group.bench_function("incremental_reuse", |b| {
        b.iter(|| {
            let mut oracle = Oracle::new(Budget::unlimited());
            let mut session = VerifySession::new(&dqbf, &mut oracle);
            for i in 0..LOOP_ITERATIONS {
                let vector = if i % 2 == 0 { &base } else { &alt };
                std::hint::black_box(session.verify(&dqbf, vector, &mut oracle));
            }
        })
    });

    group.bench_function("from_scratch", |b| {
        b.iter(|| {
            for i in 0..LOOP_ITERATIONS {
                let vector = if i % 2 == 0 { &base } else { &alt };
                // The pre-oracle-layer behaviour: fresh solver + full error
                // formula encoding on every iteration.
                let mut oracle = Oracle::new(Budget::unlimited());
                let mut session = VerifySession::new(&dqbf, &mut oracle);
                std::hint::black_box(session.verify(&dqbf, vector, &mut oracle));
            }
        })
    });

    group.finish();
}

/// The acceptance benchmark for the parallel portfolio (ISSUE 2): on the
/// full generated suite `suite(7, 1)` the racing portfolio must synthesize
/// at least as many instances as the post-hoc sequential VBS, in total
/// wall-clock below the *sum* of the sequential per-engine runs — the
/// cooperative cancellation stops the losing engines within milliseconds,
/// so the race never pays for more than (roughly) the winner.
///
/// The full-suite comparison runs once and is printed (and asserted); the
/// criterion-timed series then races a small cross-family subset so the
/// parallel and sequential paths stay comparable over time.
///
/// The assertions are robust to machine variance: every instance this suite
/// solves at all is solved in a few tens of milliseconds — more than an
/// order of magnitude under the 250 ms budget — and the comparison holds
/// with a ~4x margin even on a single-core host (where the racing threads
/// time-slice); additional cores only widen the gap.
fn bench_portfolio(c: &mut Criterion) {
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

    println!(
        "portfolio acceptance on suite(7, 1): sequential VBS solved {} in {:.2}s total, \
         parallel race solved {} in {:.2}s total",
        vbs_solved.len(),
        sequential_wall.as_secs_f64(),
        race_solved,
        race_wall.as_secs_f64(),
    );
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

    let subset: Vec<Instance> = instances.into_iter().take(30).step_by(5).collect();
    let mut group = c.benchmark_group("portfolio");
    group.bench_function("parallel_race", |b| {
        b.iter(|| {
            for instance in &subset {
                let config = PortfolioConfig::with_time_budget(budget);
                std::hint::black_box(Portfolio::new(config).run(&instance.dqbf));
            }
        })
    });
    group.bench_function("sequential_engines", |b| {
        b.iter(|| {
            for instance in &subset {
                for engine in EngineKind::ALL {
                    std::hint::black_box(run_engine(engine, instance, budget, false));
                }
            }
        })
    });
    group.finish();
}

/// Deterministic splitmix64 so the workload needs no RNG dependency.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A repair-heavy FindCandidates workload on a `suite(7, 1)` instance: the
/// satisfiable suite instance with the largest matrix × output product, plus
/// a deterministic sequence of counterexamples σ whose σ[X] all extend to a
/// model of ϕ (the only shape the engine ever queries).
fn repair_workload(iterations: usize) -> (Dqbf, Vec<Sigma>) {
    let dqbf = suite(7, 1)
        .into_iter()
        .map(|i| i.dqbf)
        .filter(|d| {
            if d.existentials().len() < 3 {
                return false;
            }
            let mut solver = Solver::new();
            solver.add_cnf(d.matrix());
            solver.ensure_vars(d.num_vars());
            solver.solve() == SolveResult::Sat
        })
        .max_by_key(|d| d.matrix().clauses().len() * d.existentials().len())
        .expect("the suite contains satisfiable instances with outputs");

    let mut phi = Solver::new();
    phi.add_cnf(dqbf.matrix());
    phi.ensure_vars(dqbf.num_vars());
    let mut rng_state = 0x0BE5_EED5u64;
    let mut sigmas = Vec::with_capacity(iterations);
    while sigmas.len() < iterations {
        let x: BTreeMap<Var, bool> = dqbf
            .universals()
            .iter()
            .map(|&v| (v, splitmix64(&mut rng_state) & 1 == 1))
            .collect();
        let assumptions: Vec<Lit> = x.iter().map(|(&v, &b)| v.lit(b)).collect();
        if phi.solve_with_assumptions(&assumptions) != SolveResult::Sat {
            continue;
        }
        let pi = phi.model();
        sigmas.push(Sigma {
            y: dqbf
                .existentials()
                .iter()
                .map(|&y| (y, pi.get(y).unwrap_or(false)))
                .collect(),
            y_prime: dqbf
                .existentials()
                .iter()
                .map(|&y| (y, splitmix64(&mut rng_state) & 1 == 1))
                .collect(),
            x,
        });
    }
    (dqbf, sigmas)
}

/// Runs the FindCandidates sweep on one persistent [`RepairSession`];
/// returns the oracle for the stats assertions.
fn sweep_incremental(dqbf: &Dqbf, sigmas: &[Sigma]) -> Oracle {
    let mut oracle = Oracle::new(Budget::unlimited());
    let mut session = RepairSession::new(dqbf, &mut oracle);
    for sigma in sigmas {
        std::hint::black_box(session.find_candidates(dqbf, sigma, &mut oracle));
    }
    oracle
}

/// Runs the same sweep on the pre-incremental path: a full hard-clause
/// MaxSAT rebuild per call.
fn sweep_from_scratch(dqbf: &Dqbf, sigmas: &[Sigma]) {
    let mut oracle = Oracle::new(Budget::unlimited());
    for sigma in sigmas {
        std::hint::black_box(find_candidates_from_scratch(dqbf, sigma, &mut oracle));
    }
}

/// The acceptance benchmark for the persistent repair session (ISSUE 3): a
/// FindCandidates sweep of well over 20 repair iterations must be served by
/// exactly one MaxSAT hard-encoding construction — every call under
/// assumptions.
///
/// The one-shot comparison against the from-scratch rebuild-per-call path
/// on the same sigma sequence repeats both sweeps several times and prints
/// the wall-clock ratio rather than asserting it (it flaps on a loaded
/// host); the criterion-timed series then tracks both paths over time.
fn bench_repair_incremental(c: &mut Criterion) {
    const REPAIR_ITERATIONS: usize = 30;
    const ACCEPTANCE_ROUNDS: usize = 20;
    let (dqbf, sigmas) = repair_workload(REPAIR_ITERATIONS);

    let incremental_start = Instant::now();
    let mut oracle = None;
    for _ in 0..ACCEPTANCE_ROUNDS {
        oracle = Some(sweep_incremental(&dqbf, &sigmas));
    }
    let incremental_wall = incremental_start.elapsed();
    let stats = *oracle.expect("at least one sweep ran").stats();
    assert_eq!(
        stats.maxsat_hard_encodings, 1,
        "a {REPAIR_ITERATIONS}-iteration repair sweep must build exactly one hard encoding"
    );
    assert_eq!(stats.maxsat_incremental_calls, REPAIR_ITERATIONS);
    assert_eq!(stats.maxsat_calls, REPAIR_ITERATIONS);

    let scratch_start = Instant::now();
    for _ in 0..ACCEPTANCE_ROUNDS {
        sweep_from_scratch(&dqbf, &sigmas);
    }
    let scratch_wall = scratch_start.elapsed();

    println!(
        "repair_incremental acceptance: {REPAIR_ITERATIONS} FindCandidates calls x \
         {ACCEPTANCE_ROUNDS} rounds — incremental session {:.2}ms, from-scratch rebuild {:.2}ms \
         ({:.1}x)",
        incremental_wall.as_secs_f64() * 1e3,
        scratch_wall.as_secs_f64() * 1e3,
        scratch_wall.as_secs_f64() / incremental_wall.as_secs_f64().max(1e-9),
    );

    let mut group = c.benchmark_group("repair_incremental");
    group.bench_function("incremental_session", |b| {
        b.iter(|| sweep_incremental(&dqbf, &sigmas))
    });
    group.bench_function("from_scratch", |b| {
        b.iter(|| sweep_from_scratch(&dqbf, &sigmas))
    });
    group.finish();
}

/// The acceptance benchmark of the certifying solver layer (ISSUE 10): every
/// UNSAT verdict the engine reaches across the `suite(7, 1)` workload must
/// come with a DRAT certificate the independent `manthan3-drat` checker accepts.
/// A single rejection is a soundness alarm and fails the bench outright.
/// Certification may not change any verdict, and the logging + in-process
/// checking overhead must stay bounded relative to the plain run.
///
/// The criterion-timed series then tracks certified-vs-plain synthesis on
/// one repair-heavy instance, so the proof-logging overhead has a
/// machine-readable trajectory across PRs.
fn bench_certified(c: &mut Criterion) {
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
    let overhead = certified_wall.as_secs_f64() / plain_wall.as_secs_f64().max(1e-9);
    println!(
        "certified acceptance: {checked_total} UNSAT certificates checked, 0 rejected, \
         {proof_bytes_total} proof bytes over {} instances — certified \
         {:.2}s vs plain {:.2}s ({overhead:.2}x overhead)",
        instances.len(),
        certified_wall.as_secs_f64(),
        plain_wall.as_secs_f64(),
    );
    // Proof logging + in-process RUP/RAT checking must not dominate the run.
    // The bound is deliberately loose (checking is quadratic on the hardest
    // refutations) but still catches pathological regressions.
    assert!(
        overhead <= 5.0,
        "certification overhead {overhead:.2}x exceeds the 5x acceptance bound \
         (certified {certified_wall:?}, plain {plain_wall:?})"
    );

    // Timed series on one repair-heavy instance: the certified-vs-plain gap
    // is the per-PR proof-logging overhead trajectory.
    let timed = instances
        .iter()
        .find(|instance| {
            Manthan3::new(Manthan3Config::default())
                .synthesize(&instance.dqbf)
                .stats
                .repair_iterations
                > 0
        })
        .expect("the suite contains a repair-heavy instance");
    let mut group = c.benchmark_group("certified");
    group.bench_function("certified", |b| {
        b.iter(|| {
            std::hint::black_box(
                Manthan3::new(Manthan3Config {
                    certify: true,
                    ..Manthan3Config::default()
                })
                .synthesize(&timed.dqbf),
            )
        })
    });
    group.bench_function("plain", |b| {
        b.iter(|| {
            std::hint::black_box(Manthan3::new(Manthan3Config::default()).synthesize(&timed.dqbf))
        })
    });
    group.finish();
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2))
}

criterion_group! {
    name = synthesis;
    config = config();
    targets = bench_engines, bench_verification_session, bench_repair_incremental,
        bench_portfolio, bench_certified
}
criterion_main!(synthesis);
