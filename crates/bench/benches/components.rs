//! Component micro-benchmarks: the substrates Manthan3 is built from
//! (SAT, MaxSAT, sampling, decision-tree learning, AIG-to-CNF encoding).
//!
//! These support the per-phase cost discussion in EXPERIMENTS.md.

use criterion::{criterion_group, criterion_main, Criterion};
use manthan3_aig::Aig;
use manthan3_cnf::{CnfBuilder, Lit, Var};
use manthan3_dtree::{Dataset, DecisionTree, DecisionTreeConfig};
use manthan3_gen::planted::{planted_true, PlantedParams};
use manthan3_maxsat::MaxSatSolver;
use manthan3_sampler::{Sampler, SamplerConfig};
use manthan3_sat::Solver;
use std::collections::HashMap;
use std::time::Duration;

fn planted_matrix() -> manthan3_cnf::Cnf {
    let params = PlantedParams {
        num_universals: 10,
        num_existentials: 8,
        max_dependencies: 4,
        ..PlantedParams::default()
    };
    planted_true(&params, 7).dqbf.matrix().clone()
}

fn bench_sat(c: &mut Criterion) {
    let cnf = planted_matrix();
    c.bench_function("sat/solve_planted_matrix", |b| {
        b.iter(|| {
            let mut solver = Solver::new();
            solver.add_cnf(&cnf);
            std::hint::black_box(solver.solve())
        })
    });
}

fn bench_maxsat(c: &mut Criterion) {
    let cnf = planted_matrix();
    c.bench_function("maxsat/findcandi_style_query", |b| {
        b.iter(|| {
            let mut solver = MaxSatSolver::new();
            solver.add_hard_cnf(&cnf);
            for v in 0..8u32 {
                solver.add_soft([Lit::positive(Var::new(10 + v))], 1);
            }
            std::hint::black_box(solver.solve())
        })
    });
}

fn bench_sampler(c: &mut Criterion) {
    let cnf = planted_matrix();
    c.bench_function("sampler/draw_100_samples", |b| {
        b.iter(|| {
            let mut sampler = Sampler::new(&cnf, SamplerConfig::default());
            std::hint::black_box(sampler.sample(100).len())
        })
    });
}

fn bench_dtree(c: &mut Criterion) {
    // 400 rows over 12 features with a hidden 3-variable function.
    let rows: Vec<(Vec<bool>, bool)> = (0..400u32)
        .map(|i| {
            let features: Vec<bool> = (0..12)
                .map(|j| (i * 2654435761).wrapping_shr(j) & 1 == 1)
                .collect();
            let label = features[2] ^ (features[5] & features[9]);
            (features, label)
        })
        .collect();
    let dataset = Dataset::from_rows(rows);
    c.bench_function("dtree/learn_400x12", |b| {
        b.iter(|| {
            std::hint::black_box(DecisionTree::learn(
                &dataset,
                &DecisionTreeConfig::default(),
            ))
        })
    });
}

fn bench_aig_encode(c: &mut Criterion) {
    let mut aig = Aig::new();
    let inputs: Vec<_> = (0..16).map(|i| aig.input(i)).collect();
    let mut acc = inputs[0];
    for chunk in inputs.windows(2) {
        let x = aig.xor(chunk[0], chunk[1]);
        acc = aig.ite(x, acc, chunk[1]);
    }
    let map: HashMap<usize, Lit> = (0..16)
        .map(|i| (i, Var::new(i as u32).positive()))
        .collect();
    c.bench_function("aig/encode_cnf_16_inputs", |b| {
        b.iter(|| {
            let mut builder = CnfBuilder::new(16);
            std::hint::black_box(aig.encode_cnf(acc, &mut builder, &map, &mut HashMap::new()))
        })
    });
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2))
}

criterion_group! {
    name = components;
    config = config();
    targets = bench_sat, bench_maxsat, bench_sampler, bench_dtree, bench_aig_encode
}
criterion_main!(components);
