//! Partial-circuit equivalence checking / ECO-style patch synthesis.
//!
//! A golden circuit is given; in a copy of it one gate has been blanked out
//! (a "black box" with restricted observability). We ask each engine whether
//! the black box can be implemented so that the patched circuit is
//! equivalent to the golden one, and print the synthesized patch function —
//! the engineering-change-order application highlighted in the paper's
//! introduction.
//!
//! Run with `cargo run --example partial_equivalence`.

use manthan3::baselines::{ArbiterSolver, ExpansionSolver};
use manthan3::core::{Manthan3, Manthan3Config, SynthesisOutcome};
use manthan3::dqbf::verify;
use manthan3::gen::pec::{pec, PecParams};

fn main() {
    let params = PecParams {
        num_inputs: 4,
        num_gates: 5,
        num_blackboxes: 1,
        restrict_observability: false,
    };
    let instance = pec(&params, 2023);
    println!("instance {}: {}", instance.name, instance.dqbf.summary());
    for &y in instance.dqbf.existentials() {
        let deps = instance.dqbf.dependencies(y);
        if deps.len() < instance.dqbf.universals().len() {
            println!("  black box output {y} observes only {deps:?}");
        }
    }

    // Manthan3.
    let manthan3 = Manthan3::new(Manthan3Config::default()).synthesize(&instance.dqbf);
    report("manthan3", &instance.dqbf, &manthan3.outcome);
    println!("  stats: {}", manthan3.stats.summary());

    // The two baselines the paper compares against.
    let expansion = ExpansionSolver.synthesize(&instance.dqbf);
    report("hqs2-like expansion", &instance.dqbf, &expansion.outcome);
    let arbiter = ArbiterSolver.synthesize(&instance.dqbf);
    report("pedant-like arbiter", &instance.dqbf, &arbiter.outcome);
}

fn report(engine: &str, dqbf: &manthan3::dqbf::Dqbf, outcome: &SynthesisOutcome) {
    match outcome {
        SynthesisOutcome::Realizable(vector) => {
            let valid = verify::check(dqbf, vector).is_valid();
            println!(
                "{engine}: synthesized a patch ({} AND gates, certificate {})",
                vector.total_size(),
                if valid { "valid" } else { "INVALID" }
            );
        }
        SynthesisOutcome::Unrealizable => {
            println!("{engine}: no patch exists (the partial design cannot be rectified)");
        }
        SynthesisOutcome::Unknown(reason) => println!("{engine}: gave up ({reason:?})"),
    }
}
