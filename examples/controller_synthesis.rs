//! Controller synthesis with partial observation.
//!
//! A request/grant arbiter must serve `k` clients; each grant signal may only
//! observe a window of request lines. With full observation the controller
//! exists; with local observation it provably does not — information
//! constraints that DQBF (and Henkin synthesis) capture directly.
//!
//! Run with `cargo run --example controller_synthesis`.

use manthan3::core::{Manthan3, Manthan3Config, SynthesisOutcome};
use manthan3::dqbf::verify;
use manthan3::gen::controller::{controller, ControllerParams};

fn main() {
    for (window, label) in [(4usize, "full observation"), (1usize, "local observation")] {
        let params = ControllerParams {
            num_clients: 4,
            observation_window: window,
        };
        let instance = controller(&params, 1);
        println!("== {} ({}) ==", instance.name, label);
        println!("   {}", instance.dqbf.summary());

        let result = Manthan3::new(Manthan3Config::default()).synthesize(&instance.dqbf);
        match &result.outcome {
            SynthesisOutcome::Realizable(vector) => {
                assert!(verify::check(&instance.dqbf, vector).is_valid());
                println!(
                    "   controller synthesized: {} AND gates across {} grant functions",
                    vector.total_size(),
                    vector.len()
                );
                // Show the grants for the all-requesting input.
                let all_requests = vec![true; 4];
                let grants: Vec<u8> = instance
                    .dqbf
                    .existentials()
                    .iter()
                    .map(|&g| u8::from(vector.eval_one(g, &all_requests).unwrap_or(false)))
                    .collect();
                println!("   grants when every client requests: {grants:?}");
            }
            SynthesisOutcome::Unrealizable => {
                println!("   no controller exists under this observation architecture");
            }
            SynthesisOutcome::Unknown(reason) => {
                println!("   Manthan3 gave up ({reason:?}); trying the expansion baseline…");
                let expansion = manthan3::baselines::ExpansionSolver.synthesize(&instance.dqbf);
                match expansion.outcome {
                    SynthesisOutcome::Realizable(_) => println!("   expansion found a controller"),
                    SynthesisOutcome::Unrealizable => {
                        println!("   expansion proved that no controller exists")
                    }
                    SynthesisOutcome::Unknown(r) => println!("   expansion also gave up ({r:?})"),
                }
            }
        }
        println!(
            "   expected status from the generator: {:?}\n",
            instance.expected
        );
    }
}
