//! The three workloads: seeded instance lists, serialized to DQDIMACS.
//!
//! Every instance comes from a `manthan3-gen` generator and reaches the
//! program under test only as DQDIMACS text. Each workload mixes families
//! and sizes so that one layer of the pipeline dominates its run time; the
//! sizes are chosen so that the default configuration closes every instance
//! (a verified verdict), which keeps `failed` at zero.

use manthan3_cnf::{Lit, Var};
use manthan3_dqbf::{write_dqdimacs, Dqbf};
use manthan3_gen::controller::{controller, ControllerParams};
use manthan3_gen::planted::{planted_false, planted_true, PlantedParams};
use manthan3_gen::succinct::{succinct, SuccinctParams};
use manthan3_gen::Instance;

/// One benchmark input: what the program under test receives, plus the
/// generator's ground truth for the correctness gate.
pub struct Input {
    pub name: String,
    pub dqdimacs: String,
    pub expected: Option<bool>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Full-observation controllers: 10–65 verify/repair iterations.
    CegisRepair,
    /// Succinct and planted instances: the loop closes in 0–2 iterations.
    SampleLearn,
    /// Certifying oracle plus the independent vector check on the timed path.
    Certified,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::CegisRepair,
        Workload::SampleLearn,
        Workload::Certified,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::CegisRepair => "cegis_repair",
            Workload::SampleLearn => "sample_learn",
            Workload::Certified => "certified",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the run uses `Manthan3Config::certify` and checks every
    /// realizable vector on the timed path.
    pub fn certify(self) -> bool {
        self == Workload::Certified
    }

    /// Generates and serializes the workload's instances for `seed`.
    pub fn inputs(self, seed: u64) -> Vec<Input> {
        let mut rng = SplitMix(seed ^ 0x4D33_5045_5246);
        let instances: Vec<Instance> = match self {
            // Ten-client arbiters, each under its own seeded relabelling of
            // the clients. The relabelling moves an instance's run time by
            // about a third, so many small instances keep the seeds' totals
            // close. Nine-client ones vary more between relabellings; 128
            // of them spread more between seeds than 96 of these.
            Workload::CegisRepair => (0..96)
                .map(|_| relabelled_controller(10, &mut rng))
                .collect(),
            Workload::SampleLearn => {
                let mut out: Vec<Instance> = (0..16)
                    .map(|i| {
                        let size = 20 + i * 20 / 15; // n46 … n86
                        succinct(
                            &SuccinctParams {
                                num_propositional: 6 + 2 * size,
                                num_clauses: 18 + 6 * size,
                                planted_satisfiable: true,
                            },
                            rng.next(),
                        )
                    })
                    .collect();
                out.extend((0..12).map(|i| planted_true(&planted(i, 0.2), rng.next())));
                out.extend((0..12).map(|i| planted_false(&planted(i, 0.0), rng.next())));
                out
            }
            Workload::Certified => {
                // Many small controllers, 10–25 ms each: a run fits about ten
                // passes, so each instance's fastest pass is likely to fall
                // in one of the host's fast spells, which last seconds.
                let mut out: Vec<Instance> = (0..160)
                    .map(|_| relabelled_controller(7, &mut rng))
                    .collect();
                out.extend((0..12).map(|i| planted_false(&planted(i, 0.0), rng.next())));
                out.extend((0..8).map(|i| planted_true(&planted(i * 11 / 7, 0.2), rng.next())));
                out
            }
        };
        instances
            .into_iter()
            .map(|inst| Input {
                dqdimacs: write_dqdimacs(&inst.dqbf),
                name: inst.name,
                expected: inst.expected,
            })
            .collect()
    }
}

/// Planted parameters on the size ladder x40 … x94 (`step` in 0..12).
///
/// With `drop_probability = 0` every output keeps its whole gate, so the
/// false variant's victim has two conflicting definitions and some universal
/// assignment has no extension: `solve_phi` refutes it. With dropped gate
/// clauses a false instance can instead fall into the paper's §5
/// incompleteness (`RepairStuck`), which would count as a failure.
fn planted(step: usize, drop_probability: f64) -> PlantedParams {
    let size = 12 + step * 18 / 11;
    PlantedParams {
        num_universals: 4 + 3 * size,
        num_existentials: 3 + size,
        max_dependencies: 5,
        drop_probability,
        extra_universal_implications: 0,
    }
}

/// A full-observation `k`-client arbiter (true by construction) with its
/// clients relabelled by a seeded permutation: request `r_i` and grant `g_i`
/// move together, so the specification is the same and only the variable
/// numbering (and with it the solver's search) changes. The generator itself
/// ignores its seed for this family.
fn relabelled_controller(k: usize, rng: &mut SplitMix) -> Instance {
    let base = controller(
        &ControllerParams {
            num_clients: k,
            observation_window: k,
        },
        0,
    );
    let mut perm: Vec<u32> = (0..k as u32).collect();
    for i in (1..k).rev() {
        let j = (rng.next() % (i as u64 + 1)) as usize;
        perm.swap(i, j);
    }
    let map = |v: Var| {
        let i = v.index();
        if i < k {
            Var::new(perm[i])
        } else {
            Var::new(k as u32 + perm[i - k])
        }
    };
    let mut dqbf = Dqbf::new();
    for &x in base.dqbf.universals() {
        dqbf.add_universal(map(x));
    }
    for &y in base.dqbf.existentials() {
        dqbf.add_existential(map(y), base.dqbf.dependencies(y).iter().map(|&x| map(x)));
    }
    for clause in base.dqbf.matrix().clauses() {
        dqbf.add_clause(
            clause
                .iter()
                .map(|&l| Lit::new(map(l.var()), l.is_positive()))
                .collect::<Vec<_>>(),
        );
    }
    let tag = perm
        .iter()
        .fold(0u64, |h, &p| h.wrapping_mul(31).wrapping_add(u64::from(p)));
    Instance::new(
        format!("controller_k{k}_w{k}_p{tag:x}"),
        base.family,
        dqbf,
        base.expected,
    )
}

/// SplitMix64: a tiny seeded stream for generator seeds and permutations.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}
