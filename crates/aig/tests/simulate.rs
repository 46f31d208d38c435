//! Bit-parallel simulation against an independent evaluator: on random AIGs
//! and random input words, every lane of `Aig::simulate` must equal the value
//! that the cone's Tseitin encoding (`Aig::encode_cnf`) forces for that
//! lane's inputs, read off an assignment that `Cnf::eval` accepts.
//!
//! The outputs are written back to input labels that later outputs (and the
//! gates below them) read, so the chaining of a substitution order is
//! exercised too. A second property builds outputs whose cones share most
//! of their gates, and whose gates may read any output's label, the ones
//! written later included, and checks every lane against `Aig::eval` run
//! output by output.

use manthan3_aig::{Aig, AigRef};
use manthan3_cnf::{Assignment, Cnf, Lit, Var};
use proptest::prelude::*;
use std::collections::HashMap;

/// Primary inputs that are never written.
const FREE_INPUTS: usize = 4;
/// Outputs; output `i` is written to label `FREE_INPUTS + i`.
const OUTPUTS: usize = 3;
const LABELS: usize = FREE_INPUTS + OUTPUTS;

/// One random gate: two operand picks (an index into the functions built so
/// far) with their complement bits.
type GateSpec = (usize, bool, usize, bool);

fn build(gates: &[GateSpec], roots: &[(usize, bool)]) -> (Aig, Vec<(usize, AigRef)>) {
    let mut aig = Aig::new();
    let mut refs = vec![AigRef::FALSE];
    refs.extend((0..LABELS).map(|label| aig.input(label)));
    for &(a, ca, b, cb) in gates {
        let pick = |i: usize, c: bool| {
            let r = refs[i % refs.len()];
            if c {
                !r
            } else {
                r
            }
        };
        let gate = aig.and(pick(a, ca), pick(b, cb));
        refs.push(gate);
    }
    let outputs = roots
        .iter()
        .enumerate()
        .map(|(i, &(r, c))| {
            let root = refs[r % refs.len()];
            (FREE_INPUTS + i, if c { !root } else { root })
        })
        .collect();
    (aig, outputs)
}

/// The value of `out` under `inputs`: the aux variables of a Tseitin
/// encoding are allocated after the variables they are defined from, so each
/// one is set, in index order, to the value that satisfies every clause
/// whose largest variable it is. The completed assignment must satisfy the
/// whole CNF.
fn cnf_value(cnf: &Cnf, out: Lit, inputs: &[bool]) -> bool {
    let mut assignment = Assignment::new_false(cnf.num_vars());
    for (i, &value) in inputs.iter().enumerate() {
        assignment.set(Var::new(i as u32), value);
    }
    for v in inputs.len()..cnf.num_vars() {
        let var = Var::new(v as u32);
        let defining = || cnf.iter().filter(|c| c.max_var() == Some(var));
        if !defining().all(|c| c.eval(&assignment)) {
            assignment.set(var, true);
        }
    }
    assert!(cnf.eval(&assignment), "Tseitin encoding left unsatisfied");
    assignment.lit_value(out)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn every_lane_matches_the_tseitin_encoding(
        words in 1usize..=3,
        gates in collection::vec((0usize..64, any::<bool>(), 0usize..64, any::<bool>()), 0..=24),
        roots in collection::vec((0usize..64, any::<bool>()), OUTPUTS..=OUTPUTS),
        input_words in collection::vec(0u64..=u64::MAX, LABELS * 3..=LABELS * 3),
    ) {
        let (aig, outputs) = build(&gates, &roots);
        let encodings: Vec<(Cnf, Lit)> = outputs
            .iter()
            .map(|&(_, f)| {
                let mut cnf = Cnf::new(LABELS);
                let out = aig.encode_cnf(f, &mut cnf, &mut HashMap::new());
                (cnf, out)
            })
            .collect();

        let initial = &input_words[..LABELS * words];
        let mut simulated = initial.to_vec();
        aig.simulate(words, &mut simulated, outputs.iter().copied());

        for lane in 0..64 * words {
            let bit = |values: &[u64], label: usize| {
                values[label * words + lane / 64] >> (lane % 64) & 1 == 1
            };
            let mut lane_values: Vec<bool> = (0..LABELS).map(|l| bit(initial, l)).collect();
            for (&(label, _), (cnf, out)) in outputs.iter().zip(&encodings) {
                lane_values[label] = cnf_value(cnf, *out, &lane_values);
                prop_assert_eq!(bit(&simulated, label), lane_values[label]);
            }
            // Labels no output writes keep their input words.
            for label in 0..FREE_INPUTS {
                prop_assert_eq!(bit(&simulated, label), bit(initial, label));
            }
        }
    }
}

/// Outputs of the sharing property; output `i` writes label
/// `FREE_INPUTS + i`.
const SHARED_OUTPUTS: usize = 8;
const SHARED_LABELS: usize = FREE_INPUTS + SHARED_OUTPUTS;

/// Builds gates whose operands are picked among the eight newest functions,
/// so consecutive gates share most of their cones, over inputs for every
/// label. Each output's root is one of the six newest gates.
fn build_shared(gates: &[GateSpec], roots: &[(usize, bool)]) -> (Aig, Vec<(usize, AigRef)>) {
    let mut aig = Aig::new();
    let mut refs: Vec<AigRef> = (0..SHARED_LABELS).map(|label| aig.input(label)).collect();
    let newest = |refs: &[AigRef], back: usize, complement: bool| {
        let r = refs[refs.len() - 1 - back % refs.len()];
        if complement {
            !r
        } else {
            r
        }
    };
    for &(a, ca, b, cb) in gates {
        let gate = aig.and(newest(&refs, a, ca), newest(&refs, b, cb));
        refs.push(gate);
    }
    let outputs = roots
        .iter()
        .enumerate()
        .map(|(i, &(back, c))| (FREE_INPUTS + i, newest(&refs, back, c)))
        .collect();
    (aig, outputs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn shared_cones_match_evaluating_each_output_in_turn(
        words in 1usize..=2,
        gates in collection::vec((0usize..8, any::<bool>(), 0usize..8, any::<bool>()), 1..=40),
        roots in collection::vec((0usize..6, any::<bool>()), SHARED_OUTPUTS..=SHARED_OUTPUTS),
        input_words in collection::vec(0u64..=u64::MAX, SHARED_LABELS * 2..=SHARED_LABELS * 2),
    ) {
        let (aig, outputs) = build_shared(&gates, &roots);
        let initial = &input_words[..SHARED_LABELS * words];
        let mut simulated = initial.to_vec();
        aig.simulate(words, &mut simulated, outputs.iter().copied());

        for lane in 0..64 * words {
            let bit = |values: &[u64], label: usize| {
                values[label * words + lane / 64] >> (lane % 64) & 1 == 1
            };
            let mut lane_values: Vec<bool> = (0..SHARED_LABELS).map(|l| bit(initial, l)).collect();
            for &(label, f) in &outputs {
                lane_values[label] = aig.eval(f, &lane_values);
                prop_assert_eq!(bit(&simulated, label), lane_values[label]);
            }
        }
    }
}

/// Output 1 reads label 1 before output 2 writes it; output 3 reads the
/// same gate after the write, so it must see the new value, not output 1's.
#[test]
fn a_shared_gate_is_read_again_after_its_input_is_written() {
    let mut aig = Aig::new();
    let x = aig.input(0);
    let w = aig.input(1);
    let y = aig.input(4);
    let shared = aig.and(x, w);
    let outputs = [(2, shared), (1, y), (3, shared)];
    let mut values = [0b1100, 0b1010, 0, 0, 0b0110];
    aig.simulate(1, &mut values, outputs);
    // Output 1: x ∧ w with w's initial words.
    assert_eq!(values[2], 0b1000);
    // Output 2 writes y's words to label 1.
    assert_eq!(values[1], 0b0110);
    // Output 3: x ∧ w with w's new words.
    assert_eq!(values[3], 0b0100);
}
