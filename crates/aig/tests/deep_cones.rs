//! Every AIG walker on a cone far deeper than the call stack could hold if
//! the walk recursed once per level.
//!
//! The test runs on a thread with a 2 MB stack, the default for spawned
//! threads. A walker that recursed per level would overflow it, which aborts
//! the whole process rather than failing the test.

use manthan3_aig::{Aig, AigRef};
use manthan3_cnf::{Assignment, Cnf};
use std::collections::HashMap;

const DEPTH: usize = 200_000;

fn deep_chain_walks() {
    let mut aig = Aig::new();
    let inputs: Vec<AigRef> = (0..DEPTH).map(|label| aig.input(label)).collect();
    // x0 ∧ x1 ∧ … : each gate's operand is the previous gate, so the cone is
    // DEPTH - 1 gates deep.
    let chain = aig.and_list(&inputs);

    let all_true = vec![true; DEPTH];
    let mut one_false = all_true.clone();
    one_false[DEPTH / 2] = false;
    assert!(aig.eval(chain, &all_true));
    assert!(!aig.eval(chain, &one_false));
    assert!(aig.eval(!chain, &one_false));

    let labels: Vec<usize> = (0..DEPTH).collect();
    assert_eq!(aig.support(chain), labels);
    assert_eq!(aig.cone_size(chain), DEPTH - 1);

    // One fresh variable per gate; the encoding agrees with `eval` on both
    // input assignments, with every gate variable set to its gate's value.
    let mut cnf = Cnf::new(DEPTH);
    let mut cache = HashMap::new();
    let out = aig.encode_cnf(chain, &mut cnf, &mut cache);
    assert_eq!(cnf.num_vars(), 2 * DEPTH - 1);
    assert_eq!(cache.len(), 2 * DEPTH - 1);
    let mut values = all_true.clone();
    values.resize(2 * DEPTH - 1, true);
    let model = Assignment::from_values(values);
    assert!(cnf.eval(&model));
    assert!(model.lit_value(out));
    let mut values = one_false.clone();
    // Gate k (variable DEPTH + k - 1) covers x0..=xk.
    values.extend((1..DEPTH).map(|k| k < DEPTH / 2));
    let model = Assignment::from_values(values);
    assert!(cnf.eval(&model));
    assert!(!model.lit_value(out));

    // Substituting x0 := y, a new input, rebuilds the whole chain over y.
    let y = aig.input(DEPTH);
    let substituted = aig.compose(chain, &HashMap::from([(0, y)]));
    let shifted: Vec<usize> = (1..=DEPTH).collect();
    assert_eq!(aig.support(substituted), shifted);
    assert_eq!(aig.cone_size(substituted), DEPTH - 1);
    let mut values = vec![true; DEPTH + 1];
    assert!(aig.eval(substituted, &values));
    values[DEPTH] = false;
    assert!(!aig.eval(substituted, &values));

    // Into a fresh AIG: the inputs of the cone, then one gate per level.
    let mut fresh = Aig::new();
    let imported = fresh.import(&aig, !substituted);
    assert_eq!(fresh.num_nodes(), 1 + DEPTH + (DEPTH - 1));
    assert_eq!(fresh.support(imported), shifted);
    assert!(fresh.eval(imported, &values));
    values[DEPTH] = true;
    assert!(!fresh.eval(imported, &values));
}

#[test]
fn walkers_handle_cones_deeper_than_the_stack() {
    std::thread::Builder::new()
        .stack_size(2 * 1024 * 1024)
        .spawn(deep_chain_walks)
        .expect("spawn the walker thread")
        .join()
        .expect("every walker finishes on a 2 MB stack");
}
