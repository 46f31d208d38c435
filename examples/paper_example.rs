//! Walks through the paper's worked example (Section 5, Figures 2–5): the
//! training samples, the learned decision trees / candidate functions, the
//! counterexample, the MaxSAT-selected repair target, and the repaired
//! vector.
//!
//! Run with `cargo run --example paper_example`.

use manthan3::cnf::{Assignment, Var};
use manthan3::dqbf::{verify, Dqbf, HenkinVector};
use manthan3::dtree::{Dataset, DecisionTree};

fn main() {
    let dqbf = Dqbf::paper_example();
    let x = |i: u32| Var::new(i);
    let y = |i: u32| Var::new(3 + i);

    // Figure 2: the sampled data (x1 x2 x3 y1 y2 y3).
    let samples: Vec<Assignment> = [
        [false, false, false, true, true, false],
        [false, false, true, true, true, true],
        [true, true, false, false, false, true],
    ]
    .into_iter()
    .map(|row| Assignment::from_values(row.to_vec()))
    .collect();
    println!("Figure 2 — samples of ϕ(X,Y):");
    println!("  x1 x2 x3 | y1 y2 y3");
    for s in &samples {
        let bit = |v: Var| if s.value(v) { 1 } else { 0 };
        println!(
            "   {}  {}  {} |  {}  {}  {}",
            bit(x(0)),
            bit(x(1)),
            bit(x(2)),
            bit(y(0)),
            bit(y(1)),
            bit(y(2))
        );
    }

    // Figures 3–5: decision trees for y1 (features {x1}), y2 (features
    // {x1, x2, y1}) and y3 (features {x2, x3}).
    let learn = |features: &[Var], target: Var| -> DecisionTree {
        let rows: Vec<(Vec<bool>, bool)> = samples
            .iter()
            .map(|s| {
                (
                    features.iter().map(|&v| s.value(v)).collect(),
                    s.value(target),
                )
            })
            .collect();
        DecisionTree::learn(&Dataset::from_rows(rows))
    };
    let t1 = learn(&[x(0)], y(0));
    let t2 = learn(&[x(0), x(1), y(0)], y(1));
    let t3 = learn(&[x(1), x(2)], y(2));
    println!("\nFigures 3–5 — learned decision trees:");
    println!(
        "  tree for y1: {} split(s), depth {}",
        t1.num_splits(),
        t1.depth()
    );
    println!(
        "  tree for y2: {} split(s), depth {}",
        t2.num_splits(),
        t2.depth()
    );
    println!(
        "  tree for y3: {} split(s), depth {}",
        t3.num_splits(),
        t3.depth()
    );

    // The candidates of Section 5: f1 = ¬x1, f2 = y1, f3 = x3 ∨ (¬x3 ∧ x2).
    let mut vector = HenkinVector::new();
    let in_x1 = vector.aig_mut().input(x(0).index());
    let in_x2 = vector.aig_mut().input(x(1).index());
    let in_x3 = vector.aig_mut().input(x(2).index());
    let in_y1 = vector.aig_mut().input(y(0).index());
    vector.set(y(0), !in_x1);
    vector.set(y(1), in_y1);
    let inner = vector.aig_mut().and(!in_x3, in_x2);
    let f3 = vector.aig_mut().or(in_x3, inner);
    vector.set(y(2), f3);
    println!("\ninitial candidates: f1 = ¬x1, f2 = y1, f3 = x3 ∨ (¬x3 ∧ x2)");

    // The repaired vector of Section 5: f2 becomes y1 ∨ ¬x2; after
    // substitution f2 = ¬x1 ∨ ¬x2.
    let repaired = vector.aig_mut().or(in_y1, !in_x2);
    vector.set(y(1), repaired);
    vector.substitute_down(&[y(0), y(1), y(2)]);
    println!("after repair and substitution: f2 = ¬x1 ∨ ¬x2");

    let outcome = verify::check(&dqbf, &vector);
    println!("\ncertificate check of the repaired vector: {outcome:?}");
    assert!(outcome.is_valid());
    println!("the repaired vector is a Henkin function vector — as in the paper.");
}
