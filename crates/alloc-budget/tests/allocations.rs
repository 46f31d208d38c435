//! Heap allocations made by the verify–repair loop's hot calls, counted by
//! a global allocator that wraps the system one.
//!
//! The counter is per thread, so tests running in parallel do not see each
//! other's allocations.

use manthan3_aig::{Aig, AigRef};
use manthan3_cnf::{Assignment, Lit, Var};
use manthan3_core::{Budget, Oracle, VerifyOutcome, VerifySession};
use manthan3_dqbf::{verify, Dqbf, HenkinVector};
use manthan3_sat::{SolveResult, Solver};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations (including reallocations) made by this thread.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

fn note_allocation() {
    // `try_with` fails only while the thread's locals are torn down; those
    // allocations happen after every measured closure has returned.
    let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
}

// SAFETY: every method forwards its arguments to `System` unchanged and
// returns what `System` returned, so the caller's guarantees pass through.
// The wrapper only counts the calls in a const-initialized thread-local
// `Cell`, which allocates nothing itself.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f` and returns the allocations it made on this thread.
fn allocations(f: impl FnOnce()) -> usize {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// One simulation call allocates the same buffers whether it evaluates one
/// output or forty outputs of one cone: nothing is allocated per output.
#[test]
fn simulating_more_outputs_of_one_cone_allocates_nothing_more() {
    const INPUTS: usize = 8;
    const WORDS: usize = 4;
    let mut aig = Aig::new();
    let inputs: Vec<AigRef> = (0..INPUTS).map(|label| aig.input(label)).collect();
    // The parity of the inputs, with a majority gate folded in: a cone of
    // a few dozen gates.
    let mut cone = inputs[0];
    for pair in inputs.windows(2) {
        let both = aig.and(pair[0], pair[1]);
        let parity = aig.xor(cone, pair[1]);
        cone = aig.or(parity, both);
    }
    let outputs =
        |count: usize| (0..count).map(move |i| (INPUTS + i, if i % 2 == 0 { cone } else { !cone }));
    let mut values: Vec<u64> = (0..(INPUTS + 40) * WORDS)
        .map(|i| (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .collect();

    let one = allocations(|| aig.simulate(WORDS, &mut values, outputs(1)));
    let forty = allocations(|| aig.simulate(WORDS, &mut values, outputs(40)));
    assert_eq!(one, forty, "allocations grew with the number of outputs");
    assert!(one <= 12, "{one} allocations for one simulation call");

    // The forty outputs were all written.
    let expected: Vec<u64> = values[INPUTS * WORDS..][..WORDS].to_vec();
    for i in 0..40 {
        let words = &values[(INPUTS + i) * WORDS..][..WORDS];
        for (&word, &first) in words.iter().zip(&expected) {
            assert_eq!(word, if i % 2 == 0 { first } else { !first });
        }
    }
}

/// Once a query has run, asking it again allocates nothing when unit
/// propagation alone refutes it: the solver keeps the assumptions and the
/// core in buffers it owns.
#[test]
fn a_repeated_assumption_query_refuted_by_propagation_allocates_nothing() {
    let lit = |v: u32, positive: bool| Lit::new(Var::new(v), positive);
    let (a, b, c) = (lit(0, true), lit(1, true), lit(2, true));
    let mut solver = Solver::new();
    // a → b → c, so assuming a and ¬c fails without a conflict.
    solver.add_clause([!a, b]);
    solver.add_clause([!b, c]);
    let assumptions = [a, !c];
    assert_eq!(
        solver.solve_with_assumptions(&assumptions),
        SolveResult::Unsat
    );
    let made = allocations(|| {
        for _ in 0..10 {
            assert_eq!(
                solver.solve_with_assumptions(&assumptions),
                SolveResult::Unsat
            );
        }
    });
    assert_eq!(made, 0, "{made} allocations in 10 repeated queries");
    let mut core = solver.unsat_core().to_vec();
    core.sort();
    assert_eq!(core, [a, !c]);
}

/// The clause-by-clause refutation of a valid vector on a warm solver
/// allocates nothing when propagation refutes every clause: each query
/// extends and truncates the caller's buffer, and the solver keeps its
/// assumptions and core in buffers it owns.
#[test]
fn a_clause_by_clause_refutation_refuted_by_propagation_allocates_nothing() {
    // ∀x1 x2 ∃y1 y2. (x1 ∨ y1) ∧ (¬x1 ∨ ¬y1) ∧ (x2 ∨ ¬y2 ∨ x1) ∧ (¬x2 ∨ y2),
    // realized by y1 := ¬x1 and y2 := x2.
    let (x1, x2, y1, y2) = (Var::new(0), Var::new(1), Var::new(2), Var::new(3));
    let mut dqbf = Dqbf::new();
    dqbf.add_universal(x1);
    dqbf.add_universal(x2);
    dqbf.add_existential(y1, [x1]);
    dqbf.add_existential(y2, [x2]);
    dqbf.add_clause([x1.positive(), y1.positive()]);
    dqbf.add_clause([x1.negative(), y1.negative()]);
    dqbf.add_clause([x2.positive(), y2.negative(), x1.positive()]);
    dqbf.add_clause([x2.negative(), y2.positive()]);
    // The error solver's `y ↔ f` links, guarded by one activation literal
    // as the verify session guards a candidate generation.
    let mut solver = Solver::new();
    solver.ensure_vars(dqbf.num_vars());
    let activation = solver.new_activation_lit();
    for (y, f) in [
        (y1.positive(), x1.negative()),
        (y2.positive(), x2.positive()),
    ] {
        solver.add_guarded_clause(activation, [!y, f]);
        solver.add_guarded_clause(activation, [y, !f]);
    }
    let mut query = vec![activation];
    let mut refute =
        || verify::refute_by_clause(&dqbf, &mut query, |q| solver.solve_with_assumptions(q));
    assert_eq!(refute(), SolveResult::Unsat);
    let made = allocations(|| {
        for _ in 0..10 {
            assert_eq!(refute(), SolveResult::Unsat);
        }
    });
    assert_eq!(made, 0, "{made} allocations in 10 refutations");
    // Propagation alone refuted every query, and the buffer is back to
    // its prefix.
    assert_eq!(solver.stats().conflicts, 0);
    assert_eq!(query, [activation]);
}

/// A repeated verify check that ends in a counterexample allocates as much
/// for a formula with 40 universals as for one with 4: the counterexample
/// is one assignment of the formula's variables, not one map entry per
/// variable, and the session reads no model of its Tseitin variables.
#[test]
fn a_repeated_counterexample_allocates_nothing_more_for_more_universals() {
    // ∀x_1…x_n ∃y. (y ∨ x_1 ∨ … ∨ x_n) against y := ⊥: the one query
    // assumes every literal of the clause false and is satisfied without a
    // conflict, and its model is the counterexample.
    let repeated_check = |n: u32| {
        let xs: Vec<Var> = (0..n).map(Var::new).collect();
        let y = Var::new(n);
        let mut dqbf = Dqbf::new();
        for &x in &xs {
            dqbf.add_universal(x);
        }
        dqbf.add_existential(y, xs.iter().copied());
        dqbf.add_clause(std::iter::once(y).chain(xs).map(Var::positive));
        let mut vector = HenkinVector::new();
        vector.set(y, AigRef::FALSE);
        let mut oracle = Oracle::new(Budget::unlimited());
        let mut session = VerifySession::new(&dqbf, &mut oracle);
        let expected = VerifyOutcome::CounterExample(Assignment::new_false(dqbf.num_vars()));
        assert_eq!(session.verify(&dqbf, &vector, &mut oracle), expected);
        let made = allocations(|| {
            assert_eq!(session.verify(&dqbf, &vector, &mut oracle), expected);
        });
        assert_eq!(session.error_solver_stats().conflicts, 0);
        made
    };
    let (four, forty) = (repeated_check(4), repeated_check(40));
    assert_eq!(
        four, forty,
        "allocations grew with the number of universals"
    );
    // The one allocation is the counterexample itself.
    assert_eq!(four, 1, "{four} allocations for one repeated check");
}

/// A repair cube whose inputs and AND gates already exist is found by
/// structural hashing alone: building it again allocates nothing, since
/// `HenkinVector::cube` walks its literals twice instead of collecting them.
#[test]
fn building_an_existing_cube_allocates_nothing() {
    let literals: Vec<Lit> = (0..12u32).map(|i| Var::new(i).lit(i % 3 == 0)).collect();
    let mut vector = HenkinVector::new();
    let first = vector.cube(literals.iter().copied());
    let nodes = vector.aig().num_nodes();
    let mut again = AigRef::FALSE;
    let made = allocations(|| again = vector.cube(literals.iter().copied()));
    assert_eq!(made, 0, "{made} allocations for an existing cube");
    assert_eq!(again, first);
    assert_eq!(vector.aig().num_nodes(), nodes);
}
