//! Property-based tests (proptest) over the core data structures and the
//! soundness invariants of the synthesis engines.

use manthan3::aig::{Aig, AigRef};
use manthan3::baselines::ExpansionSolver;
use manthan3::cnf::{dimacs, Assignment, Cnf, Lit, Var};
use manthan3::core::{
    Budget, Manthan3, Manthan3Config, Oracle, SynthesisOutcome, VerifyOutcome, VerifySession,
};
use manthan3::dqbf::verify::CheckOutcome;
use manthan3::dqbf::{
    parse_dqdimacs, semantics, unique, verify, write_dqdimacs, Dqbf, HenkinVector,
};
use manthan3::dtree::{Dataset, DecisionTree};
use manthan3::maxsat::{MaxSatResult, MaxSatSolver};
use manthan3::sat::{CancelToken, SolveResult, Solver};
use proptest::prelude::*;

/// Strategy: a random CNF over `num_vars` variables.
fn arb_cnf(num_vars: usize, max_clauses: usize) -> impl Strategy<Value = Cnf> {
    let clause = proptest::collection::vec((0..num_vars, any::<bool>()), 1..=3);
    proptest::collection::vec(clause, 0..=max_clauses).prop_map(move |clauses| {
        let mut cnf = Cnf::new(num_vars);
        for clause in clauses {
            cnf.add_clause(
                clause
                    .into_iter()
                    .map(|(v, pol)| Lit::new(Var::new(v as u32), pol)),
            );
        }
        cnf
    })
}

/// Strategy: a random small DQBF with 3 universals and 2 existentials with
/// random dependency sets.
fn arb_dqbf() -> impl Strategy<Value = Dqbf> {
    let deps = proptest::collection::vec(any::<bool>(), 3);
    let clause = proptest::collection::vec((0..5usize, any::<bool>()), 1..=3);
    (deps.clone(), deps, proptest::collection::vec(clause, 1..=6))
        .prop_map(|(d1, d2, clauses)| small_dqbf(&d1, &d2, clauses))
}

/// Strategy: an [`arb_dqbf()`] instance with one output `y` planted as
/// `y ↔ x`, both polarities, for a universal `x` outside `H_y` but inside
/// the other output's dependencies. All of X then defines `y` while `H_y`
/// alone need not: the case that tells selector-scoped Padoa queries from
/// unscoped ones.
fn arb_planted_dqbf() -> impl Strategy<Value = Dqbf> {
    let deps = proptest::collection::vec(any::<bool>(), 3);
    let clause = proptest::collection::vec((0..5usize, any::<bool>()), 1..=3);
    (
        (deps.clone(), deps),
        proptest::collection::vec(clause, 0..=5),
        0..2usize,
        0..3usize,
    )
        .prop_map(|((mut d1, mut d2), mut clauses, planted, x)| {
            let (own, other) = if planted == 0 {
                (&mut d1, &mut d2)
            } else {
                (&mut d2, &mut d1)
            };
            own[x] = false;
            other[x] = true;
            let y = 3 + planted;
            clauses.push(vec![(y, true), (x, false)]);
            clauses.push(vec![(y, false), (x, true)]);
            small_dqbf(&d1, &d2, clauses)
        })
}

/// Universals 0–2, existential 3 depending on the universals `d1` selects
/// and existential 4 on those `d2` selects, and the given clauses as
/// `(variable, polarity)` literals.
fn small_dqbf(d1: &[bool], d2: &[bool], clauses: Vec<Vec<(usize, bool)>>) -> Dqbf {
    let mut dqbf = Dqbf::new();
    let xs: Vec<Var> = (0..3).map(Var::new).collect();
    for &x in &xs {
        dqbf.add_universal(x);
    }
    let pick = |mask: &[bool]| -> Vec<Var> {
        xs.iter()
            .zip(mask)
            .filter(|(_, &m)| m)
            .map(|(&x, _)| x)
            .collect()
    };
    dqbf.add_existential(Var::new(3), pick(d1));
    dqbf.add_existential(Var::new(4), pick(d2));
    for clause in clauses {
        dqbf.add_clause(
            clause
                .into_iter()
                .map(|(v, pol)| Lit::new(Var::new(v as u32), pol)),
        );
    }
    dqbf
}

/// Folds `leaves` onto `acc`, one gate per leaf, the gate picked by `ops`.
fn fold_gates(aig: &mut Aig, mut acc: AigRef, leaves: &[AigRef], ops: &[u8]) -> AigRef {
    for (&leaf, &op) in leaves.iter().zip(ops.iter().cycle()) {
        acc = match op % 4 {
            0 => aig.and(acc, leaf),
            1 => aig.or(acc, leaf),
            2 => aig.xor(acc, leaf),
            _ => aig.and(acc, !leaf),
        };
    }
    acc
}

/// A vector for an `arb_dqbf()` instance whose two functions share one
/// sub-cone over their common dependencies: each function folds its own
/// dependencies onto that cone (the second onto its complement when `ops`
/// says so). Every function respects its dependency set.
fn shared_cone_vector(dqbf: &Dqbf, ops: &[u8]) -> HenkinVector {
    let mut vector = HenkinVector::new();
    let aig = vector.aig_mut();
    let (y1, y2) = (dqbf.existentials()[0], dqbf.existentials()[1]);
    let (d1, d2) = (dqbf.dependencies(y1), dqbf.dependencies(y2));
    let mut inputs = |vars: Vec<&Var>| -> Vec<AigRef> {
        vars.into_iter().map(|x| aig.input(x.index())).collect()
    };
    let common = inputs(d1.intersection(d2).collect());
    let own1 = inputs(d1.difference(d2).collect());
    let own2 = inputs(d2.difference(d1).collect());
    let shared = match common.split_first() {
        Some((&first, rest)) => fold_gates(aig, first, rest, ops),
        None => aig.constant(ops[0] % 2 == 1),
    };
    let f1 = fold_gates(aig, shared, &own1, &ops[1..]);
    let base2 = if ops[2] % 2 == 1 { !shared } else { shared };
    let f2 = fold_gates(aig, base2, &own2, &ops[3..]);
    vector.set(y1, f1);
    vector.set(y2, f2);
    vector
}

/// Sets one candidate generation on `vector`: each output's function folds
/// its dependencies, picked by `ops`, onto either its previous function (so
/// the cone grows inside the shared AIG, as repair grows it) or a fresh
/// constant. Every function respects its dependency set.
fn next_generation(dqbf: &Dqbf, vector: &mut HenkinVector, ops: &[u8]) {
    for (j, &y) in dqbf.existentials().iter().enumerate() {
        let op = ops[j];
        let previous = vector.get(y).filter(|_| op % 2 == 1);
        let aig = vector.aig_mut();
        let start = previous.unwrap_or_else(|| aig.constant(op % 4 >= 2));
        let leaves: Vec<AigRef> = dqbf
            .dependencies(y)
            .iter()
            .map(|x| aig.input(x.index()))
            .collect();
        let f = fold_gates(aig, start, &leaves, &ops[j + 1..]);
        vector.set(y, f);
    }
}

fn brute_force_sat(cnf: &Cnf) -> Option<Assignment> {
    let n = cnf.num_vars();
    (0..1u32 << n)
        .map(|bits| Assignment::from_values((0..n).map(|i| bits >> i & 1 == 1).collect()))
        .find(|a| cnf.eval(a))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The CDCL solver agrees with brute force, and its models satisfy the
    /// formula.
    #[test]
    fn sat_solver_matches_brute_force(cnf in arb_cnf(5, 12)) {
        let brute = brute_force_sat(&cnf);
        let mut solver = Solver::new();
        solver.add_cnf(&cnf);
        match solver.solve() {
            SolveResult::Sat => {
                prop_assert!(brute.is_some());
                prop_assert!(cnf.eval(&solver.model()));
            }
            SolveResult::Unsat => prop_assert!(brute.is_none()),
            SolveResult::Unknown => prop_assert!(false, "no budget was set"),
        }
    }

    /// DIMACS writing followed by parsing preserves the formula's semantics.
    #[test]
    fn dimacs_round_trip_preserves_semantics(cnf in arb_cnf(4, 8)) {
        let reparsed = dimacs::parse_dimacs(&dimacs::write_dimacs(&cnf)).unwrap();
        prop_assert_eq!(reparsed.num_vars(), cnf.num_vars());
        for bits in 0..1u32 << cnf.num_vars() {
            let a = Assignment::from_values(
                (0..cnf.num_vars()).map(|i| bits >> i & 1 == 1).collect(),
            );
            prop_assert_eq!(cnf.eval(&a), reparsed.eval(&a));
        }
    }

    /// The MaxSAT optimum never exceeds the cost of any concrete assignment
    /// and equals the brute-force optimum.
    #[test]
    fn maxsat_is_optimal(hard in arb_cnf(4, 6), soft in arb_cnf(4, 4)) {
        prop_assume!(!soft.clauses().is_empty());
        let mut solver = MaxSatSolver::new();
        solver.add_hard_cnf(&hard);
        for clause in soft.clauses() {
            solver.add_soft(clause.iter().copied());
        }
        let brute: Option<u64> = (0..1u32 << 4)
            .filter_map(|bits| {
                let a = Assignment::from_values((0..4).map(|i| bits >> i & 1 == 1).collect());
                if !hard.eval(&a) {
                    return None;
                }
                Some(soft.clauses().iter().filter(|c| !c.eval(&a)).count() as u64)
            })
            .min();
        match solver.solve() {
            MaxSatResult::Optimum { cost } => {
                prop_assert_eq!(Some(cost), brute);
                prop_assert_eq!(solver.violated_softs().count() as u64, cost);
            }
            MaxSatResult::HardUnsat => prop_assert!(brute.is_none()),
            MaxSatResult::Unknown => {
                prop_assert!(false, "no budget was set and no token cancelled")
            }
        }
    }

    /// A decision tree learned on noise-free data generated by a hidden
    /// Boolean function reproduces that function on the training set.
    #[test]
    fn decision_tree_fits_consistent_data(rows in proptest::collection::vec(
        proptest::collection::vec(any::<bool>(), 4), 1..40)) {
        let dataset = Dataset::from_rows(
            rows.iter()
                .map(|f| (f.clone(), f[0] ^ (f[1] && f[3])))
                .collect(),
        );
        let tree = DecisionTree::learn(&dataset);
        prop_assert_eq!(tree.training_accuracy(&dataset), 1.0);
        // Every path literal refers to an existing feature.
        for path in tree.paths_to(true) {
            for pl in path {
                prop_assert!(pl.feature < 4);
            }
        }
    }

    /// The expansion baseline agrees with the brute-force DQBF oracle, and
    /// Manthan3 is sound with respect to it (it may return Unknown, but never
    /// the wrong definite verdict).
    #[test]
    fn engines_are_sound_on_random_dqbf(dqbf in arb_dqbf()) {
        prop_assume!(dqbf.validate().is_ok());
        let truth = semantics::brute_force_truth(&dqbf, 16).expect("small instance");
        let expansion = ExpansionSolver.synthesize(&dqbf);
        match &expansion.outcome {
            SynthesisOutcome::Realizable(v) => {
                prop_assert!(truth);
                prop_assert!(verify::check(&dqbf, v).is_valid());
            }
            SynthesisOutcome::Unrealizable => prop_assert!(!truth),
            SynthesisOutcome::Unknown(_) => prop_assert!(false, "within budget"),
        }
        let config = Manthan3Config { num_samples: 40, max_repair_iterations: 40,
            ..Manthan3Config::default() };
        match Manthan3::new(config).synthesize(&dqbf).outcome {
            SynthesisOutcome::Realizable(v) => {
                prop_assert!(truth);
                prop_assert!(verify::check(&dqbf, &v).is_valid());
            }
            SynthesisOutcome::Unrealizable => prop_assert!(!truth),
            SynthesisOutcome::Unknown(_) => {}
        }
    }

    /// `verify::check` encodes all outputs through one Tseitin cache. On
    /// vectors whose functions share a cone, it answers `Valid` exactly when
    /// no X assignment falsifies the matrix, and its witnesses falsify it.
    #[test]
    fn vector_check_matches_exhaustive_evaluation_on_shared_cones(
        dqbf in arb_dqbf(),
        ops in proptest::collection::vec(0..8u8, 6),
    ) {
        prop_assume!(dqbf.validate().is_ok());
        let vector = shared_cone_vector(&dqbf, &ops);
        let order = dqbf.existentials().to_vec();
        let falsifies = |x_values: &Assignment| {
            !dqbf.eval_matrix(&vector.extend_assignment(&dqbf, x_values, &order))
        };
        let falsifiable = (0..8u32).any(|bits| {
            falsifies(&Assignment::from_values((0..3).map(|i| bits >> i & 1 == 1).collect()))
        });
        match verify::check(&dqbf, &vector) {
            CheckOutcome::Valid => prop_assert!(!falsifiable),
            CheckOutcome::Falsified(witness) => {
                prop_assert!(falsifies(&witness));
                prop_assert!(!dqbf.eval_matrix(&witness));
                // The witness's Y entries are the vector's outputs on its X.
                prop_assert_eq!(vector.extend_assignment(&dqbf, &witness, &order), witness);
            }
            other => prop_assert!(false, "unexpected outcome {other:?}"),
        }
    }

    /// One [`VerifySession`] answers like a fresh `verify::check` while its
    /// candidates are swapped generation by generation: `Valid` exactly when
    /// the check is valid, and every counterexample falsifies the matrix
    /// with `δ[Y']` the vector's output on `δ[X]`.
    #[test]
    fn verify_session_agrees_with_the_fresh_check_across_candidate_swaps(
        dqbf in arb_dqbf(),
        generations in proptest::collection::vec(proptest::collection::vec(0..8u8, 6), 2..=4),
    ) {
        prop_assume!(dqbf.validate().is_ok());
        let order = dqbf.existentials().to_vec();
        let mut oracle = Oracle::new(Budget::unlimited());
        let mut session = VerifySession::new(&dqbf, &mut oracle);
        let mut vector = HenkinVector::new();
        for ops in &generations {
            next_generation(&dqbf, &mut vector, ops);
            let fresh = verify::check(&dqbf, &vector);
            match session.verify(&dqbf, &vector, &mut oracle) {
                VerifyOutcome::Valid => prop_assert!(fresh.is_valid()),
                VerifyOutcome::CounterExample(delta) => {
                    prop_assert!(!fresh.is_valid());
                    prop_assert!(!dqbf.eval_matrix(&delta));
                    // δ[Y'] is the vector's output on δ[X].
                    prop_assert_eq!(vector.extend_assignment(&dqbf, &delta, &order), delta);
                }
                VerifyOutcome::Unknown => prop_assert!(false, "no budget was set"),
            }
        }
    }

    /// DQDIMACS writing followed by parsing preserves prefix and matrix.
    #[test]
    fn dqdimacs_round_trip(dqbf in arb_dqbf()) {
        let reparsed = parse_dqdimacs(&write_dqdimacs(&dqbf)).unwrap();
        prop_assert_eq!(reparsed.universals(), dqbf.universals());
        prop_assert_eq!(reparsed.existentials(), dqbf.existentials());
        prop_assert_eq!(reparsed.num_clauses(), dqbf.num_clauses());
        for &y in dqbf.existentials() {
            prop_assert_eq!(reparsed.dependencies(y), dqbf.dependencies(y));
        }
    }
}

/// Unique-definition extraction returns exactly the outputs whose
/// dependencies define them (every two matrix models that agree on `H_y`
/// agree on `y`), and each returned function equals `y` on every model.
fn assert_extraction_is_exact(dqbf: &Dqbf) -> TestCaseResult {
    prop_assume!(dqbf.validate().is_ok());
    let models: Vec<Vec<bool>> = (0..32u32)
        .map(|bits| (0..5).map(|i| bits >> i & 1 == 1).collect::<Vec<_>>())
        .filter(|values| dqbf.eval_matrix(&Assignment::from_values(values.clone())))
        .collect();
    let mut vector = HenkinVector::new();
    let extracted = unique::extract_definitions(dqbf, &mut vector, 3, &CancelToken::new());
    for &y in dqbf.existentials() {
        let deps = dqbf.dependencies(y);
        let agree_on_deps =
            |a: &[bool], b: &[bool]| deps.iter().all(|x| a[x.index()] == b[x.index()]);
        let defined = models.iter().all(|a| {
            models
                .iter()
                .all(|b| !agree_on_deps(a, b) || a[y.index()] == b[y.index()])
        });
        prop_assert_eq!(extracted.contains(&y), defined);
    }
    for &y in &extracted {
        for values in &models {
            prop_assert_eq!(vector.eval_one(y, values), Some(values[y.index()]));
        }
    }
    Ok(())
}

proptest! {
    // An output defined by all of X but not by its own H_y is what tells
    // selector-scoped Padoa queries from unscoped ones, and `arb_dqbf()`
    // draws one rarely, so this property runs more cases than the rest.
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// [`assert_extraction_is_exact`] on random instances.
    #[test]
    fn extraction_returns_exactly_the_defined_outputs(dqbf in arb_dqbf()) {
        assert_extraction_is_exact(&dqbf)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// [`assert_extraction_is_exact`] on instances where one output is tied
    /// to a universal outside its own dependencies.
    #[test]
    fn extraction_returns_exactly_the_defined_outputs_when_x_ties_an_output(
        dqbf in arb_planted_dqbf(),
    ) {
        assert_extraction_is_exact(&dqbf)?;
    }
}

/// The `suite(7, 1)` instances written out once: `(DQDIMACS, DIMACS)` text
/// per instance, the seeds of the byte-mutation properties below.
fn suite_texts() -> &'static [(String, String)] {
    static TEXTS: std::sync::OnceLock<Vec<(String, String)>> = std::sync::OnceLock::new();
    TEXTS.get_or_init(|| {
        manthan3::gen::suite::suite(7, 1)
            .iter()
            .map(|i| {
                (
                    write_dqdimacs(&i.dqbf),
                    dimacs::write_dimacs(i.dqbf.matrix()),
                )
            })
            .collect()
    })
}

/// Bytes the mutations favour: the ones DIMACS syntax is made of.
const SYNTAX_BYTES: &[u8] = b"0123456789- \nadepc";

/// Strategy: up to eight byte edits `(kind, position, byte)`, where kind 0
/// replaces, 1 inserts and 2 deletes (at the end of the text, every kind
/// appends). Bytes stay ASCII so the text stays
/// valid UTF-8; half of them come from [`SYNTAX_BYTES`].
fn arb_edits() -> impl Strategy<Value = Vec<(u8, usize, u8)>> {
    let byte = (any::<bool>(), 0u8..128, 0..SYNTAX_BYTES.len())
        .prop_map(|(syntax, any_byte, i)| if syntax { SYNTAX_BYTES[i] } else { any_byte });
    proptest::collection::vec((0u8..3, 0usize..1 << 20, byte), 1..=8)
}

fn mutate(text: &str, edits: &[(u8, usize, u8)]) -> String {
    let mut bytes = text.as_bytes().to_vec();
    for &(kind, position, byte) in edits {
        let at = position % (bytes.len() + 1);
        match kind {
            0 if at < bytes.len() => bytes[at] = byte,
            2 if at < bytes.len() => {
                bytes.remove(at);
            }
            _ => bytes.insert(at, byte),
        }
    }
    String::from_utf8(bytes).expect("ASCII edits keep the text UTF-8")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A mutated DQDIMACS file never panics the parser, every error names
    /// a line of the input, and every formula it accepts is well-formed.
    #[test]
    fn dqdimacs_parser_never_panics(instance in 0usize..1 << 16, edits in arb_edits()) {
        let texts = suite_texts();
        let text = mutate(&texts[instance % texts.len()].0, &edits);
        match std::panic::catch_unwind(|| parse_dqdimacs(&text)) {
            Err(_) => prop_assert!(false, "parse_dqdimacs panicked on {text:?}"),
            Ok(Err(err)) => {
                let lines = text.lines().count();
                prop_assert!((1..=lines).contains(&err.line()), "{err} of {lines} lines");
            }
            Ok(Ok(dqbf)) => {
                prop_assert!(dqbf.validate().is_ok(), "{:?} on {text:?}", dqbf.validate());
            }
        }
    }

    /// The DIMACS twin: a mutated matrix file never panics `parse_dimacs`,
    /// and every error names a line of the input.
    #[test]
    fn dimacs_parser_never_panics(instance in 0usize..1 << 16, edits in arb_edits()) {
        let texts = suite_texts();
        let text = mutate(&texts[instance % texts.len()].1, &edits);
        let parsed = std::panic::catch_unwind(|| dimacs::parse_dimacs(&text));
        prop_assert!(parsed.is_ok(), "parse_dimacs panicked on {text:?}");
        if let Ok(Err(err)) = parsed {
            let lines = text.lines().count();
            prop_assert!((1..=lines).contains(&err.line()), "{err} of {lines} lines");
        }
    }
}
