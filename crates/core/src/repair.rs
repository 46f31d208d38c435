//! `RepairHkF`: counterexample-guided candidate repair
//! (Algorithm 3 of the paper).
//!
//! All SAT and MaxSAT queries run through the synthesis run's [`Oracle`],
//! and both run on persistent sessions: the FindCandidates MaxSAT queries
//! are answered by the [`RepairSession`](crate::RepairSession)'s
//! incremental assumption-based encoding (built once per run, queried with
//! [`RepairSession::find_candidates`](crate::RepairSession::find_candidates)),
//! and the `G_k` queries (whose UNSAT cores
//! become repair cubes) by the [`VerifySession`]'s incremental matrix
//! solver — repair never constructs a solver or an encoding of its own.
//! FindCandidates' MaxSAT search doubles as the X-extension check of
//! Algorithm 1, line 13: its probes refute the hard part when `δ[X]`
//! extends to no model of ϕ, and that ends the run.
//! Repair reads the verify check's counterexample δ, an
//! [`Assignment`] of the formula's variables, as it is: its universal
//! entries are `δ[X]` and its existential entries `δ[Y']`. The paper's σ
//! (Algorithm 1, line 16) is δ under another name.
//! The test build keeps the pre-incremental rebuild-per-call path,
//! `find_candidates_from_scratch`, as the reference for the
//! repair-equivalence suite.

use crate::config::Manthan3Config;
use crate::engine::Run;
#[cfg(test)]
use crate::engine::SynthesisOutcome;
#[cfg(test)]
use crate::oracle::Oracle;
use crate::order::Order;
use crate::session::VerifySession;
use manthan3_cnf::{Assignment, Var};
use manthan3_dqbf::{Dqbf, HenkinVector};
use manthan3_sat::SolveResult;

/// Upper bound on individual candidate repairs within one repair pass.
const MAX_REPAIRS_PER_ITERATION: usize = 64;

/// The pre-incremental `FindCandi`: rebuilds the whole hard-clause MaxSAT
/// encoding (matrix, `δ[X]` units, soft clauses, totalizer) on every call.
/// Kept as the reference implementation for the repair-equivalence suite;
/// the engine itself always runs on the [`RepairSession`](crate::RepairSession).
#[cfg(test)]
pub(crate) fn find_candidates_from_scratch(
    dqbf: &Dqbf,
    delta: &Assignment,
    oracle: &mut Oracle,
) -> std::ops::ControlFlow<SynthesisOutcome, Vec<Var>> {
    use manthan3_maxsat::MaxSatResult;
    use std::ops::ControlFlow;

    let mut maxsat = oracle.new_maxsat();
    maxsat.add_hard_cnf(dqbf.matrix());
    let mut universals = dqbf.universals().to_vec();
    universals.sort_unstable();
    for x in universals {
        maxsat.add_hard([x.lit(delta.value(x))]);
    }
    let mut soft_vars = Vec::new();
    for &y in dqbf.existentials() {
        let id = maxsat.add_soft([y.lit(delta.value(y))]);
        soft_vars.push((id, y));
    }
    match oracle.solve_maxsat_under_assumptions(&mut maxsat, &[]) {
        MaxSatResult::Optimum { .. } => {
            let violated: Vec<_> = maxsat.violated_softs().collect();
            ControlFlow::Continue(
                soft_vars
                    .into_iter()
                    .filter(|(id, _)| violated.contains(id))
                    .map(|(_, y)| y)
                    .collect(),
            )
        }
        MaxSatResult::HardUnsat => ControlFlow::Break(SynthesisOutcome::Unrealizable),
        MaxSatResult::Unknown => {
            ControlFlow::Break(SynthesisOutcome::Unknown(oracle.give_up_reason()))
        }
    }
}

/// `true` if `other` is in `Ŷ` of the repair target `target` (Formula 1):
/// an existential whose dependency set is contained in the target's and
/// that appears **after** the target in the order.
fn in_y_hat(dqbf: &Dqbf, order: &Order, target: Var, other: Var) -> bool {
    other != target
        && dqbf
            .dependencies(other)
            .is_subset(dqbf.dependencies(target))
        && order.position(other) > order.position(target)
}

/// `Ŷ` of every output under one order, computed once when a run's
/// verify–repair loop starts: one bit per pair of outputs, indexed by their
/// positions in `Dqbf::existentials`. Empty when
/// `Manthan3Config::constrain_y_hat` is off (the ablation).
#[derive(Debug)]
pub(crate) struct YHats {
    outputs: usize,
    /// Bit `k * outputs + j` is set when output `j` is in `Ŷ` of output `k`.
    bits: Vec<u64>,
}

impl YHats {
    pub(crate) fn new(dqbf: &Dqbf, order: &Order, config: &Manthan3Config) -> Self {
        let outputs = dqbf.existentials();
        let n = outputs.len();
        let mut bits = vec![0u64; (n * n).div_ceil(64)];
        if config.constrain_y_hat {
            for (k, &target) in outputs.iter().enumerate() {
                for (j, &other) in outputs.iter().enumerate() {
                    if in_y_hat(dqbf, order, target, other) {
                        let bit = k * n + j;
                        bits[bit / 64] |= 1 << (bit % 64);
                    }
                }
            }
        }
        YHats { outputs: n, bits }
    }

    /// `true` if output `j` is in `Ŷ` of output `k`.
    fn contains(&self, k: usize, j: usize) -> bool {
        let bit = k * self.outputs + j;
        self.bits[bit / 64] >> (bit % 64) & 1 == 1
    }
}

/// Repairs the candidate vector against the counterexample `delta`
/// (Algorithm 3), starting from the `candidates` selected by a
/// FindCandidates query (on the persistent repair session, or on the
/// from-scratch reference path in the repair-equivalence suite). `y_hats`
/// holds each output's `Ŷ`. The `G_k` queries are answered by
/// `session`'s persistent matrix solver under assumptions, so the UNSAT
/// cores come from the same incremental session as the verification
/// checks, and repair only extends the vector's AIG — it never rebuilds a
/// solver or an encoding.
///
/// Returns `true` if no candidate could be repaired: the pass is stuck,
/// the incompleteness case discussed in §5 of the paper.
pub(crate) fn repair_vector(
    run: &mut Run<'_>,
    session: &mut VerifySession,
    vector: &mut HenkinVector,
    y_hats: &YHats,
    delta: &Assignment,
    candidates: Vec<Var>,
) -> bool {
    let mut queue: Vec<Var> = candidates;
    let mut assumptions = Vec::new();
    let mut stuck = true;
    let mut processed = 0usize;
    let mut index = 0usize;

    while index < queue.len() && processed < MAX_REPAIRS_PER_ITERATION {
        // A repair pass cut short by an exhausted budget must not look like
        // the algorithmic stuck case; the engine re-checks the oracle and
        // reports the budget reason.
        if run.oracle.exhausted().is_some() {
            break;
        }
        let yk = queue[index];
        index += 1;
        processed += 1;

        let outputs = run.dqbf.existentials();
        let k = outputs
            .iter()
            .position(|&y| y == yk)
            // invariant: yk came from the formula's own output list.
            .expect("yk is an output");
        // G_k = ϕ ∧ (H_k ↔ δ[H_k]) ∧ (Ŷ ↔ δ[Ŷ']) ∧ (y_k ↔ δ[y'_k]),
        // expressed as assumptions so the UNSAT core is a subset of the unit
        // constraints (Formula 1).
        let target_value = delta.value(yk);
        assumptions.clear();
        assumptions.push(yk.lit(target_value));
        for &d in run.dqbf.dependencies(yk) {
            assumptions.push(d.lit(delta.value(d)));
        }
        let hat = outputs
            .iter()
            .enumerate()
            .filter(|&(j, _)| y_hats.contains(k, j));
        for (_, &yj) in hat {
            assumptions.push(yj.lit(delta.value(yj)));
        }
        let performed_before = run.oracle.stats().sat_calls;
        let result = session.solve_phi(&mut run.oracle, &assumptions);
        // Only count G_k queries the oracle actually ran (a refused call
        // leaves the solver untouched).
        if run.oracle.stats().sat_calls > performed_before {
            run.stats.repair_sat_calls += 1;
        }
        match result {
            SolveResult::Unsat => {
                // The UNSAT core yields the repair cube β (Algorithm 3,
                // lines 11–13).
                let core = session.phi_unsat_core().iter().copied();
                let beta = vector.cube(core.filter(|l| l.var() != yk));
                // invariant: yk came from the vector's own output list.
                let current = vector.get(yk).expect("candidate exists");
                let new_function = if target_value {
                    // Output must change from 1 to 0 on the cube: strengthen.
                    vector.aig_mut().and(current, !beta)
                } else {
                    // Output must change from 0 to 1 on the cube: weaken.
                    vector.aig_mut().or(current, beta)
                };
                vector.set(yk, new_function);
                stuck = false;
                run.stats.repairs_applied += 1;
            }
            SolveResult::Sat => {
                // G_k is satisfiable: look for alternative candidates whose
                // current output disagrees with the witness (lines 15–17).
                for (t, &yt) in outputs.iter().enumerate() {
                    if y_hats.contains(k, t) || queue.contains(&yt) {
                        continue;
                    }
                    // invariant: G_k was satisfiable, and the matrix solver
                    // declares every variable of the formula.
                    let rho = session.phi_value(yt).expect("G_k has a model");
                    if rho != delta.value(yt) {
                        queue.push(yt);
                    }
                }
            }
            SolveResult::Unknown => {
                // Oracle budget exhausted; try the next candidate.
            }
        }
    }

    stuck
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::Budget;
    use crate::order::DependencyState;
    use crate::session::RepairSession;

    fn x(i: u32) -> Var {
        Var::new(i)
    }
    fn y(i: u32) -> Var {
        Var::new(3 + i)
    }

    /// Builds the paper's worked example state right before the repair step:
    /// candidates f1 = ¬x1, f2 = y1, f3 = x3 ∨ (¬x3 ∧ x2) and the
    /// counterexample δ from Section 5.
    fn paper_repair_state() -> (Dqbf, HenkinVector, Order, Assignment) {
        let dqbf = Dqbf::paper_example();
        let mut vector = HenkinVector::new();
        let in_x1 = vector.aig_mut().input(x(0).index());
        let in_x2 = vector.aig_mut().input(x(1).index());
        let in_x3 = vector.aig_mut().input(x(2).index());
        let in_y1 = vector.aig_mut().input(y(0).index());
        vector.set(y(0), !in_x1);
        vector.set(y(1), in_y1);
        let part = vector.aig_mut().and(!in_x3, in_x2);
        let f3 = vector.aig_mut().or(in_x3, part);
        vector.set(y(2), f3);

        // Order = {y3, y2, y1} as in the paper: y2 references y1, so y2 comes
        // before y1; y3 is unrelated.
        let mut state = DependencyState::new(dqbf.existentials());
        state.record_dependency(y(1), y(0));
        let order = Order::from_dependencies(dqbf.existentials(), &state);

        // δ: x = (1,0,0); δ[Y'] = (0,0,0).
        let delta = Assignment::from_values(vec![true, false, false, false, false, false]);
        (dqbf, vector, order, delta)
    }

    #[test]
    fn find_candidates_selects_y2_on_paper_example() {
        let (dqbf, _vector, _order, delta) = paper_repair_state();
        let mut oracle = Oracle::new(Budget::unlimited());
        let mut session = RepairSession::new(&dqbf, &mut oracle);
        let candidates = session.find_candidates(&delta, &mut oracle);
        // With x = (1,0,0), ϕ forces y2 = y1 ∨ ¬x2 = y1 ∨ 1 = 1, so the soft
        // constraint y2 ↔ 0 must be dropped; y1 and y3 can keep their
        // candidate outputs (0 and 0).
        assert_eq!(candidates.continue_value(), Some(vec![y(1)]));
        assert_eq!(oracle.stats().maxsat_calls, 1);
        assert_eq!(oracle.stats().maxsat_solvers_constructed, 1);
    }

    #[test]
    fn from_scratch_reference_agrees_on_paper_example() {
        let (dqbf, _vector, _order, delta) = paper_repair_state();
        let mut oracle = Oracle::new(Budget::unlimited());
        let candidates = find_candidates_from_scratch(&dqbf, &delta, &mut oracle);
        assert_eq!(candidates.continue_value(), Some(vec![y(1)]));
        // The reference path pays a full hard encoding per call.
        assert_eq!(oracle.stats().maxsat_solvers_constructed, 1);
    }

    #[test]
    fn repeated_find_candidates_reuse_one_encoding() {
        let (dqbf, _vector, _order, delta) = paper_repair_state();
        let mut oracle = Oracle::new(Budget::unlimited());
        let mut session = RepairSession::new(&dqbf, &mut oracle);
        // A second counterexample with flipped targets: the previous call's
        // assumptions must be fully retracted.
        // x = (0,1,0); δ[Y'] = (1,1,1).
        let flipped = Assignment::from_values(vec![false, true, false, true, true, true]);
        for round in 0..6 {
            let s = if round % 2 == 0 { &delta } else { &flipped };
            let _ = session.find_candidates(s, &mut oracle);
        }
        assert_eq!(oracle.stats().maxsat_solvers_constructed, 1);
        assert_eq!(oracle.stats().maxsat_calls, 6);
        // The alternating counterexamples stay deterministic: re-querying
        // the original delta still selects y2 only.
        let again = session.find_candidates(&delta, &mut oracle);
        assert_eq!(again.continue_value(), Some(vec![y(1)]));
    }

    #[test]
    fn y_hat_respects_order_and_subsets() {
        let (dqbf, _vector, order, _delta) = paper_repair_state();
        let config = Manthan3Config::default();
        let y_hat = |config: &Manthan3Config, target: usize| {
            let hats = YHats::new(&dqbf, &order, config);
            let outputs = dqbf.existentials().iter().enumerate();
            let hat = outputs.filter(|&(j, _)| hats.contains(target, j));
            hat.map(|(_, &y)| y).collect::<Vec<_>>()
        };
        // For y2 (deps {x1,x2}): y1 has H1 ⊂ H2 and appears after y2 in the
        // order, so Ŷ = {y1}; y3's dependency set is incomparable.
        assert_eq!(dqbf.existentials()[1], y(1));
        assert_eq!(y_hat(&config, 1), vec![y(0)]);
        // Disabling the constraint empties Ŷ (the ablation).
        let ablated = Manthan3Config {
            constrain_y_hat: false,
            ..Manthan3Config::default()
        };
        assert!(y_hat(&ablated, 1).is_empty());
    }

    #[test]
    fn repair_fixes_the_paper_counterexample() {
        let (dqbf, mut vector, order, delta) = paper_repair_state();
        let config = Manthan3Config::default();
        let mut run = Run::new(&dqbf, &config, Oracle::new(Budget::unlimited()));
        let mut session = VerifySession::new(&dqbf, &mut run.oracle);
        let mut repair_session = RepairSession::new(&dqbf, &mut run.oracle);

        let candidates = repair_session
            .find_candidates(&delta, &mut run.oracle)
            .continue_value()
            .expect("δ[X] extends to a model of ϕ");
        let before = vector.clone();
        let stuck = repair_vector(
            &mut run,
            &mut session,
            &mut vector,
            &YHats::new(&dqbf, &order, &config),
            &delta,
            candidates,
        );
        assert!(!stuck);
        // Only y2's function changed: y1 and y3 keep their functions.
        assert_ne!(vector.get(y(1)), before.get(y(1)));
        assert_eq!(vector.get(y(0)), before.get(y(0)));
        assert_eq!(vector.get(y(2)), before.get(y(2)));
        // The repaired candidate now maps the counterexample input to 1, and
        // matches y1 ∨ ¬x2 everywhere y1 is given by f1 = ¬x1.
        let values = |x1: bool, x2: bool, x3: bool, y1: bool| {
            let mut v = vec![false; 6];
            v[0] = x1;
            v[1] = x2;
            v[2] = x3;
            v[3] = y1;
            v
        };
        assert_eq!(
            vector.eval_one(y(1), &values(true, false, false, false)),
            Some(true)
        );
        assert_eq!(run.stats.repairs_applied, 1);
        // The repair query ran on the session's persistent matrix solver.
        assert_eq!(run.oracle.stats().sat_solvers_constructed, 2);
    }

    #[test]
    fn repair_reports_stuck_when_nothing_can_change() {
        // The XOR limitation example with candidates f1 = x2, f2 = ¬x2 and a
        // counterexample: no G_k is UNSAT because neither function may be
        // constrained by the other's output.
        let dqbf = Dqbf::xor_limitation_example();
        let config = Manthan3Config::default();
        let mut vector = HenkinVector::new();
        let in_x2 = vector.aig_mut().input(1);
        vector.set(Var::new(3), in_x2);
        vector.set(Var::new(4), !in_x2);
        let state = DependencyState::new(dqbf.existentials());
        let order = Order::from_dependencies(dqbf.existentials(), &state);
        // x = (0,0,0); δ[Y'] = (0,1).
        let delta = Assignment::from_values(vec![false, false, false, false, true]);
        let mut run = Run::new(&dqbf, &config, Oracle::new(Budget::unlimited()));
        let mut session = VerifySession::new(&dqbf, &mut run.oracle);
        let mut repair_session = RepairSession::new(&dqbf, &mut run.oracle);
        let candidates = repair_session
            .find_candidates(&delta, &mut run.oracle)
            .continue_value()
            .expect("δ[X] extends to a model of ϕ");
        let before = vector.clone();
        let stuck = repair_vector(
            &mut run,
            &mut session,
            &mut vector,
            &YHats::new(&dqbf, &order, &config),
            &delta,
            candidates,
        );
        assert!(stuck);
        for &y in dqbf.existentials() {
            assert_eq!(vector.get(y), before.get(y));
        }
    }
}
