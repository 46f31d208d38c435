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
//! The test build keeps the pre-incremental rebuild-per-call path,
//! `find_candidates_from_scratch`, as the reference for the
//! repair-equivalence suite.

use crate::config::Manthan3Config;
use crate::oracle::Oracle;
use crate::order::Order;
use crate::session::VerifySession;
use crate::stats::SynthesisStats;
use manthan3_aig::AigRef;
use manthan3_cnf::{Lit, Var};
use manthan3_dqbf::{Dqbf, HenkinVector};
use manthan3_sat::SolveResult;
use std::collections::{BTreeMap, BTreeSet};

/// The counterexample `σ = π[X] + π[Y] + δ[Y']` of Algorithm 1, line 16.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sigma {
    /// `σ[X]`: the universal assignment of the counterexample.
    pub x: BTreeMap<Var, bool>,
    /// `σ[Y]`: an extension of `σ[X]` that satisfies ϕ (`π[Y]`).
    pub y: BTreeMap<Var, bool>,
    /// `σ[Y']`: the outputs of the current candidate functions (`δ[Y']`).
    pub y_prime: BTreeMap<Var, bool>,
}

/// Outcome of one repair pass over a counterexample.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RepairOutcome {
    /// Candidates that were actually strengthened/weakened.
    pub repaired: Vec<Var>,
    /// `true` if no candidate could be repaired — the incompleteness case
    /// discussed in §5 of the paper.
    pub stuck: bool,
}

/// The pre-incremental `FindCandi`: rebuilds the whole hard-clause MaxSAT
/// encoding (matrix, `σ[X]` units, soft clauses, totalizer) on every call.
/// Kept as the reference implementation for the repair-equivalence suite;
/// the engine itself always runs on the [`RepairSession`](crate::RepairSession).
#[cfg(test)]
pub(crate) fn find_candidates_from_scratch(
    dqbf: &Dqbf,
    sigma: &Sigma,
    oracle: &mut Oracle,
) -> Vec<Var> {
    use manthan3_maxsat::MaxSatResult;

    let mut maxsat = oracle.new_maxsat();
    oracle.note_maxsat_hard_encoding();
    maxsat.add_hard_cnf(dqbf.matrix());
    for (&x, &value) in &sigma.x {
        maxsat.add_hard([x.lit(value)]);
    }
    let mut soft_vars = Vec::new();
    for &y in dqbf.existentials() {
        let target = sigma.y_prime.get(&y).copied().unwrap_or(false);
        let id = maxsat.add_soft([y.lit(target)], 1);
        soft_vars.push((id, y));
    }
    match oracle.solve_maxsat(&mut maxsat) {
        MaxSatResult::Optimum { .. } => {
            let violated: BTreeSet<_> = maxsat.violated_softs().into_iter().collect();
            soft_vars
                .into_iter()
                .filter(|(id, _)| violated.contains(id))
                .map(|(_, y)| y)
                .collect()
        }
        // The engine only calls this after establishing that σ[X] can be
        // extended to a model of ϕ, so the hard part is satisfiable; if the
        // oracle is past its deadline (or cancelled) we fall back to "repair
        // every output whose candidate output differs from the witness
        // extension" — the engine re-checks the oracle before acting on it.
        MaxSatResult::HardUnsat | MaxSatResult::Unknown => dqbf
            .existentials()
            .iter()
            .copied()
            .filter(|y| sigma.y.get(y) != sigma.y_prime.get(y))
            .collect(),
    }
}

/// Computes `Ŷ` for a repair target `y_k` (Formula 1): existentials whose
/// dependency set is contained in `H_k` and that appear **after** `y_k` in
/// the order.
pub fn y_hat(dqbf: &Dqbf, order: &Order, target: Var, config: &Manthan3Config) -> Vec<Var> {
    if !config.constrain_y_hat {
        return Vec::new();
    }
    let deps = dqbf.dependencies(target);
    dqbf.existentials()
        .iter()
        .copied()
        .filter(|&other| {
            other != target
                && dqbf.dependencies(other).is_subset(deps)
                && order.position(other) > order.position(target)
        })
        .collect()
}

/// Repairs the candidate vector against the counterexample `sigma`
/// (Algorithm 3), starting from the `candidates` selected by a
/// FindCandidates query (on the persistent repair session, or on the
/// from-scratch reference path in the repair-equivalence suite). The
/// `G_k` queries are answered by `session`'s persistent matrix solver under
/// assumptions, so the UNSAT cores come from the same incremental session as
/// the verification checks, and repair only extends the vector's AIG — it
/// never rebuilds a solver or an encoding.
#[allow(clippy::too_many_arguments)]
pub fn repair_vector(
    dqbf: &Dqbf,
    config: &Manthan3Config,
    session: &mut VerifySession,
    oracle: &mut Oracle,
    vector: &mut HenkinVector,
    order: &Order,
    sigma: &mut Sigma,
    candidates: Vec<Var>,
    stats: &mut SynthesisStats,
) -> RepairOutcome {
    let mut queue: Vec<Var> = candidates;
    let mut queued: BTreeSet<Var> = queue.iter().copied().collect();
    let mut repaired = Vec::new();
    let mut processed = 0usize;
    let mut index = 0usize;

    while index < queue.len() && processed < config.max_repairs_per_iteration {
        // A repair pass cut short by an exhausted budget must not look like
        // the algorithmic stuck case; the engine re-checks the oracle and
        // reports the budget reason.
        if oracle.exhausted().is_some() {
            break;
        }
        let yk = queue[index];
        index += 1;
        processed += 1;

        let hat = y_hat(dqbf, order, yk, config);
        // G_k = ϕ ∧ (H_k ↔ σ[H_k]) ∧ (Ŷ ↔ σ[Ŷ']) ∧ (y_k ↔ σ[y'_k]),
        // expressed as assumptions so the UNSAT core is a subset of the unit
        // constraints (Formula 1).
        let target_value = sigma.y_prime.get(&yk).copied().unwrap_or(false);
        let mut assumptions: Vec<Lit> = vec![yk.lit(target_value)];
        for &d in dqbf.dependencies(yk) {
            assumptions.push(d.lit(sigma.x.get(&d).copied().unwrap_or(false)));
        }
        for &yj in &hat {
            assumptions.push(yj.lit(sigma.y_prime.get(&yj).copied().unwrap_or(false)));
        }
        let performed_before = oracle.stats().sat_calls;
        let result = session.solve_phi(oracle, &assumptions);
        // Only count G_k queries the oracle actually ran (a refused call
        // leaves the solver untouched).
        if oracle.stats().sat_calls > performed_before {
            stats.repair_sat_calls += 1;
        }
        match result {
            SolveResult::Unsat => {
                // The UNSAT core yields the repair cube β (Algorithm 3,
                // lines 11–13).
                let core: Vec<Lit> = session
                    .phi_unsat_core()
                    .iter()
                    .copied()
                    .filter(|l| l.var() != yk)
                    .collect();
                let beta = build_cube(vector, &core);
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
                repaired.push(yk);
                stats.repairs_applied += 1;
                // Line 18: σ[y_k] ← σ[y'_k].
                sigma.y.insert(yk, target_value);
            }
            SolveResult::Sat => {
                // G_k is satisfiable: look for alternative candidates whose
                // current output disagrees with the witness (lines 15–17).
                let model = session.phi_model();
                let hat_set: BTreeSet<Var> = hat.into_iter().collect();
                for &yt in dqbf.existentials() {
                    if hat_set.contains(&yt) || queued.contains(&yt) {
                        continue;
                    }
                    let rho = model.get(yt).unwrap_or(false);
                    let candidate_output = sigma.y_prime.get(&yt).copied().unwrap_or(false);
                    if rho != candidate_output {
                        queue.push(yt);
                        queued.insert(yt);
                    }
                }
            }
            SolveResult::Unknown => {
                // Oracle budget exhausted; try the next candidate.
            }
        }
    }

    RepairOutcome {
        stuck: repaired.is_empty(),
        repaired,
    }
}

/// Builds the conjunction (cube) of the given unit literals inside the
/// vector's AIG; literal polarity is taken as-is (the literals already carry
/// the counterexample's valuation).
fn build_cube(vector: &mut HenkinVector, literals: &[Lit]) -> AigRef {
    let inputs: Vec<AigRef> = literals
        .iter()
        .map(|&l| {
            let input = vector.aig_mut().input(l.var().index());
            if l.is_positive() {
                input
            } else {
                !input
            }
        })
        .collect();
    vector.aig_mut().and_list(&inputs)
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
    /// counterexample σ from Section 5.
    fn paper_repair_state() -> (Dqbf, HenkinVector, Order, Sigma) {
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

        // σ: x = (1,0,0); π[Y] = (1,1,0); δ[Y'] = (0,0,0).
        let sigma = Sigma {
            x: [(x(0), true), (x(1), false), (x(2), false)].into(),
            y: [(y(0), true), (y(1), true), (y(2), false)].into(),
            y_prime: [(y(0), false), (y(1), false), (y(2), false)].into(),
        };
        (dqbf, vector, order, sigma)
    }

    #[test]
    fn find_candidates_selects_y2_on_paper_example() {
        let (dqbf, _vector, _order, sigma) = paper_repair_state();
        let mut oracle = Oracle::new(Budget::unlimited());
        let mut session = RepairSession::new(&dqbf, &mut oracle);
        let candidates = session.find_candidates(&dqbf, &sigma, &mut oracle);
        // With x = (1,0,0), ϕ forces y2 = y1 ∨ ¬x2 = y1 ∨ 1 = 1, so the soft
        // constraint y2 ↔ 0 must be dropped; y1 and y3 can keep their
        // candidate outputs (0 and 0).
        assert_eq!(candidates, vec![y(1)]);
        assert_eq!(session.solves(), 1);
        assert_eq!(oracle.stats().maxsat_calls, 1);
        assert_eq!(oracle.stats().maxsat_incremental_calls, 1);
        assert_eq!(oracle.stats().maxsat_hard_encodings, 1);
    }

    #[test]
    fn from_scratch_reference_agrees_on_paper_example() {
        let (dqbf, _vector, _order, sigma) = paper_repair_state();
        let mut oracle = Oracle::new(Budget::unlimited());
        let candidates = find_candidates_from_scratch(&dqbf, &sigma, &mut oracle);
        assert_eq!(candidates, vec![y(1)]);
        // The reference path pays a full hard encoding per call and is never
        // served under assumptions.
        assert_eq!(oracle.stats().maxsat_hard_encodings, 1);
        assert_eq!(oracle.stats().maxsat_incremental_calls, 0);
    }

    #[test]
    fn repeated_find_candidates_reuse_one_encoding() {
        let (dqbf, _vector, _order, sigma) = paper_repair_state();
        let mut oracle = Oracle::new(Budget::unlimited());
        let mut session = RepairSession::new(&dqbf, &mut oracle);
        // A second counterexample with flipped targets: the previous call's
        // assumptions must be fully retracted.
        let mut flipped = sigma.clone();
        flipped.y_prime = [(y(0), true), (y(1), true), (y(2), true)].into();
        flipped.x = [(x(0), false), (x(1), true), (x(2), false)].into();
        for round in 0..6 {
            let s = if round % 2 == 0 { &sigma } else { &flipped };
            let _ = session.find_candidates(&dqbf, s, &mut oracle);
        }
        assert_eq!(oracle.stats().maxsat_hard_encodings, 1);
        assert_eq!(oracle.stats().maxsat_solvers_constructed, 1);
        assert_eq!(oracle.stats().maxsat_calls, 6);
        assert_eq!(oracle.stats().maxsat_incremental_calls, 6);
        // The alternating counterexamples stay deterministic: re-querying
        // the original sigma still selects y2 only.
        let again = session.find_candidates(&dqbf, &sigma, &mut oracle);
        assert_eq!(again, vec![y(1)]);
    }

    #[test]
    fn y_hat_respects_order_and_subsets() {
        let (dqbf, _vector, order, _sigma) = paper_repair_state();
        let config = Manthan3Config::default();
        // For y2 (deps {x1,x2}): y1 has H1 ⊂ H2 and appears after y2 in the
        // order, so Ŷ = {y1}; y3's dependency set is incomparable.
        assert_eq!(y_hat(&dqbf, &order, y(1), &config), vec![y(0)]);
        // Disabling the constraint empties Ŷ (the ablation).
        let ablated = Manthan3Config {
            constrain_y_hat: false,
            ..Manthan3Config::default()
        };
        assert!(y_hat(&dqbf, &order, y(1), &ablated).is_empty());
    }

    #[test]
    fn repair_fixes_the_paper_counterexample() {
        let (dqbf, mut vector, order, mut sigma) = paper_repair_state();
        let config = Manthan3Config::default();
        let mut stats = SynthesisStats::default();
        let mut oracle = Oracle::new(Budget::unlimited());
        let mut session = VerifySession::new(&dqbf, &mut oracle);
        let mut repair_session = RepairSession::new(&dqbf, &mut oracle);

        let candidates = repair_session.find_candidates(&dqbf, &sigma, &mut oracle);
        let outcome = repair_vector(
            &dqbf,
            &config,
            &mut session,
            &mut oracle,
            &mut vector,
            &order,
            &mut sigma,
            candidates,
            &mut stats,
        );
        assert!(!outcome.stuck);
        assert_eq!(outcome.repaired, vec![y(1)]);
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
        assert_eq!(stats.repairs_applied, 1);
        assert_eq!(sigma.y.get(&y(1)), Some(&false));
        // The repair query ran on the session's persistent matrix solver.
        assert_eq!(oracle.stats().sat_solvers_constructed, 2);
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
        let mut sigma = Sigma {
            x: [
                (Var::new(0), false),
                (Var::new(1), false),
                (Var::new(2), false),
            ]
            .into(),
            y: [(Var::new(3), false), (Var::new(4), false)].into(),
            y_prime: [(Var::new(3), false), (Var::new(4), true)].into(),
        };
        let mut oracle = Oracle::new(Budget::unlimited());
        let mut session = VerifySession::new(&dqbf, &mut oracle);
        let mut repair_session = RepairSession::new(&dqbf, &mut oracle);
        let mut stats = SynthesisStats::default();
        let candidates = repair_session.find_candidates(&dqbf, &sigma, &mut oracle);
        let outcome = repair_vector(
            &dqbf,
            &config,
            &mut session,
            &mut oracle,
            &mut vector,
            &order,
            &mut sigma,
            candidates,
            &mut stats,
        );
        assert!(outcome.stuck);
        assert!(outcome.repaired.is_empty());
    }
}
