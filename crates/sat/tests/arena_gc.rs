//! Property tests for clause-arena garbage collection: random
//! alloc/delete/collect interleavings checked against a shadow model.
//!
//! The properties, per GC pass:
//! - **forwarding resolution** — every live clause forwards to `Some` new
//!   reference and every deleted clause forwards to `None`;
//! - **zero live-clause loss** — after remapping, every live clause reads
//!   back bit-identical (literals, learnt flag, LBD, activity);
//! - **compaction** — a collect leaves no wasted words and bumps the
//!   collection counter.
//!
//! A second, solver-level suite churns full solves through reduction and
//! simplification (each of which may trigger GC) on random formulas: surviving watcher invariants show up as stable verdicts and
//! genuine models, broken ones as wrong verdicts or panics.

use manthan3_cnf::{Cnf, Lit, Var};
use manthan3_sat::arena::{ClauseArena, ClauseRef};
use manthan3_sat::{SolveResult, Solver, SolverConfig};
use proptest::prelude::*;

/// A shadow copy of one live clause: everything the arena must preserve.
#[derive(Debug, Clone)]
struct Shadow {
    cref: ClauseRef,
    lit_codes: Vec<u32>,
    learnt: bool,
    lbd: u32,
    activity: f32,
}

/// One scripted arena operation, decoded from plain draws (the vendored
/// proptest has no `prop_flat_map`, so selectors fold with a modulus).
#[derive(Debug, Clone, Copy)]
struct Op {
    selector: u8,
    payload: u8,
    len: u8,
    learnt: bool,
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    collection::vec((0u8..=255, 0u8..=255, 1u8..=6, any::<bool>()), 20..=120).prop_map(|raw| {
        raw.into_iter()
            .map(|(selector, payload, len, learnt)| Op {
                selector,
                payload,
                len,
                learnt,
            })
            .collect()
    })
}

/// Replays `script` against a real arena and the shadow model, checking the
/// GC properties at every collect.
fn run_script(script: &[Op]) -> Result<(), TestCaseError> {
    let mut arena = ClauseArena::new();
    let mut live: Vec<Shadow> = Vec::new();
    let mut deleted_since_gc: Vec<ClauseRef> = Vec::new();
    let mut next_lit = 0u32;
    let mut collections_expected = 0u64;
    for op in script {
        match op.selector % 100 {
            // ~55%: allocate a fresh clause with distinctive metadata.
            0..=54 => {
                let lits: Vec<Lit> = (0..op.len)
                    .map(|i| {
                        next_lit += 1;
                        Var::new((next_lit + u32::from(i)) % 64).lit(next_lit.is_multiple_of(3))
                    })
                    .collect();
                let cref = arena.alloc(&lits, op.learnt);
                let lbd = u32::from(op.payload) % 30;
                let activity = f32::from(op.payload) * 0.5 + 1.0;
                if op.learnt {
                    arena.set_lbd(cref, lbd);
                    arena.set_activity(cref, activity);
                }
                live.push(Shadow {
                    cref,
                    lit_codes: arena.lit_codes(cref).to_vec(),
                    learnt: op.learnt,
                    lbd: if op.learnt { lbd } else { arena.lbd(cref) },
                    activity: if op.learnt {
                        activity
                    } else {
                        arena.activity(cref)
                    },
                });
            }
            // ~30%: delete a random live clause.
            55..=84 => {
                if live.is_empty() {
                    continue;
                }
                let index = usize::from(op.payload) % live.len();
                let shadow = live.swap_remove(index);
                arena.delete(shadow.cref);
                prop_assert!(arena.is_deleted(shadow.cref));
                deleted_since_gc.push(shadow.cref);
            }
            // ~15%: collect garbage and verify the relocation contract.
            _ => {
                let reloc = arena.collect(live.iter().map(|s| s.cref));
                collections_expected += 1;
                for stale in deleted_since_gc.drain(..) {
                    prop_assert!(
                        reloc.forward(stale).is_none(),
                        "deleted clause {stale:?} forwarded somewhere"
                    );
                }
                for shadow in &mut live {
                    let forwarded = reloc.forward(shadow.cref);
                    prop_assert!(
                        forwarded.is_some(),
                        "live clause {:?} lost by GC",
                        shadow.cref
                    );
                    // invariant: just checked above; prop_assert returns on None.
                    shadow.cref = forwarded.expect("checked above");
                }
                prop_assert_eq!(arena.wasted_words(), 0);
                prop_assert_eq!(arena.collections(), collections_expected);
                // Post-GC readback: nothing lost, nothing mutated.
                for shadow in &live {
                    prop_assert_eq!(arena.lit_codes(shadow.cref), shadow.lit_codes.as_slice());
                    prop_assert_eq!(arena.is_learnt(shadow.cref), shadow.learnt);
                    prop_assert_eq!(arena.lbd(shadow.cref), shadow.lbd);
                    prop_assert_eq!(arena.activity(shadow.cref), shadow.activity);
                    prop_assert!(!arena.is_deleted(shadow.cref));
                }
            }
        }
    }
    // Terminal collect: every script ends with one full verification pass.
    let reloc = arena.collect(live.iter().map(|s| s.cref));
    for shadow in &mut live {
        let forwarded = reloc.forward(shadow.cref);
        prop_assert!(forwarded.is_some());
        // invariant: just checked above; prop_assert returns on None.
        shadow.cref = forwarded.expect("checked above");
    }
    for shadow in &live {
        prop_assert_eq!(arena.lit_codes(shadow.cref), shadow.lit_codes.as_slice());
    }
    prop_assert_eq!(arena.live_words() == 0, live.is_empty());
    Ok(())
}

/// A small mixed-regime random formula (same shape as the differential
/// suite: fold literal draws into the variable count with a modulus).
fn formula() -> impl Strategy<Value = Cnf> {
    (
        4u32..14,
        collection::vec(collection::vec((0u32..16, any::<bool>()), 1..=3), 8..=60),
    )
        .prop_map(|(num_vars, clauses)| {
            let mut cnf = Cnf::new(num_vars as usize);
            for clause in clauses {
                cnf.add_clause(
                    clause
                        .into_iter()
                        .map(|(v, polarity)| Var::new(v % num_vars).lit(polarity)),
                );
            }
            cnf
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random alloc/delete/collect interleavings on the flat arena.
    #[test]
    fn gc_preserves_live_clauses_flat(script in ops()) {
        run_script(&script)?;
    }

    /// Solver-level churn: maintenance passes (reduction and simplification,
    /// both of which may GC the arena and repair watchers)
    /// between solves must leave verdicts stable against a fresh solver and
    /// every SAT model genuine.
    #[test]
    fn watcher_invariants_survive_gc_churn(cnf in formula()) {
        let config = SolverConfig {
            // Tiny thresholds so reductions (and thus GC) actually run.
            first_reduce_db: 2,
            ..SolverConfig::default()
        };
        let mut churned = Solver::with_config(config.clone());
        churned.add_cnf(&cnf);
        churned.ensure_vars(cnf.num_vars());
        let mut verdicts = Vec::new();
        for round in 0..3 {
            let verdict = if round == 0 {
                churned.solve()
            } else {
                churned.solve_with_assumptions(&[Var::new(0).positive()])
            };
            verdicts.push(verdict);
            if verdict == SolveResult::Sat {
                let model = churned.model();
                if round == 0 {
                    prop_assert!(cnf.eval(&model), "churned solver produced a bogus model");
                }
            }
            churned.maintain();
        }
        // A fresh solver must agree with the churned one verdict-for-verdict.
        let mut fresh = Solver::with_config(config);
        fresh.add_cnf(&cnf);
        fresh.ensure_vars(cnf.num_vars());
        prop_assert_eq!(fresh.solve(), verdicts[0]);
        prop_assert_eq!(
            fresh.solve_with_assumptions(&[Var::new(0).positive()]),
            verdicts[1]
        );
        prop_assert!(verdicts[1] == verdicts[2], "churn flipped a verdict");
    }
}
