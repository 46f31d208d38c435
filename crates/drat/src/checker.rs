//! The forward RUP/DRAT checker: two-watched-literal unit propagation with a
//! persistent top-level trail, per-lemma RUP with RAT-on-first-literal
//! fallback, and deletion handling.
//!
//! The checker replays the proof front to back. Its state is the *active*
//! clause set (formula clauses plus verified lemmas minus deletions) and a
//! **persistent trail**: the unit-propagation closure of the active set.
//! Each added lemma `C` is checked by assuming `¬C` on top of the persistent
//! trail and propagating — a conflict certifies `C` as RUP. If RUP fails,
//! the RAT fallback resolves `C` on its first literal against every active
//! clause containing its negation and requires each resolvent to be RUP.
//! Verified lemmas join the active set; a lemma that is unit (or falsified)
//! under the persistent trail extends it permanently. Once the persistent
//! closure conflicts, the formula is propositionally refuted and every
//! remaining step — in particular the final empty clause — is trivially
//! sound.
//!
//! Deletions are looked up by normalized literal set. Deletions of unit or
//! empty clauses are ignored (the drat-trim convention): retracting a unit
//! would invalidate the persistent trail, and solvers routinely delete
//! root-satisfied clauses whose units live on.

use crate::{CancelFlag, Lit, Proof, ProofStep};
use std::collections::HashMap;

/// How often the checker polls its [`CancelFlag`], in proof steps.
const CANCEL_POLL_INTERVAL: usize = 512;

/// Truth value of a variable under the current assignment.
const UNASSIGNED: u8 = 0;
const TRUE: u8 = 1;
const FALSE: u8 = 2;

/// Counters describing a successful check.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckStats {
    /// Proof steps processed before the empty clause was verified.
    pub steps_checked: usize,
    /// Addition steps processed.
    pub adds: usize,
    /// Deletion steps processed (including ignored unit deletions).
    pub deletes: usize,
    /// Lemmas certified by the RAT fallback rather than plain RUP.
    pub rat_lemmas: usize,
    /// Unit propagations performed across all checks.
    pub propagations: u64,
}

/// Verdict of a proof check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckOutcome {
    /// The proof derives the empty clause; the formula is UNSAT.
    Verified(CheckStats),
    /// The proof does not certify unsatisfiability.
    Rejected {
        /// Index of the offending step (`proof.steps.len()` when the proof
        /// simply ends without deriving the empty clause).
        step: usize,
        /// Human-readable reason.
        reason: String,
    },
    /// The check was cancelled through its [`CancelFlag`].
    Cancelled,
}

impl CheckOutcome {
    /// `true` for [`CheckOutcome::Verified`].
    pub fn is_verified(&self) -> bool {
        matches!(self, CheckOutcome::Verified(_))
    }
}

/// Checks `proof` against `cnf` (see the [crate docs](crate)). Never
/// cancelled; equivalent to [`check_with_cancel`] with a fresh flag.
pub fn check(cnf: &[Vec<Lit>], proof: &Proof) -> CheckOutcome {
    check_with_cancel(cnf, proof, &CancelFlag::new())
}

/// Checks `proof` against `cnf`, polling `cancel` between proof chunks
/// (every `CANCEL_POLL_INTERVAL` steps).
pub fn check_with_cancel(cnf: &[Vec<Lit>], proof: &Proof, cancel: &CancelFlag) -> CheckOutcome {
    let mut checker = Checker::default();
    for clause in cnf {
        checker.add_clause(clause);
    }
    checker.propagate_persistent();

    for (index, step) in proof.steps.iter().enumerate() {
        if index % CANCEL_POLL_INTERVAL == 0 && cancel.is_cancelled() {
            return CheckOutcome::Cancelled;
        }
        checker.stats.steps_checked = index + 1;
        match step {
            ProofStep::Add(lits) => {
                checker.stats.adds += 1;
                if !checker.contradiction && !checker.lemma_holds(lits) {
                    return CheckOutcome::Rejected {
                        step: index,
                        reason: format!("lemma {lits:?} is neither RUP nor RAT"),
                    };
                }
                if lits.is_empty() {
                    return CheckOutcome::Verified(checker.stats);
                }
                checker.add_clause(lits);
                checker.propagate_persistent();
            }
            ProofStep::Delete(lits) => {
                checker.stats.deletes += 1;
                checker.delete_clause(lits);
            }
        }
    }
    CheckOutcome::Rejected {
        step: proof.steps.len(),
        reason: "proof ends without deriving the empty clause".to_string(),
    }
}

/// One stored clause. Watches point at `lits[0]` and `lits[1]`.
#[derive(Debug, Clone)]
struct ClauseEntry {
    lits: Vec<Lit>,
    active: bool,
}

/// Encodes a literal as a watch-list index (`2v` positive, `2v+1` negative).
fn code(l: Lit) -> usize {
    let v = l.unsigned_abs() as usize;
    2 * v + usize::from(l < 0)
}

#[derive(Debug, Default)]
struct Checker {
    clauses: Vec<ClauseEntry>,
    /// Normalized (sorted, deduplicated) literal set → active clause indices,
    /// the deletion lookup.
    by_key: HashMap<Vec<Lit>, Vec<usize>>,
    /// Watch lists indexed by [`code`]: clauses watching that literal.
    watches: Vec<Vec<usize>>,
    /// Truth value per variable index.
    value: Vec<u8>,
    trail: Vec<Lit>,
    /// Length of the persistent prefix of `trail`; everything beyond it is
    /// a temporary RUP assumption and unwound after the check.
    persistent: usize,
    /// Propagation queue head.
    qhead: usize,
    /// The persistent closure is conflicting: the formula is refuted and
    /// all remaining steps hold trivially.
    contradiction: bool,
    stats: CheckStats,
}

impl Checker {
    fn ensure_var(&mut self, l: Lit) {
        let v = l.unsigned_abs() as usize;
        if self.value.len() <= v {
            self.value.resize(v + 1, UNASSIGNED);
        }
        if self.watches.len() <= 2 * v + 1 {
            self.watches.resize(2 * v + 2, Vec::new());
        }
    }

    fn lit_value(&self, l: Lit) -> u8 {
        match self.value[l.unsigned_abs() as usize] {
            UNASSIGNED => UNASSIGNED,
            v if (v == TRUE) == (l > 0) => TRUE,
            _ => FALSE,
        }
    }

    /// Assigns `l` true and queues it for propagation.
    fn enqueue(&mut self, l: Lit) {
        self.value[l.unsigned_abs() as usize] = if l > 0 { TRUE } else { FALSE };
        self.trail.push(l);
    }

    fn key(lits: &[Lit]) -> Vec<Lit> {
        let mut k = lits.to_vec();
        k.sort_unstable();
        k.dedup();
        k
    }

    /// Adds a clause to the active set, maintaining watches and the
    /// persistent trail. Callers must follow up with
    /// [`Checker::propagate_persistent`].
    fn add_clause(&mut self, lits: &[Lit]) {
        for &l in lits {
            self.ensure_var(l);
        }
        if lits.is_empty() {
            self.contradiction = true;
            return;
        }
        let index = self.clauses.len();
        let mut stored = lits.to_vec();
        // Prefer non-falsified literals in the watched slots so the watch
        // invariant (a falsified watch implies the clause was inspected)
        // holds from birth even when the clause arrives late in the proof.
        let mut free = 0usize;
        for i in 0..stored.len() {
            if self.lit_value(stored[i]) != FALSE && free < 2 {
                stored.swap(free, i);
                free += 1;
            }
        }
        match free {
            0 => {
                // Every literal is false under the persistent closure: the
                // formula is refuted as soon as this clause joins it.
                self.contradiction = true;
            }
            // Unit under the persistent closure: extend it permanently.
            1 if self.lit_value(stored[0]) == UNASSIGNED => {
                self.enqueue(stored[0]);
            }
            _ => {}
        }
        if stored.len() >= 2 {
            self.watches[code(stored[0])].push(index);
            self.watches[code(stored[1])].push(index);
        } else if self.lit_value(stored[0]) == UNASSIGNED {
            self.enqueue(stored[0]);
        }
        self.by_key.entry(Self::key(lits)).or_default().push(index);
        self.clauses.push(ClauseEntry {
            lits: stored,
            active: true,
        });
    }

    /// Deletes one active clause matching `lits` (no-op for unknown
    /// clauses; unit and empty deletions are ignored — see module docs).
    fn delete_clause(&mut self, lits: &[Lit]) {
        let key = Self::key(lits);
        if key.len() <= 1 {
            return;
        }
        let Some(indices) = self.by_key.get_mut(&key) else {
            return;
        };
        let Some(pos) = indices.iter().position(|&i| self.clauses[i].active) else {
            return;
        };
        let index = indices.swap_remove(pos);
        self.clauses[index].active = false;
        for slot in 0..2usize.min(self.clauses[index].lits.len()) {
            let w = code(self.clauses[index].lits[slot]);
            if let Some(p) = self.watches[w].iter().position(|&i| i == index) {
                self.watches[w].swap_remove(p);
            }
        }
    }

    /// Propagates to fixpoint from the current queue head. Returns `false`
    /// on conflict. The trail (persistent or temporary) grows accordingly.
    fn propagate(&mut self) -> bool {
        while self.qhead < self.trail.len() {
            let l = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            // Visit the clauses watching ¬l; each is either satisfied,
            // re-watched on a non-false literal, unit, or conflicting.
            let falsified = code(-l);
            let mut i = 0;
            while i < self.watches[falsified].len() {
                let ci = self.watches[falsified][i];
                if !self.clauses[ci].active {
                    self.watches[falsified].swap_remove(i);
                    continue;
                }
                // Normalize so the falsified literal sits in slot 1.
                if self.clauses[ci].lits[0] == -l {
                    self.clauses[ci].lits.swap(0, 1);
                }
                let first = self.clauses[ci].lits[0];
                if self.lit_value(first) == TRUE {
                    i += 1;
                    continue;
                }
                // Look for a replacement watch beyond the first two slots.
                let replacement = (2..self.clauses[ci].lits.len())
                    .find(|&k| self.lit_value(self.clauses[ci].lits[k]) != FALSE);
                if let Some(k) = replacement {
                    self.clauses[ci].lits.swap(1, k);
                    let new_watch = code(self.clauses[ci].lits[1]);
                    self.watches[new_watch].push(ci);
                    self.watches[falsified].swap_remove(i);
                    continue;
                }
                if self.lit_value(first) == FALSE {
                    return false; // conflict
                }
                self.enqueue(first);
                i += 1;
            }
        }
        true
    }

    /// Propagates the persistent trail to fixpoint, recording a refutation
    /// instead of failing.
    fn propagate_persistent(&mut self) {
        if self.contradiction {
            return;
        }
        if !self.propagate() {
            self.contradiction = true;
        }
        self.persistent = self.trail.len();
        self.qhead = self.persistent;
    }

    /// Unwinds temporary assumptions back to the persistent prefix.
    fn unwind(&mut self) {
        for i in self.persistent..self.trail.len() {
            self.value[self.trail[i].unsigned_abs() as usize] = UNASSIGNED;
        }
        self.trail.truncate(self.persistent);
        self.qhead = self.persistent;
    }

    /// RUP check: does assuming `¬lits` conflict under unit propagation?
    fn is_rup(&mut self, lits: &[Lit]) -> bool {
        for &l in lits {
            self.ensure_var(l);
            match self.lit_value(l) {
                TRUE => {
                    // ¬l contradicts the current assignment outright (this
                    // also accepts tautological lemmas, e.g. the trivial
                    // core clause of conflicting assumptions).
                    self.unwind();
                    return true;
                }
                FALSE => {}
                _ => self.enqueue(-l),
            }
        }
        let conflict = !self.propagate();
        self.unwind();
        conflict
    }

    /// Full lemma check: RUP, with the RAT-on-first-literal fallback.
    fn lemma_holds(&mut self, lits: &[Lit]) -> bool {
        if self.is_rup(lits) {
            return true;
        }
        // RAT on the first literal: every active clause containing ¬pivot
        // must yield a RUP resolvent (tautologies hold trivially).
        let Some(&pivot) = lits.first() else {
            return false;
        };
        for ci in 0..self.clauses.len() {
            if !self.clauses[ci].active || !self.clauses[ci].lits.contains(&-pivot) {
                continue;
            }
            let mut resolvent = lits.to_vec();
            let side = self.clauses[ci].lits.clone();
            let mut tautology = false;
            for &sl in side.iter().filter(|&&sl| sl != -pivot) {
                if lits.contains(&-sl) {
                    tautology = true;
                    break;
                }
                if !resolvent.contains(&sl) {
                    resolvent.push(sl);
                }
            }
            if tautology {
                continue;
            }
            if !self.is_rup(&resolvent) {
                return false;
            }
        }
        self.stats.rat_lemmas += 1;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn add(lits: &[Lit]) -> ProofStep {
        ProofStep::Add(lits.to_vec())
    }

    fn del(lits: &[Lit]) -> ProofStep {
        ProofStep::Delete(lits.to_vec())
    }

    /// The 2-variable complete formula (UNSAT, but not by unit propagation
    /// alone) with its canonical RUP refutation: derive (1), then ⊥.
    fn complete2() -> (Vec<Vec<Lit>>, Proof) {
        let cnf = vec![vec![1, 2], vec![1, -2], vec![-1, 2], vec![-1, -2]];
        let proof = Proof {
            steps: vec![add(&[1]), add(&[])],
        };
        (cnf, proof)
    }

    #[test]
    fn accepts_a_simple_rup_chain() {
        let (cnf, proof) = complete2();
        let outcome = check(&cnf, &proof);
        let CheckOutcome::Verified(stats) = outcome else {
            panic!("expected verified, got {outcome:?}");
        };
        assert_eq!(stats.adds, 2);
    }

    #[test]
    fn accepts_immediate_contradiction_from_load() {
        // (1) ∧ (−1): the persistent closure conflicts at load; the bare
        // empty clause suffices.
        let cnf = vec![vec![1], vec![-1]];
        let proof = Proof {
            steps: vec![add(&[])],
        };
        assert!(check(&cnf, &proof).is_verified());
    }

    #[test]
    fn rejects_a_non_rup_lemma() {
        let cnf = vec![vec![1, 2]];
        let proof = Proof {
            steps: vec![add(&[-1]), add(&[])],
        };
        let outcome = check(&cnf, &proof);
        let CheckOutcome::Rejected { step, .. } = outcome else {
            panic!("expected rejected, got {outcome:?}");
        };
        assert_eq!(step, 0);
    }

    #[test]
    fn rejects_a_truncated_proof() {
        let (cnf, mut proof) = complete2();
        proof.steps.pop();
        let outcome = check(&cnf, &proof);
        assert!(matches!(outcome, CheckOutcome::Rejected { step: 1, .. }));
    }

    #[test]
    fn rejects_an_empty_proof_for_a_satisfiable_formula() {
        let cnf = vec![vec![1, 2]];
        let outcome = check(&cnf, &Proof::default());
        assert!(!outcome.is_verified());
    }

    #[test]
    fn deletion_of_a_needed_clause_breaks_the_chain() {
        let (cnf, _) = complete2();
        // Without (1∨2) the lemma (1) is no longer derivable: assuming ¬1
        // satisfies the two (−1∨…) clauses and leaves (1∨−2) non-unit.
        let proof = Proof {
            steps: vec![del(&[1, 2]), add(&[1]), add(&[])],
        };
        let outcome = check(&cnf, &proof);
        assert!(matches!(outcome, CheckOutcome::Rejected { step: 1, .. }));
    }

    #[test]
    fn deletion_of_unit_clauses_is_ignored() {
        // Units persist even when the proof deletes them (the drat-trim
        // convention); lemma (3) needs the unit (1) to propagate.
        let cnf = vec![
            vec![1],
            vec![-1, 2, 3],
            vec![-2, -3],
            vec![2, -3],
            vec![-2, 3],
        ];
        let proof = Proof {
            steps: vec![del(&[1]), add(&[3]), add(&[])],
        };
        assert!(check(&cnf, &proof).is_verified());
    }

    #[test]
    fn strengthening_pairs_check_out() {
        // Strengthen (1∨2∨3) to (1∨2) — justified by the unit (−3) — in the
        // add-then-delete order the solver's level-0 simplification emits,
        // then close.
        let cnf = vec![
            vec![1, 2, 3],
            vec![-3],
            vec![1, -2],
            vec![-1, 2],
            vec![-1, -2],
        ];
        let proof = Proof {
            steps: vec![add(&[1, 2]), del(&[1, 2, 3]), add(&[1]), add(&[])],
        };
        assert!(check(&cnf, &proof).is_verified());
    }

    #[test]
    fn tautological_lemmas_are_admitted() {
        // Both orientations of a tautology pass trivially (this is how the
        // core clause of two conflicting assumptions checks out). The proof
        // still rejects at the very end: no empty clause was derived.
        let cnf = vec![vec![1, 2]];
        let proof = Proof {
            steps: vec![add(&[2, -2]), add(&[-2, 2])],
        };
        let outcome = check(&cnf, &proof);
        assert!(
            matches!(outcome, CheckOutcome::Rejected { step: 2, .. }),
            "{outcome:?}"
        );
    }

    #[test]
    fn rat_fallback_admits_a_pure_literal_lemma() {
        // (3) is not RUP for (1∨2), but its pivot has no negative
        // occurrence, so the RAT check holds vacuously — the lemma is
        // admitted and rejection only happens at the end of the proof.
        let cnf = vec![vec![1, 2]];
        let proof = Proof {
            steps: vec![add(&[3])],
        };
        let outcome = check(&cnf, &proof);
        assert!(
            matches!(outcome, CheckOutcome::Rejected { step: 1, .. }),
            "{outcome:?}"
        );
    }

    #[test]
    fn rat_fallback_rejects_when_a_resolvent_fails() {
        let cnf = vec![vec![1, 2], vec![-3, 4]];
        // (3) resolved with (−3∨4) yields (3∨4)… the resolvent (3∨4) is not
        // RUP, so the RAT fallback must reject the lemma.
        let proof = Proof {
            steps: vec![add(&[3]), add(&[])],
        };
        let outcome = check(&cnf, &proof);
        assert!(
            matches!(outcome, CheckOutcome::Rejected { step: 0, .. }),
            "{outcome:?}"
        );
    }

    #[test]
    fn cancellation_is_observed() {
        let (cnf, proof) = complete2();
        let flag = CancelFlag::new();
        flag.cancel();
        assert_eq!(
            check_with_cancel(&cnf, &proof, &flag),
            CheckOutcome::Cancelled
        );
    }

    #[test]
    fn mutated_lemma_breaks_the_proof() {
        let (cnf, proof) = complete2();
        // Replace the load-bearing lemma (1) with a pure-literal lemma over
        // a fresh variable: the empty clause is no longer derivable.
        let mut bad = proof.clone();
        bad.steps[0] = add(&[5]);
        let outcome = check(&cnf, &bad);
        assert!(
            matches!(outcome, CheckOutcome::Rejected { .. }),
            "{outcome:?}"
        );
    }

    #[test]
    fn assumption_scoped_certificates_check_out() {
        // The incremental-session shape: the certificate CNF is the solver's
        // clause set plus one unit per assumption of the failing solve; the
        // proof is the persistent lemma log plus the per-solve empty-clause
        // tail. Formula: (−1∨2)(−2∨3)(−1∨−3), assumption 1.
        let cnf = vec![vec![-1, 2], vec![-2, 3], vec![-1, -3], vec![1]];
        let proof = Proof {
            // The core clause (−1) is assumption-free RUP; the empty clause
            // then follows from the assumption unit (1).
            steps: vec![add(&[-1]), add(&[])],
        };
        assert!(check(&cnf, &proof).is_verified());
        // Without the assumption unit, the same proof must NOT close.
        let bare = vec![vec![-1, 2], vec![-2, 3], vec![-1, -3]];
        assert!(!check(&bare, &proof).is_verified());
    }
}
