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
//! # Clause storage
//!
//! Every clause is stored as a **literal set**: repeated literals are
//! dropped on the way in, so `(1 ∨ 1 ∨ 2)` is stored, watched and deleted
//! as `(1 ∨ 2)`. (Two copies of one literal in both watch slots would leave
//! the clause unwatched on its other literals, and a unit it implies would
//! be missed.) Literals are kept as codes `2v` / `2v + 1`, so negation is
//! `code ^ 1` and truth values, watch lists and membership marks are arrays
//! indexed by literal.
//!
//! The literals of all clauses sit back to back in one **arena**; a clause
//! entry holds its start and length. A deleted clause's literals stay in
//! the arena until more than half of it is dead; the arena is then
//! compacted, the surviving entries renumbered, and the watch lists and
//! deletion chains rebuilt from the surviving clauses.
//!
//! Each clause of two or more literals is watched on its first two literals.
//! A watch is a `(clause, blocker)` pair, as in the solver's own watcher: a
//! true blocker answers the visit without reading the clause, and for a
//! binary clause the blocker is the other literal, so the visit never reads
//! the arena.
//!
//! # Deletion
//!
//! Deletions are looked up by literal set. An order-independent 64-bit hash
//! of the set (a sum of per-literal mixes) picks a bucket whose chain is
//! threaded through the clause entries, newest first; a candidate matches
//! only if its literal set equals the deleted one. The watches of a deleted
//! clause are dropped lazily, when a propagation visits them. Deletions of
//! unit or empty clauses are ignored (the drat-trim convention): retracting
//! a unit would invalidate the persistent trail, and solvers routinely
//! delete root-satisfied clauses whose units live on.
//!
//! # Entry points
//!
//! [`check`] runs that replay once over a whole formula and proof. A
//! [`Session`] keeps the same state between calls, so it can follow one
//! growing proof log across many verdicts: each [`Session::advance`] loads
//! only the new formula clauses, checks only the new steps, and proves the
//! verdict by propagating its assumptions to a conflict. A session admits
//! RUP lemmas only. Adding clauses never breaks a RUP derivation, so a
//! lemma checked early stays valid as later formula clauses arrive; a RAT
//! lemma may not, because a later clause can contain its pivot's negation.

use crate::{Lit, ProofStep};

/// How often the checker polls its cancellation callback, in proof steps.
const CANCEL_POLL_INTERVAL: usize = 512;

/// Truth value of a literal under the current assignment.
const UNASSIGNED: u8 = 0;
const TRUE: u8 = 1;
const FALSE: u8 = 2;

/// No clause: the end of a deletion chain, or an empty bucket.
const NIL: u32 = u32::MAX;

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
        /// Index of the offending step (the number of steps when the proof
        /// simply ends without deriving the empty clause).
        step: usize,
        /// Human-readable reason.
        reason: String,
    },
    /// The cancellation callback returned `true` before a verdict.
    Cancelled,
}

impl CheckOutcome {
    /// `true` for [`CheckOutcome::Verified`].
    pub fn is_verified(&self) -> bool {
        matches!(self, CheckOutcome::Verified(_))
    }
}

/// Checks the proof `steps` against the clauses of `cnf` (see the
/// [crate docs](crate)).
///
/// `is_cancelled` is polled before the formula is loaded and then every
/// `CANCEL_POLL_INTERVAL` steps; once it returns `true` the check stops
/// with [`CheckOutcome::Cancelled`]. Pass `|| false` for a check that runs
/// to its verdict.
pub fn check<C, P, L>(cnf: C, steps: P, mut is_cancelled: impl FnMut() -> bool) -> CheckOutcome
where
    C: IntoIterator,
    C::Item: AsRef<[Lit]>,
    P: IntoIterator<Item = ProofStep<L>>,
    L: AsRef<[Lit]>,
{
    if is_cancelled() {
        return CheckOutcome::Cancelled;
    }
    let mut checker = Checker::default();
    for clause in cnf {
        checker.add_clause(clause.as_ref());
    }
    checker.propagate_persistent();

    for (index, step) in steps.into_iter().enumerate() {
        if index % CANCEL_POLL_INTERVAL == 0 && is_cancelled() {
            return CheckOutcome::Cancelled;
        }
        checker.stats.steps_checked = index + 1;
        let step = step.as_slice();
        let refutes = matches!(step, ProofStep::Add(lits) if lits.is_empty());
        if let Err(reason) = checker.apply(step, true) {
            return CheckOutcome::Rejected {
                step: index,
                reason,
            };
        }
        if refutes {
            return CheckOutcome::Verified(checker.stats);
        }
    }
    CheckOutcome::Rejected {
        step: checker.stats.steps_checked,
        reason: "proof ends without deriving the empty clause".to_string(),
    }
}

/// A RUP-only checker that follows one growing proof log across many
/// verdicts (see the [crate docs](crate)).
///
/// The caller hands each [`Session::advance`] only what the log gained
/// since the previous call: the new formula clauses and the new proof
/// steps. After any outcome other than [`CheckOutcome::Verified`] the
/// session's state is unspecified; drop it and check the log again from a
/// new session.
#[derive(Debug, Clone, Default)]
pub struct Session {
    checker: Checker,
    /// Proof steps consumed by earlier advances.
    steps: usize,
}

impl Session {
    /// An empty session: no formula clauses, no proof steps.
    pub fn new() -> Session {
        Session::default()
    }

    /// Loads `cnf`, checks `steps` as RUP lemmas and deletions, then
    /// proves the verdict: assuming every literal of `assumptions` on top
    /// of the persistent trail must propagate to a conflict. A log whose
    /// persistent closure is already refuted passes at once.
    ///
    /// The returned statistics cover this advance only. A rejected step is
    /// numbered from the start of the log; a verdict that fails to
    /// propagate to a conflict is rejected at the log's step count (where
    /// a one-shot certificate would put its empty-clause tail).
    /// `is_cancelled` is polled as in [`check`].
    pub fn advance<C, P, L>(
        &mut self,
        cnf: C,
        steps: P,
        assumptions: &[Lit],
        mut is_cancelled: impl FnMut() -> bool,
    ) -> CheckOutcome
    where
        C: IntoIterator,
        C::Item: AsRef<[Lit]>,
        P: IntoIterator<Item = ProofStep<L>>,
        L: AsRef<[Lit]>,
    {
        if is_cancelled() {
            return CheckOutcome::Cancelled;
        }
        let checker = &mut self.checker;
        checker.stats = CheckStats::default();
        for clause in cnf {
            checker.add_clause(clause.as_ref());
        }
        checker.propagate_persistent();

        for (index, step) in steps.into_iter().enumerate() {
            if index % CANCEL_POLL_INTERVAL == 0 && is_cancelled() {
                return CheckOutcome::Cancelled;
            }
            checker.stats.steps_checked = index + 1;
            if let Err(reason) = checker.apply(step.as_slice(), false) {
                return CheckOutcome::Rejected {
                    step: self.steps + index,
                    reason,
                };
            }
        }
        self.steps += checker.stats.steps_checked;
        if checker.contradiction || checker.conflicts_under(assumptions.iter().map(|&l| code(l))) {
            CheckOutcome::Verified(checker.stats)
        } else {
            CheckOutcome::Rejected {
                step: self.steps,
                reason: format!("assumptions {assumptions:?} do not propagate to a conflict"),
            }
        }
    }
}

/// A DIMACS literal's code: `2v` for `v`, `2v + 1` for `¬v`. Negation is
/// `code ^ 1`.
fn code(l: Lit) -> u32 {
    2 * l.unsigned_abs() + u32::from(l < 0)
}

/// One stored clause: `len` literal codes from `start` in the arena. The
/// first two are its watched literals.
#[derive(Debug, Clone, Copy)]
struct ClauseEntry {
    start: u32,
    len: u32,
    /// The next clause in this clause's deletion chain, or [`NIL`].
    next: u32,
    active: bool,
}

/// A watch-list entry: the clause and a literal of it whose truth answers
/// the visit without reading the clause (for a binary clause, the other
/// literal).
#[derive(Debug, Clone, Copy)]
struct Watch {
    clause: u32,
    blocker: u32,
}

/// The deletion hash of a literal set: order-independent, so any order of
/// one set hashes alike.
fn set_hash(codes: &[u32]) -> u64 {
    codes.iter().fold(0u64, |hash, &c| {
        // The splitmix64 finalizer, one mix per literal.
        let mut z = u64::from(c).wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        hash.wrapping_add(z ^ (z >> 31))
    })
}

#[derive(Debug, Clone, Default)]
struct Checker {
    /// Every stored clause's literal codes, back to back.
    arena: Vec<u32>,
    /// Stored clauses in arrival order (renumbered by compaction).
    clauses: Vec<ClauseEntry>,
    /// Arena literals owned by deleted clauses.
    dead: usize,
    /// Deletion lookup: chain heads by [`set_hash`], a power-of-two count.
    buckets: Vec<u32>,
    /// Active clauses in the deletion chains (those of two or more
    /// literals).
    chained: usize,
    /// Watch lists indexed by literal code: the clauses watching it.
    watches: Vec<Vec<Watch>>,
    /// Truth value per literal code.
    values: Vec<u8>,
    /// Per literal code: in `set`.
    marks: Vec<bool>,
    /// Work buffer: the clause being added or deleted, as a literal set.
    set: Vec<u32>,
    trail: Vec<u32>,
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
    fn ensure_lit(&mut self, c: u32) {
        let size = (c as usize | 1) + 1;
        if self.values.len() < size {
            self.values.resize(size, UNASSIGNED);
            self.marks.resize(size, false);
            self.watches.resize_with(size, Vec::new);
        }
    }

    fn value(&self, c: u32) -> u8 {
        self.values[c as usize]
    }

    /// Assigns `c` true and queues it for propagation.
    fn enqueue(&mut self, c: u32) {
        self.values[c as usize] = TRUE;
        self.values[(c ^ 1) as usize] = FALSE;
        self.trail.push(c);
    }

    /// Fills `set` with the distinct literals of `lits`, in order of first
    /// occurrence, and marks them.
    fn collect_set(&mut self, lits: &[Lit]) {
        self.set.clear();
        for &l in lits {
            let c = code(l);
            self.ensure_lit(c);
            if !self.marks[c as usize] {
                self.marks[c as usize] = true;
                self.set.push(c);
            }
        }
    }

    fn clear_marks(&mut self) {
        for &c in &self.set {
            self.marks[c as usize] = false;
        }
    }

    fn bucket(&self, hash: u64) -> usize {
        hash as usize & (self.buckets.len() - 1)
    }

    /// Watches `clause` on its first two literals, each the other's blocker.
    fn watch(&mut self, clause: u32, first: u32, second: u32) {
        self.watches[first as usize].push(Watch {
            clause,
            blocker: second,
        });
        self.watches[second as usize].push(Watch {
            clause,
            blocker: first,
        });
    }

    /// Rebuilds the deletion chains over `size` buckets.
    fn rehash(&mut self, size: usize) {
        self.buckets.clear();
        self.buckets.resize(size, NIL);
        for index in 0..self.clauses.len() {
            let entry = self.clauses[index];
            if entry.active && entry.len >= 2 {
                let start = entry.start as usize;
                let hash = set_hash(&self.arena[start..start + entry.len as usize]);
                let bucket = self.bucket(hash);
                self.clauses[index].next = self.buckets[bucket];
                self.buckets[bucket] = index as u32;
            }
        }
    }

    /// Adds a clause to the active set, maintaining watches and the
    /// persistent trail. Callers must follow up with
    /// [`Checker::propagate_persistent`].
    fn add_clause(&mut self, lits: &[Lit]) {
        self.collect_set(lits);
        self.clear_marks();
        let mut set = std::mem::take(&mut self.set);
        // Prefer non-falsified literals in the watched slots so the watch
        // invariant (a falsified watch implies the clause was inspected)
        // holds from birth even when the clause arrives late in the proof.
        let mut free = 0usize;
        for i in 0..set.len() {
            if self.value(set[i]) != FALSE && free < 2 {
                set.swap(free, i);
                free += 1;
            }
        }
        match free {
            // Every literal is false under the persistent closure (or there
            // is none): the formula is refuted as soon as this clause joins.
            0 => self.contradiction = true,
            // Unit under the persistent closure: extend it permanently.
            1 if self.value(set[0]) == UNASSIGNED => self.enqueue(set[0]),
            _ => {}
        }
        if !set.is_empty() {
            let index = u32::try_from(self.clauses.len()).expect("fewer than 2^32 clauses");
            let start = u32::try_from(self.arena.len()).expect("fewer than 2^32 literals");
            let mut next = NIL;
            if let [first, second, ..] = set[..] {
                self.watch(index, first, second);
                self.chained += 1;
                if self.chained > self.buckets.len() {
                    self.rehash((2 * self.buckets.len()).max(16));
                }
                let bucket = self.bucket(set_hash(&set));
                next = self.buckets[bucket];
                self.buckets[bucket] = index;
            }
            self.arena.extend_from_slice(&set);
            self.clauses.push(ClauseEntry {
                start,
                len: set.len() as u32,
                next,
                active: true,
            });
        }
        self.set = set;
    }

    /// Deletes one active clause with the literal set of `lits` (no-op for
    /// unknown clauses; unit and empty deletions are ignored — see module
    /// docs).
    fn delete_clause(&mut self, lits: &[Lit]) {
        self.collect_set(lits);
        let found = self.find_chained();
        self.clear_marks();
        let Some((bucket, prev, index)) = found else {
            return;
        };
        let entry = self.clauses[index as usize];
        if prev == NIL {
            self.buckets[bucket] = entry.next;
        } else {
            self.clauses[prev as usize].next = entry.next;
        }
        self.clauses[index as usize].active = false;
        self.chained -= 1;
        self.dead += entry.len as usize;
        if 2 * self.dead > self.arena.len() {
            self.compact();
        }
    }

    /// The chained clause whose literal set is the marked `set`: its
    /// bucket, its predecessor in the chain ([`NIL`] at the head) and its
    /// index.
    fn find_chained(&self) -> Option<(usize, u32, u32)> {
        if self.set.len() < 2 || self.buckets.is_empty() {
            return None;
        }
        let bucket = self.bucket(set_hash(&self.set));
        let mut prev = NIL;
        let mut index = self.buckets[bucket];
        while index != NIL {
            let entry = self.clauses[index as usize];
            let start = entry.start as usize;
            let same = entry.len as usize == self.set.len()
                && self.arena[start..start + entry.len as usize]
                    .iter()
                    .all(|&c| self.marks[c as usize]);
            if same {
                return Some((bucket, prev, index));
            }
            prev = index;
            index = entry.next;
        }
        None
    }

    /// Drops the deleted clauses' literals from the arena, renumbers the
    /// surviving clauses, and rebuilds their watches and deletion chains.
    /// Only ever called at the persistent level, between proof steps.
    fn compact(&mut self) {
        // Every watch sits in the list of its clause's first or second
        // literal, so clearing those lists clears every watch.
        for entry in &self.clauses {
            if entry.len >= 2 {
                let start = entry.start as usize;
                for &c in &self.arena[start..start + 2] {
                    self.watches[c as usize].clear();
                }
            }
        }
        let mut top = 0usize;
        self.clauses.retain(|entry| entry.active);
        for index in 0..self.clauses.len() {
            let entry = &mut self.clauses[index];
            let (start, len) = (entry.start as usize, entry.len as usize);
            self.arena.copy_within(start..start + len, top);
            entry.start = top as u32;
            top += len;
            if let [first, second, ..] = self.arena[top - len..top] {
                self.watch(index as u32, first, second);
            }
        }
        self.arena.truncate(top);
        self.dead = 0;
        self.rehash(self.chained.next_power_of_two().max(16));
    }

    /// Propagates to fixpoint from the current queue head. Returns `false`
    /// on conflict. The trail (persistent or temporary) grows accordingly.
    fn propagate(&mut self) -> bool {
        while self.qhead < self.trail.len() {
            let falsified = self.trail[self.qhead] ^ 1;
            self.qhead += 1;
            self.stats.propagations += 1;
            // Visit the clauses watching the falsified literal; each is
            // either satisfied, re-watched on a non-false literal, unit, or
            // conflicting. `ws[..kept]` holds the watches that stay.
            let mut ws = std::mem::take(&mut self.watches[falsified as usize]);
            let mut kept = 0;
            let mut i = 0;
            let mut conflict = false;
            while i < ws.len() {
                let watch = ws[i];
                i += 1;
                if self.value(watch.blocker) == TRUE {
                    ws[kept] = watch;
                    kept += 1;
                    continue;
                }
                let entry = self.clauses[watch.clause as usize];
                if !entry.active {
                    continue; // a deleted clause: drop its watch
                }
                let first = if entry.len == 2 {
                    // The blocker is the other literal.
                    watch.blocker
                } else {
                    let start = entry.start as usize;
                    let lits = &mut self.arena[start..start + entry.len as usize];
                    // Normalize so the falsified literal sits in slot 1.
                    if lits[0] == falsified {
                        lits.swap(0, 1);
                    }
                    let first = lits[0];
                    let values = &self.values;
                    if values[first as usize] != TRUE {
                        // Look for a replacement watch beyond the first two
                        // slots.
                        let replacement =
                            (2..lits.len()).find(|&k| values[lits[k] as usize] != FALSE);
                        if let Some(k) = replacement {
                            lits.swap(1, k);
                            let moved = lits[1];
                            self.watches[moved as usize].push(Watch {
                                clause: watch.clause,
                                blocker: first,
                            });
                            continue;
                        }
                    }
                    first
                };
                ws[kept] = Watch {
                    clause: watch.clause,
                    blocker: first,
                };
                kept += 1;
                match self.value(first) {
                    TRUE => {}
                    FALSE => {
                        conflict = true;
                        break;
                    }
                    _ => self.enqueue(first),
                }
            }
            // Keep the unvisited rest of the list after a conflict.
            ws.copy_within(i.., kept);
            ws.truncate(kept + ws.len() - i);
            self.watches[falsified as usize] = ws;
            if conflict {
                return false;
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
        for &c in &self.trail[self.persistent..] {
            self.values[c as usize] = UNASSIGNED;
            self.values[(c ^ 1) as usize] = UNASSIGNED;
        }
        self.trail.truncate(self.persistent);
        self.qhead = self.persistent;
    }

    /// RUP check: does assuming `¬lits` conflict under unit propagation?
    fn is_rup(&mut self, lits: &[Lit]) -> bool {
        self.conflicts_under(lits.iter().map(|&l| code(l) ^ 1))
    }

    /// Does assuming every literal code of `assumed` on top of the
    /// persistent trail conflict under unit propagation? The assumptions
    /// are unwound afterwards.
    fn conflicts_under(&mut self, assumed: impl IntoIterator<Item = u32>) -> bool {
        for c in assumed {
            self.ensure_lit(c);
            match self.value(c) {
                FALSE => {
                    // `c` contradicts the current assignment outright (this
                    // also accepts tautological lemmas, e.g. the trivial
                    // core clause of conflicting assumptions).
                    self.unwind();
                    return true;
                }
                TRUE => {}
                _ => self.enqueue(c),
            }
        }
        let conflict = !self.propagate();
        self.unwind();
        conflict
    }

    /// Applies one proof step. Once the formula is refuted every step is
    /// trivially sound and changes nothing. Otherwise an addition must hold
    /// (RUP, or with `rat` also RAT on its first literal) and then joins
    /// the active set, and a deletion retracts its clause.
    fn apply(&mut self, step: ProofStep<&[Lit]>, rat: bool) -> Result<(), String> {
        match step {
            ProofStep::Add(_) => self.stats.adds += 1,
            ProofStep::Delete(_) => self.stats.deletes += 1,
        }
        if self.contradiction {
            return Ok(());
        }
        match step {
            ProofStep::Add(lits) => {
                if !self.lemma_holds(lits, rat) {
                    let rule = if rat {
                        "neither RUP nor RAT"
                    } else {
                        "not RUP"
                    };
                    return Err(format!("lemma {lits:?} is {rule}"));
                }
                self.add_clause(lits);
                self.propagate_persistent();
            }
            ProofStep::Delete(lits) => self.delete_clause(lits),
        }
        Ok(())
    }

    /// Lemma check: RUP, with the RAT-on-first-literal fallback when `rat`.
    fn lemma_holds(&mut self, lits: &[Lit], rat: bool) -> bool {
        if self.is_rup(lits) {
            return true;
        }
        if !rat {
            return false;
        }
        // RAT on the first literal: every active clause containing ¬pivot
        // must yield a RUP resolvent (tautologies hold trivially).
        let Some(&pivot) = lits.first() else {
            return false;
        };
        let negated = code(pivot) ^ 1;
        for index in 0..self.clauses.len() {
            let entry = self.clauses[index];
            let start = entry.start as usize;
            let side = &self.arena[start..start + entry.len as usize];
            if !entry.active || !side.contains(&negated) {
                continue;
            }
            let mut resolvent = lits.to_vec();
            let mut tautology = false;
            for &c in side.iter().filter(|&&c| c != negated) {
                let sl = (c >> 1) as Lit;
                let sl = if c & 1 == 0 { sl } else { -sl };
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
    use crate::Proof;

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
        let outcome = check(&cnf, &proof, || false);
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
        assert!(check(&cnf, &proof, || false).is_verified());
    }

    #[test]
    fn rejects_a_non_rup_lemma() {
        let cnf = vec![vec![1, 2]];
        let proof = Proof {
            steps: vec![add(&[-1]), add(&[])],
        };
        let outcome = check(&cnf, &proof, || false);
        let CheckOutcome::Rejected { step, .. } = outcome else {
            panic!("expected rejected, got {outcome:?}");
        };
        assert_eq!(step, 0);
    }

    #[test]
    fn rejects_a_truncated_proof() {
        let (cnf, mut proof) = complete2();
        proof.steps.pop();
        let outcome = check(&cnf, &proof, || false);
        assert!(matches!(outcome, CheckOutcome::Rejected { step: 1, .. }));
    }

    #[test]
    fn rejects_an_empty_proof_for_a_satisfiable_formula() {
        let cnf = vec![vec![1, 2]];
        let outcome = check(&cnf, &Proof::default(), || false);
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
        let outcome = check(&cnf, &proof, || false);
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
        assert!(check(&cnf, &proof, || false).is_verified());
    }

    #[test]
    fn repeated_literals_are_stored_once() {
        // Under the unit (−2), (1∨1∨2) is unit on 1 and (−1∨−1∨2) then
        // conflicts. With the repeated literal in both watch slots neither
        // clause watches 2, and the refutation is missed.
        let cnf = vec![vec![1, 1, 2], vec![-1, -1, 2], vec![-2]];
        let outcome = check(&cnf, [add(&[])], || false);
        assert!(outcome.is_verified(), "{outcome:?}");
        let none: [ProofStep; 0] = [];
        let outcome = Session::new().advance(&cnf, none, &[], || false);
        assert!(outcome.is_verified(), "{outcome:?}");
    }

    #[test]
    fn deleting_either_duplicate_keeps_the_clause() {
        // (1∨2) and (1∨1∨2) are one literal set. A deletion of either hits
        // the newest copy, so the formula order decides which survives; the
        // survivor must propagate as (1∨2) in both orders.
        let rest = [vec![1, -2], vec![-1, -1, 2], vec![-1, -2]];
        let steps = [del(&[2, 1, 1]), add(&[2]), add(&[])];
        for pair in [[vec![1, 2], vec![1, 1, 2]], [vec![1, 1, 2], vec![1, 2]]] {
            let cnf: Vec<Vec<Lit>> = pair.iter().chain(&rest).cloned().collect();
            let outcome = check(&cnf, steps.clone(), || false);
            assert!(outcome.is_verified(), "{cnf:?}: {outcome:?}");
            let outcome = Session::new().advance(&cnf, steps[..2].to_vec(), &[], || false);
            assert!(outcome.is_verified(), "{cnf:?}: {outcome:?}");
        }
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
        assert!(check(&cnf, &proof, || false).is_verified());
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
        let outcome = check(&cnf, &proof, || false);
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
        let outcome = check(&cnf, &proof, || false);
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
        let outcome = check(&cnf, &proof, || false);
        assert!(
            matches!(outcome, CheckOutcome::Rejected { step: 0, .. }),
            "{outcome:?}"
        );
    }

    #[test]
    fn cancellation_is_observed() {
        // A raised poll wins over every verdict: a verifying proof, a
        // rejected one, and an empty one never reach their verdict, in a
        // one-shot check or in a session advance.
        let (cnf, proof) = complete2();
        let bad = Proof {
            steps: vec![add(&[5]), add(&[])],
        };
        for p in [&proof, &bad, &Proof::default()] {
            assert_eq!(check(&cnf, p, || true), CheckOutcome::Cancelled);
            let advanced = Session::new().advance(&cnf, p, &[], || true);
            assert_eq!(advanced, CheckOutcome::Cancelled);
        }
        // Between chunks: deletions of absent clauses are no-ops, so this
        // proof verifies unless the poll at step CANCEL_POLL_INTERVAL
        // (the third poll, after the load and step 0) stops it.
        let mut long = Proof {
            steps: vec![del(&[7, 8]); CANCEL_POLL_INTERVAL + 1],
        };
        long.steps.extend(proof.steps);
        let mut polls = 0;
        let outcome = check(&cnf, &long, || {
            polls += 1;
            polls == 3
        });
        assert_eq!((outcome, polls), (CheckOutcome::Cancelled, 3));
        assert!(check(&cnf, &long, || false).is_verified());
        // A session polls on the same schedule, and a cancelled advance
        // reaches no verdict even when its steps would verify.
        let mut polls = 0;
        let outcome = Session::new().advance(&cnf, &long, &[], || {
            polls += 1;
            polls == 3
        });
        assert_eq!((outcome, polls), (CheckOutcome::Cancelled, 3));
        let verified = Session::new().advance(&cnf, &long, &[], || false);
        assert!(verified.is_verified());
    }

    #[test]
    fn session_follows_a_growing_log() {
        let mut session = Session::new();
        // Verdict 1 under assumption 1: (−1∨2)(−2∨3)(−1∨−3), core clause
        // (−1) logged.
        let cnf = vec![vec![-1, 2], vec![-2, 3], vec![-1, -3]];
        let outcome = session.advance(&cnf, [add(&[-1])], &[1], || false);
        let CheckOutcome::Verified(stats) = outcome else {
            panic!("expected verified, got {outcome:?}");
        };
        assert_eq!((stats.steps_checked, stats.adds), (1, 1));
        // Verdict 2 loads only the new clauses and checks only the new
        // step; the earlier lemma stays in force.
        let cnf = vec![vec![-4, 5], vec![-4, -5]];
        let outcome = session.advance(&cnf, [add(&[-4])], &[4], || false);
        assert!(matches!(
            outcome,
            CheckOutcome::Verified(CheckStats {
                steps_checked: 1,
                ..
            })
        ));
        // A verdict whose assumptions propagate to no conflict is
        // rejected at the log's step count.
        let none: [ProofStep; 0] = [];
        let mut probe = session.clone();
        let outcome = probe.advance([[2, 3]], none.clone(), &[2], || false);
        assert!(
            matches!(outcome, CheckOutcome::Rejected { step: 2, .. }),
            "{outcome:?}"
        );
        // (1∨4) refutes the log through the lemmas (−1) and (−4): this and
        // every later verdict passes at once, whatever its assumptions.
        assert!(session
            .advance([[1, 4]], none.clone(), &[], || false)
            .is_verified());
        assert!(session
            .advance([[6, 7]], none, &[-6], || false)
            .is_verified());
    }

    #[test]
    fn session_deletions_and_rejections_span_advances() {
        let (cnf, _) = complete2();
        let mut session = Session::new();
        // Assuming ¬1 conflicts through (1∨2) and (1∨−2): no step needed.
        let none: [ProofStep; 0] = [];
        assert!(session.advance(&cnf, none, &[-1], || false).is_verified());
        // A deletion in a later advance retracts a clause loaded by an
        // earlier one, so (1) is no longer RUP. Rejected steps are numbered
        // from the start of the log.
        let steps = [add(&[1, 2, 3]), del(&[1, 2]), add(&[1])];
        let outcome = session.advance(&cnf[..0], steps, &[], || false);
        assert!(
            matches!(outcome, CheckOutcome::Rejected { step: 2, .. }),
            "{outcome:?}"
        );
    }

    #[test]
    fn sessions_admit_rup_lemmas_only() {
        // The pure-literal lemma (3) that the one-shot check admits by RAT
        // is rejected by a session.
        let cnf = vec![vec![1, 2]];
        let outcome = Session::new().advance(&cnf, [add(&[3])], &[], || false);
        assert!(
            matches!(&outcome, CheckOutcome::Rejected { step: 0, reason } if reason.contains("not RUP")),
            "{outcome:?}"
        );
        // Lemmas are checked against the log alone: (3) follows from
        // (−1∨2)(−2∨3) only under the verdict's assumption 1, which a
        // one-shot certificate carries as a unit clause.
        let cnf = vec![vec![-1, 2], vec![-2, 3]];
        let steps = [add(&[3]), add(&[])];
        let outcome = Session::new().advance(&cnf, steps.clone(), &[1, -3], || false);
        assert!(
            matches!(outcome, CheckOutcome::Rejected { step: 0, .. }),
            "{outcome:?}"
        );
        let with_units = [vec![-1, 2], vec![-2, 3], vec![1], vec![-3]];
        assert!(check(&with_units, steps, || false).is_verified());
    }

    #[test]
    fn mutated_lemma_breaks_the_proof() {
        let (cnf, proof) = complete2();
        // Replace the load-bearing lemma (1) with a pure-literal lemma over
        // a fresh variable: the empty clause is no longer derivable.
        let mut bad = proof.clone();
        bad.steps[0] = add(&[5]);
        let outcome = check(&cnf, &bad, || false);
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
        assert!(check(&cnf, &proof, || false).is_verified());
        // Without the assumption unit, the same proof must NOT close.
        let bare = vec![vec![-1, 2], vec![-2, 3], vec![-1, -3]];
        assert!(!check(&bare, &proof, || false).is_verified());
    }
}
