//! Differential test of the checker core against a naive reference.
//!
//! The reference keeps clauses as sorted literal sets in a plain list and
//! decides RUP by scanning every clause until unit propagation stops. It
//! keeps the checker's conventions: a persistent closure that deletions do
//! not shrink, deletions of unit and empty sets ignored, a RAT fallback on
//! the first literal for one-shot checks only, and every step accepted once
//! the persistent closure conflicts.
//!
//! Seeded random formulas carry repeated literals, tautologies and
//! duplicate clauses. Proofs add resolvents, copies of active clauses and
//! other lemmas the reference derives, delete clauses by the written form
//! of their oldest or newest copy, delete units, and sometimes end in one
//! unchecked random lemma. Every prefix of a proof, extended by one query
//! lemma, must get the reference's verdict from [`check`], and a
//! [`Session`] fed the formula and proof in two or three chunks must get
//! the reference's verdict at every chunk.

use manthan3_drat::{check, CheckOutcome, Lit, ProofStep, Session};

/// Random cases per test.
const CASES: u64 = 400;

/// Cases draw their formulas over 3 to `MAX_VARS` variables.
const MAX_VARS: usize = 7;

/// The splitmix64 generator: a seeded, dependency-free source of cases.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn percent(&mut self, p: usize) -> bool {
        self.below(100) < p
    }

    fn lit(&mut self, vars: usize) -> Lit {
        let var = (self.below(vars) + 1) as Lit;
        if self.percent(50) {
            var
        } else {
            -var
        }
    }

    /// `lits` in a random order, sometimes with one literal repeated.
    fn written(&mut self, lits: &[Lit]) -> Vec<Lit> {
        let mut out = lits.to_vec();
        if !out.is_empty() && self.percent(30) {
            let repeated = out[self.below(out.len())];
            out.push(repeated);
        }
        for i in (1..out.len()).rev() {
            out.swap(i, self.below(i + 1));
        }
        out
    }

    /// A clause of at most `len` distinct-variable literals (fewer when a
    /// draw repeats a variable), written with a repeated literal or as a
    /// tautology now and then.
    fn clause(&mut self, vars: usize, len: usize) -> Vec<Lit> {
        let mut lits: Vec<Lit> = Vec::new();
        for _ in 0..len {
            let l = self.lit(vars);
            if !lits.contains(&-l) {
                lits.push(l);
            }
        }
        if !lits.is_empty() && self.percent(10) {
            lits.push(-lits[0]);
        }
        self.written(&lits)
    }
}

/// A clause as a sorted, duplicate-free literal set.
fn set_of(lits: &[Lit]) -> Vec<Lit> {
    let mut set = lits.to_vec();
    set.sort_unstable();
    set.dedup();
    set
}

/// The naive reference checker (see the module docs).
#[derive(Debug, Clone, Default)]
struct Reference {
    /// Active clauses as literal sets, duplicates kept.
    clauses: Vec<Vec<Lit>>,
    /// The persistent unit-propagation closure.
    persistent: Vec<Lit>,
    /// The persistent closure conflicts.
    refuted: bool,
}

impl Reference {
    /// The unit-propagation closure of the active clauses, the persistent
    /// literals and `assumed`, or `None` on a conflict.
    fn closure(&self, assumed: &[Lit]) -> Option<Vec<Lit>> {
        let mut assigned: Vec<Lit> = Vec::new();
        for &l in self.persistent.iter().chain(assumed) {
            if assigned.contains(&-l) {
                return None;
            }
            if !assigned.contains(&l) {
                assigned.push(l);
            }
        }
        loop {
            let mut grew = false;
            for clause in &self.clauses {
                if clause.iter().any(|l| assigned.contains(l)) {
                    continue;
                }
                let mut open = clause.iter().filter(|&&l| !assigned.contains(&-l));
                match (open.next(), open.next()) {
                    (None, _) => return None,
                    (Some(&unit), None) => {
                        assigned.push(unit);
                        grew = true;
                    }
                    _ => {}
                }
            }
            if !grew {
                return Some(assigned);
            }
        }
    }

    fn load(&mut self, lits: &[Lit]) {
        self.clauses.push(set_of(lits));
    }

    /// Recomputes the persistent closure after clauses were loaded.
    fn settle(&mut self) {
        if self.refuted {
            return;
        }
        match self.closure(&[]) {
            Some(closure) => self.persistent = closure,
            None => self.refuted = true,
        }
    }

    fn rup(&self, lits: &[Lit]) -> bool {
        let negated: Vec<Lit> = lits.iter().map(|&l| -l).collect();
        self.refuted || self.closure(&negated).is_none()
    }

    /// RAT on the first literal: every resolvent with an active clause
    /// containing the pivot's negation is a tautology or RUP.
    fn rat(&self, lits: &[Lit]) -> bool {
        let Some(&pivot) = lits.first() else {
            return false;
        };
        self.clauses
            .iter()
            .filter(|side| side.contains(&-pivot))
            .all(|side| {
                let mut resolvent = lits.to_vec();
                resolvent.extend(side.iter().filter(|&&l| l != -pivot));
                let resolvent = set_of(&resolvent);
                resolvent.iter().any(|l| resolvent.contains(&-l)) || self.rup(&resolvent)
            })
    }

    fn delete(&mut self, lits: &[Lit]) {
        let set = set_of(lits);
        if set.len() < 2 {
            return;
        }
        if let Some(i) = self.clauses.iter().position(|c| *c == set) {
            self.clauses.remove(i);
        }
    }

    /// Applies one step as the checker would: `Err(())` rejects a lemma,
    /// `Ok(true)` records a lemma admitted by RAT alone.
    fn apply(&mut self, step: &ProofStep, rat: bool) -> Result<bool, ()> {
        if self.refuted {
            return Ok(false);
        }
        match step {
            ProofStep::Add(lits) => {
                let by_rat = if self.rup(lits) {
                    false
                } else if rat && self.rat(lits) {
                    true
                } else {
                    return Err(());
                };
                self.load(lits);
                self.settle();
                Ok(by_rat)
            }
            ProofStep::Delete(lits) => {
                self.delete(lits);
                Ok(false)
            }
        }
    }
}

/// The parts of a verdict the reference predicts: `Ok((steps, adds,
/// deletes, rat_lemmas))` for a verified check, `Err(step)` for a rejected
/// one. Propagation counts are the checker's own business.
type Verdict = Result<(usize, usize, usize, usize), usize>;

fn verdict_of(outcome: &CheckOutcome) -> Verdict {
    match outcome {
        CheckOutcome::Verified(s) => Ok((s.steps_checked, s.adds, s.deletes, s.rat_lemmas)),
        CheckOutcome::Rejected { step, .. } => Err(*step),
        CheckOutcome::Cancelled => panic!("a check that is never cancelled was cancelled"),
    }
}

/// One chunk of a case: the formula clauses and proof steps a session
/// receives together, and the assumptions of its verdict.
#[derive(Debug, Clone, Default)]
struct Chunk {
    cnf: Vec<Vec<Lit>>,
    steps: Vec<ProofStep>,
    assumptions: Vec<Lit>,
}

/// A lemma the reference derives: a resolvent of two active clauses, a
/// copy of an active clause, or a short random clause that happens to be
/// RUP. `None` if no attempt found one.
fn derived_lemma(rng: &mut Rng, r: &Reference, vars: usize) -> Option<Vec<Lit>> {
    for _ in 0..8 {
        let lemma = match rng.below(3) {
            0 if !r.clauses.is_empty() => {
                let left = &r.clauses[rng.below(r.clauses.len())];
                let Some(&pivot) = left.get(rng.below(left.len().max(1))) else {
                    continue;
                };
                let Some(right) = r.clauses.iter().find(|c| c.contains(&-pivot)) else {
                    continue;
                };
                let mut resolvent: Vec<Lit> =
                    left.iter().copied().filter(|&l| l != pivot).collect();
                resolvent.extend(right.iter().filter(|&&l| l != -pivot));
                set_of(&resolvent)
            }
            1 if !r.clauses.is_empty() => r.clauses[rng.below(r.clauses.len())].clone(),
            _ => {
                let len = 1 + rng.below(3);
                rng.clause(vars, len)
            }
        };
        if r.rup(&lemma) {
            return Some(rng.written(&lemma));
        }
    }
    None
}

/// A random case: formula clauses and proof steps in two or three chunks,
/// generated against the reference loading them in that order, so every
/// lemma but a final planted one is RUP when a session reaches it.
fn case(seed: u64) -> Vec<Chunk> {
    let mut rng = Rng(seed);
    let vars = 3 + rng.below(MAX_VARS - 2);
    let mut r = Reference::default();
    // Every clause as written, oldest first: deletions name a set by its
    // oldest or its newest copy.
    let mut written: Vec<Vec<Lit>> = Vec::new();
    let chunks = 2 + rng.below(2);
    let mut out = Vec::new();
    for index in 0..chunks {
        let mut chunk = Chunk::default();
        for _ in 0..2 + rng.below(6) {
            let clause = if !written.is_empty() && rng.percent(20) {
                let copy = written[rng.below(written.len())].clone();
                rng.written(&set_of(&copy))
            } else {
                let len = if rng.percent(10) { 1 } else { 2 + rng.below(2) };
                rng.clause(vars, len)
            };
            r.load(&clause);
            written.push(clause.clone());
            chunk.cnf.push(clause);
        }
        r.settle();
        for _ in 0..3 + rng.below(10) {
            let step = match rng.below(4) {
                0 | 1 => match derived_lemma(&mut rng, &r, vars) {
                    Some(lemma) => ProofStep::Add(lemma),
                    None => continue,
                },
                2 if !r.clauses.is_empty() => {
                    let set = r.clauses[rng.below(r.clauses.len())].clone();
                    let mut copies = written.iter().filter(|w| set_of(w) == set);
                    let first = copies.next().cloned().unwrap_or_else(|| set.clone());
                    let named = if rng.percent(50) {
                        first
                    } else {
                        copies.next_back().cloned().unwrap_or(first)
                    };
                    ProofStep::Delete(named)
                }
                _ => {
                    // A unit (possibly written twice) or a random clause
                    // that may not be active.
                    let l = rng.lit(vars);
                    let lits = match rng.below(3) {
                        0 => vec![l],
                        1 => vec![l, l],
                        _ => rng.clause(vars, 3),
                    };
                    ProofStep::Delete(lits)
                }
            };
            r.apply(&step, false).expect("a generated lemma is RUP");
            if let ProofStep::Add(lits) = &step {
                written.push(lits.clone());
            }
            chunk.steps.push(step);
        }
        let last = index + 1 == chunks;
        if last && rng.percent(30) {
            let len = 1 + rng.below(2);
            chunk.steps.push(ProofStep::Add(rng.clause(vars, len)));
        } else if last && rng.percent(50) {
            chunk.steps.push(ProofStep::Add(Vec::new()));
        }
        chunk.assumptions = match derived_lemma(&mut rng, &r, vars) {
            Some(lemma) if rng.percent(60) => lemma.iter().map(|&l| -l).collect(),
            _ => (0..1 + rng.below(3)).map(|_| rng.lit(vars)).collect(),
        };
        out.push(chunk);
    }
    out
}

/// The checker's verdict on a one-shot check of `cnf` and `steps`.
fn checker_check(cnf: &[Vec<Lit>], steps: &[ProofStep]) -> Verdict {
    verdict_of(&check(cnf, steps.iter().map(ProofStep::as_slice), || false))
}

/// The reference's verdict on a one-shot check of `cnf` and `steps`.
fn reference_check(cnf: &[Vec<Lit>], steps: &[ProofStep]) -> Verdict {
    let mut r = Reference::default();
    for clause in cnf {
        r.load(clause);
    }
    r.settle();
    let (mut adds, mut deletes, mut rat) = (0, 0, 0);
    for (index, step) in steps.iter().enumerate() {
        match step {
            ProofStep::Add(_) => adds += 1,
            ProofStep::Delete(_) => deletes += 1,
        }
        match r.apply(step, true) {
            Err(()) => return Err(index),
            Ok(by_rat) => rat += usize::from(by_rat),
        }
        if matches!(step, ProofStep::Add(lits) if lits.is_empty()) {
            return Ok((index + 1, adds, deletes, rat));
        }
    }
    Err(steps.len())
}

#[test]
fn check_agrees_with_the_reference_after_every_step() {
    for seed in 0..CASES {
        let chunks = case(seed);
        let cnf: Vec<Vec<Lit>> = chunks.iter().flat_map(|c| c.cnf.clone()).collect();
        let steps: Vec<ProofStep> = chunks.iter().flat_map(|c| c.steps.clone()).collect();
        let mut rng = Rng(!seed);
        for k in 0..=steps.len() {
            // The prefix of k steps, then one query lemma: RUP, RAT, or
            // neither, as the reference decides.
            let mut probe = steps[..k].to_vec();
            let len = rng.below(4);
            probe.push(ProofStep::Add(rng.clause(MAX_VARS, len)));
            assert_eq!(
                checker_check(&cnf, &probe),
                reference_check(&cnf, &probe),
                "seed {seed}, prefix {k}: {cnf:?} {probe:?}"
            );
        }
        assert_eq!(
            checker_check(&cnf, &steps),
            reference_check(&cnf, &steps),
            "seed {seed}: {cnf:?} {steps:?}"
        );
    }
}

#[test]
fn chunked_sessions_agree_with_the_reference() {
    for seed in 0..CASES {
        let chunks = case(seed);
        let mut session = Session::new();
        let mut r = Reference::default();
        let mut read = 0;
        for chunk in &chunks {
            for clause in &chunk.cnf {
                r.load(clause);
            }
            r.settle();
            let mut expected = None;
            let (mut adds, mut deletes) = (0, 0);
            for (index, step) in chunk.steps.iter().enumerate() {
                match step {
                    ProofStep::Add(_) => adds += 1,
                    ProofStep::Delete(_) => deletes += 1,
                }
                if r.apply(step, false).is_err() {
                    expected = Some(Err(read + index));
                    break;
                }
            }
            read += chunk.steps.len();
            let negated: Vec<Lit> = chunk.assumptions.iter().map(|&l| -l).collect();
            let expected = expected.unwrap_or(if r.rup(&negated) {
                Ok((chunk.steps.len(), adds, deletes, 0))
            } else {
                Err(read)
            });
            let steps = chunk.steps.iter().map(ProofStep::as_slice);
            let outcome = session.advance(&chunk.cnf, steps, &chunk.assumptions, || false);
            assert_eq!(verdict_of(&outcome), expected, "seed {seed}: {chunks:?}");
            if expected.is_err() {
                // A session that rejected is dropped.
                break;
            }
        }
    }
}
