use crate::arena::{ClauseArena, ClauseRef};
use crate::config::SolverConfig;
use crate::lbd::GlueStamps;
use crate::proof::{Certificate, ProofTracer};
use crate::restart::RestartScheduler;
use crate::var_heap::VarHeap;
use manthan3_cnf::{Assignment, ClauseSink, Cnf, Lit, Var};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::cmp::Ordering;

/// Outcome of a [`Solver::solve`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SolveResult {
    /// The formula (under the given assumptions) is satisfiable; a model is
    /// available through [`Solver::model`] / [`Solver::value`].
    Sat,
    /// The formula (under the given assumptions) is unsatisfiable; a core of
    /// assumption literals is available through [`Solver::unsat_core`].
    Unsat,
    /// The solver's [`CancelToken`](crate::CancelToken) was cancelled
    /// before a verdict was reached.
    Unknown,
}

/// Runtime counters exposed for benchmarking and diagnostics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Number of conflicts encountered so far.
    pub conflicts: u64,
    /// Number of decisions made so far.
    pub decisions: u64,
    /// Number of literals propagated so far.
    pub propagations: u64,
    /// Number of restarts performed so far.
    pub restarts: u64,
    /// Number of learnt clauses currently in the database.
    pub learnt_clauses: usize,
    /// Number of assumption decision levels carried over from the previous
    /// incremental solve call instead of being re-decided and re-propagated
    /// (assumption-prefix trail reuse).
    pub reused_levels: u64,
    /// Number of learnt clauses with glue ≤ 2 currently in the database
    /// (protected from reduction).
    pub glue2_clauses: usize,
    /// Number of rephasing events (decision phases reset to the best trail
    /// seen) performed so far.
    pub rephases: u64,
    /// Number of compacting arena garbage collections performed so far.
    pub arena_collections: u64,
    /// Words currently occupied by live clauses in the arena.
    pub arena_live_words: usize,
    /// SAT verdicts whose full model was re-verified against every live
    /// clause of the database (debug builds verify every SAT verdict;
    /// release builds skip the check, leaving this at 0).
    pub models_verified: u64,
}

#[derive(Debug, Clone, Copy)]
struct Watcher {
    cref: ClauseRef,
    blocker: Lit,
}

const VALUE_UNASSIGNED: i8 = 0;
const VALUE_TRUE: i8 = 1;
const VALUE_FALSE: i8 = -1;

/// Initial conflict interval between rephasing events (doubles after each).
const REPHASE_FIRST_INTERVAL: u64 = 1000;
/// Multiplicative decay applied to variable activities (0 < decay < 1).
const VAR_DECAY: f64 = 0.95;
/// Multiplicative decay applied to learnt-clause activities.
const CLAUSE_DECAY: f64 = 0.999;
/// Collect arena garbage once this fraction of it is wasted…
const GC_WASTED_FRACTION: f64 = 0.25;
/// …and at least this many words are reclaimable.
const GC_MIN_WASTED_WORDS: usize = 256;
/// Retired activation literals after which the next solve call opens with a
/// [`Solver::maintain`] pass, freeing the retired generations' clauses and
/// halving the learnt database, so a solver that swaps guarded clause
/// generations for hundreds of solve calls keeps a bounded state while the
/// watch-list rebuild stays amortized.
const MAINTENANCE_RETIREMENTS: usize = 32;

/// Literals a clause may have for [`Solver::add_clause`] to sort and strip
/// it on the stack; a longer clause takes one heap buffer.
const INLINE_CLAUSE: usize = 32;

enum SearchStatus {
    Sat,
    Unsat,
    Restart,
    Cancelled,
}

/// A conflict-driven clause-learning SAT solver.
///
/// See the [crate-level documentation](crate) for an overview and examples.
#[derive(Debug, Clone)]
pub struct Solver {
    config: SolverConfig,
    arena: ClauseArena,
    /// Every live clause, in allocation order (problem and learnt).
    clause_refs: Vec<ClauseRef>,
    learnt_refs: Vec<ClauseRef>,
    /// Learnt clauses in `learnt_refs` whose stored glue is ≤ 2, kept up to
    /// date wherever a learnt clause is attached, has its glue lowered or is
    /// deleted, so [`Solver::stats`] reads the gauge without a scan.
    glue2_learnts: usize,
    watches: Vec<Vec<Watcher>>,
    values: Vec<i8>,
    levels: Vec<u32>,
    reasons: Vec<Option<ClauseRef>>,
    phases: Vec<bool>,
    best_phases: Vec<bool>,
    best_trail: usize,
    conflicts_since_rephase: u64,
    rephase_interval: u64,
    activities: Vec<f64>,
    var_inc: f64,
    cla_inc: f64,
    /// VSIDS decision order. Invariant: every unassigned variable is in it
    /// (assigned ones may linger until popped).
    order: VarHeap,
    glue_stamps: GlueStamps,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    seen: Vec<bool>,
    ok: bool,
    assumptions: Vec<Lit>,
    conflict_core: Vec<Lit>,
    model_values: Vec<i8>,
    have_model: bool,
    max_learnts: usize,
    /// [`Solver::retire_activation`] calls since the last maintenance pass.
    retired_since_maintenance: usize,
    stats: SolverStats,
    tracer: ProofTracer,
    rng: SmallRng,
}

impl Default for Solver {
    fn default() -> Self {
        Solver::new()
    }
}

/// Encoders write straight into the solver: a fresh variable is
/// [`Solver::new_var`] and a clause goes through [`Solver::add_clause`].
impl ClauseSink for Solver {
    fn fresh_var(&mut self) -> Var {
        self.new_var()
    }

    fn add_clause(&mut self, clause: &[Lit]) {
        Solver::add_clause(self, clause.iter().copied());
    }
}

impl Solver {
    /// Creates a solver with default configuration.
    pub fn new() -> Self {
        Solver::with_config(SolverConfig::default())
    }

    /// Creates a solver with the given configuration.
    pub fn with_config(config: SolverConfig) -> Self {
        let rng = SmallRng::seed_from_u64(config.seed);
        let max_learnts = config.first_reduce_db;
        let tracer = ProofTracer::new(config.proof_logging);
        Solver {
            config,
            arena: ClauseArena::new(),
            clause_refs: Vec::new(),
            learnt_refs: Vec::new(),
            glue2_learnts: 0,
            watches: Vec::new(),
            values: Vec::new(),
            levels: Vec::new(),
            reasons: Vec::new(),
            phases: Vec::new(),
            best_phases: Vec::new(),
            best_trail: 0,
            conflicts_since_rephase: 0,
            rephase_interval: REPHASE_FIRST_INTERVAL,
            activities: Vec::new(),
            var_inc: 1.0,
            cla_inc: 1.0,
            order: VarHeap::default(),
            glue_stamps: GlueStamps::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            seen: Vec::new(),
            ok: true,
            assumptions: Vec::new(),
            conflict_core: Vec::new(),
            model_values: Vec::new(),
            have_model: false,
            max_learnts,
            retired_since_maintenance: 0,
            stats: SolverStats::default(),
            tracer,
            rng,
        }
    }

    /// Returns the current configuration.
    pub fn config(&self) -> &SolverConfig {
        &self.config
    }

    /// Runtime statistics. Gauges (learnt-DB size, glue ≤ 2 count, arena
    /// occupancy) reflect the state at the time of the call. Every gauge is
    /// kept as it changes, so the call is O(1); debug builds check the glue
    /// count against a scan of the learnt database.
    pub fn stats(&self) -> SolverStats {
        let mut s = self.stats;
        s.learnt_clauses = self.learnt_refs.len();
        s.glue2_clauses = self.glue2_learnts;
        debug_assert_eq!(
            self.glue2_learnts,
            self.learnt_refs
                .iter()
                .filter(|&&c| self.arena.lbd(c) <= 2)
                .count(),
            "running glue ≤ 2 count disagrees with the learnt database"
        );
        s.arena_collections = self.arena.collections();
        s.arena_live_words = self.arena.live_words();
        s
    }

    /// Number of variables known to the solver.
    pub fn num_vars(&self) -> usize {
        self.values.len()
    }

    /// Number of live problem (non-learnt) clauses.
    pub fn num_clauses(&self) -> usize {
        self.clause_refs.len() - self.learnt_refs.len()
    }

    /// Allocates a fresh variable and returns it.
    pub fn new_var(&mut self) -> Var {
        let v = Var::new(self.values.len() as u32);
        self.values.push(VALUE_UNASSIGNED);
        self.levels.push(0);
        self.reasons.push(None);
        self.phases.push(false);
        self.best_phases.push(false);
        self.activities.push(0.0);
        self.seen.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.order.add_var(v, &self.activities);
        v
    }

    /// Ensures variables `0..n` exist.
    pub fn ensure_vars(&mut self, n: usize) {
        while self.num_vars() < n {
            self.new_var();
        }
    }

    fn lit_value(&self, lit: Lit) -> i8 {
        let v = self.values[lit.var().index()];
        if lit.is_positive() {
            v
        } else {
            -v
        }
    }

    /// Adds a clause to the solver. Returns `false` if the clause database is
    /// already known to be unsatisfiable (in which case the clause is ignored).
    pub fn add_clause<C>(&mut self, clause: C) -> bool
    where
        C: IntoIterator<Item = Lit>,
    {
        // Incremental solve calls keep their assumption trail alive between
        // calls (assumption-prefix reuse); adding a clause invalidates it.
        self.cancel_until(0);
        self.have_model = false;
        if !self.ok {
            return false;
        }
        // The literals are gathered on the stack; only a clause longer than
        // `INLINE_CLAUSE` takes a heap buffer.
        let mut inline = [Lit::positive(Var::new(0)); INLINE_CLAUSE];
        let mut spilled = Vec::new();
        let mut len = 0;
        for lit in clause {
            if len < INLINE_CLAUSE {
                inline[len] = lit;
            } else {
                if spilled.is_empty() {
                    spilled.extend_from_slice(&inline);
                }
                spilled.push(lit);
            }
            len += 1;
        }
        let lits = if len <= INLINE_CLAUSE {
            &mut inline[..len]
        } else {
            &mut spilled[..]
        };
        self.add_clause_literals(lits)
    }

    /// [`Solver::add_clause`] on the clause's literals, in the caller's
    /// order; leaves `lits` reordered.
    fn add_clause_literals(&mut self, lits: &mut [Lit]) -> bool {
        if let Some(max) = lits.iter().map(|l| l.var().index()).max() {
            self.ensure_vars(max + 1);
        }
        // The certificate CNF carries the clause exactly as the caller gave
        // it. Sorting and deduplicating leave its literal set unchanged, so
        // they log no step: the checker stores clauses as literal sets, and
        // drat-trim matches deletions by literal set too, so a later
        // deletion naming the solver's sorted form finds this clause.
        self.tracer.emit_original(lits);
        lits.sort_unstable();
        let mut distinct = 0;
        for i in 0..lits.len() {
            if distinct == 0 || lits[i] != lits[distinct - 1] {
                lits[distinct] = lits[i];
                distinct += 1;
            }
        }
        let lits = &mut lits[..distinct];
        // Detect tautologies, drop the clause if a literal is satisfied at
        // level 0, and swap the literals falsified at level 0 behind the
        // kept ones, so `lits[..write]` is the stripped clause and `lits`
        // still the whole set. (A swap touches positions up to `i` only, so
        // the adjacency test still sees the sorted order.)
        let mut write = 0;
        for i in 0..distinct {
            let l = lits[i];
            if i + 1 < distinct && lits[i + 1] == !l {
                return true; // tautology: p and ¬p are adjacent after sorting
            }
            match self.lit_value(l) {
                VALUE_TRUE if self.levels[l.var().index()] == 0 => return true,
                VALUE_FALSE if self.levels[l.var().index()] == 0 => {}
                _ => {
                    lits.swap(write, i);
                    write += 1;
                }
            }
        }

        // Stripping shrank the set: derive the shorter clause (RUP — the
        // stripped literals are falsified by level-0 facts the checker has
        // already propagated) and retire the whole set. The empty clause is
        // handled below instead, where `ok` goes false.
        if 0 < write && write < distinct {
            self.tracer.emit_add(&lits[..write]);
            self.tracer.emit_delete(lits);
        }
        let lits = &lits[..write];

        match lits.len() {
            0 => {
                self.ok = false;
                // All literals were falsified at level 0, so the checker's
                // persistent propagation already conflicts: the empty clause
                // is admitted immediately.
                self.tracer.emit_add(&[]);
                false
            }
            1 => {
                self.unchecked_enqueue(lits[0], None);
                if self.propagate().is_some() {
                    self.ok = false;
                    self.tracer.emit_add(&[]);
                }
                self.ok
            }
            _ => {
                self.attach_clause(lits, false);
                true
            }
        }
    }

    /// Adds every clause of a [`Cnf`] and declares its variables.
    pub fn add_cnf(&mut self, cnf: &Cnf) {
        self.ensure_vars(cnf.num_vars());
        for clause in cnf.clauses() {
            self.add_clause(clause.iter().copied());
        }
    }

    fn attach_clause(&mut self, lits: &[Lit], learnt: bool) -> ClauseRef {
        debug_assert!(lits.len() >= 2);
        let cref = self.arena.alloc(lits, learnt);
        self.clause_refs.push(cref);
        if learnt {
            self.learnt_refs.push(cref);
            self.glue2_learnts += usize::from(self.arena.lbd(cref) <= 2);
        }
        self.watch_clause(cref);
        cref
    }

    /// Registers the clause's (current) first two literals in the watcher
    /// lists.
    fn watch_clause(&mut self, cref: ClauseRef) {
        let w0 = self.arena.lit(cref, 0);
        let w1 = self.arena.lit(cref, 1);
        self.watches[(!w0).code()].push(Watcher { cref, blocker: w1 });
        self.watches[(!w1).code()].push(Watcher { cref, blocker: w0 });
    }

    fn decision_level(&self) -> usize {
        self.trail_lim.len()
    }

    fn new_decision_level(&mut self) {
        self.trail_lim.push(self.trail.len());
    }

    fn unchecked_enqueue(&mut self, lit: Lit, reason: Option<ClauseRef>) {
        debug_assert_eq!(self.lit_value(lit), VALUE_UNASSIGNED);
        let idx = lit.var().index();
        self.values[idx] = if lit.is_positive() {
            VALUE_TRUE
        } else {
            VALUE_FALSE
        };
        self.levels[idx] = self.decision_level() as u32;
        self.reasons[idx] = reason;
        self.trail.push(lit);
    }

    fn propagate(&mut self) -> Option<ClauseRef> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;

            let mut watchers = std::mem::take(&mut self.watches[p.code()]);
            let mut i = 0;
            let mut conflict = None;
            while i < watchers.len() {
                let w = watchers[i];
                // Fast path: blocker already satisfied.
                if self.lit_value(w.blocker) == VALUE_TRUE {
                    i += 1;
                    continue;
                }
                let cref = w.cref;
                if self.arena.is_deleted(cref) {
                    watchers.swap_remove(i);
                    continue;
                }
                // Make sure the false literal (¬p) is at position 1.
                let false_lit = !p;
                if self.arena.lit(cref, 0) == false_lit {
                    self.arena.swap_lits(cref, 0, 1);
                }
                let first = self.arena.lit(cref, 0);
                if first != w.blocker && self.lit_value(first) == VALUE_TRUE {
                    // Clause already satisfied; update blocker.
                    watchers[i] = Watcher {
                        cref,
                        blocker: first,
                    };
                    i += 1;
                    continue;
                }
                // Look for a new literal to watch: a cache-local scan over
                // the clause's word slice in the arena.
                let mut new_watch = None;
                {
                    let values = &self.values;
                    for (k, &code) in self.arena.lit_codes(cref).iter().enumerate().skip(2) {
                        let v = values[(code as usize) >> 1];
                        let val = if code & 1 == 0 { v } else { -v };
                        if val != VALUE_FALSE {
                            new_watch = Some(k);
                            break;
                        }
                    }
                }
                if let Some(k) = new_watch {
                    self.arena.swap_lits(cref, 1, k);
                    let moved = self.arena.lit(cref, 1);
                    self.watches[(!moved).code()].push(Watcher {
                        cref,
                        blocker: first,
                    });
                    watchers.swap_remove(i);
                    continue;
                }
                // Clause is unit or conflicting under the current assignment.
                if self.lit_value(first) == VALUE_FALSE {
                    conflict = Some(cref);
                    self.qhead = self.trail.len();
                    break;
                } else {
                    self.unchecked_enqueue(first, Some(cref));
                    i += 1;
                }
            }
            self.watches[p.code()] = watchers;
            if conflict.is_some() {
                return conflict;
            }
        }
        None
    }

    fn cancel_until(&mut self, level: usize) {
        if self.decision_level() <= level {
            return;
        }
        let bound = self.trail_lim[level];
        for i in (bound..self.trail.len()).rev() {
            let lit = self.trail[i];
            let idx = lit.var().index();
            self.phases[idx] = self.values[idx] == VALUE_TRUE;
            self.values[idx] = VALUE_UNASSIGNED;
            self.reasons[idx] = None;
            self.order.insert(lit.var(), &self.activities);
        }
        self.trail.truncate(bound);
        self.trail_lim.truncate(level);
        self.qhead = self.trail.len();
    }

    fn bump_var(&mut self, var: Var) {
        let idx = var.index();
        self.activities[idx] += self.var_inc;
        if self.activities[idx] > 1e100 {
            for a in &mut self.activities {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
            // Scaling can merge distinct activities into ties, which the
            // tie-break may order differently.
            self.order.rebuild(&self.activities);
        } else {
            self.order.increase(var, &self.activities);
        }
    }

    fn bump_clause(&mut self, cref: ClauseRef) {
        if !self.arena.is_learnt(cref) {
            return;
        }
        let activity = self.arena.activity(cref) + self.cla_inc as f32;
        self.arena.set_activity(cref, activity);
        if activity > 1e20 {
            for &lr in &self.learnt_refs {
                let a = self.arena.activity(lr);
                self.arena.set_activity(lr, a * 1e-20);
            }
            self.cla_inc *= 1e-20;
        }
    }

    fn decay_activities(&mut self) {
        self.var_inc /= VAR_DECAY;
        self.cla_inc /= CLAUSE_DECAY;
    }

    /// The clause's glue under the *current* assignment: the number of
    /// distinct nonzero decision levels among its literals. Only meaningful
    /// while all literals are assigned (e.g. for a conflict-side clause).
    fn clause_glue(&mut self, cref: ClauseRef) -> u32 {
        let levels = &self.levels;
        self.glue_stamps.glue(
            self.arena
                .lit_codes(cref)
                .iter()
                .map(|&code| levels[(code as usize) >> 1]),
        )
    }

    /// Stores `glue` as the learnt clause's glue, keeping the glue ≤ 2
    /// count in step.
    fn set_glue(&mut self, cref: ClauseRef, glue: u32) {
        let was = self.arena.lbd(cref) <= 2;
        self.arena.set_lbd(cref, glue);
        match (was, glue <= 2) {
            (false, true) => self.glue2_learnts += 1,
            (true, false) => self.glue2_learnts -= 1,
            _ => {}
        }
    }

    /// Deletes the clause from the arena and logs the deletion, keeping the
    /// glue ≤ 2 count in step. The caller prunes the clause and watcher
    /// lists ([`Solver::finish_deletions`]).
    fn delete_clause(&mut self, cref: ClauseRef) {
        if self.arena.is_learnt(cref) && self.arena.lbd(cref) <= 2 {
            self.glue2_learnts -= 1;
        }
        let lits = self.traced_lits(cref);
        self.arena.delete(cref);
        self.tracer.emit_delete(&lits);
    }

    /// First-UIP conflict analysis. Returns the learnt clause (asserting
    /// literal first), the backtrack level, and the glue of the learnt
    /// clause.
    fn analyze(&mut self, mut confl: ClauseRef) -> (Vec<Lit>, usize, u32) {
        let mut learnt: Vec<Lit> = vec![Lit::positive(Var::new(0))]; // placeholder
        let mut path_count = 0usize;
        let mut p: Option<Lit> = None;
        let mut index = self.trail.len();

        loop {
            self.bump_clause(confl);
            // On-the-fly glue refresh: a learnt clause visited during
            // analysis whose current glue is better than its stored one is
            // promoted — the Glucose "clause usefulness improves" signal.
            if self.arena.is_learnt(confl) {
                let g = self.clause_glue(confl);
                if g < self.arena.lbd(confl) {
                    self.set_glue(confl, g);
                }
            }
            let start = usize::from(p.is_some());
            for k in start..self.arena.len(confl) {
                let q = self.arena.lit(confl, k);
                let idx = q.var().index();
                if !self.seen[idx] && self.levels[idx] > 0 {
                    self.seen[idx] = true;
                    self.bump_var(q.var());
                    if self.levels[idx] as usize >= self.decision_level() {
                        path_count += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Select the next literal (latest seen literal on the trail).
            loop {
                index -= 1;
                if self.seen[self.trail[index].var().index()] {
                    break;
                }
            }
            let pl = self.trail[index];
            self.seen[pl.var().index()] = false;
            path_count -= 1;
            p = Some(pl);
            if path_count == 0 {
                break;
            }
            // invariant: path_count > 0 means pl is an implied (non-decision)
            // literal of the current level, and every implied literal was
            // enqueued with its reason clause recorded.
            confl = self.reasons[pl.var().index()].expect("non-decision literal has a reason");
        }
        // invariant: a conflict at a positive decision level traverses at
        // least one trail literal before path_count reaches zero.
        learnt[0] = !p.expect("conflict analysis visited at least one literal");

        // Compute backtrack level and move the corresponding literal to slot 1.
        let backtrack_level = if learnt.len() == 1 {
            0
        } else {
            let mut max_i = 1;
            for i in 2..learnt.len() {
                if self.levels[learnt[i].var().index()] > self.levels[learnt[max_i].var().index()] {
                    max_i = i;
                }
            }
            learnt.swap(1, max_i);
            self.levels[learnt[1].var().index()] as usize
        };

        // Glue of the learnt clause, while its literals are still assigned.
        let levels = &self.levels;
        let glue = self
            .glue_stamps
            .glue(learnt.iter().map(|l| levels[l.var().index()]))
            .max(1);

        // Clear the `seen` flags of the literals kept in the learnt clause.
        for l in &learnt {
            self.seen[l.var().index()] = false;
        }
        (learnt, backtrack_level, glue)
    }

    /// Computes the subset of assumptions responsible for the failed
    /// assumption literal `p` (which is currently false).
    fn analyze_final(&mut self, p: Lit) {
        self.conflict_core.clear();
        self.conflict_core.push(p);
        if self.decision_level() == 0 {
            return;
        }
        self.seen[p.var().index()] = true;
        for i in (self.trail_lim[0]..self.trail.len()).rev() {
            let lit = self.trail[i];
            let idx = lit.var().index();
            if !self.seen[idx] {
                continue;
            }
            match self.reasons[idx] {
                None => {
                    // A decision below the assumption levels is an assumption.
                    self.conflict_core.push(lit);
                }
                Some(cref) => {
                    for k in 1..self.arena.len(cref) {
                        let q = self.arena.lit(cref, k);
                        if self.levels[q.var().index()] > 0 {
                            self.seen[q.var().index()] = true;
                        }
                    }
                }
            }
            self.seen[idx] = false;
        }
        self.seen[p.var().index()] = false;
        // `search` decides only assumptions while the level is below their
        // count, and calls this before any other decision, so every level
        // above 0 was opened for an assumption: each decision collected
        // above is an assumption, in the caller's orientation.
        debug_assert!(self
            .conflict_core
            .iter()
            .all(|l| self.assumptions.contains(l)));
        self.conflict_core.sort();
        self.conflict_core.dedup();
    }

    fn pick_branch_lit(&mut self) -> Option<Lit> {
        // Optional random decision: the `k`-th unassigned variable in index
        // order, `k` uniform (drawn even when none is unassigned, so the RNG
        // stream does not depend on that case).
        if self.config.random_var_freq > 0.0 && self.rng.gen::<f64>() < self.config.random_var_freq
        {
            let values = &self.values;
            let unassigned = || (0..values.len()).filter(|&i| values[i] == VALUE_UNASSIGNED);
            let k = self.rng.gen_range(0..unassigned().count().max(1));
            if let Some(idx) = unassigned().nth(k) {
                return Some(Lit::new(Var::new(idx as u32), self.phases[idx]));
            }
        }
        // Highest-activity unassigned variable; assigned ones left in the
        // heap are discarded on the way.
        while let Some(var) = self.order.pop(&self.activities) {
            if self.values[var.index()] == VALUE_UNASSIGNED {
                return Some(Lit::new(var, self.phases[var.index()]));
            }
        }
        None
    }

    /// Deletes the lowest-value half of the learnt database: worst glue
    /// first, least active first among equal glue, never a clause of glue
    /// ≤ 2 (Glucose-style management). Sound at any decision level: clauses
    /// that are the reason of a current trail literal are locked and never
    /// deleted (a reason clause keeps its propagated literal at slot 0, so
    /// [`Solver::is_locked`] identifies it at any trail depth).
    fn reduce_db(&mut self) {
        let mut refs = self.learnt_refs.clone();
        let arena = &self.arena;
        refs.sort_by(|&a, &b| {
            arena.lbd(b).cmp(&arena.lbd(a)).then_with(|| {
                arena
                    .activity(a)
                    .partial_cmp(&arena.activity(b))
                    .unwrap_or(Ordering::Equal)
            })
        });
        let to_remove = refs.len() / 2;
        let mut deleted = Vec::new();
        for &cref in refs.iter() {
            if deleted.len() >= to_remove {
                break;
            }
            if self.is_locked(cref) || self.arena.len(cref) <= 2 || self.arena.lbd(cref) <= 2 {
                continue;
            }
            self.delete_clause(cref);
            deleted.push(cref);
        }
        self.finish_deletions(&deleted);
        self.maybe_collect_garbage();
        self.debug_check_watches();
    }

    /// The clause's literals, materialized for proof logging — empty (and
    /// allocation-free) when the tracer is off, in which case the emit call
    /// the vector feeds is a no-op anyway.
    fn traced_lits(&self, cref: ClauseRef) -> Vec<Lit> {
        if self.tracer.is_active() {
            (0..self.arena.len(cref))
                .map(|i| self.arena.lit(cref, i))
                .collect()
        } else {
            Vec::new()
        }
    }

    /// `true` if the clause is the reason of a currently assigned literal.
    fn is_locked(&self, cref: ClauseRef) -> bool {
        let first = self.arena.lit(cref, 0);
        self.lit_value(first) == VALUE_TRUE && self.reasons[first.var().index()] == Some(cref)
    }

    /// Prunes the clause lists of deleted entries and repairs only the
    /// watcher lists the deleted clauses actually watched.
    fn finish_deletions(&mut self, deleted: &[ClauseRef]) {
        if deleted.is_empty() {
            return;
        }
        let arena = &self.arena;
        self.learnt_refs.retain(|&c| !arena.is_deleted(c));
        self.clause_refs.retain(|&c| !arena.is_deleted(c));
        let mut touched: Vec<usize> = deleted
            .iter()
            .flat_map(|&c| [(!arena.lit(c, 0)).code(), (!arena.lit(c, 1)).code()])
            .collect();
        touched.sort_unstable();
        touched.dedup();
        for code in touched {
            self.watches[code].retain(|w| !arena.is_deleted(w.cref));
        }
    }

    /// Compacts the arena when enough of it is garbage, remapping every
    /// stored clause reference (clause lists, watcher lists, trail reasons)
    /// through the relocation.
    fn maybe_collect_garbage(&mut self) {
        if self.arena.wasted_fraction() >= GC_WASTED_FRACTION
            && self.arena.wasted_words() >= GC_MIN_WASTED_WORDS
        {
            self.collect_garbage();
        }
    }

    fn collect_garbage(&mut self) {
        let reloc = self.arena.collect(self.clause_refs.iter().copied());
        for cref in &mut self.clause_refs {
            // invariant: clause_refs seeded the collect's live set above.
            *cref = reloc.forward(*cref).expect("live clause survives GC");
        }
        for cref in &mut self.learnt_refs {
            // invariant: learnt_refs is a subset of clause_refs, which
            // seeded the collect's live set.
            *cref = reloc.forward(*cref).expect("learnt clause survives GC");
        }
        for reason in &mut self.reasons {
            if let Some(cref) = *reason {
                // invariant: reason clauses are locked against deletion, so
                // they are always in the live set.
                *reason = Some(reloc.forward(cref).expect("reason clause survives GC"));
            }
        }
        for list in &mut self.watches {
            list.retain_mut(|w| match reloc.forward(w.cref) {
                Some(new) => {
                    w.cref = new;
                    true
                }
                // Watcher of a deleted clause that was only lazily removed.
                None => false,
            });
        }
        self.debug_check_watches();
    }

    /// Checks the watcher invariants (debug builds only): every watcher entry
    /// references a live clause that has the watched literal in slot 0 or 1;
    /// every live clause is watched exactly twice; and — at a propagation
    /// fixpoint — a falsified watched literal implies the other watch is
    /// true.
    fn debug_check_watches(&self) {
        if !cfg!(debug_assertions) {
            return;
        }
        let mut counts = std::collections::HashMap::new();
        for code in 0..self.watches.len() {
            let watched = !Lit::from_code(code);
            for w in &self.watches[code] {
                if self.arena.is_deleted(w.cref) {
                    continue; // awaiting lazy removal in propagate
                }
                assert!(self.arena.len(w.cref) >= 2, "watched clause too short");
                assert!(
                    self.arena.lit(w.cref, 0) == watched || self.arena.lit(w.cref, 1) == watched,
                    "watcher entry for a literal the clause does not watch"
                );
                *counts.entry(w.cref).or_insert(0u32) += 1;
            }
        }
        for &cref in &self.clause_refs {
            assert_eq!(
                counts.get(&cref).copied().unwrap_or(0),
                2,
                "live clause must be watched exactly twice"
            );
        }
        if self.qhead == self.trail.len() {
            for &cref in &self.clause_refs {
                let v0 = self.lit_value(self.arena.lit(cref, 0));
                let v1 = self.lit_value(self.arena.lit(cref, 1));
                assert!(
                    !(v0 == VALUE_FALSE && v1 == VALUE_FALSE),
                    "both watches falsified at a propagation fixpoint"
                );
                if v0 == VALUE_FALSE || v1 == VALUE_FALSE {
                    assert!(
                        v0 == VALUE_TRUE || v1 == VALUE_TRUE,
                        "falsified watch without a satisfied partner"
                    );
                }
            }
        }
    }

    /// Halves the learnt-clause database (worst glue first, as the automatic
    /// reduction does) and resets the automatic reduction threshold to its
    /// initial value.
    ///
    /// The search loop reduces the database on its own, but every automatic
    /// reduction *raises* the threshold, so a solver that lives across
    /// hundreds of incremental solve calls (e.g. the error solver of a
    /// verify–repair session) accumulates learnt clauses without bound.
    /// Each [`Solver::maintain`] pass runs this to keep the database
    /// bounded.
    ///
    /// The assumption trail kept for prefix reuse is preserved: clauses that
    /// are the reason of a current trail literal — at any depth of the
    /// assumption prefix — are locked and never deleted.
    pub fn reduce_learnt_db(&mut self) {
        if !self.ok {
            return;
        }
        self.reduce_db();
        self.max_learnts = self.config.first_reduce_db;
    }

    /// Removes clauses satisfied at decision level 0, strips falsified
    /// level-0 literals, and compacts the clause arena (when enough garbage
    /// has accumulated) so the memory is actually reclaimed.
    ///
    /// This is how retired activation literals are garbage-collected: after
    /// [`Solver::retire_activation`] asserts `¬a` at level 0, every clause
    /// guarded by `a` is permanently satisfied and `simplify` frees it.
    /// Backtracks to decision level 0 first, abandoning any assumption
    /// trail kept for prefix reuse.
    pub fn simplify(&mut self) {
        self.cancel_until(0);
        if !self.ok {
            return;
        }
        if self.propagate().is_some() {
            self.ok = false;
            self.tracer.emit_add(&[]);
            return;
        }
        // Level-0 facts are permanent: their reason clauses are no longer
        // needed for conflict analysis and must not pin clause references
        // across the compaction below.
        for i in 0..self.trail.len() {
            self.reasons[self.trail[i].var().index()] = None;
        }
        let mut deleted = Vec::new();
        for i in 0..self.clause_refs.len() {
            let cref = self.clause_refs[i];
            let satisfied = self.arena.lit_codes(cref).iter().any(|&code| {
                let idx = (code as usize) >> 1;
                let v = self.values[idx];
                let val = if code & 1 == 0 { v } else { -v };
                val == VALUE_TRUE && self.levels[idx] == 0
            });
            if satisfied {
                self.delete_clause(cref);
                deleted.push(cref);
                continue;
            }
            // At the level-0 propagation fixpoint an unsatisfied clause has
            // unfalsified literals in both watched slots (a falsified watch
            // would have been moved, propagated, or reported as a conflict),
            // so only positions ≥ 2 can hold falsified level-0 literals and
            // the watcher lists stay valid across the strip.
            let falsified: Vec<usize> = (2..self.arena.len(cref))
                .rev()
                .filter(|&k| {
                    let l = self.arena.lit(cref, k);
                    self.lit_value(l) == VALUE_FALSE && self.levels[l.var().index()] == 0
                })
                .collect();
            if !falsified.is_empty() {
                let before = self.traced_lits(cref);
                for &k in &falsified {
                    self.arena.remove_lit(cref, k);
                }
                let after = self.traced_lits(cref);
                self.tracer.emit_add(&after);
                self.tracer.emit_delete(&before);
            }
            debug_assert!((0..2).all(|i| {
                let l = self.arena.lit(cref, i);
                self.lit_value(l) != VALUE_FALSE || self.levels[l.var().index()] != 0
            }));
        }
        self.finish_deletions(&deleted);
        self.maybe_collect_garbage();
        self.debug_check_watches();
    }

    /// One maintenance pass of a long-lived solver:
    /// [`Solver::reduce_learnt_db`], then [`Solver::simplify`].
    ///
    /// The solver runs this pass itself at the start of the first solve call
    /// after every 32nd [`Solver::retire_activation`], once that call has
    /// passed its cancellation check, so its work is part of that call. The
    /// MaxSAT solver runs it every 32 of its own solve calls. An explicit
    /// call restarts the retirement count.
    pub fn maintain(&mut self) {
        self.retired_since_maintenance = 0;
        self.reduce_learnt_db();
        self.simplify();
    }

    fn cancelled(&self) -> bool {
        self.config
            .cancel
            .as_ref()
            .is_some_and(|token| token.is_cancelled())
    }

    /// Copies the decision phases from the deepest trail observed since the
    /// last rephase ("best phases"), on a geometric conflict schedule. Runs
    /// on restart boundaries only, after backtracking.
    fn maybe_rephase(&mut self) {
        if self.conflicts_since_rephase < self.rephase_interval {
            return;
        }
        self.phases.copy_from_slice(&self.best_phases);
        self.stats.rephases += 1;
        self.conflicts_since_rephase = 0;
        self.rephase_interval = self.rephase_interval.saturating_mul(2);
        self.best_trail = 0;
    }

    fn search(&mut self, scheduler: &mut RestartScheduler) -> SearchStatus {
        loop {
            if let Some(confl) = self.propagate() {
                self.stats.conflicts += 1;
                self.conflicts_since_rephase += 1;
                if self.decision_level() == 0 {
                    self.ok = false;
                    self.tracer.emit_add(&[]);
                    self.conflict_core.clear();
                    return SearchStatus::Unsat;
                }
                // Best-phase snapshot for rephasing: the deepest trail seen
                // is the closest the search has come to a full assignment.
                if self.trail.len() > self.best_trail {
                    self.best_trail = self.trail.len();
                    for &l in &self.trail {
                        self.best_phases[l.var().index()] = l.is_positive();
                    }
                }
                let (learnt, backtrack_level, glue) = self.analyze(confl);
                self.tracer.emit_add(&learnt);
                scheduler.on_conflict(glue, self.trail.len());
                self.cancel_until(backtrack_level);
                if learnt.len() == 1 {
                    self.unchecked_enqueue(learnt[0], None);
                } else {
                    let asserting = learnt[0];
                    let cref = self.attach_clause(&learnt, true);
                    self.set_glue(cref, glue);
                    self.bump_clause(cref);
                    self.unchecked_enqueue(asserting, Some(cref));
                }
                self.decay_activities();
            } else {
                // Cooperative cancellation, polled once per decision (i.e.
                // every conflict-free propagation round): a cancelled solver
                // abandons the call within milliseconds instead of running
                // to its verdict.
                if self.cancelled() {
                    self.cancel_until(0);
                    return SearchStatus::Cancelled;
                }
                if scheduler.should_restart() {
                    // Assumption-aware restart: fall back to the assumption
                    // boundary, never below it, so the prefix levels (and
                    // the trail reuse of incremental calls) are preserved.
                    let keep = self.assumptions.len().min(self.decision_level());
                    self.cancel_until(keep);
                    self.stats.restarts += 1;
                    self.maybe_rephase();
                    return SearchStatus::Restart;
                }
                if self.learnt_refs.len() > self.max_learnts {
                    self.reduce_db();
                    // Geometric growth: each reduction tolerates 25% more
                    // clauses than the previous one.
                    self.max_learnts = self.max_learnts * 5 / 4;
                }
                // Assumptions first, then heuristic decisions.
                let mut next: Option<Lit> = None;
                while self.decision_level() < self.assumptions.len() {
                    let p = self.assumptions[self.decision_level()];
                    match self.lit_value(p) {
                        VALUE_TRUE => self.new_decision_level(),
                        VALUE_FALSE => {
                            self.analyze_final(p);
                            return SearchStatus::Unsat;
                        }
                        _ => {
                            next = Some(p);
                            break;
                        }
                    }
                }
                let decision = match next {
                    Some(p) => p,
                    None => match self.pick_branch_lit() {
                        Some(l) => l,
                        None => return SearchStatus::Sat,
                    },
                };
                self.stats.decisions += 1;
                self.new_decision_level();
                self.unchecked_enqueue(decision, None);
            }
        }
    }

    /// Decides satisfiability of the clause database.
    pub fn solve(&mut self) -> SolveResult {
        self.solve_with_assumptions(&[])
    }

    /// Decides satisfiability of the clause database under the given
    /// assumption literals.
    ///
    /// On [`SolveResult::Unsat`], [`Solver::unsat_core`] returns a subset of
    /// the assumptions that is already unsatisfiable together with the
    /// clauses. On [`SolveResult::Sat`], [`Solver::model`] returns a model.
    ///
    /// Incremental calls reuse the assumption trail: the longest prefix of
    /// `assumptions` that matches the previous call's assumption decisions
    /// is kept assigned (with everything it propagated) instead of being
    /// re-decided and re-propagated. Callers that iterate over a fixed
    /// assumption prefix plus one varying literal — a MaxSAT descent
    /// tightening a totalizer bound, a verify session swapping one
    /// activation — therefore pay per call for the *changed* suffix only.
    /// Adding a clause (or running [`Solver::simplify`], as the maintenance
    /// pass that may open the call does) abandons the kept trail;
    /// [`Solver::reduce_learnt_db`] preserves it.
    pub fn solve_with_assumptions(&mut self, assumptions: &[Lit]) -> SolveResult {
        self.have_model = false;
        self.conflict_core.clear();
        if !self.ok {
            // The empty clause is already in the persistent log; the
            // certificate needs no assumption units.
            self.tracer.note_unsat(&[]);
            return SolveResult::Unsat;
        }
        if self.cancelled() {
            return SolveResult::Unknown;
        }
        if self.retired_since_maintenance >= MAINTENANCE_RETIREMENTS {
            self.maintain();
            if !self.ok {
                self.tracer.note_unsat(&[]);
                return SolveResult::Unsat;
            }
        }
        for a in assumptions {
            self.ensure_vars(a.var().index() + 1);
        }
        // Assumption-prefix trail reuse: decision level `i + 1` was opened
        // for assumption `i` of the previous call (satisfied assumptions
        // open an empty level, so the index correspondence is exact), so
        // backtracking to the longest common prefix keeps those levels'
        // assignments and propagations alive.
        let shared = assumptions
            .iter()
            .zip(&self.assumptions)
            .take(self.decision_level())
            .take_while(|(new, old)| new == old)
            .count();
        self.cancel_until(shared);
        self.stats.reused_levels += shared as u64;
        // Exact growth: the copy stays as long as the longest assumption
        // set, not up to twice that.
        self.assumptions.clear();
        self.assumptions.reserve_exact(assumptions.len());
        self.assumptions.extend_from_slice(assumptions);
        if self.decision_level() == 0 && self.propagate().is_some() {
            self.ok = false;
            self.tracer.emit_add(&[]);
            self.tracer.note_unsat(&[]);
            self.assumptions.clear();
            return SolveResult::Unsat;
        }

        let mut scheduler = RestartScheduler::new();
        let result = loop {
            match self.search(&mut scheduler) {
                SearchStatus::Sat => {
                    self.model_values.clone_from(&self.values);
                    self.have_model = true;
                    self.debug_verify_model();
                    self.tracer.note_inconclusive();
                    break SolveResult::Sat;
                }
                SearchStatus::Unsat => {
                    if self.ok {
                        // Assumption-scoped UNSAT: the core clause is an
                        // assumption-free RUP lemma (assuming the whole core
                        // replays the propagations that falsified the
                        // failing assumption), and together with the
                        // certificate's assumption units it propagates to a
                        // contradiction — the per-solve empty-clause tail.
                        self.tracer.emit_core_clause(&self.conflict_core);
                    }
                    self.tracer.note_unsat(&self.assumptions);
                    break SolveResult::Unsat;
                }
                SearchStatus::Cancelled => {
                    self.tracer.note_inconclusive();
                    break SolveResult::Unknown;
                }
                SearchStatus::Restart => continue,
            }
        };
        // The trail (and `self.assumptions`) survives the call so the next
        // solve can reuse the shared assumption prefix.
        result
    }

    /// Returns the model found by the last successful `solve` call.
    ///
    /// Unassigned variables (possible when a variable occurs in no clause)
    /// default to `false`.
    ///
    /// # Panics
    ///
    /// Panics if the last solve call did not return [`SolveResult::Sat`].
    pub fn model(&self) -> Assignment {
        assert!(
            self.have_model,
            "no model available: last solve was not SAT"
        );
        Assignment::from_values(self.model_values.iter().map(|&v| v == VALUE_TRUE).collect())
    }

    /// Returns the value of `var` in the last model, or `None` if no model is
    /// available or the variable is unknown.
    pub fn value(&self, var: Var) -> Option<bool> {
        if !self.have_model || var.index() >= self.model_values.len() {
            return None;
        }
        Some(self.model_values[var.index()] == VALUE_TRUE)
    }

    /// Returns the value of `var` in the model of the latest satisfiable
    /// solve call, or `None` before the first one or for a variable created
    /// since. Unlike [`Solver::value`], it stays readable when later calls
    /// end unsatisfiable or unknown and when clauses are added, so a caller
    /// that searches over several queries, such as a MaxSAT bound search
    /// refuting the bound below its best model, reads that model without
    /// copying it.
    pub fn latest_model_value(&self, var: Var) -> Option<bool> {
        let value = *self.model_values.get(var.index())?;
        Some(value == VALUE_TRUE)
    }

    /// Returns the subset of assumption literals involved in the last
    /// unsatisfiability verdict (empty if the formula is unsatisfiable even
    /// without assumptions).
    pub fn unsat_core(&self) -> &[Lit] {
        &self.conflict_core
    }

    /// Returns `true` if the clause database has been proved unsatisfiable
    /// independently of any assumptions.
    pub fn is_known_unsat(&self) -> bool {
        !self.ok
    }

    /// The DRAT certificate for the most recent UNSAT verdict, borrowed
    /// from the proof log: the original clauses plus one unit clause per
    /// assumption of the failing solve, and a proof deriving the empty
    /// clause. Returns `None` when [`SolverConfig::proof_logging`] is off
    /// or the last verdict was not [`SolveResult::Unsat`].
    pub fn certificate(&self) -> Option<Certificate<'_>> {
        self.tracer.certificate()
    }

    /// Proof addition and deletion steps emitted so far (0 when proof
    /// logging is off).
    pub fn proof_steps(&self) -> (u64, u64) {
        self.tracer.step_counts()
    }

    /// Debug-build sanity check behind every SAT verdict: the recorded full
    /// model must satisfy every live clause of the database. Release builds
    /// skip the scan entirely.
    fn debug_verify_model(&mut self) {
        if !cfg!(debug_assertions) {
            return;
        }
        for &cref in &self.clause_refs {
            let satisfied = self.arena.lit_codes(cref).iter().any(|&code| {
                let v = self.model_values[(code as usize) >> 1];
                (if code & 1 == 0 { v } else { -v }) == VALUE_TRUE
            });
            assert!(satisfied, "SAT model leaves a live clause unsatisfied");
        }
        self.stats.models_verified += 1;
    }

    /// Allocates a fresh activation literal for guarded (retractable)
    /// clauses.
    ///
    /// Clauses added with [`Solver::add_guarded_clause`] under this literal
    /// are enforced only while the literal is passed as an assumption to
    /// [`Solver::solve_with_assumptions`]; they can later be permanently
    /// disabled with [`Solver::retire_activation`]. This is the standard
    /// incremental-SAT idiom for swapping parts of a formula (e.g. candidate
    /// definitions in a verify–repair loop) without rebuilding the solver.
    ///
    /// # Examples
    ///
    /// ```
    /// use manthan3_sat::{SolveResult, Solver};
    ///
    /// let mut solver = Solver::new();
    /// let x = solver.new_var().positive();
    /// let a = solver.new_activation_lit();
    /// solver.add_guarded_clause(a, [!x]);
    /// solver.add_clause([x]);
    /// // Enforcing the guarded clause makes the formula unsatisfiable…
    /// assert_eq!(solver.solve_with_assumptions(&[a]), SolveResult::Unsat);
    /// // …but without the activation assumption it is satisfiable.
    /// assert_eq!(solver.solve(), SolveResult::Sat);
    /// // Retiring the activation keeps it permanently disabled.
    /// solver.retire_activation(a);
    /// assert_eq!(solver.solve_with_assumptions(&[a]), SolveResult::Unsat);
    /// ```
    pub fn new_activation_lit(&mut self) -> Lit {
        self.new_var().positive()
    }

    /// Adds `clause` guarded by `activation`: the clause is enforced only
    /// when `activation` is assumed. Returns `false` if the database is
    /// already unsatisfiable.
    pub fn add_guarded_clause<C>(&mut self, activation: Lit, clause: C) -> bool
    where
        C: IntoIterator<Item = Lit>,
    {
        let guarded = std::iter::once(!activation).chain(clause);
        self.add_clause(guarded)
    }

    /// Permanently disables the guard `activation`: its guarded clauses can
    /// never be enforced again. The solver frees them in the maintenance
    /// pass that opens the first solve call after every 32nd retirement
    /// ([`Solver::maintain`]). Returns `false` if the database is already
    /// unsatisfiable.
    pub fn retire_activation(&mut self, activation: Lit) -> bool {
        self.retired_since_maintenance += 1;
        self.add_clause([!activation])
    }

    /// Sets the preferred decision polarity of `var`.
    ///
    /// The phase is used whenever `var` is picked as a decision variable.
    /// The sampler crate uses this
    /// to bias models towards under-represented valuations (adaptive
    /// weighted sampling).
    ///
    /// Abandons any assumption trail kept for prefix reuse: backtracking
    /// saves the trail's valuations as phases, which would overwrite the
    /// explicit phase set here if it happened later.
    pub fn set_phase(&mut self, var: Var, phase: bool) {
        self.cancel_until(0);
        self.ensure_vars(var.index() + 1);
        self.phases[var.index()] = phase;
    }

    /// Re-seeds the solver's internal random number generator.
    pub fn reseed(&mut self, seed: u64) {
        self.config.seed = seed;
        self.rng = SmallRng::seed_from_u64(seed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(d: i64) -> Lit {
        Lit::from_dimacs(d)
    }

    #[test]
    fn trivially_sat_and_unsat() {
        let mut s = Solver::new();
        s.ensure_vars(1);
        assert_eq!(s.solve(), SolveResult::Sat);

        let mut s = Solver::new();
        s.add_clause([lit(1)]);
        s.add_clause([lit(-1)]);
        assert_eq!(s.solve(), SolveResult::Unsat);
        assert!(s.is_known_unsat());
    }

    #[test]
    fn simple_implication_chain() {
        let mut s = Solver::new();
        // x1 → x2 → x3 → x4, with x1 forced.
        s.add_clause([lit(-1), lit(2)]);
        s.add_clause([lit(-2), lit(3)]);
        s.add_clause([lit(-3), lit(4)]);
        s.add_clause([lit(1)]);
        assert_eq!(s.solve(), SolveResult::Sat);
        for v in 0..4 {
            assert_eq!(s.value(Var::new(v)), Some(true));
        }
    }

    #[test]
    fn learns_from_conflicts() {
        // (a ∨ b) ∧ (a ∨ ¬b) ∧ (¬a ∨ c) ∧ (¬a ∨ ¬c) is UNSAT.
        let mut s = Solver::new();
        s.add_clause([lit(1), lit(2)]);
        s.add_clause([lit(1), lit(-2)]);
        s.add_clause([lit(-1), lit(3)]);
        s.add_clause([lit(-1), lit(-3)]);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn pigeonhole_three_pigeons_two_holes_is_unsat() {
        // Variables p_{i,j}: pigeon i in hole j. i in 0..3, j in 0..2.
        let var = |i: usize, j: usize| Var::new((i * 2 + j) as u32);
        let mut s = Solver::new();
        for i in 0..3 {
            s.add_clause([var(i, 0).positive(), var(i, 1).positive()]);
        }
        for j in 0..2 {
            for i1 in 0..3 {
                for i2 in (i1 + 1)..3 {
                    s.add_clause([var(i1, j).negative(), var(i2, j).negative()]);
                }
            }
        }
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn model_satisfies_formula() {
        let mut cnf = Cnf::new(0);
        cnf.add_clause([lit(1), lit(2), lit(3)]);
        cnf.add_clause([lit(-1), lit(-2)]);
        cnf.add_clause([lit(-2), lit(-3)]);
        cnf.add_clause([lit(2), lit(3)]);
        let mut s = Solver::new();
        s.add_cnf(&cnf);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert!(cnf.eval(&s.model()));
    }

    #[test]
    fn assumptions_flip_result_and_produce_core() {
        let mut s = Solver::new();
        s.add_clause([lit(1), lit(2)]);
        s.add_clause([lit(-1), lit(2)]);
        // Satisfiable in general…
        assert_eq!(s.solve(), SolveResult::Sat);
        // …but not when assuming ¬2.
        assert_eq!(s.solve_with_assumptions(&[lit(-2)]), SolveResult::Unsat);
        assert_eq!(s.unsat_core(), &[lit(-2)]);
        // Still satisfiable afterwards (incremental reuse).
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn core_contains_only_relevant_assumptions() {
        let mut s = Solver::new();
        // x1 and x2 conflict via the clause (¬1 ∨ ¬2); x3 is irrelevant.
        s.add_clause([lit(-1), lit(-2)]);
        s.ensure_vars(3);
        let res = s.solve_with_assumptions(&[lit(1), lit(3), lit(2)]);
        assert_eq!(res, SolveResult::Unsat);
        let core = s.unsat_core().to_vec();
        assert!(core.contains(&lit(1)) || core.contains(&lit(2)));
        assert!(!core.contains(&lit(3)));
        assert!(core.len() <= 2);
    }

    #[test]
    fn empty_core_when_unsat_without_assumptions() {
        let mut s = Solver::new();
        s.add_clause([lit(1)]);
        s.add_clause([lit(-1)]);
        assert_eq!(s.solve_with_assumptions(&[lit(2)]), SolveResult::Unsat);
        assert!(s.unsat_core().is_empty());
    }

    /// A fixed σ-style assumption prefix plus one "selector" assumption per
    /// soft group. The final
    /// conflict core must name only the selectors actually involved, stay a
    /// subset of the assumptions, and keep doing so across incremental calls
    /// that share the σ prefix (assumption-prefix trail reuse).
    #[test]
    fn selector_assumption_cores_name_only_involved_groups() {
        let mut s = Solver::new();
        // Groups: selector s_i enforces x_i (clause ¬s_i ∨ x_i); σ pins
        // disable x1 and x2 via ¬x1, ¬x2 while x3 stays free.
        let (x1, x2, x3) = (lit(1), lit(2), lit(3));
        let (s1, s2, s3) = (lit(4), lit(5), lit(6));
        s.add_clause([!s1, x1]);
        s.add_clause([!s2, x2]);
        s.add_clause([!s3, x3]);
        let sigma = [!x1, !x2];
        // All selectors on: UNSAT, and the core pairs a σ literal with its
        // selector — never the irrelevant s3.
        let mut assumptions: Vec<Lit> = sigma.to_vec();
        assumptions.extend([s1, s2, s3]);
        assert_eq!(s.solve_with_assumptions(&assumptions), SolveResult::Unsat);
        let core = s.unsat_core().to_vec();
        assert!(core.iter().all(|l| assumptions.contains(l)));
        assert!(core.contains(&s1) || core.contains(&s2));
        assert!(!core.contains(&s3));
        // Retract the blamed selector (a core relaxation step) and
        // re-solve on the shared σ prefix: the next core blames the other
        // group, with the prefix levels carried over instead of re-decided.
        let blamed = if core.contains(&s1) { s1 } else { s2 };
        let other = if blamed == s1 { s2 } else { s1 };
        let reused_before = s.stats().reused_levels;
        let mut retracted: Vec<Lit> = sigma.to_vec();
        retracted.extend([other, s3]);
        assert_eq!(s.solve_with_assumptions(&retracted), SolveResult::Unsat);
        assert!(s.stats().reused_levels > reused_before);
        let second = s.unsat_core().to_vec();
        assert!(second.contains(&other));
        assert!(!second.contains(&blamed) && !second.contains(&s3));
        // With both conflicting groups retracted the instance is SAT and s3
        // is honoured.
        assert_eq!(s.solve_with_assumptions(&[!x1, !x2, s3]), SolveResult::Sat);
        assert_eq!(s.value(x3.var()), Some(true));
    }

    #[test]
    fn conflicting_assumptions_detected() {
        let mut s = Solver::new();
        s.ensure_vars(1);
        let res = s.solve_with_assumptions(&[lit(1), lit(-1)]);
        assert_eq!(res, SolveResult::Unsat);
        assert!(!s.unsat_core().is_empty());
    }

    #[test]
    fn incremental_clause_addition() {
        let mut s = Solver::new();
        s.add_clause([lit(1), lit(2)]);
        assert_eq!(s.solve(), SolveResult::Sat);
        s.add_clause([lit(-1)]);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.value(Var::new(1)), Some(true));
        s.add_clause([lit(-2)]);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn duplicate_and_tautological_clauses_are_harmless() {
        let mut s = Solver::new();
        s.add_clause([lit(1), lit(1), lit(-1)]);
        s.add_clause([lit(2), lit(2)]);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.value(Var::new(1)), Some(true));
    }

    #[test]
    fn guarded_clauses_toggle_with_activations() {
        // Two generations of a definition x ↔ v, swapped via activations —
        // the idiom the verify session uses for candidate functions.
        let mut s = Solver::new();
        let x = s.new_var().positive();
        let gen1 = s.new_activation_lit();
        // Generation 1: x must be true.
        s.add_guarded_clause(gen1, [x]);
        assert_eq!(s.solve_with_assumptions(&[gen1]), SolveResult::Sat);
        assert_eq!(s.value(x.var()), Some(true));

        // Generation 2: x must be false; generation 1 is retired.
        let gen2 = s.new_activation_lit();
        s.add_guarded_clause(gen2, [!x]);
        s.retire_activation(gen1);
        assert_eq!(s.solve_with_assumptions(&[gen2]), SolveResult::Sat);
        assert_eq!(s.value(x.var()), Some(false));
    }

    #[test]
    fn guarded_clauses_report_cores_over_activations() {
        let mut s = Solver::new();
        let x = s.new_var().positive();
        let a1 = s.new_activation_lit();
        let a2 = s.new_activation_lit();
        s.add_guarded_clause(a1, [x]);
        s.add_guarded_clause(a2, [!x]);
        // Both generations active at once is contradictory; the core names
        // at least one activation.
        assert_eq!(s.solve_with_assumptions(&[a1, a2]), SolveResult::Unsat);
        let core = s.unsat_core().to_vec();
        assert!(core.contains(&a1) || core.contains(&a2));
        // Each generation on its own is fine.
        assert_eq!(s.solve_with_assumptions(&[a1]), SolveResult::Sat);
        assert_eq!(s.solve_with_assumptions(&[a2]), SolveResult::Sat);
    }

    #[test]
    fn stats_are_updated() {
        let mut s = Solver::new();
        s.add_clause([lit(1), lit(2)]);
        s.add_clause([lit(-1), lit(2)]);
        s.add_clause([lit(1), lit(-2)]);
        let _ = s.solve();
        let stats = s.stats();
        assert!(stats.decisions + stats.propagations > 0);
    }

    /// Builds an unsatisfiable pigeonhole instance with `holes + 1` pigeons.
    fn pigeonhole(holes: usize, config: SolverConfig) -> Solver {
        let var = |i: usize, j: usize| Var::new((i * holes + j) as u32);
        let mut s = Solver::with_config(config);
        for i in 0..=holes {
            let clause: Vec<Lit> = (0..holes).map(|j| var(i, j).positive()).collect();
            s.add_clause(clause);
        }
        for j in 0..holes {
            for i1 in 0..=holes {
                for i2 in (i1 + 1)..=holes {
                    s.add_clause([var(i1, j).negative(), var(i2, j).negative()]);
                }
            }
        }
        s
    }

    #[test]
    fn cancelled_token_preempts_the_solve_call() {
        use crate::CancelToken;
        let token = CancelToken::new();
        let mut s = Solver::with_config(SolverConfig::default().with_cancel(token.clone()));
        s.add_clause([lit(1), lit(2)]);
        token.cancel();
        // Even a trivially satisfiable formula reports Unknown once the
        // token is cancelled: a loser in a portfolio race must not keep
        // producing (and acting on) verdicts.
        assert_eq!(s.solve(), SolveResult::Unknown);
    }

    #[test]
    fn cancellation_interrupts_a_long_search() {
        use crate::CancelToken;
        use std::time::{Duration, Instant};
        // A pigeonhole instance far beyond what the test environment can
        // refute quickly; without cancellation this solve would run for a
        // very long time.
        let token = CancelToken::new();
        let mut s = pigeonhole(9, SolverConfig::default().with_cancel(token.clone()));
        let canceller = std::thread::spawn({
            let token = token.clone();
            move || {
                std::thread::sleep(Duration::from_millis(20));
                token.cancel();
            }
        });
        let start = Instant::now();
        assert_eq!(s.solve(), SolveResult::Unknown);
        assert!(
            start.elapsed() < Duration::from_secs(20),
            "cancellation did not interrupt the search"
        );
        canceller.join().expect("canceller thread");
        // The solver remains usable: the cancelled call left no residue.
        assert!(!s.is_known_unsat());
    }

    #[test]
    fn simplify_frees_retired_activation_clauses() {
        let mut s = Solver::new();
        let x = s.new_var().positive();
        let mut retired = Vec::new();
        for generation in 0..50 {
            let a = s.new_activation_lit();
            s.add_guarded_clause(a, [x]);
            s.add_guarded_clause(a, [!x, x]);
            assert_eq!(s.solve_with_assumptions(&[a]), SolveResult::Sat);
            s.retire_activation(a);
            retired.push(a);
            let _ = generation;
        }
        let before = s.num_clauses();
        s.simplify();
        let after = s.num_clauses();
        assert!(
            after < before / 10,
            "simplify kept {after} of {before} clauses despite every guard being retired"
        );
        // Retired guards stay retired and the solver stays correct.
        assert_eq!(s.solve_with_assumptions(&[retired[0]]), SolveResult::Unsat);
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    /// Builds the satisfiable "permutation" pigeonhole (equal pigeons and
    /// holes): the solver learns plenty of clauses on the way to a model.
    fn permutation_instance(holes: usize, config: SolverConfig) -> Solver {
        let var = |i: usize, j: usize| Var::new((i * holes + j) as u32);
        let mut s = Solver::with_config(config);
        for i in 0..holes {
            let clause: Vec<Lit> = (0..holes).map(|j| var(i, j).positive()).collect();
            s.add_clause(clause);
        }
        for j in 0..holes {
            for i1 in 0..holes {
                for i2 in (i1 + 1)..holes {
                    s.add_clause([var(i1, j).negative(), var(i2, j).negative()]);
                }
            }
        }
        s
    }

    #[test]
    fn reduce_learnt_db_shrinks_and_preserves_correctness() {
        let mut s = permutation_instance(
            7,
            SolverConfig {
                first_reduce_db: 100_000, // keep the automatic reduction out of the way
                ..SolverConfig::default()
            },
        );
        assert_eq!(s.solve(), SolveResult::Sat);
        let learnts_before = s.stats().learnt_clauses;
        s.reduce_learnt_db();
        // Glue ≤ 2 clauses are protected under the LBD policy, so the bound
        // allows for them on top of the halving target.
        let stats = s.stats();
        assert!(
            stats.learnt_clauses <= learnts_before.div_ceil(2) + stats.glue2_clauses + 1,
            "kept {} of {learnts_before} learnt clauses ({} glue ≤ 2)",
            stats.learnt_clauses,
            stats.glue2_clauses
        );
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    /// Satellite regression: reduction mid-incremental-solve with a live
    /// assumption trail must preserve the trail (no backtrack to level 0)
    /// and never delete a clause that is the reason of a trail literal.
    #[test]
    fn reduce_learnt_db_keeps_reasons_of_live_assumption_trail() {
        let holes = 7;
        let mut s = permutation_instance(
            holes,
            SolverConfig {
                first_reduce_db: 100_000,
                ..SolverConfig::default()
            },
        );
        // All-true phases make every at-most-one clause conflict, so the
        // solve is guaranteed to learn clauses.
        for v in 0..s.num_vars() {
            s.set_phase(Var::new(v as u32), true);
        }
        // A deep assumption prefix: pin pigeon i to hole i for a few rows.
        let assumptions: Vec<Lit> = (0..3)
            .map(|i| Var::new((i * holes + i) as u32).positive())
            .collect();
        assert_eq!(s.solve_with_assumptions(&assumptions), SolveResult::Sat);
        assert!(s.decision_level() >= assumptions.len());
        assert!(s.stats().learnt_clauses > 0);
        let trail_before = s.trail.len();

        s.reduce_learnt_db();

        // The assumption trail survived the reduction…
        assert_eq!(s.trail.len(), trail_before);
        assert!(s.decision_level() >= assumptions.len());
        // …and every trail literal's reason clause is live with the
        // propagated literal still in slot 0.
        for &l in &s.trail {
            if let Some(reason) = s.reasons[l.var().index()] {
                assert!(!s.arena.is_deleted(reason), "reason clause was deleted");
                assert_eq!(s.arena.lit(reason, 0), l, "reason slot 0 moved");
            }
        }
        // The next call on the same prefix reuses the kept levels and agrees
        // with a fresh solver.
        let reused_before = s.stats().reused_levels;
        let mut extended = assumptions.clone();
        extended.push(Var::new((3 * holes + 3) as u32).positive());
        let got = s.solve_with_assumptions(&extended);
        assert!(s.stats().reused_levels >= reused_before + assumptions.len() as u64);
        let mut fresh = permutation_instance(holes, SolverConfig::default());
        assert_eq!(got, fresh.solve_with_assumptions(&extended));
    }

    /// Arena GC is observable: churning guarded clauses through retirement
    /// and simplification must trigger at least one compaction and shrink
    /// the live size back down.
    #[test]
    fn simplify_churn_triggers_arena_collection() {
        let mut s = Solver::new();
        let x = s.new_var().positive();
        for round in 0..40 {
            let a = s.new_activation_lit();
            for k in 0..8 {
                let extra = s.new_var().positive();
                s.add_guarded_clause(a, [x, extra, !x]);
                s.add_guarded_clause(a, [if k % 2 == 0 { x } else { !x }, extra]);
            }
            assert_eq!(s.solve_with_assumptions(&[a]), SolveResult::Sat);
            s.retire_activation(a);
            s.simplify();
            let _ = round;
        }
        let stats = s.stats();
        assert!(
            stats.arena_collections >= 1,
            "no arena compaction despite heavy clause churn"
        );
        assert!(
            stats.arena_live_words < 1_000,
            "arena live size unbounded: {} words",
            stats.arena_live_words
        );
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn maintain_keeps_the_clause_lists_consistent() {
        let mut s = permutation_instance(6, SolverConfig::default());
        assert_eq!(s.solve(), SolveResult::Sat);
        s.maintain();
        assert_eq!(s.solve(), SolveResult::Sat);
        for &cref in &s.learnt_refs {
            assert!(s.arena.is_learnt(cref));
        }
        for &cref in &s.clause_refs {
            assert!(!s.arena.is_deleted(cref));
        }
    }

    #[test]
    fn assumption_prefix_reuse_keeps_levels_and_verdicts() {
        let mut s = Solver::new();
        // A chain with free tail variables so assumptions matter.
        s.add_clause([lit(-1), lit(2)]);
        s.add_clause([lit(-2), lit(3)]);
        s.add_clause([lit(4), lit(5)]);
        let prefix = [lit(1), lit(3)];
        assert_eq!(
            s.solve_with_assumptions(&[lit(1), lit(3), lit(4)]),
            SolveResult::Sat
        );
        let before = s.stats().reused_levels;
        assert_eq!(
            s.solve_with_assumptions(&[lit(1), lit(3), lit(-4)]),
            SolveResult::Sat
        );
        // The two shared prefix levels were carried over, not re-decided.
        assert_eq!(s.stats().reused_levels, before + prefix.len() as u64);
        assert_eq!(s.value(Var::new(3)), Some(false));
        // A diverging first assumption falls back to a fresh start…
        assert_eq!(
            s.solve_with_assumptions(&[lit(-1), lit(4)]),
            SolveResult::Sat
        );
        // …and adding a clause abandons the kept trail entirely.
        s.add_clause([lit(-4)]);
        let at_reset = s.stats().reused_levels;
        assert_eq!(
            s.solve_with_assumptions(&[lit(-1), lit(5)]),
            SolveResult::Sat
        );
        assert_eq!(s.stats().reused_levels, at_reset);
        assert_eq!(s.value(Var::new(4)), Some(true));
    }

    /// Randomized incremental-vs-fresh equivalence: a long sequence of
    /// assumption solves on one solver (sharing prefixes, interleaved with
    /// clause additions and maintenance passes) must produce exactly the
    /// verdicts of a fresh solver per query, with models satisfying the
    /// formula.
    #[test]
    fn incremental_assumption_sequences_match_fresh_solvers() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(0x17C4_E11A);
        for round in 0..25 {
            let num_vars = 6;
            let mut cnf = Cnf::new(num_vars);
            let mut incremental = Solver::new();
            for _ in 0..rng.gen_range(3..10) {
                let len = rng.gen_range(1..=3);
                let clause: Vec<Lit> = (0..len)
                    .map(|_| Lit::new(Var::new(rng.gen_range(0..num_vars) as u32), rng.gen()))
                    .collect();
                cnf.add_clause(clause.clone());
                incremental.add_clause(clause);
            }
            // A sticky prefix re-rolled occasionally, so consecutive queries
            // share assumption prefixes the way a MaxSAT descent does.
            let mut prefix: Vec<Lit> = Vec::new();
            for query in 0..40 {
                if query % 7 == 0 {
                    prefix = (0..rng.gen_range(0..4))
                        .map(|_| Lit::new(Var::new(rng.gen_range(0..num_vars) as u32), rng.gen()))
                        .collect();
                }
                if query % 11 == 10 {
                    // Mid-sequence clause growth must stay sound.
                    let clause: Vec<Lit> = (0..rng.gen_range(1..=3))
                        .map(|_| Lit::new(Var::new(rng.gen_range(0..num_vars) as u32), rng.gen()))
                        .collect();
                    cnf.add_clause(clause.clone());
                    incremental.add_clause(clause);
                }
                if query % 13 == 12 {
                    // Maintenance mid-sequence must stay sound too.
                    incremental.maintain();
                }
                let mut assumptions = prefix.clone();
                assumptions.push(Lit::new(
                    Var::new(rng.gen_range(0..num_vars) as u32),
                    rng.gen(),
                ));
                let mut fresh = Solver::new();
                fresh.add_cnf(&cnf);
                fresh.ensure_vars(num_vars);
                let expected = fresh.solve_with_assumptions(&assumptions);
                let got = incremental.solve_with_assumptions(&assumptions);
                assert_eq!(got, expected, "round {round} query {query}");
                if got == SolveResult::Sat {
                    let model = incremental.model();
                    assert!(cnf.eval(&model), "round {round} query {query}: bad model");
                    for &a in &assumptions {
                        assert_eq!(
                            model.value(a.var()),
                            a.is_positive(),
                            "round {round} query {query}: assumption {a:?} violated"
                        );
                    }
                } else {
                    // The core must be a subset of the assumptions.
                    let core = incremental.unsat_core().to_vec();
                    assert!(core.iter().all(|l| assumptions.contains(l)));
                }
            }
        }
    }

    /// After the 1e100 activity rescale the next decision is the variable
    /// with the highest *current* activity. An order that kept ranking
    /// variables by their pre-rescale scores would pick `early` here: its
    /// one bump, just below the threshold, outweighs `late`'s bump only on
    /// the old scale.
    #[test]
    fn decision_after_activity_rescale_follows_current_activities() {
        let mut s = Solver::new();
        let early = s.new_var();
        let late = s.new_var();
        while s.var_inc < 1e99 {
            s.decay_activities();
        }
        s.bump_var(early);
        while s.var_inc <= 1e100 {
            s.decay_activities();
        }
        let inc = s.var_inc;
        s.bump_var(late);
        assert!(s.var_inc < inc, "the bump rescaled all activities");
        assert!(s.activities[late.index()] > s.activities[early.index()]);
        assert_eq!(s.pick_branch_lit().map(Lit::var), Some(late));
    }

    /// Brute-force reference check on random 3-CNF formulas.
    #[test]
    fn agrees_with_brute_force_on_random_formulas() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(0xC0FFEE);
        for round in 0..60 {
            let num_vars = 3 + (round % 6);
            let num_clauses = 2 + rng.gen_range(0..(num_vars * 4));
            let mut cnf = Cnf::new(num_vars);
            for _ in 0..num_clauses {
                let len = rng.gen_range(1..=3);
                let mut clause = Vec::new();
                for _ in 0..len {
                    let v = rng.gen_range(0..num_vars) as u32;
                    clause.push(Lit::new(Var::new(v), rng.gen()));
                }
                cnf.add_clause(clause);
            }
            let brute_sat = (0..1u32 << num_vars).any(|bits| {
                let a =
                    Assignment::from_values((0..num_vars).map(|i| bits >> i & 1 == 1).collect());
                cnf.eval(&a)
            });
            let mut s = Solver::new();
            s.add_cnf(&cnf);
            let res = s.solve();
            assert_eq!(
                res,
                if brute_sat {
                    SolveResult::Sat
                } else {
                    SolveResult::Unsat
                },
                "disagreement on round {round}"
            );
            if res == SolveResult::Sat {
                assert!(cnf.eval(&s.model()));
            }
        }
    }
}
