//! A flat clause arena: every clause of the solver lives in one contiguous
//! `u32` buffer instead of a per-clause heap allocation.
//!
//! Each clause is laid out as three header words followed by its literal
//! codes:
//!
//! ```text
//! word 0   size (bits 0..29) | learnt (bit 29) | deleted (bit 30) | relocated (bit 31)
//! word 1   LBD ("glue": distinct decision levels at learn time, updated on use)
//! word 2   activity as f32 bits
//! word 3…  literal codes (MiniSat encoding, one word per literal)
//! ```
//!
//! A [`ClauseRef`] is the word offset of a clause header, so dereferencing a
//! literal is a single bounds-checked index into the buffer — propagation
//! walks cache-local memory instead of chasing `Vec<Lit>` pointers.
//!
//! Deletion only sets a header bit and books the clause's words as wasted;
//! the memory is reclaimed by [`ClauseArena::collect`], a compacting
//! copy-and-forward garbage collection pass the solver triggers once the
//! wasted fraction crosses a threshold. Collection stores a forwarding
//! pointer in each moved clause's old header, so the solver can remap its
//! watcher lists, reason pointers, and clause lists through the returned
//! [`Relocation`] without any auxiliary table.

use manthan3_cnf::Lit;

/// Number of header words preceding a clause's literals.
const HEADER_WORDS: u32 = 3;

const SIZE_BITS: u32 = 29;
const SIZE_MASK: u32 = (1 << SIZE_BITS) - 1;
const LEARNT_BIT: u32 = 1 << 29;
const DELETED_BIT: u32 = 1 << 30;
const RELOCATED_BIT: u32 = 1 << 31;

/// A reference to a clause: the word offset of its header in the arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClauseRef(u32);

/// The contiguous clause store. See the [module documentation](self) for the
/// memory layout.
#[derive(Debug, Clone, Default)]
pub struct ClauseArena {
    data: Vec<u32>,
    /// Words occupied by deleted clauses and shrunk-away literals, reclaimed
    /// by the next [`ClauseArena::collect`].
    wasted: usize,
    /// Number of compacting collections performed over the arena's lifetime.
    collections: u64,
}

impl ClauseArena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        ClauseArena::default()
    }

    /// Allocates a clause and returns its reference.
    ///
    /// # Panics
    ///
    /// Panics if `lits` is empty (unit and empty clauses are handled on the
    /// trail, never stored).
    pub fn alloc(&mut self, lits: &[Lit], learnt: bool) -> ClauseRef {
        assert!(!lits.is_empty(), "arena clauses have at least one literal");
        debug_assert!(lits.len() <= SIZE_MASK as usize);
        let cref = ClauseRef(self.data.len() as u32);
        let mut header = lits.len() as u32;
        if learnt {
            header |= LEARNT_BIT;
        }
        self.data.push(header);
        self.data.push(lits.len() as u32); // initial LBD upper bound: |C|
        self.data.push(0f32.to_bits());
        self.data.extend(lits.iter().map(|l| l.code() as u32));
        cref
    }

    #[inline]
    fn header(&self, cref: ClauseRef) -> u32 {
        self.data[cref.0 as usize]
    }

    /// Number of literals in the clause.
    #[inline]
    pub fn len(&self, cref: ClauseRef) -> usize {
        (self.header(cref) & SIZE_MASK) as usize
    }

    /// `true` if the arena holds no clause words at all.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The `i`-th literal of the clause.
    #[inline]
    pub fn lit(&self, cref: ClauseRef, i: usize) -> Lit {
        Lit::from_code(self.data[cref.0 as usize + HEADER_WORDS as usize + i] as usize)
    }

    /// The literal codes of the clause as a word slice (for iteration without
    /// per-literal bounds checks).
    #[inline]
    pub fn lit_codes(&self, cref: ClauseRef) -> &[u32] {
        let start = cref.0 as usize + HEADER_WORDS as usize;
        &self.data[start..start + self.len(cref)]
    }

    /// Swaps two literal positions of the clause.
    #[inline]
    pub fn swap_lits(&mut self, cref: ClauseRef, i: usize, j: usize) {
        let base = cref.0 as usize + HEADER_WORDS as usize;
        self.data.swap(base + i, base + j);
    }

    /// Removes the `i`-th literal by swapping the last literal into its place
    /// and shrinking the clause. The vacated word is booked as wasted.
    pub fn remove_lit(&mut self, cref: ClauseRef, i: usize) {
        let len = self.len(cref);
        debug_assert!(i < len && len > 1);
        self.swap_lits(cref, i, len - 1);
        let h = self.header(cref);
        self.data[cref.0 as usize] = (h & !SIZE_MASK) | (len as u32 - 1);
        self.wasted += 1;
    }

    /// `true` if the clause was allocated as a learnt clause.
    #[inline]
    pub fn is_learnt(&self, cref: ClauseRef) -> bool {
        self.header(cref) & LEARNT_BIT != 0
    }

    /// `true` if the clause has been deleted (awaiting collection).
    #[inline]
    pub fn is_deleted(&self, cref: ClauseRef) -> bool {
        self.header(cref) & DELETED_BIT != 0
    }

    /// Marks the clause deleted and books its header and literals as wasted.
    pub fn delete(&mut self, cref: ClauseRef) {
        debug_assert!(!self.is_deleted(cref));
        self.data[cref.0 as usize] |= DELETED_BIT;
        self.wasted += HEADER_WORDS as usize + self.len(cref);
    }

    /// The clause's literal-block distance (glue), as stored.
    #[inline]
    pub fn lbd(&self, cref: ClauseRef) -> u32 {
        self.data[cref.0 as usize + 1]
    }

    /// Updates the stored glue.
    #[inline]
    pub fn set_lbd(&mut self, cref: ClauseRef, lbd: u32) {
        self.data[cref.0 as usize + 1] = lbd;
    }

    /// The clause's activity.
    #[inline]
    pub fn activity(&self, cref: ClauseRef) -> f32 {
        f32::from_bits(self.data[cref.0 as usize + 2])
    }

    /// Sets the clause's activity.
    #[inline]
    pub fn set_activity(&mut self, cref: ClauseRef, activity: f32) {
        self.data[cref.0 as usize + 2] = activity.to_bits();
    }

    /// Total words currently allocated (live + wasted).
    pub fn words(&self) -> usize {
        self.data.len()
    }

    /// Words occupied by deleted clauses and shrunk-away literals.
    pub fn wasted_words(&self) -> usize {
        self.wasted
    }

    /// Words occupied by live clauses.
    pub fn live_words(&self) -> usize {
        self.data.len() - self.wasted
    }

    /// Fraction of the arena occupied by garbage, in `0.0..=1.0`.
    pub fn wasted_fraction(&self) -> f64 {
        if self.data.is_empty() {
            0.0
        } else {
            self.wasted as f64 / self.data.len() as f64
        }
    }

    /// Number of compacting collections performed so far.
    pub fn collections(&self) -> u64 {
        self.collections
    }

    /// Compacts the arena: copies every live clause referenced by `live`
    /// (in order) into a fresh buffer and returns a [`Relocation`] mapping
    /// old references to new ones. References not listed in `live` (deleted
    /// clauses) forward to `None`.
    ///
    /// The caller must pass each live clause exactly once and afterwards
    /// remap every stored [`ClauseRef`] (clause lists, watcher lists, reason
    /// pointers) through the relocation.
    pub fn collect<I>(&mut self, live: I) -> Relocation
    where
        I: IntoIterator<Item = ClauseRef>,
    {
        let mut old = std::mem::take(&mut self.data);
        self.data = Vec::with_capacity(old.len() - self.wasted.min(old.len()));
        for cref in live {
            let at = cref.0 as usize;
            debug_assert_eq!(old[at] & (DELETED_BIT | RELOCATED_BIT), 0);
            let len = (old[at] & SIZE_MASK) as usize;
            let new_ref = self.data.len() as u32;
            self.data
                .extend_from_slice(&old[at..at + HEADER_WORDS as usize + len]);
            // Leave a forwarding pointer in the old header: the relocated bit
            // plus the new offset in the (now unused) LBD slot.
            old[at] |= RELOCATED_BIT;
            old[at + 1] = new_ref;
        }
        self.wasted = 0;
        self.collections += 1;
        Relocation { old }
    }
}

/// The old→new reference mapping produced by one [`ClauseArena::collect`]
/// pass.
#[derive(Debug)]
pub struct Relocation {
    old: Vec<u32>,
}

impl Relocation {
    /// The new reference of `cref`, or `None` if the clause was deleted (not
    /// part of the live set).
    #[inline]
    pub fn forward(&self, cref: ClauseRef) -> Option<ClauseRef> {
        let header = self.old[cref.0 as usize];
        if header & RELOCATED_BIT != 0 {
            Some(ClauseRef(self.old[cref.0 as usize + 1]))
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use manthan3_cnf::Var;

    fn lits(ds: &[i64]) -> Vec<Lit> {
        ds.iter().map(|&d| Lit::from_dimacs(d)).collect()
    }

    #[test]
    fn alloc_roundtrips_literals_and_flags() {
        let mut a = ClauseArena::new();
        let c1 = a.alloc(&lits(&[1, -2, 3]), false);
        let c2 = a.alloc(&lits(&[-4, 5]), true);
        assert_eq!(a.len(c1), 3);
        assert_eq!(a.lit(c1, 1), Lit::from_dimacs(-2));
        assert!(!a.is_learnt(c1));
        assert!(a.is_learnt(c2));
        assert_eq!(a.lbd(c2), 2);
        a.set_lbd(c2, 1);
        assert_eq!(a.lbd(c2), 1);
        a.set_activity(c2, 2.5);
        assert!((a.activity(c2) - 2.5).abs() < 1e-6);
        assert_eq!(
            a.lit_codes(c1),
            &[
                Lit::from_dimacs(1).code() as u32,
                Lit::from_dimacs(-2).code() as u32,
                Lit::from_dimacs(3).code() as u32
            ]
        );
    }

    #[test]
    fn swap_and_remove_track_waste() {
        let mut a = ClauseArena::new();
        let c = a.alloc(&lits(&[1, 2, 3, 4]), false);
        a.swap_lits(c, 0, 3);
        assert_eq!(a.lit(c, 0), Lit::from_dimacs(4));
        a.remove_lit(c, 0);
        assert_eq!(a.len(c), 3);
        assert_eq!(a.wasted_words(), 1);
        // The removed slot was filled by the former last literal.
        let remaining: Vec<i64> = (0..3).map(|i| a.lit(c, i).to_dimacs()).collect();
        assert!(remaining.contains(&1) && remaining.contains(&2) && remaining.contains(&3));
    }

    #[test]
    fn delete_and_collect_compact_the_store() {
        let mut a = ClauseArena::new();
        let c1 = a.alloc(&lits(&[1, 2]), false);
        let c2 = a.alloc(&lits(&[3, 4, 5]), true);
        let c3 = a.alloc(&lits(&[-1, -2]), false);
        let before = a.words();
        a.delete(c2);
        assert!(a.wasted_fraction() > 0.0);
        let reloc = a.collect([c1, c3]);
        assert_eq!(a.collections(), 1);
        assert!(a.words() < before);
        assert_eq!(a.wasted_words(), 0);
        let n1 = reloc.forward(c1).expect("live clause forwards");
        let n3 = reloc.forward(c3).expect("live clause forwards");
        assert_eq!(reloc.forward(c2), None);
        assert_eq!(a.lit(n1, 0), Lit::from_dimacs(1));
        assert_eq!(a.lit(n3, 1), Lit::from_dimacs(-2));
        assert!(!a.is_learnt(n1));
    }

    #[test]
    fn collect_preserves_metadata() {
        let mut a = ClauseArena::new();
        let c = a.alloc(&lits(&[1, 2, 3]), true);
        a.set_lbd(c, 2);
        a.set_activity(c, 7.0);
        let filler = a.alloc(&lits(&[4, 5]), false);
        a.delete(filler);
        let reloc = a.collect([c]);
        let n = reloc.forward(c).unwrap();
        assert_eq!(a.lbd(n), 2);
        assert!((a.activity(n) - 7.0).abs() < 1e-6);
        assert!(a.is_learnt(n));
        assert_eq!(a.len(n), 3);
    }

    #[test]
    fn var_codes_fit_header_scheme() {
        // Sanity: literal codes are stored verbatim, so large variables
        // survive the arena roundtrip.
        let mut a = ClauseArena::new();
        let big = Var::new(1 << 20).positive();
        let c = a.alloc(&[big, !big], false);
        assert_eq!(a.lit(c, 0), big);
        assert_eq!(a.lit(c, 1), !big);
    }
}
