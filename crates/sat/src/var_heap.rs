//! The VSIDS variable order: an indexed binary max-heap over variables.
//!
//! The heap holds each variable at most once and records where, so the
//! solver can raise a variable's key in place after a bump instead of
//! pushing a duplicate. Priorities are read from the caller's activity
//! slice at every comparison; the heap stores no activity of its own, so it
//! can never rank a variable by a stale score.

use manthan3_cnf::Var;

/// The position of a variable that is not in the heap.
const ABSENT: u32 = u32::MAX;

/// An indexed binary max-heap over variables, ordered by activity with the
/// larger variable first among equal activities.
#[derive(Debug, Clone, Default)]
pub(crate) struct VarHeap {
    /// The heap array: `heap[0]` is the highest-priority variable.
    heap: Vec<Var>,
    /// `positions[v]` is the index of `v` in `heap`, or [`ABSENT`].
    positions: Vec<u32>,
}

/// Whether `a` goes before `b`: higher activity first, and on equal
/// activity the larger variable first.
fn before(activities: &[f64], a: Var, b: Var) -> bool {
    let (x, y) = (activities[a.index()], activities[b.index()]);
    x > y || (x == y && a > b)
}

impl VarHeap {
    /// Registers the next variable (`v` must be the number of variables
    /// registered so far) and inserts it.
    pub(crate) fn add_var(&mut self, v: Var, activities: &[f64]) {
        debug_assert_eq!(v.index(), self.positions.len());
        self.positions.push(ABSENT);
        self.insert(v, activities);
    }

    /// Whether `v` is in the heap.
    fn contains(&self, v: Var) -> bool {
        self.positions[v.index()] != ABSENT
    }

    /// Inserts `v` unless it is already in the heap.
    pub(crate) fn insert(&mut self, v: Var, activities: &[f64]) {
        if self.contains(v) {
            return;
        }
        self.positions[v.index()] = self.heap.len() as u32;
        self.heap.push(v);
        self.percolate_up(self.heap.len() - 1, activities);
    }

    /// Restores the order after `v`'s activity rose; a no-op when `v` is not
    /// in the heap.
    pub(crate) fn increase(&mut self, v: Var, activities: &[f64]) {
        let pos = self.positions[v.index()];
        if pos != ABSENT {
            self.percolate_up(pos as usize, activities);
        }
    }

    /// Removes and returns the highest-priority variable.
    pub(crate) fn pop(&mut self, activities: &[f64]) -> Option<Var> {
        let top = *self.heap.first()?;
        let last = self.heap.pop()?;
        self.positions[top.index()] = ABSENT;
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.positions[last.index()] = 0;
            self.percolate_down(0, activities);
        }
        Some(top)
    }

    /// Restores the heap order over the current contents after activities
    /// changed arbitrarily (e.g. all rescaled, which can merge distinct
    /// activities into ties).
    pub(crate) fn rebuild(&mut self, activities: &[f64]) {
        for i in (0..self.heap.len() / 2).rev() {
            self.percolate_down(i, activities);
        }
    }

    fn percolate_up(&mut self, mut i: usize, activities: &[f64]) {
        let v = self.heap[i];
        while i > 0 {
            let parent = (i - 1) / 2;
            let p = self.heap[parent];
            if !before(activities, v, p) {
                break;
            }
            self.heap[i] = p;
            self.positions[p.index()] = i as u32;
            i = parent;
        }
        self.heap[i] = v;
        self.positions[v.index()] = i as u32;
    }

    fn percolate_down(&mut self, mut i: usize, activities: &[f64]) {
        let v = self.heap[i];
        let len = self.heap.len();
        loop {
            let left = 2 * i + 1;
            if left >= len {
                break;
            }
            let right = left + 1;
            let child = if right < len && before(activities, self.heap[right], self.heap[left]) {
                right
            } else {
                left
            };
            let c = self.heap[child];
            if !before(activities, c, v) {
                break;
            }
            self.heap[i] = c;
            self.positions[c.index()] = i as u32;
            i = child;
        }
        self.heap[i] = v;
        self.positions[v.index()] = i as u32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Checks that `positions` and the heap slots name each other, and that
    /// every slot is ordered no later than its children.
    fn assert_consistent(heap: &VarHeap, activities: &[f64]) {
        for (i, &v) in heap.heap.iter().enumerate() {
            assert_eq!(heap.positions[v.index()], i as u32, "slot {i} holds {v:?}");
            if i > 0 {
                let parent = heap.heap[(i - 1) / 2];
                assert!(!before(activities, v, parent), "{v:?} above its parent");
            }
        }
        let present = heap.positions.iter().filter(|&&p| p != ABSENT).count();
        assert_eq!(present, heap.heap.len(), "positions name absent slots");
    }

    const VARS: u32 = 24;

    proptest! {
        /// Random inserts, bumps, pops and rescale-then-rebuild steps keep
        /// the heap consistent, and every pop returns the brute-force
        /// maximum of the contents under (activity, larger variable).
        #[test]
        fn pops_match_brute_force_maximum(
            ops in collection::vec((0u8..4, 0..VARS, 0u32..4), 1..300),
        ) {
            let mut activities = vec![0.0f64; VARS as usize];
            let mut heap = VarHeap::default();
            let mut members = vec![true; VARS as usize];
            for i in 0..VARS {
                heap.add_var(Var::new(i), &activities);
            }
            for (op, var, amount) in ops {
                let v = Var::new(var);
                match op {
                    0 => {
                        heap.insert(v, &activities);
                        members[v.index()] = true;
                    }
                    1 => {
                        // Small integral steps make equal activities common,
                        // so the tie-break is exercised.
                        activities[v.index()] += f64::from(amount);
                        heap.increase(v, &activities);
                    }
                    2 => {
                        // The order of the lazy heap this one replaced:
                        // (activity, variable), largest first.
                        let want = (0..VARS)
                            .map(Var::new)
                            .filter(|u| members[u.index()])
                            .max_by(|a, b| {
                                activities[a.index()]
                                    .total_cmp(&activities[b.index()])
                                    .then(a.cmp(b))
                            });
                        let got = heap.pop(&activities);
                        prop_assert_eq!(got, want);
                        if let Some(u) = got {
                            members[u.index()] = false;
                        }
                    }
                    _ => {
                        for a in &mut activities {
                            *a *= 1e-100;
                        }
                        heap.rebuild(&activities);
                    }
                }
                for u in 0..VARS {
                    prop_assert_eq!(heap.contains(Var::new(u)), members[u as usize]);
                }
                assert_consistent(&heap, &activities);
            }
        }
    }

    #[test]
    fn rebuild_restores_order_after_arbitrary_changes() {
        let mut activities = vec![0.0; 8];
        let mut heap = VarHeap::default();
        for i in 0..8 {
            heap.add_var(Var::new(i), &activities);
        }
        activities = vec![3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
        heap.rebuild(&activities);
        assert_consistent(&heap, &activities);
        let order: Vec<u32> = std::iter::from_fn(|| heap.pop(&activities))
            .map(|v| v.index() as u32)
            .collect();
        assert_eq!(order, [5, 7, 4, 2, 0, 6, 3, 1]);
    }
}
