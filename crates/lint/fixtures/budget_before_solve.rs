//! Budget admission before solver invocations: checked and unchecked paths.

pub struct Engine;

impl Engine {
    fn exhausted(&self) -> bool {
        false
    }

    fn solve_with_assumptions(&mut self, _assumptions: &[i32]) -> bool {
        true
    }

    // Fires: the solver invocation is reachable with no admission check on
    // any path.
    pub fn solve_unchecked(&mut self) -> bool {
        self.solve_with_assumptions(&[])
    }

    // Clean: the check dominates the invocation.
    pub fn solve_checked(&mut self) -> bool {
        if self.exhausted() {
            return false;
        }
        self.solve_with_assumptions(&[])
    }

    // Fires: the check happens on the `retry` branch only; the fall-through
    // path reaches the solver unchecked.
    pub fn solve_branchy(&mut self, retry: bool) -> bool {
        if retry {
            self.exhausted();
        }
        self.solve_with_assumptions(&[])
    }

    // Fires: the check comes only after the invocation. An admission check
    // covers a solve from before it, never from after.
    pub fn solve_checked_late(&mut self) -> bool {
        let sat = self.solve_with_assumptions(&[]);
        self.exhausted();
        sat
    }

    fn admit(&self) -> bool {
        !self.exhausted()
    }

    // Clean: `admit` checks on every path, so the call to it counts as a
    // check here.
    pub fn solve_admitted(&mut self) -> bool {
        if !self.admit() {
            return false;
        }
        self.solve_with_assumptions(&[])
    }
}
