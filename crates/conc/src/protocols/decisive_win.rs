//! The portfolio's first-decisive-result-wins handshake
//! (`crates/portfolio/src/lib.rs`): every engine that produces a decisive
//! result does `race_claimed.swap(true)` and treats `false` as having won
//! the race. The property: **exactly one** engine ever claims the win, no
//! matter the interleaving.
//!
//! The correct variant uses a *Relaxed* swap — RMW atomicity on the single
//! flag is all the protocol needs, because the winner's report travels to
//! the caller through its thread's `join`, not through this flag. The model
//! check here is the proof cited by the `// ordering:` comment at the
//! `race_claimed.swap` site.
//!
//! The broken variant replaces the swap with a load-then-store claim; the
//! checker must find the double-win schedule.

use crate::model::{explore, Ctx, Exec, Ord, Report, System, Violation};

const RACE: usize = 0;
const ENGINES: usize = 3;

#[derive(Clone, PartialEq, Eq, Hash)]
struct DecisiveWin {
    broken: bool,
    pc: [u8; ENGINES],
    saw_unclaimed: [bool; ENGINES],
    won: [bool; ENGINES],
}

impl DecisiveWin {
    fn new(broken: bool) -> DecisiveWin {
        DecisiveWin {
            broken,
            pc: [0; ENGINES],
            saw_unclaimed: [false; ENGINES],
            won: [false; ENGINES],
        }
    }
}

impl System for DecisiveWin {
    fn threads(&self) -> usize {
        ENGINES
    }
    fn locs(&self) -> usize {
        1
    }
    fn done(&self, tid: usize) -> bool {
        self.pc[tid] >= 2
    }
    fn step(&mut self, tid: usize, ctx: &mut Ctx<'_>) {
        if !self.broken {
            // claimed_win = !race_claimed.swap(true, Relaxed)
            self.won[tid] = ctx.swap(RACE, 1, Ord::Relaxed) == 0;
            self.pc[tid] = 2;
            return;
        }
        match self.pc[tid] {
            0 => {
                self.saw_unclaimed[tid] = ctx.load(RACE, Ord::Relaxed) == 0;
                if !self.saw_unclaimed[tid] {
                    self.pc[tid] = 2; // someone else already claimed
                    return;
                }
                self.pc[tid] = 1;
            }
            1 => {
                ctx.store(RACE, 1, Ord::Relaxed);
                self.won[tid] = true;
                self.pc[tid] = 2;
            }
            _ => unreachable!("stepped a finished engine"),
        }
    }
    fn invariant(&self, _exec: &Exec) -> Result<(), String> {
        let winners = self.won.iter().filter(|w| **w).count();
        if winners > 1 {
            return Err(format!("{winners} engines claimed the decisive win"));
        }
        Ok(())
    }
    fn finalize(&self, _exec: &Exec) -> Result<(), String> {
        let winners = self.won.iter().filter(|w| **w).count();
        if winners != 1 {
            return Err(format!("expected exactly one winner, got {winners}"));
        }
        Ok(())
    }
}

/// Relaxed swap: exactly one winner across all interleavings.
pub fn check_correct() -> Result<Report, Violation> {
    explore(DecisiveWin::new(false))
}

/// Load-then-store claim: the checker must find a two-winner schedule.
pub fn check_broken() -> Result<Report, Violation> {
    explore(DecisiveWin::new(true))
}
