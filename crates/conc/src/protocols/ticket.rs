//! The job-index dispenser (`next_engine.fetch_add` in the portfolio):
//! workers claim the next job by incrementing a shared counter. The property: tickets are unique
//! and form `0..N` — which a *Relaxed* fetch_add already guarantees, since
//! only RMW atomicity is involved; the claimed job's data is published by
//! the spawning thread *before* the workers start (thread-spawn ordering),
//! not by this counter. This check is the proof cited by the `// ordering:`
//! comment at the fetch_add site.
//!
//! The broken variant increments non-atomically (load, then store v+1); the
//! checker must find a duplicate-ticket schedule.

use crate::model::{explore, Ctx, Exec, Ord, Report, System, Violation};

const NEXT: usize = 0;
const WORKERS: usize = 3;

#[derive(Clone, PartialEq, Eq, Hash)]
struct Ticket {
    broken: bool,
    pc: [u8; WORKERS],
    staged: [u64; WORKERS],
    ticket: [Option<u64>; WORKERS],
}

impl Ticket {
    fn new(broken: bool) -> Ticket {
        Ticket {
            broken,
            pc: [0; WORKERS],
            staged: [0; WORKERS],
            ticket: [None; WORKERS],
        }
    }
}

impl System for Ticket {
    fn threads(&self) -> usize {
        WORKERS
    }
    fn locs(&self) -> usize {
        1
    }
    fn done(&self, tid: usize) -> bool {
        self.pc[tid] >= 2
    }
    fn step(&mut self, tid: usize, ctx: &mut Ctx<'_>) {
        if !self.broken {
            // let index = next.fetch_add(1, Relaxed)
            self.ticket[tid] = Some(ctx.fetch_add(NEXT, 1, Ord::Relaxed));
            self.pc[tid] = 2;
            return;
        }
        match self.pc[tid] {
            0 => {
                self.staged[tid] = ctx.load(NEXT, Ord::Relaxed);
                self.pc[tid] = 1;
            }
            1 => {
                ctx.store(NEXT, self.staged[tid] + 1, Ord::Relaxed);
                self.ticket[tid] = Some(self.staged[tid]);
                self.pc[tid] = 2;
            }
            _ => unreachable!("stepped a finished worker"),
        }
    }
    fn invariant(&self, _exec: &Exec) -> Result<(), String> {
        for a in 0..WORKERS {
            for b in a + 1..WORKERS {
                if self.ticket[a].is_some() && self.ticket[a] == self.ticket[b] {
                    return Err(format!(
                        "workers {a} and {b} drew the same ticket {:?}",
                        self.ticket[a]
                    ));
                }
            }
        }
        Ok(())
    }
    fn finalize(&self, _exec: &Exec) -> Result<(), String> {
        let mut tickets: Vec<u64> = self.ticket.iter().map(|t| t.unwrap_or(u64::MAX)).collect();
        tickets.sort_unstable();
        let expected: Vec<u64> = (0..WORKERS as u64).collect();
        if tickets != expected {
            return Err(format!(
                "tickets not a permutation of 0..{WORKERS}: {tickets:?}"
            ));
        }
        Ok(())
    }
}

/// Relaxed fetch_add: tickets are exactly `0..N`, no duplicates.
pub fn check_correct() -> Result<Report, Violation> {
    explore(Ticket::new(false))
}

/// Non-atomic increment: the checker must find duplicate tickets.
pub fn check_broken() -> Result<Report, Violation> {
    explore(Ticket::new(true))
}
