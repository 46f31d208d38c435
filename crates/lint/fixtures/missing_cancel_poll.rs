//! Entry points with and without a reachable cancellation poll.

pub struct Token;

impl Token {
    pub fn is_cancelled(&self) -> bool {
        false
    }
}

fn helper_that_polls(token: &Token) -> bool {
    token.is_cancelled()
}

pub fn solve_with_poll(token: &Token) -> bool {
    helper_that_polls(token)
}

pub fn solve_without_poll(iterations: u64) -> u64 {
    let mut acc = 0;
    for i in 0..iterations {
        acc += i;
    }
    acc
}

pub fn synthesize_without_poll(rounds: u64) -> u64 {
    solve_without_poll(rounds)
}

pub fn check(iterations: u64) -> u64 {
    // Never polls; the `check` in `polling_namesake.rs` does, out of scope.
    solve_without_poll(iterations)
}

pub fn solver_config() -> u32 {
    // Not an entry point: `solver` does not word-boundary-match `solve`.
    0
}
