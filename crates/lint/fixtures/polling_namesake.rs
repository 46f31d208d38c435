//! An out-of-scope `check` that polls, named like the poll-free `check`
//! entry point of `missing_cancel_poll.rs`.

pub struct Token;

impl Token {
    pub fn is_cancelled(&self) -> bool {
        false
    }
}

fn check(token: &Token) -> bool {
    token.is_cancelled()
}
