//! DIMACS CNF parsing and printing.
//!
//! The parser is tolerant: the `p cnf` header is optional (variable and
//! clause counts are then inferred), comment lines start with `c`, and
//! clauses may span multiple lines.

use crate::{Clause, Cnf, Lit};
use std::error::Error;
use std::fmt;

/// An error produced while parsing a DIMACS file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseDimacsError {
    line: usize,
    message: String,
}

impl ParseDimacsError {
    pub(crate) fn new(line: usize, message: impl Into<String>) -> Self {
        ParseDimacsError {
            line,
            message: message.into(),
        }
    }

    /// 1-based line number at which the error occurred.
    pub fn line(&self) -> usize {
        self.line
    }
}

impl fmt::Display for ParseDimacsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl Error for ParseDimacsError {}

/// Parses a DIMACS CNF string into a [`Cnf`].
///
/// # Errors
///
/// Returns [`ParseDimacsError`] if a token is not an integer, a literal's
/// variable is above [`Var::MAX_DIMACS`](crate::Var::MAX_DIMACS), or the
/// header is malformed.
///
/// # Examples
///
/// ```
/// use manthan3_cnf::dimacs::parse_dimacs;
/// let cnf = parse_dimacs("p cnf 3 2\n1 -2 0\n2 3 0\n")?;
/// assert_eq!(cnf.num_vars(), 3);
/// assert_eq!(cnf.num_clauses(), 2);
/// # Ok::<(), manthan3_cnf::ParseDimacsError>(())
/// ```
pub fn parse_dimacs(input: &str) -> Result<Cnf, ParseDimacsError> {
    let mut declared_vars: Option<usize> = None;
    let mut cnf = Cnf::new(0);
    let mut current: Vec<Lit> = Vec::new();

    for (lineno, raw_line) in input.lines().enumerate() {
        let lineno = lineno + 1;
        let line = raw_line.trim();
        if line.is_empty() || line.starts_with('c') || line.starts_with('%') {
            continue;
        }
        if line.starts_with('p') {
            let mut parts = line.split_whitespace();
            let _p = parts.next();
            match parts.next() {
                Some("cnf") => {}
                other => {
                    return Err(ParseDimacsError::new(
                        lineno,
                        format!("expected 'p cnf' header, found {other:?}"),
                    ))
                }
            }
            let nv: usize = parts
                .next()
                .and_then(|t| t.parse().ok())
                .ok_or_else(|| ParseDimacsError::new(lineno, "missing variable count"))?;
            declared_vars = Some(nv);
            continue;
        }
        for tok in line.split_whitespace() {
            let value: i64 = tok.parse().map_err(|_| {
                ParseDimacsError::new(lineno, format!("invalid literal token {tok:?}"))
            })?;
            if value == 0 {
                cnf.add_clause(current.drain(..));
            } else {
                current.push(Lit::try_from_dimacs(value).ok_or_else(|| {
                    ParseDimacsError::new(lineno, format!("literal {value} is out of range"))
                })?);
            }
        }
    }
    if !current.is_empty() {
        cnf.add_clause(current.drain(..));
    }
    if let Some(nv) = declared_vars {
        cnf.ensure_vars(nv);
    }
    Ok(cnf)
}

/// Writes a [`Cnf`] as a DIMACS string including the `p cnf` header.
///
/// # Examples
///
/// ```
/// use manthan3_cnf::dimacs::{parse_dimacs, write_dimacs};
/// let cnf = parse_dimacs("p cnf 2 1\n1 -2 0\n")?;
/// let text = write_dimacs(&cnf);
/// assert!(text.contains("p cnf 2 1"));
/// # Ok::<(), manthan3_cnf::ParseDimacsError>(())
/// ```
pub fn write_dimacs(cnf: &Cnf) -> String {
    let mut out = String::new();
    out.push_str(&format!("p cnf {} {}\n", cnf.num_vars(), cnf.num_clauses()));
    for clause in cnf.clauses() {
        push_clause(&mut out, clause);
    }
    out
}

pub(crate) fn push_clause(out: &mut String, clause: &Clause) {
    for lit in clause {
        out.push_str(&lit.to_dimacs().to_string());
        out.push(' ');
    }
    out.push_str("0\n");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Assignment, Var};

    #[test]
    fn parses_header_and_clauses() {
        let cnf = parse_dimacs("c comment\np cnf 4 2\n1 2 -3 0\n4 0\n").unwrap();
        assert_eq!(cnf.num_vars(), 4);
        assert_eq!(cnf.num_clauses(), 2);
        assert_eq!(cnf.clauses()[1].lits(), &[Lit::from_dimacs(4)]);
    }

    #[test]
    fn parses_without_header() {
        let cnf = parse_dimacs("1 -2 0 2 3 0").unwrap();
        assert_eq!(cnf.num_vars(), 3);
        assert_eq!(cnf.num_clauses(), 2);
    }

    #[test]
    fn clause_spanning_lines() {
        let cnf = parse_dimacs("p cnf 3 1\n1 2\n3 0\n").unwrap();
        assert_eq!(cnf.num_clauses(), 1);
        assert_eq!(cnf.clauses()[0].len(), 3);
    }

    #[test]
    fn trailing_clause_without_zero_is_kept() {
        let cnf = parse_dimacs("1 2 0\n-1 -2").unwrap();
        assert_eq!(cnf.num_clauses(), 2);
    }

    #[test]
    fn rejects_garbage_tokens() {
        let err = parse_dimacs("1 x 0").unwrap_err();
        assert_eq!(err.line(), 1);
        assert!(err.to_string().contains("invalid literal"));
        // Identifiers a literal cannot hold are errors, not wrapped or
        // truncated variables.
        for text in [
            "p cnf 1 1\n-2147483649 0\n",
            "p cnf 1 1\n4294967296 0\n",
            "p cnf 1 1\n-9223372036854775808 0\n",
        ] {
            let err = parse_dimacs(text).unwrap_err();
            assert_eq!(err.line(), 2, "{text:?}");
            assert!(err.to_string().contains("out of range"), "{err}");
        }
        // The largest identifier a literal can hold still parses.
        let cnf = parse_dimacs("2147483648 -2147483648 0\n").unwrap();
        assert_eq!(cnf.num_vars(), 1 << 31);
    }

    #[test]
    fn rejects_bad_header() {
        assert!(parse_dimacs("p wcnf 3 2\n").is_err());
    }

    #[test]
    fn roundtrip_preserves_semantics() {
        let text = "p cnf 3 3\n1 2 0\n-1 3 0\n-2 -3 0\n";
        let cnf = parse_dimacs(text).unwrap();
        let cnf2 = parse_dimacs(&write_dimacs(&cnf)).unwrap();
        assert_eq!(cnf.num_vars(), cnf2.num_vars());
        assert_eq!(cnf.num_clauses(), cnf2.num_clauses());
        // Same truth table over the declared variables.
        for bits in 0..8u32 {
            let a = Assignment::from_values((0..3).map(|i| bits >> i & 1 == 1).collect());
            assert_eq!(cnf.eval(&a), cnf2.eval(&a));
        }
        let _ = Var::new(0);
    }
}
