//! DQDIMACS parsing and printing.
//!
//! DQDIMACS extends DIMACS with quantifier lines:
//!
//! * `a l1 l2 … 0` — universally quantified variables,
//! * `e l1 l2 … 0` — existentially quantified variables that depend on **all
//!   universals declared so far** (QBF-style),
//! * `d y x1 x2 … 0` — an existentially quantified variable `y` with the
//!   explicit Henkin dependency set `{x1, x2, …}`.
//!
//! A parsed formula always passes [`Dqbf::validate`]: a variable quantified
//! twice, a self-dependency, a dependency that is not universal and a
//! matrix variable that is not quantified are parse errors naming the line
//! that declares or uses the variable. Free variables are not implicitly
//! quantified.

use crate::{Dqbf, DqbfError};
use manthan3_cnf::{Lit, Var};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// An error produced while parsing a DQDIMACS file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseDqdimacsError {
    line: usize,
    message: String,
}

impl ParseDqdimacsError {
    fn new(line: usize, message: impl Into<String>) -> Self {
        ParseDqdimacsError {
            line,
            message: message.into(),
        }
    }

    fn invalid(line: usize, error: DqbfError) -> Self {
        ParseDqdimacsError::new(line, error.to_string())
    }

    /// 1-based line number at which the error occurred.
    pub fn line(&self) -> usize {
        self.line
    }
}

impl fmt::Display for ParseDqdimacsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl Error for ParseDqdimacsError {}

fn parse_vars(line: usize, tokens: &[&str]) -> Result<Vec<Var>, ParseDqdimacsError> {
    let mut out = Vec::new();
    for tok in tokens {
        let value: i64 = tok.parse().map_err(|_| {
            ParseDqdimacsError::new(line, format!("invalid variable token {tok:?}"))
        })?;
        if value == 0 {
            break;
        }
        if value < 0 {
            return Err(ParseDqdimacsError::new(
                line,
                "quantifier lines must list positive variable identifiers",
            ));
        }
        out.push(Var::try_from_dimacs(value.unsigned_abs()).ok_or_else(|| {
            ParseDqdimacsError::new(line, format!("variable {value} is out of range"))
        })?);
    }
    Ok(out)
}

/// Records `v` as quantified on `line` (`universal` or existential); a
/// variable quantified twice is an error.
fn quantify(
    quantified: &mut HashMap<Var, bool>,
    v: Var,
    universal: bool,
    line: usize,
) -> Result<(), ParseDqdimacsError> {
    match quantified.insert(v, universal) {
        Some(_) => Err(ParseDqdimacsError::invalid(
            line,
            DqbfError::DuplicateVariable(v),
        )),
        None => Ok(()),
    }
}

/// Parses a DQDIMACS string into a [`Dqbf`].
///
/// # Errors
///
/// Returns [`ParseDqdimacsError`] on malformed headers, quantifier lines or
/// clause literals, including variable identifiers above
/// [`Var::MAX_DIMACS`], and on every prefix that [`Dqbf::validate`] rejects.
///
/// # Examples
///
/// ```
/// use manthan3_dqbf::parse_dqdimacs;
/// let text = "p cnf 3 1\na 1 2 0\nd 3 1 0\n1 3 0\n";
/// let dqbf = parse_dqdimacs(text)?;
/// assert_eq!(dqbf.universals().len(), 2);
/// assert_eq!(dqbf.existentials().len(), 1);
/// # Ok::<(), manthan3_dqbf::ParseDqdimacsError>(())
/// ```
pub fn parse_dqdimacs(input: &str) -> Result<Dqbf, ParseDqdimacsError> {
    let mut dqbf = Dqbf::new();
    let mut current_clause: Vec<Lit> = Vec::new();
    // Every quantified variable, mapped to `true` for a universal.
    let mut quantified: HashMap<Var, bool> = HashMap::new();
    // `validate` accepts declarations in any order, so a dependency not yet
    // universal or a clause variable not yet quantified is only an error if
    // no later line quantifies it: (existential, dependency, line) and
    // (variable, line) are checked once the input is read.
    let mut pending_dependencies: Vec<(Var, Var, usize)> = Vec::new();
    let mut pending_variables: Vec<(Var, usize)> = Vec::new();
    for (lineno, raw_line) in input.lines().enumerate() {
        let lineno = lineno + 1;
        let line = raw_line.trim();
        if line.is_empty() || line.starts_with('c') || line.starts_with('%') {
            continue;
        }
        if let Some(rest) = line.strip_prefix("p ") {
            let mut parts = rest.split_whitespace();
            if parts.next() != Some("cnf") {
                return Err(ParseDqdimacsError::new(lineno, "expected 'p cnf' header"));
            }
            continue;
        }
        if let Some(rest) = line.strip_prefix("a ") {
            let tokens: Vec<&str> = rest.split_whitespace().collect();
            for v in parse_vars(lineno, &tokens)? {
                quantify(&mut quantified, v, true, lineno)?;
                dqbf.add_universal(v);
            }
            continue;
        }
        if let Some(rest) = line.strip_prefix("e ") {
            let tokens: Vec<&str> = rest.split_whitespace().collect();
            let deps: Vec<Var> = dqbf.universals().to_vec();
            for v in parse_vars(lineno, &tokens)? {
                quantify(&mut quantified, v, false, lineno)?;
                dqbf.add_existential(v, deps.iter().copied());
            }
            continue;
        }
        if let Some(rest) = line.strip_prefix("d ") {
            let tokens: Vec<&str> = rest.split_whitespace().collect();
            let vars = parse_vars(lineno, &tokens)?;
            let Some((&y, deps)) = vars.split_first() else {
                return Err(ParseDqdimacsError::new(lineno, "empty 'd' line"));
            };
            quantify(&mut quantified, y, false, lineno)?;
            for &d in deps {
                if d == y {
                    return Err(ParseDqdimacsError::invalid(
                        lineno,
                        DqbfError::SelfDependency(y),
                    ));
                }
                if quantified.get(&d) != Some(&true) {
                    pending_dependencies.push((y, d, lineno));
                }
            }
            dqbf.add_existential(y, deps.iter().copied());
            continue;
        }
        // Clause line(s).
        for tok in line.split_whitespace() {
            let value: i64 = tok.parse().map_err(|_| {
                ParseDqdimacsError::new(lineno, format!("invalid literal token {tok:?}"))
            })?;
            if value == 0 {
                dqbf.add_clause(current_clause.drain(..));
            } else {
                let lit = Lit::try_from_dimacs(value).ok_or_else(|| {
                    ParseDqdimacsError::new(lineno, format!("literal {value} is out of range"))
                })?;
                if !quantified.contains_key(&lit.var()) {
                    pending_variables.push((lit.var(), lineno));
                }
                current_clause.push(lit);
            }
        }
    }
    if !current_clause.is_empty() {
        dqbf.add_clause(current_clause.drain(..));
    }
    for (existential, dependency, line) in pending_dependencies {
        if quantified.get(&dependency) != Some(&true) {
            return Err(ParseDqdimacsError::invalid(
                line,
                DqbfError::UnknownDependency {
                    existential,
                    dependency,
                },
            ));
        }
    }
    for (v, line) in pending_variables {
        if !quantified.contains_key(&v) {
            return Err(ParseDqdimacsError::invalid(
                line,
                DqbfError::UnquantifiedVariable(v),
            ));
        }
    }
    debug_assert_eq!(dqbf.validate(), Ok(()));
    Ok(dqbf)
}

/// Writes a [`Dqbf`] in DQDIMACS syntax (universals on one `a` line, one `d`
/// line per existential, then the matrix clauses).
pub fn write_dqdimacs(dqbf: &Dqbf) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "p cnf {} {}\n",
        dqbf.num_vars(),
        dqbf.num_clauses()
    ));
    if !dqbf.universals().is_empty() {
        out.push('a');
        for &x in dqbf.universals() {
            out.push_str(&format!(" {}", x.to_dimacs()));
        }
        out.push_str(" 0\n");
    }
    for &y in dqbf.existentials() {
        out.push_str(&format!("d {}", y.to_dimacs()));
        for &x in dqbf.dependencies(y) {
            out.push_str(&format!(" {}", x.to_dimacs()));
        }
        out.push_str(" 0\n");
    }
    for clause in dqbf.matrix().clauses() {
        for &lit in clause {
            out.push_str(&format!("{} ", lit.to_dimacs()));
        }
        out.push_str("0\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_explicit_dependencies() {
        let text = "c example\np cnf 4 2\na 1 2 0\nd 3 1 0\nd 4 2 0\n1 3 0\n-2 4 0\n";
        let dqbf = parse_dqdimacs(text).unwrap();
        assert_eq!(dqbf.universals().len(), 2);
        assert_eq!(dqbf.existentials().len(), 2);
        assert_eq!(dqbf.num_clauses(), 2);
        let y3 = Var::from_dimacs(3);
        assert!(dqbf.dependencies(y3).contains(&Var::from_dimacs(1)));
        assert!(!dqbf.dependencies(y3).contains(&Var::from_dimacs(2)));
        assert!(dqbf.validate().is_ok());
    }

    #[test]
    fn e_lines_depend_on_all_prior_universals() {
        let text = "p cnf 3 1\na 1 0\ne 2 0\na 3 0\n1 2 3 0\n";
        let dqbf = parse_dqdimacs(text).unwrap();
        let y = Var::from_dimacs(2);
        assert!(dqbf.dependencies(y).contains(&Var::from_dimacs(1)));
        assert!(!dqbf.dependencies(y).contains(&Var::from_dimacs(3)));
    }

    #[test]
    fn roundtrip_through_writer() {
        let dqbf = Dqbf::paper_example();
        let text = write_dqdimacs(&dqbf);
        let parsed = parse_dqdimacs(&text).unwrap();
        assert_eq!(parsed.universals(), dqbf.universals());
        assert_eq!(parsed.existentials(), dqbf.existentials());
        assert_eq!(parsed.num_clauses(), dqbf.num_clauses());
        for &y in dqbf.existentials() {
            assert_eq!(parsed.dependencies(y), dqbf.dependencies(y));
        }
    }

    #[test]
    fn rejects_negative_quantifier_entries() {
        let err = parse_dqdimacs("a -1 0\n").unwrap_err();
        assert!(err.to_string().contains("positive"));
        assert_eq!(err.line(), 1);
    }

    #[test]
    fn rejects_bad_header_and_tokens() {
        assert!(parse_dqdimacs("p qcnf 1 1\n").is_err());
        assert!(parse_dqdimacs("1 x 0\n").is_err());
        assert!(parse_dqdimacs("d 0\n").is_err());
        // Identifiers a literal cannot hold are errors naming their line,
        // not wrapped or truncated variables: (input, offending line).
        for (text, line) in [
            ("p cnf 1 1\na 1 0\n2147483649 0\n", 3),
            ("p cnf 1 1\na 4294967296 0\n", 2),
            ("p cnf 1 1\na 1 0\n4294967296 0\n", 3),
            ("p cnf 1 1\na 1 0\n-9223372036854775808 0\n", 3),
            ("p cnf 2 0\na 1 0\nd 2 4294967297 0\n", 3),
        ] {
            let err = parse_dqdimacs(text).unwrap_err();
            assert_eq!(err.line(), line, "{text:?}");
            assert!(err.to_string().contains("out of range"), "{err}");
        }
    }

    #[test]
    fn rejects_prefixes_that_fail_validation() {
        // (input, offending line, message fragment)
        for (text, line, fragment) in [
            // A clause over an unquantified variable.
            ("p cnf 2 1\na 1 0\n1 2 0\n", 3, "not quantified"),
            // A variable declared twice.
            (
                "p cnf 2 1\na 1 0\nd 2 1 0\nd 2 1 0\n1 2 0\n",
                4,
                "quantified twice",
            ),
            // A `d` line naming a non-universal variable.
            ("p cnf 3 1\na 1 0\nd 2 3 0\n1 2 0\n", 3, "not universal"),
            // A dependency on an existential, and on itself.
            (
                "p cnf 3 1\na 1 0\ne 2 0\nd 3 2 0\n1 2 3 0\n",
                4,
                "not universal",
            ),
            ("p cnf 2 1\na 1 0\nd 2 2 0\n1 2 0\n", 3, "depends on itself"),
            // Universal and existential at once.
            ("p cnf 2 1\na 1 2 0\ne 2 0\n1 2 0\n", 3, "quantified twice"),
        ] {
            let err = parse_dqdimacs(text).unwrap_err();
            assert_eq!(err.line(), line, "{text:?}: {err}");
            assert!(err.to_string().contains(fragment), "{text:?}: {err}");
        }
    }

    #[test]
    fn declarations_may_follow_their_first_use() {
        // `validate` does not care where a variable is quantified, so
        // neither does the parser.
        let dqbf = parse_dqdimacs("p cnf 3 1\nd 3 1 0\n1 3 0\na 1 0\n").unwrap();
        assert_eq!(dqbf.validate(), Ok(()));
        assert_eq!(dqbf.dependencies(Var::from_dimacs(3)).len(), 1);
    }

    #[test]
    fn trailing_clause_without_terminator() {
        let dqbf = parse_dqdimacs("a 1 0\nd 2 1 0\n1 2").unwrap();
        assert_eq!(dqbf.num_clauses(), 1);
    }
}
