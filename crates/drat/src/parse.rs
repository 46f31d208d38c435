//! DIMACS CNF and DRAT proof parsers (text and binary).

use crate::{Lit, Proof, ProofStep};
use std::fmt;

/// A parsed DIMACS CNF formula.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Dimacs {
    /// Declared (or observed) variable count.
    pub num_vars: usize,
    /// The clauses, in file order.
    pub clauses: Vec<Vec<Lit>>,
}

/// A parse failure, with enough context to point at the offending input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// What went wrong.
    pub message: String,
    /// 1-based line for text inputs, byte offset for binary inputs.
    pub at: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} (at {})", self.message, self.at)
    }
}

impl std::error::Error for ParseError {}

fn err<T>(message: impl Into<String>, at: usize) -> Result<T, ParseError> {
    Err(ParseError {
        message: message.into(),
        at,
    })
}

/// Parses a DIMACS CNF formula. The `p cnf` header is optional (the checker
/// sizes its structures from the literals it sees); `c` comment lines and
/// blank lines are skipped; clauses are zero-terminated and may span lines.
pub fn parse_dimacs(input: &str) -> Result<Dimacs, ParseError> {
    let mut dimacs = Dimacs::default();
    let mut clause: Vec<Lit> = Vec::new();
    let mut open = false;
    for (lineno, line) in input.lines().enumerate() {
        let lineno = lineno + 1;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('c') {
            continue;
        }
        if trimmed.starts_with('p') {
            let mut parts = trimmed.split_whitespace();
            let (_, format) = (parts.next(), parts.next());
            if format != Some("cnf") {
                return err("header is not `p cnf`", lineno);
            }
            let vars = parts.next().and_then(|v| v.parse::<usize>().ok());
            match vars {
                Some(v) => dimacs.num_vars = dimacs.num_vars.max(v),
                None => return err("header has no variable count", lineno),
            }
            continue;
        }
        for tok in trimmed.split_whitespace() {
            let lit: Lit = match tok.parse() {
                Ok(l) => l,
                Err(_) => return err(format!("bad literal {tok:?}"), lineno),
            };
            if lit == 0 {
                dimacs.clauses.push(std::mem::take(&mut clause));
                open = false;
            } else {
                dimacs.num_vars = dimacs.num_vars.max(lit.unsigned_abs() as usize);
                clause.push(lit);
                open = true;
            }
        }
    }
    if open {
        return err("last clause is not zero-terminated", input.lines().count());
    }
    Ok(dimacs)
}

/// Parses a text-format DRAT proof: one lemma per zero-terminated literal
/// sequence, `d` prefixing deletions, `c` comments and blank lines skipped.
pub fn parse_text_proof(input: &str) -> Result<Proof, ParseError> {
    let mut proof = Proof::default();
    let mut lits: Vec<Lit> = Vec::new();
    let mut delete = false;
    let mut open = false;
    for (lineno, line) in input.lines().enumerate() {
        let lineno = lineno + 1;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('c') {
            continue;
        }
        for tok in trimmed.split_whitespace() {
            if tok == "d" {
                if open {
                    return err("`d` inside a lemma", lineno);
                }
                delete = true;
                continue;
            }
            let lit: Lit = match tok.parse() {
                Ok(l) => l,
                Err(_) => return err(format!("bad literal {tok:?}"), lineno),
            };
            if lit == 0 {
                let step = ProofStep::from((delete, std::mem::take(&mut lits)));
                proof.steps.push(step);
                delete = false;
                open = false;
            } else {
                lits.push(lit);
                open = true;
            }
        }
    }
    if open || delete {
        return err(
            "proof ends mid-lemma (missing terminating 0)",
            input.lines().count(),
        );
    }
    Ok(proof)
}

/// Parses a binary-format DRAT proof (the drat-trim wire format): each
/// lemma is an `a` (0x61) or `d` (0x64) byte followed by variable-length
/// encoded literals and a terminating 0 byte. A literal `l` is mapped to
/// the unsigned `2·|l| + (l < 0)` and emitted in 7-bit groups, low group
/// first, high bit marking continuation.
pub fn parse_binary_proof(input: &[u8]) -> Result<Proof, ParseError> {
    let mut proof = Proof::default();
    let mut pos = 0usize;
    while pos < input.len() {
        let prefix = input[pos];
        let delete = match prefix {
            0x61 => false,
            0x64 => true,
            other => return err(format!("bad lemma prefix byte 0x{other:02x}"), pos),
        };
        pos += 1;
        let mut lits: Vec<Lit> = Vec::new();
        loop {
            let (value, next) = decode_vbe(input, pos)?;
            pos = next;
            if value == 0 {
                break;
            }
            let var = (value >> 1) as i64;
            if var == 0 || var > i32::MAX as i64 {
                return err(format!("encoded variable {var} out of range"), pos);
            }
            let lit = if value & 1 == 1 {
                -(var as Lit)
            } else {
                var as Lit
            };
            lits.push(lit);
        }
        proof.steps.push(ProofStep::from((delete, lits)));
    }
    Ok(proof)
}

/// Decodes one variable-length unsigned integer at `pos`, returning the
/// value and the position after it.
fn decode_vbe(input: &[u8], mut pos: usize) -> Result<(u64, usize), ParseError> {
    let mut value = 0u64;
    let mut shift = 0u32;
    loop {
        let Some(&byte) = input.get(pos) else {
            return err("proof ends mid-literal (truncated encoding)", pos);
        };
        pos += 1;
        if shift >= 63 {
            return err("variable-length literal overflows", pos);
        }
        value |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok((value, pos));
        }
        shift += 7;
    }
}

/// Parses a DRAT proof, auto-detecting the format: an input whose bytes all
/// belong to the text alphabet (digits, signs, `d`, `c` comments,
/// whitespace) parses as text, anything else as binary. The workspace
/// writes only text ([`write_text_proof`](crate::write_text_proof));
/// binary support exists for externally produced proofs.
pub fn parse_proof(input: &[u8]) -> Result<Proof, ParseError> {
    let is_text = input
        .iter()
        .all(|&b| b.is_ascii_digit() || b" \t\r\n-0dc".contains(&b));
    if is_text {
        // invariant: the alphabet check above guarantees valid ASCII/UTF-8.
        let text = std::str::from_utf8(input).expect("text alphabet is valid UTF-8");
        parse_text_proof(text)
    } else {
        parse_binary_proof(input)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dimacs_round_trip() {
        let d = parse_dimacs("c comment\np cnf 3 2\n1 -2 0\n2 3 0\n").expect("parses");
        assert_eq!(d.num_vars, 3);
        assert_eq!(d.clauses, vec![vec![1, -2], vec![2, 3]]);
    }

    #[test]
    fn dimacs_header_is_optional_and_vars_grow() {
        let d = parse_dimacs("1 -5 0\n").expect("parses");
        assert_eq!(d.num_vars, 5);
    }

    #[test]
    fn dimacs_rejects_unterminated_clause() {
        assert!(parse_dimacs("1 2\n").is_err());
    }

    #[test]
    fn text_proof_parses_adds_and_deletes() {
        let p = parse_text_proof("1 -2 0\nd 3 0\n0\n").expect("parses");
        assert_eq!(
            p.steps,
            vec![
                ProofStep::Add(vec![1, -2]),
                ProofStep::Delete(vec![3]),
                ProofStep::Add(vec![]),
            ]
        );
    }

    #[test]
    fn text_proof_rejects_truncation() {
        assert!(parse_text_proof("1 -2\n").is_err());
        assert!(parse_text_proof("d\n").is_err());
    }

    /// Encodes a lemma in the binary wire format (test-side only — the
    /// library writes text proofs only).
    fn encode_binary(delete: bool, lits: &[Lit]) -> Vec<u8> {
        let mut out = vec![if delete { 0x64 } else { 0x61 }];
        for &l in lits {
            let mut v = (l.unsigned_abs() as u64) << 1 | u64::from(l < 0);
            loop {
                let byte = (v & 0x7f) as u8;
                v >>= 7;
                if v == 0 {
                    out.push(byte);
                    break;
                }
                out.push(byte | 0x80);
            }
        }
        out.push(0);
        out
    }

    #[test]
    fn binary_proof_round_trips_including_wide_literals() {
        let mut bytes = encode_binary(false, &[1, -2, 1000]);
        bytes.extend(encode_binary(true, &[-100000]));
        bytes.extend(encode_binary(false, &[]));
        let p = parse_binary_proof(&bytes).expect("parses");
        assert_eq!(
            p.steps,
            vec![
                ProofStep::Add(vec![1, -2, 1000]),
                ProofStep::Delete(vec![-100000]),
                ProofStep::Add(vec![]),
            ]
        );
    }

    #[test]
    fn binary_proof_rejects_truncation_and_bad_prefix() {
        let bytes = encode_binary(false, &[1, -2]);
        assert!(parse_binary_proof(&bytes[..bytes.len() - 1]).is_err());
        assert!(parse_binary_proof(&[0x7a, 0x02, 0x00]).is_err());
    }

    #[test]
    fn auto_detect_picks_the_right_parser() {
        let text = b"1 -2 0\nd 3 0\n";
        let p = parse_proof(text).expect("text parses");
        assert_eq!(p.steps.len(), 2);
        let binary = encode_binary(false, &[7, -9]);
        let p = parse_proof(&binary).expect("binary parses");
        assert_eq!(p.steps, vec![ProofStep::Add(vec![7, -9])]);
    }
}
