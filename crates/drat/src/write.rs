//! DIMACS CNF and text DRAT writers: the inverse of the text parsers, for
//! handing a formula and its proof to a file (and from there to any DRAT
//! checker).

use crate::{Lit, ProofStep};

/// Renders `clauses` as a DIMACS CNF file whose `p cnf` header declares the
/// largest variable that occurs and the clause count.
pub fn write_dimacs<C: AsRef<[Lit]>>(clauses: impl IntoIterator<Item = C>) -> String {
    let mut body = String::new();
    let (mut num_vars, mut num_clauses) = (0, 0);
    for clause in clauses {
        let lits = clause.as_ref();
        num_vars = lits
            .iter()
            .map(|l| l.unsigned_abs())
            .fold(num_vars, u32::max);
        num_clauses += 1;
        push_clause(&mut body, lits);
    }
    format!("p cnf {num_vars} {num_clauses}\n{body}")
}

/// Renders `steps` as a text DRAT proof: one zero-terminated lemma per
/// line, deletions prefixed by `d`.
pub fn write_text_proof<L: AsRef<[Lit]>>(steps: impl IntoIterator<Item = ProofStep<L>>) -> String {
    let mut out = String::new();
    for step in steps {
        match step.as_slice() {
            ProofStep::Add(lits) => push_clause(&mut out, lits),
            ProofStep::Delete(lits) => {
                out.push_str("d ");
                push_clause(&mut out, lits);
            }
        }
    }
    out
}

/// Appends `lits` as one zero-terminated line.
fn push_clause(out: &mut String, lits: &[Lit]) {
    for l in lits {
        out.push_str(&l.to_string());
        out.push(' ');
    }
    out.push_str("0\n");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{parse_dimacs, parse_text_proof};

    #[test]
    fn text_serialization_matches_drat_conventions() {
        let steps = vec![
            ProofStep::Add(vec![1, -2]),
            ProofStep::Delete(vec![3]),
            ProofStep::Add(vec![]),
        ];
        let text = write_text_proof(steps.iter().map(ProofStep::as_slice));
        assert_eq!(text, "1 -2 0\nd 3 0\n0\n");
        assert_eq!(parse_text_proof(&text).expect("parses").steps, steps);
    }

    #[test]
    fn dimacs_header_counts_vars_and_clauses() {
        let cnf = vec![vec![1, -5], vec![], vec![2]];
        let text = write_dimacs(&cnf);
        assert_eq!(text, "p cnf 5 3\n1 -5 0\n0\n2 0\n");
        let parsed = parse_dimacs(&text).expect("written DIMACS parses");
        assert_eq!((parsed.num_vars, parsed.clauses), (5, cnf));
    }
}
