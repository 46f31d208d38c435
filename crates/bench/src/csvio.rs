//! Minimal CSV writing helpers (no external dependency).

use std::fs;
use std::io;
use std::path::Path;

/// Renders rows as CSV text with the given header.
///
/// Fields containing commas or quotes are quoted.
pub fn to_csv(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    out.push_str(&header.join(","));
    out.push('\n');
    for row in rows {
        let escaped: Vec<String> = row.iter().map(|f| escape(f)).collect();
        out.push_str(&escaped.join(","));
        out.push('\n');
    }
    out
}

fn escape(field: &str) -> String {
    if field.contains(',') || field.contains('"') || field.contains('\n') || field.contains('\r') {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_string()
    }
}

/// Parses CSV text produced by [`to_csv`] back into its header and rows
/// (quoted fields, embedded commas/quotes/newlines included): the oracle
/// of this module's `to_csv` round-trip tests.
///
/// Returns `(header, rows)`; an empty input yields an empty header and no
/// rows.
pub fn parse_csv(text: &str) -> (Vec<String>, Vec<Vec<String>>) {
    let mut lines = Vec::new();
    let mut record: Vec<String> = Vec::new();
    let mut field = String::new();
    let mut chars = text.chars().peekable();
    let mut in_quotes = false;
    let mut saw_any = false;
    while let Some(c) = chars.next() {
        saw_any = true;
        if in_quotes {
            match c {
                '"' if chars.peek() == Some(&'"') => {
                    chars.next();
                    field.push('"');
                }
                '"' => in_quotes = false,
                other => field.push(other),
            }
            continue;
        }
        match c {
            '"' => in_quotes = true,
            ',' => record.push(std::mem::take(&mut field)),
            '\n' => {
                record.push(std::mem::take(&mut field));
                lines.push(std::mem::take(&mut record));
            }
            // A carriage return is a line-terminator character only as part
            // of a CRLF pair; a bare one is field content (and `escape`
            // quotes fields containing it, so the round-trip holds either
            // way).
            '\r' if chars.peek() == Some(&'\n') => {}
            other => field.push(other),
        }
    }
    // A final record without a trailing newline.
    if !field.is_empty() || !record.is_empty() {
        record.push(field);
        lines.push(record);
    }
    if !saw_any || lines.is_empty() {
        return (Vec::new(), Vec::new());
    }
    let header = lines.remove(0);
    (header, lines)
}

/// Writes CSV text to a file, creating parent directories as needed.
///
/// # Errors
///
/// Propagates any I/O error from directory creation or the file write.
pub fn write_csv(path: &Path, header: &[&str], rows: &[Vec<String>]) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        fs::create_dir_all(parent)?;
    }
    fs::write(path, to_csv(header, rows))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_header_and_rows() {
        let csv = to_csv(
            &["a", "b"],
            &[
                vec!["1".into(), "2".into()],
                vec!["x,y".into(), "q\"".into()],
            ],
        );
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "a,b");
        assert_eq!(lines[1], "1,2");
        assert_eq!(lines[2], "\"x,y\",\"q\"\"\"");
    }

    #[test]
    fn csv_round_trips_through_the_parser() {
        let header = ["instance", "outcome", "maxsat_probes", "maxsat_cores"];
        let rows = vec![
            vec!["pec_3".into(), "realizable".into(), "17".into(), "4".into()],
            vec![
                "weird, name".into(),
                "unknown:\"quoted\"".into(),
                "0".into(),
                "0".into(),
            ],
            vec!["multi\nline".into(), "ok".into(), "1".into(), "2".into()],
        ];
        let text = to_csv(&header, &rows);
        let (parsed_header, parsed_rows) = parse_csv(&text);
        assert_eq!(parsed_header, header);
        assert_eq!(parsed_rows, rows);
    }

    #[test]
    fn parser_handles_empty_and_headerless_input() {
        assert_eq!(parse_csv(""), (Vec::new(), Vec::new()));
        let (header, rows) = parse_csv("a,b\n");
        assert_eq!(header, vec!["a", "b"]);
        assert!(rows.is_empty());
    }

    #[test]
    fn carriage_returns_round_trip_and_crlf_terminators_are_accepted() {
        // A bare \r is field content and survives the round-trip…
        let rows = vec![vec!["a\rb".into(), "c".into()]];
        let text = to_csv(&["x", "y"], &rows);
        let (_, parsed) = parse_csv(&text);
        assert_eq!(parsed, rows);
        // …while CRLF line endings from foreign writers are terminators.
        let (header, parsed) = parse_csv("x,y\r\n1,2\r\n");
        assert_eq!(header, vec!["x", "y"]);
        assert_eq!(parsed, vec![vec!["1".to_string(), "2".to_string()]]);
    }

    #[test]
    fn writes_to_disk() {
        let dir = std::env::temp_dir().join("manthan3_csv_test");
        let path = dir.join("nested").join("out.csv");
        write_csv(&path, &["h"], &[vec!["v".into()]]).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.contains("h\nv"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
