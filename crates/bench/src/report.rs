//! Plain-text table rendering plus CSV and JSON output for the repro
//! harness.

use sp_machine::trace::json::{escape, num};
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;

/// A simple aligned text table with a header row.
pub struct Table {
    pub title: String,
    pub header: Vec<String>,
    pub rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new(title: &str, header: &[&str]) -> Self {
        Table {
            title: title.to_string(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let ncol = self.header.len();
        let mut width = vec![0usize; ncol];
        for (i, h) in self.header.iter().enumerate() {
            width[i] = h.len();
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                width[i] = width[i].max(c.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let line = |cells: &[String], width: &[usize], out: &mut String| {
            for (i, c) in cells.iter().enumerate() {
                let pad = width[i];
                if i == 0 {
                    let _ = write!(out, "{c:<pad$}");
                } else {
                    let _ = write!(out, "  {c:>pad$}");
                }
            }
            out.push('\n');
        };
        line(&self.header, &width, &mut out);
        let total: usize = width.iter().sum::<usize>() + 2 * (ncol - 1);
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            line(row, &width, &mut out);
        }
        out
    }

    /// Write as CSV next to the text output.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let esc = |s: &str| {
            if s.contains(',') || s.contains('"') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        let _ = writeln!(
            out,
            "{}",
            self.header
                .iter()
                .map(|h| esc(h))
                .collect::<Vec<_>>()
                .join(",")
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{}",
                row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(",")
            );
        }
        out
    }

    /// Machine-readable JSON: `{"title", "columns", "rows": [{col: cell}]}`.
    /// Cells that parse as finite numbers are emitted as JSON numbers
    /// (shortest round-trip form); everything else as escaped strings.
    pub fn to_json(&self) -> String {
        let cell_json = |c: &str| match c.parse::<f64>() {
            Ok(x) if x.is_finite() => num(x),
            _ => format!("\"{}\"", escape(c)),
        };
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\n  \"title\": \"{}\",\n  \"columns\": [",
            escape(&self.title)
        );
        for (i, h) in self.header.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "\"{}\"", escape(h));
        }
        out.push_str("],\n  \"rows\": [");
        for (i, row) in self.rows.iter().enumerate() {
            out.push_str(if i > 0 { ",\n    {" } else { "\n    {" });
            for (j, (h, c)) in self.header.iter().zip(row).enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "\"{}\": {}", escape(h), cell_json(c));
            }
            out.push('}');
        }
        out.push_str("\n  ]\n}\n");
        out
    }
}

/// Write a table's CSV under `dir/name.csv`.
pub fn write_csv(table: &Table, dir: &Path, name: &str) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let mut f = std::fs::File::create(dir.join(format!("{name}.csv")))?;
    f.write_all(table.to_csv().as_bytes())
}

/// Write a table's JSON under `dir/name.json`.
pub fn write_json(table: &Table, dir: &Path, name: &str) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let mut f = std::fs::File::create(dir.join(format!("{name}.json")))?;
    f.write_all(table.to_json().as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new("demo", &["name", "value"]);
        t.row(vec!["a".into(), "1".into()]);
        t.row(vec!["longer".into(), "22".into()]);
        let s = t.render();
        assert!(s.contains("== demo =="));
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 5);
        // Right-aligned numeric column.
        assert!(lines[3].ends_with("    1"));
    }

    #[test]
    fn csv_escapes_commas() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(vec!["v,w".into(), "2".into()]);
        let csv = t.to_csv();
        assert!(csv.contains("\"v,w\",2"));
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn row_arity_checked() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn json_numbers_round_trip_and_strings_escape() {
        let mut t = Table::new("demo \"quoted\"", &["graph", "P", "time"]);
        t.row(vec!["mesh\n1".into(), "64".into(), "0.125".into()]);
        t.row(vec!["G7-NL".into(), "1024".into(), "3.5e-3".into()]);
        let json = t.to_json();
        // Title and cell strings are escaped.
        assert!(json.contains("\"title\": \"demo \\\"quoted\\\"\""));
        assert!(json.contains("\"graph\": \"mesh\\n1\""));
        // Numeric cells become JSON numbers that parse back exactly.
        assert!(json.contains("\"P\": 64"));
        assert!(json.contains("\"time\": 0.125"));
        assert!("0.0035".parse::<f64>().unwrap() == 3.5e-3);
        assert!(json.contains("\"time\": 0.0035"));
        // Non-numeric method names stay strings.
        assert!(json.contains("\"graph\": \"G7-NL\""));
        // Balanced braces/brackets (cheap structural sanity).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn json_empty_table_is_valid() {
        let t = Table::new("empty", &["a"]);
        let json = t.to_json();
        assert!(json.contains("\"rows\": [\n  ]"));
    }
}
