//! Plain-text table rendering for experiment output.
//!
//! The benchmark harness and examples print the paper's tables with this
//! renderer: fixed-width columns, a title row, and an underline — close
//! enough to the paper's layout to compare side by side.

/// A renderable text table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TextTable {
    /// Caption printed above the table.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows; each must have `headers.len()` cells.
    pub rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Start a table with a title and headers.
    pub fn new(title: &str, headers: &[&str]) -> TextTable {
        TextTable {
            title: title.to_owned(),
            headers: headers.iter().map(|h| (*h).to_owned()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row.
    ///
    /// # Panics
    /// Panics when the cell count does not match the header count —
    /// a malformed table is a bug in the generator, not a data error.
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width must match headers"
        );
        self.rows.push(cells.to_vec());
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render with aligned columns (first column left-aligned, the rest
    /// right-aligned, as in the paper's numeric tables).
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&self.title);
        out.push('\n');
        let fmt_row = |cells: &[String]| -> String {
            let mut line = String::new();
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                if i == 0 {
                    line.push_str(&format!("{:<width$}", cell, width = widths[i]));
                } else {
                    line.push_str(&format!("{:>width$}", cell, width = widths[i]));
                }
            }
            line
        };
        let header = fmt_row(&self.headers);
        let rule = "-".repeat(header.len());
        out.push_str(&header);
        out.push('\n');
        out.push_str(&rule);
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }
}

/// Format a fraction as a percentage with no decimals ("72%").
pub fn pct(frac: f64) -> String {
    format!("{:.0}%", frac * 100.0)
}

/// Format a count with thousands separators ("744,069").
pub fn thousands(n: u64) -> String {
    let s = n.to_string();
    let mut out = String::with_capacity(s.len() + s.len() / 3);
    for (i, c) in s.chars().enumerate() {
        if i > 0 && (s.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = TextTable::new("Table X: demo", &["Store", "Certs"]);
        t.row(&["AOSP 4.4".into(), "150".into()]);
        t.row(&["Mozilla".into(), "153".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines[0], "Table X: demo");
        assert!(lines[1].starts_with("Store"));
        assert!(lines[2].starts_with("---"));
        // Right-aligned numeric column.
        assert!(lines[3].ends_with("150"));
        assert!(lines[4].ends_with("153"));
        assert_eq!(lines[3].len(), lines[4].len());
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn rejects_ragged_rows() {
        let mut t = TextTable::new("t", &["a", "b"]);
        t.row(&["only-one".into()]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(pct(0.723), "72%");
        assert_eq!(pct(0.0), "0%");
        assert_eq!(thousands(0), "0");
        assert_eq!(thousands(999), "999");
        assert_eq!(thousands(1_000), "1,000");
        assert_eq!(thousands(744_069), "744,069");
        assert_eq!(thousands(66_000_000_000), "66,000,000,000");
    }

    #[test]
    fn empty_table_renders_header_only() {
        let t = TextTable::new("t", &["h"]);
        assert!(t.is_empty());
        assert_eq!(t.render().lines().count(), 3);
    }
}
