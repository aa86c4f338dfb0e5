//! Report rendering: aligned text tables and CSV emission for every
//! experiment driver.

use std::fmt::Write as _;

/// The one metric-key sanitizer, shared by the experiment pipeline, the
/// CLI's CSV/JSON emitters and the bench harness: keeps ASCII
/// alphanumerics and `_ . - /` (so bench ids like `group/bench/10x40`
/// survive unchanged) and maps every other character — brackets, spaces,
/// unicode — to `_`, so keys stay shell-, CSV- and JSON-friendly no
/// matter which display name they were derived from.
pub fn metric_key(raw: &str) -> String {
    raw.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-' | '/') {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// Sanitizes a list of raw metric names through [`metric_key`] and
/// disambiguates collisions: distinct raw names that sanitize to the
/// same key (e.g. `"a b"` and `"a_b"`, or `"x[0]"` and `"x(0)"`) get
/// deterministic `_2`, `_3`, ... suffixes in input order, the first
/// occurrence keeping the bare key. Emitters call this instead of
/// mapping [`metric_key`] per name so two metrics can never silently
/// merge into one CSV/JSON column (the last value overwriting the
/// first).
pub fn disambiguated_metric_keys<S: AsRef<str>>(raw: &[S]) -> Vec<String> {
    let mut used: Vec<String> = Vec::with_capacity(raw.len());
    for name in raw {
        let base = metric_key(name.as_ref());
        let mut candidate = base.clone();
        let mut n = 1usize;
        while used.contains(&candidate) {
            n += 1;
            candidate = format!("{base}_{n}");
        }
        used.push(candidate);
    }
    used
}

/// A simple column-aligned text table.
#[derive(Clone, Debug, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// A table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        TextTable {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row, padding short rows to the header width.
    ///
    /// A row *wider* than the header is a caller bug — dropping the
    /// extra cells would silently hide data from the rendered report —
    /// so it trips a debug assertion. Release builds still truncate
    /// rather than panic mid-report.
    pub fn row(&mut self, cells: Vec<String>) {
        debug_assert!(
            cells.len() <= self.header.len(),
            "TextTable row has {} cells but header has {} columns: {cells:?}",
            cells.len(),
            self.header.len(),
        );
        let mut cells = cells;
        cells.resize(self.header.len(), String::new());
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no rows were added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate().take(cols) {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |out: &mut String, cells: &[String]| {
            for (i, cell) in cells.iter().enumerate().take(cols) {
                if i > 0 {
                    out.push_str("  ");
                }
                let _ = write!(out, "{cell:<width$}", width = widths[i]);
            }
            // Trim trailing spaces for clean diffs.
            while out.ends_with(' ') {
                out.pop();
            }
            out.push('\n');
        };
        fmt_row(&mut out, &self.header);
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            fmt_row(&mut out, row);
        }
        out
    }

    /// Renders as CSV (quoting cells containing commas).
    pub fn to_csv(&self) -> String {
        let esc = |s: &String| {
            if s.contains(',') || s.contains('"') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.clone()
            }
        };
        let mut out = String::new();
        out.push_str(&self.header.iter().map(esc).collect::<Vec<_>>().join(","));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(esc).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }
}

/// Formats a float with fixed decimals (report helper).
pub fn f(value: f64, decimals: usize) -> String {
    format!("{value:.decimals$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = TextTable::new(&["name", "value"]);
        t.row(vec!["alpha".into(), "1".into()]);
        t.row(vec!["b".into(), "22.5".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[1].starts_with("---"));
        assert!(lines[2].starts_with("alpha"));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn csv_escapes() {
        let mut t = TextTable::new(&["a", "b"]);
        t.row(vec!["x,y".into(), "q\"z".into()]);
        let csv = t.to_csv();
        assert!(csv.contains("\"x,y\""));
        assert!(csv.contains("\"q\"\"z\""));
    }

    #[test]
    fn short_rows_padded() {
        let mut t = TextTable::new(&["a", "b", "c"]);
        t.row(vec!["1".into()]);
        assert_eq!(t.rows[0].len(), 3);
    }

    #[test]
    #[should_panic(expected = "TextTable row has 3 cells but header has 2 columns")]
    #[cfg(debug_assertions)]
    fn wide_rows_are_a_caller_bug() {
        // Regression: `row` used to silently truncate rows wider than
        // the header, hiding the extra cells from the rendered report.
        let mut t = TextTable::new(&["a", "b"]);
        t.row(vec!["1".into(), "2".into(), "lost".into()]);
    }

    #[test]
    fn float_helper() {
        assert_eq!(f(1.23456, 2), "1.23");
    }

    #[test]
    fn colliding_raw_names_get_distinct_keys() {
        // "a b" and "a_b" both sanitize to "a_b": without
        // disambiguation one column would silently swallow the other.
        let keys = disambiguated_metric_keys(&["a b", "a_b", "a,b", "clean"]);
        assert_eq!(keys, vec!["a_b", "a_b_2", "a_b_3", "clean"]);
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), keys.len(), "all keys distinct");
        // Non-colliding inputs pass through metric_key unchanged.
        assert_eq!(
            disambiguated_metric_keys(&["x", "y/z"]),
            vec!["x".to_string(), "y/z".to_string()]
        );
        // A raw name that already looks like a suffixed key cannot be
        // collided into: the suffix search skips occupied candidates.
        let keys = disambiguated_metric_keys(&["k_2", "k", "k"]);
        assert_eq!(keys, vec!["k_2", "k", "k_3"]);
    }
}
