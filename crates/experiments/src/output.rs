//! Result reporting: aligned stdout tables and CSV files.

use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;

/// A simple column-aligned table accumulated row by row.
#[derive(Clone, Debug)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title line and column headers.
    pub fn new(title: impl Into<String>, header: &[&str]) -> Self {
        Table {
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (cells are preformatted strings).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.header.len(),
            "row width must match header"
        );
        self.rows.push(cells);
    }

    /// Convenience: a row of one label plus float cells at 2 decimals.
    pub fn row_f64(&mut self, label: impl std::fmt::Display, values: &[f64]) {
        let mut cells = vec![label.to_string()];
        cells.extend(values.iter().map(|v| format!("{v:.2}")));
        self.row(cells);
    }

    /// Renders the aligned table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "# {}", self.title);
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let _ = writeln!(out, "{}", fmt_row(&self.header, &widths));
        let _ = writeln!(
            out,
            "{}",
            widths
                .iter()
                .map(|w| "-".repeat(*w))
                .collect::<Vec<_>>()
                .join("  ")
        );
        for row in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(row, &widths));
        }
        out
    }

    /// Prints to stdout (suppressed when `FLEXSERVE_SILENT=1`, which
    /// in-process figure drivers such as `perfbench`'s traced run and the
    /// golden tests set to keep their output readable).
    pub fn print(&self) {
        if std::env::var("FLEXSERVE_SILENT").is_ok_and(|v| v == "1") {
            return;
        }
        print!("{}", self.render());
    }

    /// The table as CSV (header + rows, comma-separated, title as comment).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# {}", self.title);
        let _ = writeln!(out, "{}", self.header.join(","));
        for row in &self.rows {
            let _ = writeln!(out, "{}", row.join(","));
        }
        out
    }

    /// Writes the CSV under `results/<name>.csv` (creating the directory).
    pub fn save_csv(&self, name: &str) -> std::io::Result<()> {
        write_csv(name, &self.to_csv())
    }
}

/// Directory all result artifacts (CSVs, the manifest) are written to:
/// `$FLEXSERVE_RESULTS_DIR` when set, else `results/` under the current
/// working directory. The golden tests point this at a temp directory.
pub fn results_dir() -> PathBuf {
    std::env::var_os("FLEXSERVE_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("results"))
}

/// Writes `content` to `<results dir>/<name>.csv`, creating the directory.
pub fn write_csv(name: &str, content: &str) -> std::io::Result<()> {
    let dir = results_dir();
    fs::create_dir_all(&dir)?;
    fs::write(dir.join(format!("{name}.csv")), content)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new("demo", &["x", "value"]);
        t.row_f64(1, &[2.5]);
        t.row_f64(100, &[2.0]);
        let s = t.render();
        assert!(s.contains("# demo"));
        assert!(s.contains("2.5"));
        let lines: Vec<&str> = s.lines().collect();
        // header + separator + 2 rows + title
        assert_eq!(lines.len(), 5);
    }

    #[test]
    fn csv_shape() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(vec!["1".into(), "2".into()]);
        let csv = t.to_csv();
        assert!(csv.contains("a,b"));
        assert!(csv.contains("1,2"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn width_mismatch_panics() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(vec!["1".into()]);
    }
}
