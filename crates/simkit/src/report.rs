//! Markdown table/report formatting shared by the benchmark harnesses.
//!
//! Every figure-regeneration binary prints its series as a GitHub-flavoured
//! markdown table so output can be pasted directly into `EXPERIMENTS.md`.

use std::fmt::Write as _;

/// A simple markdown table builder.
///
/// # Examples
///
/// ```
/// use solros_simkit::report::Table;
///
/// let mut t = Table::new(vec!["block", "GB/s"]);
/// t.row(vec!["64KB".into(), "2.40".into()]);
/// let md = t.to_markdown();
/// assert!(md.contains("| block | GB/s |"));
/// assert!(md.contains("| 64KB | 2.40 |"));
/// ```
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        Self {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row; short rows are padded with empty cells.
    pub fn row(&mut self, cells: Vec<String>) {
        let mut cells = cells;
        cells.resize(self.headers.len(), String::new());
        self.rows.push(cells);
    }

    /// Returns the number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Returns true when the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table as GitHub-flavoured markdown.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "| {} |", self.headers.join(" | "));
        let _ = writeln!(
            out,
            "|{}|",
            self.headers
                .iter()
                .map(|_| "---")
                .collect::<Vec<_>>()
                .join("|")
        );
        for row in &self.rows {
            let _ = writeln!(out, "| {} |", row.join(" | "));
        }
        out
    }
}

/// Formats a byte count with a binary-unit suffix (`64KB`, `2MB`), matching
/// the axis labels used in the paper's figures.
pub fn fmt_size(bytes: u64) -> String {
    const KB: u64 = 1024;
    const MB: u64 = 1024 * 1024;
    const GB: u64 = 1024 * 1024 * 1024;
    if bytes >= GB && bytes.is_multiple_of(GB) {
        format!("{}GB", bytes / GB)
    } else if bytes >= MB && bytes.is_multiple_of(MB) {
        format!("{}MB", bytes / MB)
    } else if bytes >= KB && bytes.is_multiple_of(KB) {
        format!("{}KB", bytes / KB)
    } else {
        format!("{bytes}B")
    }
}

/// Formats a throughput value in GB/s with 3 decimals (decimal gigabytes,
/// as in the paper's axes).
pub fn fmt_gbps(bytes_per_sec: f64) -> String {
    format!("{:.3}", bytes_per_sec / 1e9)
}

/// Formats a throughput value in MB/s with 1 decimal.
pub fn fmt_mbps(bytes_per_sec: f64) -> String {
    format!("{:.1}", bytes_per_sec / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders() {
        let mut t = Table::new(vec!["a", "b"]);
        assert!(t.is_empty());
        t.row(vec!["1".into(), "2".into()]);
        t.row(vec!["3".into()]); // padded
        assert_eq!(t.len(), 2);
        let md = t.to_markdown();
        assert!(md.starts_with("| a | b |\n|---|---|\n"));
        assert!(md.contains("| 1 | 2 |"));
        assert!(md.contains("| 3 |  |"));
    }

    #[test]
    fn size_formatting() {
        assert_eq!(fmt_size(64), "64B");
        assert_eq!(fmt_size(64 * 1024), "64KB");
        assert_eq!(fmt_size(2 * 1024 * 1024), "2MB");
        assert_eq!(fmt_size(3 * 1024 * 1024 * 1024), "3GB");
        assert_eq!(fmt_size(1500), "1500B");
    }

    #[test]
    fn rate_formatting() {
        assert_eq!(fmt_gbps(2.4e9), "2.400");
        assert_eq!(fmt_mbps(300e6), "300.0");
    }
}
