//! Plain-text tables and CSV output for experiment results.

use crate::pipeline::Outcome;
use std::fmt::Write as _;
use std::io;
use std::path::Path;

/// A column-aligned text table.
#[derive(Debug, Clone, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given header.
    pub fn new(header: &[&str]) -> Self {
        Self {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    /// Panics when the row width differs from the header width.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the aligned table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let line = |cells: &[String], out: &mut String| {
            for (i, (cell, w)) in cells.iter().zip(&widths).enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                let _ = write!(out, "{cell:>w$}", w = w);
            }
            out.push('\n');
        };
        line(&self.header, &mut out);
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            line(row, &mut out);
        }
        out
    }

    /// Writes the table as CSV.
    ///
    /// # Errors
    /// Propagates I/O errors.
    pub fn write_csv(&self, path: &Path) -> io::Result<()> {
        let mut s = String::new();
        let esc = |c: &str| {
            if c.contains(',') || c.contains('"') {
                format!("\"{}\"", c.replace('"', "\"\""))
            } else {
                c.to_string()
            }
        };
        s.push_str(
            &self
                .header
                .iter()
                .map(|c| esc(c))
                .collect::<Vec<_>>()
                .join(","),
        );
        s.push('\n');
        for row in &self.rows {
            s.push_str(&row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(","));
            s.push('\n');
        }
        std::fs::write(path, s)
    }
}

/// The standard result table used by most experiments.
pub fn outcome_table(outcomes: &[Outcome]) -> Table {
    let mut t = Table::new(&[
        "scenario",
        "approach",
        "subs",
        "brokers",
        "avg msg rate (msg/s)",
        "deliveries",
        "mean hops",
        "mean delay (ms)",
        "plan time (ms)",
    ]);
    for o in outcomes {
        t.row(vec![
            o.scenario.clone(),
            o.approach.clone(),
            o.subscriptions.to_string(),
            o.allocated_brokers.to_string(),
            format!("{:.2}", o.metrics.avg_broker_msg_rate),
            o.metrics.deliveries.to_string(),
            format!("{:.2}", o.metrics.mean_hops),
            format!("{:.2}", o.metrics.mean_delay_s * 1e3),
            format!("{:.1}", o.plan_time.as_secs_f64() * 1e3),
        ]);
    }
    t
}

/// Percentage reduction of `ours` relative to `baseline` (positive =
/// better/lower).
pub fn reduction_pct(baseline: f64, ours: f64) -> f64 {
    if baseline <= 0.0 {
        0.0
    } else {
        100.0 * (baseline - ours) / baseline
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["a", "long-header"]);
        t.row(vec!["1".into(), "2".into()]);
        t.row(vec!["100".into(), "x".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("long-header"));
        assert_eq!(
            lines[1].chars().filter(|&c| c == '-').count(),
            lines[1].len()
        );
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_checked() {
        let mut t = Table::new(&["a", "b"]);
        t.row(vec!["1".into()]);
    }

    #[test]
    fn csv_escapes_commas() {
        let dir = std::env::temp_dir().join("greenps_report_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.csv");
        let mut t = Table::new(&["a", "b"]);
        t.row(vec!["x,y".into(), "plain".into()]);
        t.write_csv(&path).unwrap();
        let s = std::fs::read_to_string(&path).unwrap();
        assert_eq!(s, "a,b\n\"x,y\",plain\n");
    }

    #[test]
    fn reduction() {
        assert_eq!(reduction_pct(100.0, 8.0), 92.0);
        assert_eq!(reduction_pct(0.0, 5.0), 0.0);
    }
}
