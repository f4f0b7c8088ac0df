//! Shared helpers for the table/figure reproduction harnesses and the
//! in-tree `tracedbg bench` measurement harness (see [`measure`] and
//! [`suites`]).

pub mod measure;
pub mod suites;

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Directory the `repro_*` binaries write their artifacts into
/// (`<workspace>/artifacts`, created on demand).
pub fn artifacts_dir() -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../artifacts")
        .canonicalize()
        .unwrap_or_else(|_| {
            let d = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../artifacts");
            std::fs::create_dir_all(&d).expect("create artifacts dir");
            d.canonicalize().unwrap()
        });
    std::fs::create_dir_all(&dir).expect("create artifacts dir");
    dir
}

/// Write an artifact file, returning its path for the report line.
pub fn write_artifact(name: &str, contents: &str) -> PathBuf {
    let path = artifacts_dir().join(name);
    std::fs::write(&path, contents).expect("write artifact");
    path
}

/// Wall-clock a closure, returning (result, duration).
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed())
}

/// A simple aligned text table.
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    pub fn new(header: &[&str]) -> Self {
        TextTable {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.header.len());
        self.rows.push(cells.to_vec());
    }

    pub fn render(&self) -> String {
        let ncols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for c in 0..ncols {
                widths[c] = widths[c].max(row[c].len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:<w$}", c, w = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (ncols - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// Format a duration in seconds with millisecond precision.
pub fn secs(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = TextTable::new(&["workload", "time"]);
        t.row(&["fib".into(), "1.5".into()]);
        t.row(&["strassen-long".into(), "0.1".into()]);
        let s = t.render();
        assert!(s.contains("workload"), "{s}");
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    fn timed_measures() {
        let (v, d) = timed(|| 41 + 1);
        assert_eq!(v, 42);
        assert!(d.as_secs() < 1);
    }

    #[test]
    fn artifacts_dir_exists() {
        let d = artifacts_dir();
        assert!(d.is_dir());
    }
}
