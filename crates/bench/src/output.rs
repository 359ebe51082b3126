//! Table printing and CSV persistence.

use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;

/// Where results land (created on demand): `CILKM_BENCH_OUT` if set,
/// otherwise `bench_out/` at the workspace root — regardless of the
/// working directory cargo ran us from.
fn out_dir() -> PathBuf {
    let p = match std::env::var("CILKM_BENCH_OUT") {
        Ok(dir) => PathBuf::from(dir),
        Err(_) => PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../../bench_out")
            .components()
            .collect(),
    };
    let _ = fs::create_dir_all(&p);
    p
}

/// A simple column-aligned table.
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Starts a table with the given title and column names.
    pub fn new(title: &str, header: &[&str]) -> Table {
        Table {
            title: title.to_string(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (stringified cells).
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.header.len());
        self.rows.push(cells.to_vec());
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut s = String::new();
        let _ = writeln!(s, "## {}", self.title);
        let line = |cells: &[String], widths: &[usize]| {
            let mut l = String::new();
            for (i, c) in cells.iter().enumerate() {
                let _ = write!(l, "{:>w$}  ", c, w = widths[i]);
            }
            l.trim_end().to_string()
        };
        let _ = writeln!(s, "{}", line(&self.header, &widths));
        let _ = writeln!(
            s,
            "{}",
            "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
        );
        for row in &self.rows {
            let _ = writeln!(s, "{}", line(row, &widths));
        }
        s
    }

    /// Prints to stdout and writes `<name>.csv` under the output dir.
    pub fn emit(&self, name: &str) {
        println!("{}", self.render());
        let mut csv = String::new();
        let _ = writeln!(csv, "{}", self.header.join(","));
        for row in &self.rows {
            let _ = writeln!(csv, "{}", row.join(","));
        }
        let path = out_dir().join(format!("{name}.csv"));
        if let Err(e) = fs::write(&path, csv) {
            eprintln!("warning: could not write {}: {e}", path.display());
        } else {
            println!("(written to {})\n", path.display());
        }
    }
}

/// Formats a duration in adaptive units.
pub fn fmt_duration(d: std::time::Duration) -> String {
    let ns = d.as_nanos();
    if ns >= 1_000_000_000 {
        format!("{:.3}s", d.as_secs_f64())
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("demo", &["name", "value"]);
        t.row(&["a".into(), "1".into()]);
        t.row(&["long-name".into(), "2".into()]);
        let r = t.render();
        assert!(r.contains("demo"));
        assert!(r.contains("long-name"));
    }

    #[test]
    fn durations_format_by_magnitude() {
        use std::time::Duration;
        assert_eq!(fmt_duration(Duration::from_nanos(500)), "500ns");
        assert_eq!(fmt_duration(Duration::from_micros(5)), "5.00us");
        assert_eq!(fmt_duration(Duration::from_millis(5)), "5.00ms");
        assert_eq!(fmt_duration(Duration::from_secs(5)), "5.000s");
    }
}
