//! `cilkm-trend` — perf-trajectory regression gate over `bench_out`.
//!
//! ```sh
//! # compare two artifact directories (committed baseline vs fresh run)
//! cargo run --release --bin cilkm-trend -- --tolerance-pct 300 /tmp/baseline bench_out
//! # or two individual files
//! cargo run --release --bin cilkm-trend -- bench_out/BENCH_lookup.json /tmp/BENCH_lookup.json
//! ```
//!
//! Reads the committed `BENCH_*.json` perf-trajectory points (and the
//! model checker's `exploration_stats.json`) from the baseline, the same
//! artifacts from the current run, and exits nonzero if any metric got
//! worse than the baseline beyond the tolerance (`--tolerance-pct`,
//! default 25). Model-check verdict flips (`pass` → `fail`) are flagged
//! at any tolerance. Artifacts present on only one side are listed but
//! do not fail the gate — benchmarks come and go across commits, and
//! that belongs in review, not in an exit code.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use cilkm_bench::trend;

fn usage() -> ExitCode {
    eprintln!("usage: cilkm-trend [--tolerance-pct N] <baseline dir|file> <current dir|file>");
    eprintln!("  compares BENCH_*.json / exploration_stats.json artifacts;");
    eprintln!("  exits 1 when any metric regressed past the tolerance (default 25%).");
    ExitCode::from(2)
}

/// The artifact files a directory contributes to the comparison.
fn artifacts(dir: &Path) -> Vec<PathBuf> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut out: Vec<PathBuf> = entries
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
            (name.starts_with("BENCH_") || name == "exploration_stats.json")
                && name.ends_with(".json")
        })
        .collect();
    out.sort();
    out
}

/// Pairs up baseline and current artifacts by file name.
fn pair_up(baseline: &Path, current: &Path) -> Vec<(String, PathBuf, PathBuf)> {
    if baseline.is_file() || current.is_file() {
        let name = current
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| "artifact".to_string());
        return vec![(name, baseline.to_path_buf(), current.to_path_buf())];
    }
    artifacts(baseline)
        .into_iter()
        .map(|b| {
            let name = b.file_name().unwrap().to_string_lossy().into_owned();
            let c = current.join(&name);
            (name, b, c)
        })
        .collect()
}

fn main() -> ExitCode {
    let mut tolerance_pct = 25.0f64;
    let mut positional: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--help" | "-h" => return usage(),
            "--tolerance-pct" => match args.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(t) if t >= 0.0 => tolerance_pct = t,
                _ => return usage(),
            },
            _ => positional.push(a),
        }
    }
    let [baseline, current] = positional.as_slice() else {
        return usage();
    };
    let (baseline, current) = (Path::new(baseline), Path::new(current));

    let pairs = pair_up(baseline, current);
    if pairs.is_empty() {
        eprintln!(
            "cilkm-trend: no BENCH_*.json / exploration_stats.json artifacts under {}",
            baseline.display()
        );
        return ExitCode::from(2);
    }

    let mut regressed = false;
    let mut compared = 0usize;
    for (name, base_path, cur_path) in pairs {
        let Ok(base_text) = std::fs::read_to_string(&base_path) else {
            eprintln!("cilkm-trend: cannot read baseline {}", base_path.display());
            continue;
        };
        let Ok(cur_text) = std::fs::read_to_string(&cur_path) else {
            println!("SKIP {name}: not present in current run");
            continue;
        };
        let base = trend::extract(&base_text);
        let cur = trend::extract(&cur_text);
        if base.is_empty() {
            println!("SKIP {name}: no comparable metrics in baseline");
            continue;
        }
        let mut missing = Vec::new();
        let regressions = trend::compare(&base, &cur, tolerance_pct, &mut missing);
        compared += 1;
        for key in &missing {
            println!("NOTE {name}: metric {key} missing from current run");
        }
        if regressions.is_empty() {
            println!(
                "OK   {name}: {} metrics within {tolerance_pct}% of baseline",
                base.len() - missing.len()
            );
        } else {
            print!("{}", trend::render(&name, &regressions));
            regressed = true;
        }
    }
    if compared == 0 {
        eprintln!("cilkm-trend: nothing compared");
        return ExitCode::from(2);
    }
    if regressed {
        eprintln!("cilkm-trend: perf trajectory regressed (see REGRESSION lines above)");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
