//! `cilkm-trend` — the exploration-stats gate.
//!
//! ```sh
//! CILKM_CHECK_STATS=$PWD/exploration_stats.json \
//!     cargo test --workspace --features model --release
//! cargo run --release -p cilkm-checker --bin cilkm-trend -- \
//!     bench_out/exploration_stats.json exploration_stats.json
//! ```
//!
//! Compares a fresh `exploration_stats.json` against a baseline with
//! `cilkm_checker::stats::compare`: a verdict that changed either way,
//! a schedule count down by more than a quarter, or a baseline entry the
//! fresh report lacks is a regression; an entry in the fresh report only
//! prints a note. Exits 0 when clean, 1 on any regression, and 2 on bad
//! usage or a file that cannot be read or holds no entry.

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [baseline, current] = args.as_slice() else {
        eprintln!(
            "usage: cilkm-trend <baseline exploration_stats.json> <current exploration_stats.json>"
        );
        return ExitCode::from(2);
    };
    let read = |path: &str| std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"));
    let compared = read(baseline).and_then(|b| cilkm_checker::stats::compare(&b, &read(current)?));
    let (regressions, notes) = match compared {
        Ok(r) => r,
        Err(e) => {
            eprintln!("cilkm-trend: {e}");
            return ExitCode::from(2);
        }
    };
    for note in &notes {
        println!("NOTE {note}");
    }
    for regression in &regressions {
        println!("REGRESSION {regression}");
    }
    if regressions.is_empty() {
        println!(
            "OK: no verdict changed, no schedule count fell by more than a quarter, \
             and no baseline entry is missing"
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("cilkm-trend: {} regression(s)", regressions.len());
        ExitCode::FAILURE
    }
}
