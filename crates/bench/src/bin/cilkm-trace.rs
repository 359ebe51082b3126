//! `cilkm-trace` — summarize a recorded scheduler/reducer trace.
//!
//! ```sh
//! cargo run --release --bin cilkm-trace -- bench_out/pbfs_trace.json
//! ```
//!
//! Reads the Chrome `trace_event` JSON that `cilkm-obs`'s
//! `write_chrome_json` writes and prints the per-worker utilization /
//! job / merge / park / steal summary from `cilkm_obs::analyze`. A file
//! that is not such a trace is an error (exit 1). Work, span and the
//! reducer burden on the span come from `Pool::run_profiled`, not from a
//! trace.

use std::process::ExitCode;

use cilkm_obs::analyze;
use cilkm_obs::export::read_chrome_json;

fn usage() -> ExitCode {
    eprintln!("usage: cilkm-trace <trace.json>...");
    eprintln!("  summarizes traces recorded by a `trace`-enabled cilkm build");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let paths: Vec<String> = std::env::args().skip(1).collect();
    if paths.is_empty() || paths.iter().any(|a| a.starts_with('-')) {
        return usage();
    }
    let mut failed = false;
    for path in &paths {
        let trace = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {path}: {e}"))
            .and_then(|text| read_chrome_json(&text).map_err(|e| format!("{path}: {e}")));
        match trace {
            Ok(trace) => {
                println!("# {path}");
                print!("{}", analyze::render(&analyze::summarize(&trace)));
                println!();
            }
            Err(e) => {
                eprintln!("error: {e}");
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
