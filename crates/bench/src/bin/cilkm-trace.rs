//! `cilkm-trace` — summarize a recorded scheduler/reducer trace.
//!
//! ```sh
//! cargo run --release --bin cilkm-trace -- bench_out/pbfs_trace.json
//! cargo run --release --bin cilkm-trace -- bench_out/pbfs_trace_events.csv
//! ```
//!
//! Accepts either export format of `cilkm-obs` (Chrome `trace_event`
//! JSON, as written by `write_chrome_json`, or the lossless events CSV)
//! and prints the per-worker utilization / job / merge / park / steal
//! summary from `cilkm_obs::analyze`. Work, span and the reducer burden
//! on the span come from `Pool::run_profiled`, not from a trace.

use std::process::ExitCode;

use cilkm_obs::export::{read_chrome_json, read_events_csv};
use cilkm_obs::{analyze, Trace};

fn parse(path: &str, text: &str) -> Result<Trace, String> {
    // Chrome traces start with the `traceEvents` envelope; anything else
    // is treated as the CSV format.
    if text.trim_start().starts_with('{') {
        read_chrome_json(text)
    } else {
        read_events_csv(text)
    }
    .map_err(|e| format!("{path}: {e}"))
}

fn usage() -> ExitCode {
    eprintln!("usage: cilkm-trace <trace.json | events.csv>...");
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
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("error: cannot read {path}: {e}");
                failed = true;
                continue;
            }
        };
        match parse(path, &text) {
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
