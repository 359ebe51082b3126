//! The repo benchmark. `benchmark/run.sh` builds this package twice —
//! plain ("gated") and with the `traced` feature — and starts the gated
//! binary as the runner; the runner starts one fresh process per
//! workload pass. See `benchmark/README.md`.
//!
//! Subcommands:
//! * `run`    — the runner: all seven workloads in three passes, or one
//!   workload (`--workload W --seed N --seconds S --trace 0|1`);
//! * `aa`     — A/A calibration: N full gated sets of the same build;
//! * `pass`   — one pass of one workload in this process (internal);
//! * `probes` — the per-layer probes in this process (internal).

mod json;
mod metrics;
mod pass;
mod probes;
mod runner;
mod spans;
mod spine;
mod stats;
mod sys;
mod workloads;

use std::process::ExitCode;

/// `--key value` options after the subcommand.
pub struct Opts {
    pairs: Vec<(String, String)>,
}

impl Opts {
    fn parse(args: &[String]) -> Result<Opts, String> {
        let mut pairs = Vec::new();
        let mut it = args.iter();
        while let Some(key) = it.next() {
            let name = key
                .strip_prefix("--")
                .ok_or_else(|| format!("expected --option, got {key:?}"))?;
            let value = it.next().ok_or_else(|| format!("{key} needs a value"))?;
            pairs.push((name.to_owned(), value.clone()));
        }
        Ok(Opts { pairs })
    }

    pub fn get(&self, name: &str) -> Option<&str> {
        self.pairs
            .iter()
            .rev()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    pub fn num(&self, name: &str) -> Result<Option<f64>, String> {
        self.get(name)
            .map(|v| {
                v.parse::<f64>()
                    .ok()
                    .filter(|x| x.is_finite() && *x >= 0.0)
                    .ok_or_else(|| format!("--{name} {v:?} is not a non-negative number"))
            })
            .transpose()
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        None => Err("usage: cilkm-benchmark run|aa|pass|probes [--option value]...".to_owned()),
        Some((cmd, rest)) => Opts::parse(rest).and_then(|opts| match cmd.as_str() {
            "run" => runner::run(&opts),
            "aa" => runner::aa(&opts),
            "pass" => pass::main(&opts),
            "probes" => probes::main(&opts),
            other => Err(format!("unknown subcommand {other:?}")),
        }),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(reason) => {
            eprintln!("{reason}");
            ExitCode::FAILURE
        }
    }
}
