//! The runner: starts one fresh process per workload pass, joins the
//! gated, traced and probe results into the end-to-end and per-layer
//! metrics, prints them by name with their units, writes the result
//! files, and fails on any failed check or precondition.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

use crate::json::{obj, parse, Value};
use crate::metrics::{self, Better, Metric};
use crate::stats::{median, quartile_spread};
use crate::sys::{self, P};
use crate::workloads::NAMES;
use crate::Opts;

/// Timed seconds per workload when `run.sh` runs everything.
const FULL_SECONDS: f64 = 10.0;
/// Fewest reps of a gated pass: p95 then has ten samples beyond it.
const GATED_MIN_REPS: usize = 200;
/// The traced pass gets a third of the time and of the reps; so does the
/// gated pass beside it in a `--trace 1` run, but for the rep floor.
const TRACED_SHARE: f64 = 1.0 / 3.0;
const TRACED_MIN_REPS: usize = GATED_MIN_REPS.div_ceil(3);
/// The hypermap comparator runs are short and ungated.
const COMPARATOR_SECONDS: f64 = 1.0;
const COMPARATOR_MIN_REPS: usize = 20;

/// Every pass runs with glibc's per-thread malloc cache off. With it on,
/// a view freed by the worker that merged it lands in that worker's
/// cache, so the two workers' heaps interleave, and which hot views share
/// a cache line across workers changes from run to run: ten A/A runs of
/// `wordstats` spread 61 % in median rep time and 31 % in throughput,
/// against 5 % with the cache off. See "Known limits" in the README.
const MALLOC_ENV: (&str, &str) = ("GLIBC_TUNABLES", "glibc.malloc.tcache_count=0");

struct Runner {
    gated_bin: PathBuf,
    traced_bin: Option<PathBuf>,
    bench_dir: PathBuf,
    seed: u64,
    /// `None` in an exported checkout, which has no repository.
    git_commit: Option<String>,
    rustc: Option<String>,
}

impl Runner {
    fn new(opts: &Opts) -> Result<Runner, String> {
        sys::require_processors()?;
        let bench_dir = PathBuf::from(opts.get("bench-dir").ok_or("missing --bench-dir")?);
        std::fs::create_dir_all(bench_dir.join("out"))
            .map_err(|e| format!("creating {}: {e}", bench_dir.join("out").display()))?;
        let capture = |cmd: &str, args: &[&str]| {
            Command::new(cmd)
                .args(args)
                .current_dir(&bench_dir)
                .stderr(Stdio::null())
                .output()
                .ok()
                .filter(|o| o.status.success())
                .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        };
        Ok(Runner {
            gated_bin: std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?,
            traced_bin: opts.get("traced-bin").map(PathBuf::from),
            seed: opts.num("seed")?.unwrap_or(42.0) as u64,
            git_commit: capture("git", &["rev-parse", "HEAD"]),
            rustc: capture("rustc", &["-V"]),
            bench_dir,
        })
    }

    fn out(&self, file: &str) -> PathBuf {
        self.bench_dir.join("out").join(file)
    }

    /// Runs `bin args..` to completion and parses the JSON object on the
    /// last line of its stdout. The child's stderr passes through.
    fn child(&self, bin: &Path, args: &[String]) -> Result<Value, String> {
        let out = Command::new(bin)
            .args(args)
            .env(MALLOC_ENV.0, MALLOC_ENV.1)
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("starting {}: {e}", bin.display()))?;
        if !out.status.success() {
            return Err(format!(
                "`{} {}` failed: {}",
                bin.display(),
                args.join(" "),
                out.status
            ));
        }
        let text = String::from_utf8_lossy(&out.stdout);
        parse(text.lines().last().unwrap_or(""))
            .map_err(|e| format!("`{} {}`: {e}", bin.display(), args.join(" ")))
    }

    fn pass(
        &self,
        traced: bool,
        workload: &str,
        seconds: f64,
        min_reps: usize,
        backend: &str,
    ) -> Result<Value, String> {
        let bin = if traced {
            self.traced_bin
                .as_deref()
                .ok_or("the traced pass needs --traced-bin")?
        } else {
            &self.gated_bin
        };
        let mut args: Vec<String> = [
            "pass",
            "--workload",
            workload,
            "--seed",
            &self.seed.to_string(),
            "--seconds",
            &seconds.to_string(),
            "--min-reps",
            &min_reps.to_string(),
            "--backend",
            backend,
        ]
        .map(str::to_owned)
        .into();
        if traced {
            let spans = self.out(&format!("{workload}.spans.json"));
            args.extend(["--spans".to_owned(), spans.display().to_string()]);
        }
        let result = self.child(bin, &args)?;
        let want = if traced { "traced" } else { "gated" };
        if result.get("pass").and_then(Value::as_str) != Some(want) {
            return Err(format!("invalid: {} is not a {want} build", bin.display()));
        }
        Ok(result)
    }

    /// The gated pass and the traced pass beside it, outputs checked.
    /// Returns them with the number of checks attempted.
    fn pair(
        &self,
        workload: &str,
        gated_seconds: f64,
        traced_seconds: f64,
    ) -> Result<(Value, Value, u64), String> {
        let gated = self.pass(false, workload, gated_seconds, GATED_MIN_REPS, "mmap")?;
        let traced = self.pass(true, workload, traced_seconds, TRACED_MIN_REPS, "mmap")?;
        let attempted = check_outputs(&gated)? + check_outputs(&traced)?;
        Ok((gated, traced, attempted))
    }

    /// Probes plus the two hypermap comparator runs: everything per-layer
    /// that does not depend on the workload.
    fn probes(&self) -> Result<Value, String> {
        let mut doc = self.child(&self.gated_bin, &["probes".to_owned()])?;
        let runs = [
            ("core.hypermap_add1024_throughput", "add-1024", "throughput"),
            (
                "core.hypermap_steal_sparse_rep_p50_us",
                "steal-sparse",
                "rep_p50_us",
            ),
        ];
        let Value::Obj(members) = &mut doc else {
            return Err("probes did not print an object".to_owned());
        };
        let mut comparators = Vec::new();
        for (name, workload, metric) in runs {
            let r = self.pass(
                false,
                workload,
                COMPARATOR_SECONDS,
                COMPARATOR_MIN_REPS,
                "hypermap",
            )?;
            check_outputs(&r)?;
            comparators.push((name, Value::from(num(&r, &format!("e2e/{metric}"))?)));
        }
        members.push(("comparators".to_owned(), obj(comparators)));
        Ok(doc)
    }

    fn provenance(&self, passes: &[(&str, &Value)]) -> Value {
        obj([
            ("seed", Value::from(self.seed)),
            ("git_commit", Value::from(self.git_commit.clone())),
            ("nproc", Value::from(sys::nproc())),
            ("workers", Value::from(P)),
            ("rustc", Value::from(self.rustc.clone())),
            (
                "features",
                obj([
                    ("gated", Value::Arr(vec![])),
                    (
                        "traced",
                        Value::from(vec!["cilkm/trace", "cilkm-core/instrument"]),
                    ),
                    ("probes", Value::Arr(vec![])),
                ]),
            ),
            (
                "reps",
                obj(passes.iter().filter_map(|(name, r)| {
                    Some((*name, r.at("counters/harness.rep_count")?.clone()))
                })),
            ),
            (
                "wall_s",
                obj(passes
                    .iter()
                    .filter_map(|(name, r)| Some((*name, r.get("wall_s")?.clone())))),
            ),
        ])
    }
}

fn num(v: &Value, path: &str) -> Result<f64, String> {
    v.at(path)
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("result has no number at {path}"))
}

/// A pass whose outputs failed the oracle is an error, with the first
/// failure named. Returns the number of checks attempted.
fn check_outputs(r: &Value) -> Result<u64, String> {
    let (attempted, failed) = (num(r, "attempted")? as u64, num(r, "failed")? as u64);
    if failed != 0 {
        return Err(format!(
            "{} ({} pass): {failed} of {attempted} output checks failed, first: {}",
            r.get("workload").and_then(Value::as_str).unwrap_or("?"),
            r.get("pass").and_then(Value::as_str).unwrap_or("?"),
            r.get("first_failure")
                .and_then(Value::as_str)
                .unwrap_or("?"),
        ));
    }
    Ok(attempted)
}

fn end_to_end(gated: &Value) -> Result<Vec<(&'static Metric, f64)>, String> {
    metrics::END_TO_END
        .iter()
        .map(|m| Ok((m, num(gated, &format!("e2e/{}", m.name))?)))
        .collect()
}

/// The per-layer metrics that are the same for every workload: probes
/// and comparators.
fn shared_layer(probes: &Value) -> Result<Vec<(&'static Metric, f64)>, String> {
    let mut out = Vec::new();
    for m in metrics::PROBES {
        out.push((m, num(probes, &format!("probes/{}/value", m.name))?));
    }
    for m in metrics::COMPARATORS {
        out.push((m, num(probes, &format!("comparators/{}", m.name))?));
    }
    Ok(out)
}

/// Joins the three passes into every per-layer metric of one workload,
/// the shared ones first.
fn per_layer(
    gated: &Value,
    traced: &Value,
    probes: &Value,
) -> Result<Vec<(&'static Metric, f64)>, String> {
    let mut out = shared_layer(probes)?;
    for m in metrics::COUNTERS {
        out.push((m, num(traced, &format!("counters/{}", m.name))?));
    }

    // The outside-only layer table, over the traced pass's timed reps:
    // P x wall = serial elision + lookups x probe + reduce overhead +
    // residual (scheduler, idle, and whatever is unattributed).
    let reps = num(traced, "counters/harness.rep_count")?;
    let budget_ns = P as f64 * num(traced, "timed_s")? * 1e9;
    let user_ns = num(traced, "serial_elision_ns")? * reps;
    let probe = traced
        .get("lookup_probe")
        .and_then(Value::as_str)
        .ok_or("the traced pass names no lookup probe")?;
    // The elision already pays the plain load and store of each update.
    let lookup_ns = (num(probes, &format!("probes/{probe}/value"))?
        - num(probes, "probes/core.l1_baseline_ns/value")?)
    .max(0.0)
        * num(traced, "counters/core.lookups")?;
    let reduce_ns = num(traced, "counters/core.reduce_overhead_ns")?;
    let overhead_pct =
        (num(traced, "e2e/rep_p50_us")? / num(gated, "e2e/rep_p50_us")? - 1.0) * 100.0;
    let derived = [
        num(gated, "e2e/rep_p95_us")
            .map_err(|_| "invalid: the gated pass has too few reps for a p95".to_owned())?,
        overhead_pct,
        user_ns / budget_ns,
        lookup_ns / budget_ns,
        reduce_ns / budget_ns,
        (budget_ns - user_ns - lookup_ns - reduce_ns) / budget_ns,
        counts_exact(gated, traced)? as f64,
    ];
    out.extend(metrics::DERIVED.iter().zip(derived));
    Ok(out)
}

/// On the steal workloads the exact counts are whole multiples of the
/// round count, and the multiple is the same in the gated and the traced
/// pass. Returns how many counts agreed; a mismatch names the offender.
fn counts_exact(gated: &Value, traced: &Value) -> Result<usize, String> {
    if gated.get("exact") != Some(&Value::Bool(true)) {
        return Ok(0);
    }
    for name in metrics::EXACT_ON_STEAL {
        let per_round = |r: &Value| -> Result<f64, String> {
            Ok(num(r, &format!("counters/{name}"))? / num(r, "counters/harness.rep_count")?)
        };
        let (g, t) = (per_round(gated)?, per_round(traced)?);
        if g != t || g.fract() != 0.0 {
            return Err(format!(
                "invalid: counts_exact: {name} is {g} per round in the gated pass and {t} in the traced pass"
            ));
        }
    }
    Ok(metrics::EXACT_ON_STEAL.len())
}

fn show(value: f64) -> String {
    if value.fract() == 0.0 || value.abs() >= 1e6 {
        format!("{value:.0}")
    } else {
        format!("{value:.4}")
    }
}

fn print_metrics(title: &str, rows: &[(&Metric, f64)]) {
    println!("{title}");
    for (m, v) in rows {
        println!("  {:<44} {:>18} {}", m.name, show(*v), m.unit);
    }
}

fn print_self_time(traced: &Value) {
    println!("  self time of harness spans (span minus its children):");
    for row in traced
        .get("self_time")
        .and_then(Value::as_arr)
        .unwrap_or(&[])
    {
        let g = |k: &str| row.get(k).and_then(Value::as_f64).unwrap_or(0.0);
        println!(
            "    {:<16} x{:<6} total {:>12.3} ms  self {:>12.3} ms",
            row.get("name").and_then(Value::as_str).unwrap_or("?"),
            g("count"),
            g("total_ns") / 1e6,
            g("self_ns") / 1e6
        );
    }
}

fn metrics_json(rows: &[(&Metric, f64)]) -> Value {
    obj(rows.iter().map(|(m, v)| {
        (
            m.name,
            obj([("value", Value::from(*v)), ("unit", Value::from(m.unit))]),
        )
    }))
}

fn write_result(path: &Path, doc: &Value) -> Result<(), String> {
    std::fs::write(path, doc.render() + "\n")
        .map_err(|e| format!("writing {}: {e}", path.display()))
}

/// `run` subcommand.
pub fn run(opts: &Opts) -> Result<(), String> {
    let runner = Runner::new(opts)?;
    match opts.get("workload") {
        Some(workload) => {
            if !NAMES.contains(&workload) {
                return Err(format!("unknown workload {workload:?}; one of {NAMES:?}"));
            }
            let seconds = opts.num("seconds")?.unwrap_or(FULL_SECONDS);
            match opts.get("trace") {
                None | Some("0") => one_gated(&runner, workload, seconds),
                Some("1") => one_traced(&runner, workload, seconds),
                Some(other) => Err(format!("--trace {other:?} is neither 0 nor 1")),
            }
        }
        None => everything(&runner, opts.num("seconds")?.unwrap_or(FULL_SECONDS)),
    }
}

/// The last stdout line of a single-workload run.
fn result_line(attempted: u64, rows: &[(&Metric, f64)]) -> String {
    obj([
        ("correct", Value::from(true)),
        ("attempted", Value::from(attempted)),
        ("failed", Value::from(0u64)),
        ("metrics", metrics_json(rows)),
    ])
    .render()
}

/// `--workload W --trace 0`: the gated pass, end-to-end metrics.
fn one_gated(runner: &Runner, workload: &str, seconds: f64) -> Result<(), String> {
    let gated = runner.pass(false, workload, seconds, GATED_MIN_REPS, "mmap")?;
    let attempted = check_outputs(&gated)?;
    let rows = end_to_end(&gated)?;
    write_result(
        &runner.out(&format!("{workload}.gated.json")),
        &obj([
            ("provenance", runner.provenance(&[("gated", &gated)])),
            ("end_to_end", metrics_json(&rows)),
            ("gated", gated.clone()),
        ]),
    )?;
    print_metrics(
        &format!("{workload}: end to end (gated pass, seed {})", runner.seed),
        &rows,
    );
    println!("{}", result_line(attempted, &rows));
    Ok(())
}

/// `--workload W --trace 1`: a short gated pass, the traced pass and the
/// probes; per-layer metrics.
fn one_traced(runner: &Runner, workload: &str, seconds: f64) -> Result<(), String> {
    let share = seconds * TRACED_SHARE;
    let (gated, traced, attempted) = runner.pair(workload, share, share)?;
    let probes = runner.probes()?;
    let rows = per_layer(&gated, &traced, &probes)?;
    write_result(
        &runner.out(&format!("{workload}.traced.json")),
        &obj([
            (
                "provenance",
                runner.provenance(&[("gated", &gated), ("traced", &traced), ("probes", &probes)]),
            ),
            ("per_layer", metrics_json(&rows)),
            ("gated", gated.clone()),
            ("traced", traced.clone()),
            ("probes", probes.clone()),
        ]),
    )?;
    print_metrics(
        &format!("{workload}: per layer (traced pass, seed {})", runner.seed),
        &rows,
    );
    print_self_time(&traced);
    println!("{}", result_line(attempted, &rows));
    Ok(())
}

/// No `--workload`: all seven workloads, gated then traced, and the
/// probes once. Keeps going after a failure so every problem shows, then
/// fails.
fn everything(runner: &Runner, seconds: f64) -> Result<(), String> {
    let t = Instant::now();
    let probes = runner.probes()?;
    write_result(
        &runner.out("probes.json"),
        &obj([
            ("provenance", runner.provenance(&[("probes", &probes)])),
            ("probes", probes.clone()),
        ]),
    )?;
    let shared = shared_layer(&probes)?;
    let mut problems = Vec::new();
    for workload in NAMES {
        let outcome = (|| {
            let (gated, traced, _) = runner.pair(workload, seconds, seconds * TRACED_SHARE)?;
            let e2e = end_to_end(&gated)?;
            let layers = per_layer(&gated, &traced, &probes)?;
            write_result(
                &runner.out(&format!("{workload}.json")),
                &obj([
                    (
                        "provenance",
                        runner.provenance(&[("gated", &gated), ("traced", &traced)]),
                    ),
                    ("end_to_end", metrics_json(&e2e)),
                    ("per_layer", metrics_json(&layers)),
                    ("gated", gated.clone()),
                    ("traced", traced.clone()),
                ]),
            )?;
            println!();
            print_metrics(
                &format!(
                    "== {workload} == {} reps gated, {} traced, item = {}",
                    show(num(&gated, "counters/harness.rep_count")?),
                    show(num(&traced, "counters/harness.rep_count")?),
                    gated.get("item").and_then(Value::as_str).unwrap_or("?"),
                ),
                &e2e,
            );
            println!(
                "  {:<44} {:>18} ratio",
                "failed_share",
                show(num(&gated, "e2e/failed_share")?)
            );
            // Probes are the same for every workload; print them once.
            print_metrics("  per layer (traced pass):", &layers[shared.len()..]);
            print_self_time(&traced);
            Ok::<(), String>(())
        })();
        if let Err(e) = outcome {
            eprintln!("{e}");
            problems.push(format!("{workload}: {e}"));
        }
    }
    println!();
    print_metrics(
        "== probes and hypermap comparators (all workloads) ==",
        &shared,
    );
    println!(
        "\nresult and spans files in {}; {:.0} s",
        runner.out("").display(),
        t.elapsed().as_secs_f64()
    );
    if problems.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "{} workload(s) failed:\n  {}",
            problems.len(),
            problems.join("\n  ")
        ))
    }
}

/// `aa` subcommand: N gated sets of the same build, each with its own
/// seed as the acceptance runs do, and per (metric, workload) the spread
/// between runs against the metric's bound in `BENCHMARK.json`.
pub fn aa(opts: &Opts) -> Result<(), String> {
    let mut runner = Runner::new(opts)?;
    let sets = opts.num("sets")?.ok_or("aa needs --sets N")? as usize;
    if sets < 2 {
        return Err("aa needs at least 2 sets".to_owned());
    }
    let seconds = opts.num("seconds")?.unwrap_or(FULL_SECONDS);
    let bounds = std::fs::read_to_string(runner.bench_dir.join("../BENCHMARK.json"))
        .map_err(|e| e.to_string())
        .and_then(|t| parse(&t));
    let bound_of = |metric: &str| -> Option<f64> {
        bounds
            .as_ref()
            .ok()?
            .get("end_to_end")?
            .as_arr()?
            .iter()
            .find(|e| e.get("name").and_then(Value::as_str) == Some(metric))?
            .get("bound")?
            .as_f64()
    };

    // values[workload][metric] = one value per set
    let mut values = vec![vec![Vec::new(); metrics::END_TO_END.len()]; NAMES.len()];
    let first_seed = runner.seed;
    for set in 0..sets {
        runner.seed = first_seed + set as u64;
        for (w, workload) in NAMES.iter().enumerate() {
            let gated = runner.pass(false, workload, seconds, GATED_MIN_REPS, "mmap")?;
            check_outputs(&gated)?;
            for (i, (_, v)) in end_to_end(&gated)?.into_iter().enumerate() {
                values[w][i].push(v);
            }
            eprintln!("set {} of {sets}: {workload} done", set + 1);
        }
    }

    write_result(
        &runner.out("aa.json"),
        &obj(NAMES.iter().zip(&values).map(|(workload, per_metric)| {
            let rows = metrics::END_TO_END.iter().zip(per_metric);
            (
                *workload,
                obj(rows.map(|(m, v)| (m.name, Value::from(v.clone())))),
            )
        })),
    )?;
    println!(
        "A/A over {sets} sets, seeds {first_seed}..={}, {seconds} s per run. spread = (q3-q1)/median, \
         range = (max-min)/median, drift = how much worse the second half's median is than the first's",
        runner.seed
    );
    println!(
        "{:<20} {:<14} {:>14} {:>9} {:>9} {:>9} {:>7}  verdict",
        "metric", "workload", "median", "spread", "range", "drift", "bound"
    );
    let mut over = 0;
    for (i, m) in metrics::END_TO_END.iter().enumerate() {
        let bound = bound_of(m.name);
        for (w, workload) in NAMES.iter().enumerate() {
            let v = &values[w][i];
            let med = median(v);
            let spread = quartile_spread(v);
            let range = (v.iter().copied().fold(f64::MIN, f64::max)
                - v.iter().copied().fold(f64::MAX, f64::min))
                / med;
            let (a, b) = (median(&v[..sets / 2]), median(&v[sets / 2..]));
            let drift = match m.better {
                Better::Higher => (a - b) / a,
                Better::Lower => (b - a) / a,
            };
            // setup_s is exempt from the spread rule, not from drift.
            let verdict = match bound {
                None => "no bound",
                Some(b) if drift > b => "DRIFT OVER BOUND",
                Some(b) if m.name != "setup_s" && spread > b => "SPREAD OVER BOUND",
                Some(b) if m.name != "setup_s" && spread > b / 3.0 => "above a third",
                Some(_) => "ok",
            };
            over += usize::from(verdict.contains("OVER"));
            println!(
                "{:<20} {:<14} {:>14} {:>8.2}% {:>8.2}% {:>8.2}% {:>6.0}%  {verdict}",
                m.name,
                workload,
                show(med),
                spread * 100.0,
                range * 100.0,
                drift * 100.0,
                bound.unwrap_or(f64::NAN) * 100.0,
            );
        }
    }
    if over == 0 {
        Ok(())
    } else {
        Err(format!(
            "{over} (metric, workload) pairs are over their bound"
        ))
    }
}
