//! Offline stand-in for the `criterion` crate.
//!
//! Implements the sampling-benchmark surface this workspace uses:
//! `Criterion::default().measurement_time(..).warm_up_time(..)
//! .sample_size(..)`, `bench_function` with `Bencher::iter` /
//! `Bencher::iter_custom`, and the `criterion_group!` /
//! `criterion_main!` macros. Each benchmark is auto-calibrated (iteration
//! count doubled until a sample is long enough to time reliably), run for
//! `sample_size` samples, and summarized as min/median/mean/max
//! nanoseconds per iteration. Results are printed and written as CSV to
//! `bench_out/criterion_<binary>.csv` (override the directory with
//! `CILKM_BENCH_OUT`), the run's one on-disk record.

use std::path::PathBuf;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// One benchmark's summary statistics, in ns/iter.
#[derive(Clone, Debug)]
pub struct Summary {
    /// Benchmark id as passed to `bench_function`.
    pub name: String,
    /// Samples actually taken.
    pub samples: usize,
    /// Iterations per sample after calibration.
    pub iters_per_sample: u64,
    /// Fastest sample.
    pub min_ns: f64,
    /// Median sample.
    pub median_ns: f64,
    /// Mean over samples.
    pub mean_ns: f64,
    /// Slowest sample.
    pub max_ns: f64,
}

/// The benchmark driver; collects one [`Summary`] per `bench_function`.
pub struct Criterion {
    measurement_time: Duration,
    warm_up_time: Duration,
    sample_size: usize,
    results: Vec<Summary>,
}

impl Default for Criterion {
    fn default() -> Criterion {
        Criterion {
            measurement_time: Duration::from_secs(5),
            warm_up_time: Duration::from_secs(3),
            sample_size: 100,
            results: Vec::new(),
        }
    }
}

impl Criterion {
    /// Sets the total time budget spent measuring each benchmark.
    pub fn measurement_time(mut self, d: Duration) -> Criterion {
        self.measurement_time = d;
        self
    }

    /// Sets the warm-up budget per benchmark.
    pub fn warm_up_time(mut self, d: Duration) -> Criterion {
        self.warm_up_time = d;
        self
    }

    /// Sets how many timed samples to take per benchmark.
    pub fn sample_size(mut self, n: usize) -> Criterion {
        assert!(n >= 2, "sample_size must be at least 2");
        self.sample_size = n;
        self
    }

    /// Runs one benchmark: calibrate, warm up, sample, summarize.
    pub fn bench_function<F>(&mut self, id: &str, mut f: F) -> &mut Criterion
    where
        F: FnMut(&mut Bencher),
    {
        // Calibrate: double the iteration count until one sample runs
        // long enough that clock granularity is noise (>= 200us), or the
        // warm-up budget is spent. This doubles as the warm-up.
        let warm_up_start = Instant::now();
        let mut iters: u64 = 1;
        let mut last = self.run_sample(&mut f, iters);
        while last < Duration::from_micros(200) && warm_up_start.elapsed() < self.warm_up_time {
            iters = iters.saturating_mul(2);
            last = self.run_sample(&mut f, iters);
        }
        // Spend any remaining warm-up budget at the calibrated count.
        while warm_up_start.elapsed() < self.warm_up_time {
            self.run_sample(&mut f, iters);
        }

        // Scale the per-sample count so `sample_size` samples fill the
        // measurement budget.
        let per_sample = self.measurement_time.as_secs_f64() / self.sample_size as f64;
        if last.as_secs_f64() > 0.0 {
            let scale = per_sample / last.as_secs_f64();
            if scale > 1.0 {
                iters = ((iters as f64 * scale).min(1e12)) as u64;
            }
        }
        iters = iters.max(1);

        let mut per_iter_ns: Vec<f64> = Vec::with_capacity(self.sample_size);
        for _ in 0..self.sample_size {
            let elapsed = self.run_sample(&mut f, iters);
            per_iter_ns.push(elapsed.as_nanos() as f64 / iters as f64);
        }
        per_iter_ns.sort_by(|a, b| a.total_cmp(b));
        let n = per_iter_ns.len();
        let median = if n % 2 == 1 {
            per_iter_ns[n / 2]
        } else {
            (per_iter_ns[n / 2 - 1] + per_iter_ns[n / 2]) / 2.0
        };
        let summary = Summary {
            name: id.to_string(),
            samples: n,
            iters_per_sample: iters,
            min_ns: per_iter_ns[0],
            median_ns: median,
            mean_ns: per_iter_ns.iter().sum::<f64>() / n as f64,
            max_ns: per_iter_ns[n - 1],
        };
        println!(
            "{:<44} time: [{} {} {}]  ({} samples x {} iters)",
            summary.name,
            fmt_ns(summary.min_ns),
            fmt_ns(summary.median_ns),
            fmt_ns(summary.max_ns),
            summary.samples,
            summary.iters_per_sample,
        );
        self.results.push(summary);
        self
    }

    fn run_sample<F: FnMut(&mut Bencher)>(&self, f: &mut F, iters: u64) -> Duration {
        let mut b = Bencher {
            iters,
            elapsed: Duration::ZERO,
            timed: false,
        };
        f(&mut b);
        assert!(
            b.timed,
            "benchmark closure must call Bencher::iter or Bencher::iter_custom"
        );
        b.elapsed
    }

    /// Writes collected summaries as CSV. Called by `criterion_main!`.
    pub fn final_summary(&self) {
        if self.results.is_empty() {
            return;
        }
        let dir = out_dir();
        if std::fs::create_dir_all(&dir).is_err() {
            return;
        }
        let stem = bin_stem();
        let path = dir.join(format!("criterion_{stem}.csv"));
        let mut body =
            String::from("name,samples,iters_per_sample,min_ns,median_ns,mean_ns,max_ns\n");
        for s in &self.results {
            body.push_str(&format!(
                "{},{},{},{:.2},{:.2},{:.2},{:.2}\n",
                s.name, s.samples, s.iters_per_sample, s.min_ns, s.median_ns, s.mean_ns, s.max_ns
            ));
        }
        if std::fs::write(&path, body).is_ok() {
            println!("wrote {}", path.display());
        }
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.4} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} us", ns / 1e3)
    } else {
        format!("{:.2} ns", ns)
    }
}

fn out_dir() -> PathBuf {
    if let Ok(dir) = std::env::var("CILKM_BENCH_OUT") {
        return PathBuf::from(dir);
    }
    // Walk up from the current dir looking for the workspace root so the
    // CSV lands in the same bench_out/ the cilkm-bench bins use.
    let mut cur = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    loop {
        if cur.join("Cargo.toml").exists() && cur.join("crates").is_dir() {
            return cur.join("bench_out");
        }
        if !cur.pop() {
            return PathBuf::from("bench_out");
        }
    }
}

fn bin_stem() -> String {
    let stem = std::env::args()
        .next()
        .map(PathBuf::from)
        .and_then(|p| p.file_stem().map(|s| s.to_string_lossy().into_owned()))
        .unwrap_or_else(|| "bench".to_string());
    // cargo names bench binaries `<name>-<16-hex-digit hash>`; drop the hash.
    match stem.rsplit_once('-') {
        Some((base, tail)) if tail.len() == 16 && tail.bytes().all(|b| b.is_ascii_hexdigit()) => {
            base.to_string()
        }
        _ => stem,
    }
}

/// Times the closure the harness hands to benchmark functions.
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
    timed: bool,
}

impl Bencher {
    /// Times `iters` back-to-back calls of `routine`.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut routine: F) {
        let start = Instant::now();
        for _ in 0..self.iters {
            black_box(routine());
        }
        self.elapsed = start.elapsed();
        self.timed = true;
    }

    /// Lets the routine time itself: it receives the iteration count and
    /// returns the elapsed time for exactly that many iterations.
    pub fn iter_custom<F: FnMut(u64) -> Duration>(&mut self, mut routine: F) {
        self.elapsed = routine(self.iters);
        self.timed = true;
    }
}

/// Declares a benchmark group, in either criterion form.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion: $crate::Criterion = $config;
            $($target(&mut criterion);)+
            criterion.final_summary();
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group!(
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        );
    };
}

/// Declares the benchmark binary's `main`, running each group.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Criterion {
        Criterion::default()
            .measurement_time(Duration::from_millis(20))
            .warm_up_time(Duration::from_millis(5))
            .sample_size(5)
    }

    #[test]
    fn iter_produces_sane_summary() {
        let mut c = tiny();
        c.bench_function("spin", |b| {
            b.iter(|| {
                let mut x = 0u64;
                for i in 0..100u64 {
                    x = x.wrapping_add(i);
                }
                x
            })
        });
        let s = &c.results[0];
        assert_eq!(s.samples, 5);
        assert!(s.min_ns > 0.0 && s.min_ns <= s.median_ns && s.median_ns <= s.max_ns);
    }

    #[test]
    fn iter_custom_receives_iter_count() {
        let mut c = tiny();
        c.bench_function("custom", |b| {
            b.iter_custom(|iters| {
                assert!(iters >= 1);
                Duration::from_nanos(iters * 10)
            })
        });
        let s = &c.results[0];
        // 10ns/iter reported exactly (synthetic timing).
        assert!((s.median_ns - 10.0).abs() < 1.0);
    }

    #[test]
    #[should_panic(expected = "must call Bencher::iter")]
    fn closure_must_time_something() {
        let mut c = tiny();
        c.bench_function("nothing", |_b| {});
    }
}
