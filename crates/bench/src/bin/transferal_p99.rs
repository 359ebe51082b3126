//! CI gate: the tail of view transferal under steal contention.
//!
//! ```sh
//! cargo run --release --bin transferal_p99
//! ```
//!
//! PR 3's tracer showed view transferal is bimodal — p50 around a
//! microsecond, p99 two orders of magnitude higher — because every
//! steal return and hypermerge funnelled through the `ReducerDomain`
//! mutexes. This harness constructs the contended case on purpose:
//! many workers (oversubscribed "thieves"), one domain, a long train
//! of tiny `parallel_for` regions so the schedule is steal-dense and
//! every stolen task ends in a detach (view transferal by §7 copying);
//! a worker that leapfrogs while it waits at a join pays a second one
//! for its own context, and an attach when the foreign job is done —
//! so `transferals` runs ahead of `steals` by the number of
//! suspensions that carried views.
//!
//! `crossings/steal` reads 0: a worker's private pages live in its own
//! page array, grown when a context first reaches them, and never leave
//! it. No transferal, leapfrogging included, and no first touch makes a
//! simulated kernel crossing.
//!
//! Two tail numbers come out of the run:
//!
//! * **cpu p50/p99** — thread-CPU-time per transferal (the coarse
//!   Figure-8 histogram; it cannot see time spent *waiting* on a lock);
//! * **wall p50/p99** — wall-clock per transferal from the fine
//!   histogram (sub-log2 buckets in the 1–128 µs band). Lock waits and
//!   the scheduling quanta they induce land here, so this is the gated
//!   number.
//!
//! The gate fails if wall p99 exceeds `CILKM_TRANSFERAL_P99_MAX_NS`
//! (default committed below, with headroom over the measured tail on
//! the reference host). Results are persisted as
//! `bench_out/transferal_p99.csv` and a stable-schema
//! `bench_out/BENCH_transferal.json` — the first point of the
//! `BENCH_*.json` perf trajectory.
//!
//! Env: CILKM_BENCH_WORKERS (default 8), CILKM_TRANSFERAL_ROUNDS
//! (default 200 regions), CILKM_TRANSFERAL_SPIN (per-iteration opaque
//! work units, default 250), CILKM_TRANSFERAL_P99_MAX_NS.

use std::process::ExitCode;

use cilkm_bench::micro::run_add_tight;
use cilkm_bench::output::{out_dir, Table};
use cilkm_core::library::SumMonoid;
use cilkm_core::{Backend, Reducer, ReducerPool};
use cilkm_runtime::parallel_for;

/// Default gate: a regression backstop, not a tight bound. On the
/// single-core reference host the wall p99 sits at 30–65 µs when the
/// tail is transferal-bound, but under 8–16× oversubscription ~1% of
/// windows absorb a scheduler requeue (~0.5–0.7 ms), so the gate sits
/// above that scheduling noise and catches only structural regressions
/// — e.g. a long critical section on the steal-return path, which
/// serializes whole convoys of thieves and pushes p99 past this
/// ceiling.
const DEFAULT_P99_MAX_NS: u64 = 4_000_000;

struct Measured {
    transferals: u64,
    transferal_views: u64,
    steals: u64,
    crossings: u64,
    cpu_p50: u64,
    cpu_p99: u64,
    wall_p50: u64,
    wall_p99: u64,
    wall_mean: f64,
}

/// Opaque per-iteration work (~a microsecond): long enough that a
/// region spans several scheduling quanta even on a single-core host,
/// so oversubscribed thieves actually get scheduled and steal.
#[inline(never)]
fn spin_work(units: u64) -> u64 {
    let mut acc = 0u64;
    for i in 0..units {
        acc = acc.wrapping_add(std::hint::black_box(i).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    }
    std::hint::black_box(acc)
}

/// One contended-transferal measurement: `rounds` steal-dense regions
/// over `n` reducers on `workers` workers, one shared domain.
fn measure(workers: usize, n: usize, rounds: usize, spin: u64) -> Measured {
    let pool = ReducerPool::new(workers, Backend::Mmap);
    let reducers: Vec<Reducer<SumMonoid<u64>>> = (0..n)
        .map(|_| Reducer::new(&pool, SumMonoid::new(), 0))
        .collect();
    let hist0 = pool.overhead_histograms();
    let ins0 = pool.instrument();
    let steals0 = pool.stats().steals;
    let cross0 = pool.domain().arena_handle().crossings().snapshot();
    // Fine grain (2) keeps the deque shallow so idle workers steal
    // continuations rather than draining locally, and the per-iteration
    // spin keeps each region alive across scheduling quanta: each
    // region is a burst of steals, and every steal's return path
    // performs a transferal into the shared domain. Every reducer is
    // touched once per region so each thief's context spans the full
    // page range.
    let iters = n;
    for _ in 0..rounds {
        pool.run(|| {
            parallel_for(0..iters, 2, &|range| {
                for i in range {
                    reducers[i % n].add(1);
                    spin_work(spin);
                }
            });
        });
    }
    let total: u64 = reducers.iter().map(|r| r.get_cloned()).sum();
    assert_eq!(total, (iters * rounds) as u64, "contended add lost updates");

    let hist = pool.overhead_histograms();
    let ins = pool.instrument().since(&ins0);
    let cpu = hist.transferal.since(&hist0.transferal);
    let wall = hist.transferal_fine.since(&hist0.transferal_fine);
    let cross = pool
        .domain()
        .arena_handle()
        .crossings()
        .snapshot()
        .since(&cross0);
    Measured {
        transferals: ins.transferals,
        transferal_views: ins.transferal_views,
        steals: pool.stats().steals - steals0,
        crossings: cross.total_crossings(),
        cpu_p50: cpu.quantile_upper_bound(0.50),
        cpu_p99: cpu.quantile_upper_bound(0.99),
        wall_p50: wall.quantile_upper_bound(0.50),
        wall_p99: wall.quantile_upper_bound(0.99),
        wall_mean: wall.mean(),
    }
}

fn main() -> ExitCode {
    let workers = cilkm_bench::env_workers(8);
    let rounds: usize = std::env::var("CILKM_TRANSFERAL_ROUNDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(200);
    let spin: u64 = std::env::var("CILKM_TRANSFERAL_SPIN")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(250);
    let p99_max: u64 = std::env::var("CILKM_TRANSFERAL_P99_MAX_NS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(DEFAULT_P99_MAX_NS);
    // 4096 reducers span 17 SPA pages (248 views/map), so a thief's
    // context touches many private pages and its detach sequences them
    // all into one list of up to a few thousand pairs. What the gate
    // watches is the wall-clock tail of that detach with more workers
    // than processors: a transferal that came to hold a lock, or wait on
    // one, across the copy would stretch by a scheduling quantum
    // whenever the holder is preempted.
    let n = 4096usize;

    // Warm-up region so first-touch page faults and pool spin-up are not
    // charged to the measured tail.
    let _ = measure(workers, n, rounds / 10 + 1, spin);
    let m = measure(workers, n, rounds, spin);

    // Lookup cost rides along in the JSON so the trajectory catches a
    // fast-path regression smuggled in by steal-path work.
    let lookups = 1u64 << 20;
    let lookup_ns = run_add_tight(Backend::Mmap, 1, lookups).as_nanos() as f64 / lookups as f64;

    let mut t = Table::new(
        &format!(
            "Contended view transferal — {workers} workers, one domain, \
             {n} reducers, {rounds} steal-dense regions"
        ),
        &[
            "transferals",
            "views",
            "steals",
            "crossings/steal",
            "cpu p50",
            "cpu p99",
            "wall p50",
            "wall p99",
            "wall mean",
        ],
    );
    let cps = if m.steals > 0 {
        m.crossings as f64 / m.steals as f64
    } else {
        0.0
    };
    let per_steal = format!("{cps:.2}");
    t.row(&[
        m.transferals.to_string(),
        m.transferal_views.to_string(),
        m.steals.to_string(),
        per_steal.clone(),
        format!("{}ns", m.cpu_p50),
        format!("{}ns", m.cpu_p99),
        format!("{}ns", m.wall_p50),
        format!("{}ns", m.wall_p99),
        format!("{:.0}ns", m.wall_mean),
    ]);
    t.emit("transferal_p99");

    // Stable-schema JSON data point (hand-rolled: all fields are numbers
    // or short known strings, nothing needs escaping).
    let json = format!(
        "{{\n  \"schema_version\": 1,\n  \"bench\": \"transferal_p99\",\n  \
         \"backend\": \"mmap\",\n  \"workers\": {workers},\n  \"reducers\": {n},\n  \
         \"regions\": {rounds},\n  \"steals\": {},\n  \"transferals\": {},\n  \
         \"transferal_views\": {},\n  \"crossings_per_steal\": {cps:.3},\n  \
         \"transferal_cpu_p50_ns\": {},\n  \"transferal_cpu_p99_ns\": {},\n  \
         \"transferal_wall_p50_ns\": {},\n  \"transferal_wall_p99_ns\": {},\n  \
         \"transferal_wall_mean_ns\": {:.0},\n  \"lookup_ns\": {lookup_ns:.3},\n  \
         \"gate_p99_max_ns\": {p99_max}\n}}\n",
        m.steals,
        m.transferals,
        m.transferal_views,
        m.cpu_p50,
        m.cpu_p99,
        m.wall_p50,
        m.wall_p99,
        m.wall_mean,
    );
    let path = out_dir().join("BENCH_transferal.json");
    match std::fs::write(&path, &json) {
        Ok(()) => println!("(written to {})", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }

    println!(
        "\nwall p99 = {} ns (gate: < {p99_max} ns); lookup = {lookup_ns:.3} ns",
        m.wall_p99
    );
    if m.wall_p99 >= p99_max {
        eprintln!(
            "FAIL: contended transferal wall p99 {} ns regressed past {p99_max} ns",
            m.wall_p99
        );
        return ExitCode::FAILURE;
    }
    println!("PASS");
    ExitCode::SUCCESS
}
