//! One pass of one workload in one process: generate the input, set up
//! several times, then run ten blocks of timed reps, each preceded by a
//! fresh measurement of the serial elision so that host drift cancels
//! out of `speedup_vs_serial`. Every rep's output is checked against the
//! serial oracle. The result is one JSON object on the last stdout line.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cilkm::core::{Backend, ReducerPool};

use crate::json::{obj, Value};
use crate::spans::{self_times, Spans};
use crate::spine::pin_workers;
use crate::stats::{cv, highest_percentile, median, percentile};
use crate::sys::{self, P};
use crate::workloads::add::Add;
use crate::workloads::pbfs::Pbfs;
use crate::workloads::steal::Steal;
use crate::workloads::wordstats::Wordstats;
use crate::workloads::{backend_name, region, Counters, Profile, Workload};
use crate::Opts;

/// Blocks per pass; `speedup_vs_serial` is the median over them.
pub const BLOCKS: usize = 10;
/// Set-ups per pass; `setup_s` is their median.
const SETUPS: usize = 9;
/// Serial-elision samples per block.
const SERIAL_SAMPLES: usize = 5;
/// A serial-elision sample repeats the elision until it lasts this long.
const SERIAL_SAMPLE_NS: f64 = 1e6;
/// The tail percentile `rep_p95_us` reports.
const TAIL: f64 = 95.0;

pub struct PassCfg {
    pub seed: u64,
    pub seconds: f64,
    /// Floor under the calibrated rep count.
    pub min_reps: usize,
    pub backend: Backend,
    pub spans_path: Option<String>,
}

/// `pass` subcommand: runs the pass `--workload` names and prints its
/// result object.
pub fn main(opts: &Opts) -> Result<(), String> {
    sys::require_processors()?;
    let cfg = PassCfg {
        seed: opts.num("seed")?.unwrap_or(42.0) as u64,
        seconds: opts.num("seconds")?.ok_or("pass needs --seconds")?,
        min_reps: opts.num("min-reps")?.ok_or("pass needs --min-reps")? as usize,
        backend: match opts.get("backend") {
            None | Some("mmap") => Backend::Mmap,
            Some("hypermap") => Backend::Hypermap,
            Some(other) => return Err(format!("unknown backend {other:?}")),
        },
        spans_path: opts.get("spans").map(str::to_owned),
    };
    let name = opts.get("workload").ok_or("pass needs --workload")?;
    let result = match name {
        "add-1" => run::<Add<1>>(&cfg),
        "add-1024" => run::<Add<1024>>(&cfg),
        "steal-dense" => run::<Steal<true>>(&cfg),
        "steal-sparse" => run::<Steal<false>>(&cfg),
        "pbfs-rmat" => run::<Pbfs<false>>(&cfg),
        "pbfs-grid" => run::<Pbfs<true>>(&cfg),
        "wordstats" => run::<Wordstats>(&cfg),
        other => Err(format!("unknown workload {other:?}")),
    }?;
    println!("{}", result.render());
    Ok(())
}

/// What the timed blocks produce.
struct Measured {
    rep_ns: Vec<f64>,
    /// Per block: median serial-elision time over median rep time.
    block_speedup: Vec<f64>,
    serial_ns: Vec<f64>,
    attempted: u64,
    failed: u64,
    first_failure: Option<String>,
    delta: Counters,
    /// Reducer updates over the timed reps: the harness's own count
    /// where it issues them, the instrument's where PBFS does.
    lookups: u64,
    cpu_ns: u64,
    window_ns: u64,
}

/// What one set-up-to-teardown session produces.
struct Session {
    items_per_rep: u64,
    setup_s: f64,
    measured: Option<Measured>,
    prof: Profile,
    lookups_issued: Option<u64>,
    lookups_counted: u64,
    pbfs: (u64, u64),
    live_pages: u64,
    trace_dropped: u64,
}

fn run<W: Workload>(cfg: &PassCfg) -> Result<Value, String> {
    let t_pass = Instant::now();
    let traced = cfg!(feature = "traced");
    let mut spans = Spans::new(traced);
    let pass_span = spans.open("pass");

    let s = spans.open("input_gen");
    let t = Instant::now();
    let input = Arc::new(W::generate(cfg.seed));
    let input_gen_s = t.elapsed().as_secs_f64();
    spans.close(s);

    // Set up several times and keep the median: one set-up is a handful
    // of thread spawns, page faults and warm-up reps, noisy on its own.
    let mut setups = Vec::with_capacity(SETUPS);
    for _ in 1..SETUPS {
        setups.push(session::<W>(&input, cfg, &mut spans, false)?.setup_s);
    }
    let last = session::<W>(&input, cfg, &mut spans, true)?;
    setups.push(last.setup_s);
    spans.close(pass_span);

    let m = last
        .measured
        .as_ref()
        .expect("the measuring session measures");
    let reps = m.rep_ns.len();
    // The gated build must not carry the per-lookup counter it would
    // then be timing; the traced build must count every lookup issued.
    if !traced && !cfg!(debug_assertions) && last.lookups_counted != 0 {
        return Err(format!(
            "invalid: gated pass counted {} lookups, it was built with cilkm-core/instrument",
            last.lookups_counted
        ));
    }
    if let (true, Some(issued)) = (traced, last.lookups_issued) {
        if issued != last.lookups_counted {
            return Err(format!(
                "invalid: harness issued {issued} lookups, instrument counted {}",
                last.lookups_counted
            ));
        }
    }

    let mut sorted = m.rep_ns.clone();
    sorted.sort_by(f64::total_cmp);
    let timed_ns: f64 = m.rep_ns.iter().sum();
    let items = last.items_per_rep;
    let serial_ns = median(&m.serial_ns);

    if let Some(path) = &cfg.spans_path {
        let doc = obj([
            ("workload", Value::from(W::NAME)),
            ("seed", Value::from(cfg.seed)),
            ("spans", spans.to_json()),
        ]);
        std::fs::write(path, doc.render() + "\n").map_err(|e| format!("writing {path}: {e}"))?;
    }

    let d = &m.delta;
    let steals = d.sched.steals;
    let per = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    let n = |x: u64| Value::from(x);
    let f = |x: f64| Value::from(x);
    Ok(obj([
        ("workload", Value::from(W::NAME)),
        ("pass", Value::from(if traced { "traced" } else { "gated" })),
        ("backend", Value::from(backend_name(cfg.backend))),
        ("seed", n(cfg.seed)),
        ("item", Value::from(W::ITEM)),
        ("items_per_rep", n(items)),
        ("exact", Value::from(W::EXACT_COUNTS)),
        ("lookup_probe", Value::from(W::LOOKUP_PROBE)),
        ("attempted", n(m.attempted)),
        ("failed", n(m.failed)),
        ("first_failure", Value::from(m.first_failure.clone())),
        ("wall_s", f(t_pass.elapsed().as_secs_f64())),
        ("timed_s", f(timed_ns / 1e9)),
        (
            "e2e",
            obj([
                (
                    "throughput",
                    f(items as f64 * reps as f64 / (timed_ns / 1e9)),
                ),
                ("rep_p50_us", f(median(&sorted) / 1e3)),
                // Only a percentile with enough samples beyond it.
                (
                    "rep_p95_us",
                    Value::from(
                        highest_percentile(reps)
                            .filter(|&highest| highest >= TAIL)
                            .map(|_| percentile(&sorted, TAIL) / 1e3),
                    ),
                ),
                ("speedup_vs_serial", f(median(&m.block_speedup))),
                ("setup_s", f(median(&setups))),
                ("peak_rss_mb", f(sys::peak_rss_mb()?)),
                ("failed_share", f(per(m.failed, m.attempted))),
            ]),
        ),
        (
            "counters",
            obj([
                ("runtime.steals", n(steals)),
                ("runtime.steal_attempts", n(d.sched.steal_attempts)),
                ("runtime.failed_steals", n(d.sched.failed_steals)),
                (
                    "runtime.steal_success_ratio",
                    f(per(steals, d.sched.steal_attempts)),
                ),
                ("runtime.parks", n(d.sched.parks)),
                ("runtime.wakes", n(d.sched.wakes)),
                ("runtime.jobs_executed", n(d.sched.jobs_executed)),
                ("runtime.inline_joins", n(d.sched.inline_joins)),
                ("runtime.stolen_joins", n(d.sched.stolen_joins)),
                ("runtime.deque_hwm", n(d.sched.deque_hwm)),
                ("runtime.cpu_per_wall", f(per(m.cpu_ns, m.window_ns))),
                ("core.lookups", n(m.lookups)),
                ("core.view_creations", n(d.ins.view_creations)),
                ("core.view_creation_ns", n(d.ins.view_creation_ns)),
                ("core.view_insertions", n(d.ins.view_insertions)),
                ("core.view_insertion_ns", n(d.ins.view_insertion_ns)),
                ("core.transferals", n(d.ins.transferals)),
                ("core.transferal_views", n(d.ins.transferal_views)),
                (
                    "core.transferal_copied_views",
                    n(d.ins.transferal_copied_views),
                ),
                (
                    "core.transferal_exchanged_pages",
                    n(d.ins.transferal_exchanged_pages),
                ),
                ("core.transferal_cpu_ns", n(d.ins.transferal_ns)),
                (
                    "core.transferal_wall_p50_ns",
                    n(d.transferal_wall.quantile_upper_bound(0.50)),
                ),
                (
                    "core.transferal_wall_p99_ns",
                    n(d.transferal_wall.quantile_upper_bound(0.99)),
                ),
                ("core.merges", n(d.ins.merges)),
                ("core.merge_pairs", n(d.ins.merge_pairs)),
                ("core.merge_ns", n(d.ins.merge_ns)),
                ("core.log_overflows", n(d.ins.log_overflows)),
                ("core.reduce_overhead_ns", n(d.ins.reduce_overhead_ns())),
                (
                    "core.reduce_overhead_ns_per_steal",
                    f(per(d.ins.reduce_overhead_ns(), steals)),
                ),
                (
                    "core.views_per_steal",
                    f(per(d.ins.transferal_views, steals)),
                ),
                ("tlmm.palloc_calls", n(d.cross.palloc_calls)),
                ("tlmm.pfree_calls", n(d.cross.pfree_calls)),
                ("tlmm.pmap_calls", n(d.cross.pmap_calls)),
                ("tlmm.pmap_pages", n(d.cross.pmap_pages)),
                ("tlmm.crossings", n(d.cross.total_crossings())),
                (
                    "tlmm.crossings_per_steal",
                    f(per(d.cross.total_crossings(), steals)),
                ),
                ("tlmm.live_pages", n(last.live_pages)),
                ("obs.work_ns", n(last.prof.work_ns)),
                ("obs.span_ns", n(last.prof.span_ns)),
                ("obs.burdened_span_ns", n(last.prof.burdened_span_ns)),
                (
                    "obs.parallelism",
                    f(per(last.prof.work_ns, last.prof.span_ns)),
                ),
                ("obs.burden_creation_ns", n(last.prof.creation_ns)),
                ("obs.burden_insertion_ns", n(last.prof.insertion_ns)),
                ("obs.burden_transferal_ns", n(last.prof.transferal_ns)),
                ("obs.burden_exchange_ns", n(last.prof.exchange_ns)),
                ("obs.burden_hypermerge_ns", n(last.prof.hypermerge_ns)),
                ("obs.trace_dropped", n(last.trace_dropped)),
                ("graph.pbfs_layers", n(last.pbfs.0)),
                ("graph.pbfs_lookups", n(last.pbfs.1)),
                ("harness.rep_count", n(reps as u64)),
                ("harness.rep_cv", f(cv(&m.rep_ns))),
                (
                    "harness.serial_elision_ns_per_item",
                    f(serial_ns / items as f64),
                ),
                ("harness.input_gen_s", f(input_gen_s)),
                ("harness.timer_overhead_ns", f(sys::timer_overhead_ns())),
            ]),
        ),
        // For the layer table, which the runner completes with probes.
        ("serial_elision_ns", f(serial_ns)),
        ("rep_ns", Value::from(m.rep_ns.clone())),
        ("profiled_regions", n(last.prof.regions)),
        (
            "self_time",
            Value::Arr(
                self_times(spans.all())
                    .into_iter()
                    .map(|r| {
                        obj([
                            ("name", Value::from(r.name)),
                            ("count", n(r.count)),
                            ("total_ns", n(r.total_ns)),
                            ("self_ns", n(r.self_ns)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]))
}

/// Pool and reducers up, warm-up reps, optionally the timed blocks, then
/// everything down again. For an `IN_REGION` workload all of it between
/// `reducers_new` and `teardown` happens inside one region.
fn session<W: Workload>(
    input: &Arc<W::Input>,
    cfg: &PassCfg,
    spans: &mut Spans,
    measure: bool,
) -> Result<Session, String> {
    let t_setup = Instant::now();
    let setup_span = spans.open("setup");
    let s = spans.open("pool_new");
    let pool = ReducerPool::new(P, cfg.backend);
    pool.run(pin_workers)?;
    spans.close(s);
    let s = spans.open("reducers_new");
    let mut w = W::new(Arc::clone(input), &pool);
    spans.close(s);

    let mut prof = Profile::default();
    let body = |w: &mut W, spans: &mut Spans, prof: &mut Profile| {
        let s = spans.open("warmup");
        for _ in 0..W::WARMUP_REPS {
            w.rep(&pool, prof);
            w.verify()
                .map_err(|e| format!("invalid: warm-up rep failed its check: {e}"))?;
        }
        spans.close(s);
        spans.close(setup_span);
        let setup_s = t_setup.elapsed().as_secs_f64();
        let measured = if measure {
            let m = blocks(w, &pool, cfg, spans, prof)?;
            if cfg!(feature = "traced") {
                // One more rep with the event tracer on, only to learn
                // whether the rings hold a rep's events.
                cilkm::obs::trace::set_enabled(true);
                w.rep(&pool, &mut Profile::default());
                cilkm::obs::trace::set_enabled(false);
                w.verify()
                    .map_err(|e| format!("invalid: event-traced rep failed its check: {e}"))?;
            }
            Some(m)
        } else {
            None
        };
        Ok::<_, String>((setup_s, measured))
    };
    let (setup_s, mut measured) = if W::IN_REGION {
        // The one enclosing region is what gets profiled; the rounds
        // inside it open none.
        region(&pool, &mut prof, || {
            body(&mut w, spans, &mut Profile::default())
        })?
    } else {
        body(&mut w, spans, &mut prof)?
    };

    if let Some(m) = measured.as_mut() {
        m.attempted += 1;
        if let Err(e) = w.verify_final() {
            m.failed += 1;
            m.first_failure.get_or_insert(e);
        }
        w.check_shape(m.rep_ns.len() as u64, &m.delta)
            .map_err(|e| format!("invalid: {}: {e}", W::NAME))?;
    }

    let trace_dropped = cilkm::obs::trace::drain().dropped();
    let items_per_rep = w.items_per_rep();
    let lookups_issued = w.lookups_issued();
    let pbfs = w.pbfs_totals();
    let lookups_counted = pool.instrument().lookups;
    let live_pages = pool.domain().arena_handle().live_pages() as u64;
    let s = spans.open("teardown");
    drop(w);
    drop(pool);
    spans.close(s);
    Ok(Session {
        items_per_rep,
        setup_s,
        measured,
        prof,
        lookups_issued,
        lookups_counted,
        pbfs,
        live_pages,
        trace_dropped,
    })
}

/// The timed part: [`BLOCKS`] blocks, each the serial elision followed by
/// its share of the reps, every rep checked.
fn blocks<W: Workload>(
    w: &mut W,
    pool: &ReducerPool,
    cfg: &PassCfg,
    spans: &mut Spans,
    prof: &mut Profile,
) -> Result<Measured, String> {
    let t = Instant::now();
    w.serial_rep();
    let one_serial_ns = (t.elapsed().as_nanos() as f64).max(1.0);
    let serial_batch = (SERIAL_SAMPLE_NS / one_serial_ns).ceil().max(1.0) as usize;
    // Each block lasts its share of `--seconds`, and at least its share
    // of the rep floor. Timing by the clock, not by a calibrated count,
    // keeps a slow phase of the host from shortening the run.
    let block_time = Duration::from_secs_f64(cfg.seconds / BLOCKS as f64);
    let min_per_block = cfg.min_reps.div_ceil(BLOCKS);

    let before = Counters::read(pool);
    let issued_before = w.lookups_issued();
    let mut rep_ns = Vec::with_capacity(cfg.min_reps);
    let mut block_speedup = Vec::with_capacity(BLOCKS);
    let mut serial_ns = Vec::with_capacity(BLOCKS * SERIAL_SAMPLES);
    let (mut attempted, mut failed, mut first_failure) = (0, 0, None);
    let (mut cpu_ns, mut window_ns) = (0, 0);
    for _ in 0..BLOCKS {
        let t_block = Instant::now();
        let block = spans.open("block");
        let s = spans.open("serial_elision");
        let mut serial = Vec::with_capacity(SERIAL_SAMPLES);
        for _ in 0..SERIAL_SAMPLES {
            let t = Instant::now();
            for _ in 0..serial_batch {
                w.serial_rep();
            }
            serial.push(t.elapsed().as_nanos() as f64 / serial_batch as f64);
        }
        spans.close(s);

        let cpu0 = sys::process_cpu_ns()?;
        let t_window = Instant::now();
        let first = rep_ns.len();
        while rep_ns.len() - first < min_per_block || t_block.elapsed() < block_time {
            let t_call = Instant::now();
            // A panicking region fails its rep instead of the run.
            let ran = catch_unwind(AssertUnwindSafe(|| w.rep(pool, prof)));
            let t1 = Instant::now();
            let t0 = ran.as_ref().ok().copied().flatten().unwrap_or(t_call);
            rep_ns.push((t1 - t0).as_nanos() as f64);
            spans.leaf("rep", t0, t1);
            attempted += 1;
            let check = match ran {
                Ok(_) => w.verify(),
                Err(_) => Err("the rep panicked".to_owned()),
            };
            if let Err(e) = check {
                failed += 1;
                first_failure.get_or_insert(e);
            }
            spans.leaf("verify", t1, Instant::now());
        }
        window_ns += t_window.elapsed().as_nanos() as u64;
        cpu_ns += sys::process_cpu_ns()? - cpu0;
        block_speedup.push(median(&serial) / median(&rep_ns[first..]));
        serial_ns.extend(serial);
        spans.close(block);
    }
    let delta = Counters::read(pool).since(&before);
    let lookups = match (w.lookups_issued(), issued_before) {
        (Some(after), Some(before)) => after - before,
        _ => delta.ins.lookups,
    };
    Ok(Measured {
        rep_ns,
        block_speedup,
        serial_ns,
        attempted,
        failed,
        first_failure,
        delta,
        lookups,
        cpu_ns,
        window_ns,
    })
}
