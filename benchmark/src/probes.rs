//! Per-layer probes: single-threaded timed calls into public functions
//! of each crate, so a layer's unit cost can be read next to the
//! end-to-end rows it should move. Each probe is the median of 15
//! batches of at least 10 ms; the MAD is stored beside the value.
//!
//! A gain on a probe alone is never a claim: the probes say where to
//! look, the end-to-end metrics say whether it mattered.

use std::cell::{Cell, RefCell};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, AtomicUsize};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cilkm::graph::gen;
use cilkm::prelude::*;
use cilkm::runtime::deque::{deque, Steal};
use cilkm::runtime::Pool;
use cilkm::spa::{Spa, SpaMapBox, ViewPair, LOG_CAPACITY, VIEWS_PER_MAP};
use cilkm::tlmm::{PageArena, TlmmAddr, TlmmRegion};

use crate::json::{obj, Value};
use crate::spine::{pin_workers, Spine};
use crate::stats::{mad, median};
use crate::sys::{self, P};
use crate::Opts;

const BATCHES: usize = 15;
const BATCH_MIN: Duration = Duration::from_millis(10);

/// One probe's outcome, in its unit per operation.
pub struct Probe {
    pub name: &'static str,
    pub value: f64,
    pub mad: f64,
    pub iters_per_batch: u64,
}

struct Probes {
    out: Vec<Probe>,
    /// What one `Instant::now()`..`elapsed()` bracket costs by itself;
    /// taken off every operation that is timed on its own.
    bracket: Duration,
}

impl Probes {
    /// Times `f(iters)` — which runs the operation `iters` times and
    /// returns the time it wants counted, so untimed set-up and cleanup
    /// can sit between operations — and records ns per operation, where
    /// one call of `f`'s inner step is `per` operations.
    fn run(&mut self, name: &'static str, per: f64, f: impl FnMut(u64) -> Duration) {
        self.measure(name, per, Duration::ZERO, f);
    }

    /// [`Probes::run`] with `bracket` taken off every one of the `iters`
    /// calls: for an `f` that brackets each operation with the clock.
    /// Batches are sized by what the clock read, brackets included.
    fn measure(
        &mut self,
        name: &'static str,
        per: f64,
        bracket: Duration,
        mut f: impl FnMut(u64) -> Duration,
    ) {
        let mut iters = 1u64;
        while f(iters) < BATCH_MIN {
            iters *= 2;
        }
        let samples: Vec<f64> = (0..BATCHES)
            .map(|_| {
                let net = f(iters).saturating_sub(bracket * iters as u32);
                net.as_nanos() as f64 / iters as f64 / per
            })
            .collect();
        self.out.push(Probe {
            name,
            value: median(&samples),
            mad: mad(&samples),
            iters_per_batch: iters,
        });
    }

    /// As [`Probes::run`] for an operation that needs untimed work around
    /// each call: only `op` is timed, in rounds of `prepare(); op();
    /// cleanup()`, and the cost of the timing bracket comes off.
    fn run_between(
        &mut self,
        name: &'static str,
        per: f64,
        mut prepare: impl FnMut(),
        mut op: impl FnMut(),
        mut cleanup: impl FnMut(),
    ) {
        self.measure(name, per, self.bracket, |n| {
            timed_between(n, &mut prepare, &mut op, &mut cleanup)
        });
    }

    fn value(&self, name: &str) -> f64 {
        self.out
            .iter()
            .find(|p| p.name == name)
            .unwrap_or_else(|| panic!("probe {name} has not run"))
            .value
    }

    /// A ratio of two earlier probes (no dispersion of its own).
    fn ratio(&mut self, name: &'static str, num: &str, den: &str) {
        self.out.push(Probe {
            name,
            value: self.value(num) / self.value(den),
            mad: 0.0,
            iters_per_batch: 0,
        });
    }
}

/// Times a whole loop of `n` calls.
fn timed(n: u64, mut op: impl FnMut()) -> Duration {
    let t = Instant::now();
    for _ in 0..n {
        op();
    }
    t.elapsed()
}

/// Times only `op` in each of `n` rounds of `prepare(); op(); cleanup()`.
fn timed_between(
    n: u64,
    mut prepare: impl FnMut(),
    mut op: impl FnMut(),
    mut cleanup: impl FnMut(),
) -> Duration {
    let mut total = Duration::ZERO;
    for _ in 0..n {
        prepare();
        let t = Instant::now();
        op();
        total += t.elapsed();
        cleanup();
    }
    total
}

/// `probes` subcommand: runs every probe and prints one JSON object.
pub fn main(_opts: &Opts) -> Result<(), String> {
    sys::require_processors()?;
    let t = Instant::now();
    let mut p = Probes {
        out: Vec::new(),
        bracket: Duration::from_secs_f64(sys::timer_overhead_ns() / 1e9),
    };
    tlmm(&mut p);
    spa(&mut p);
    runtime(&mut p);
    core(&mut p);
    graph(&mut p);
    let doc = obj([
        ("pass", Value::from("probes")),
        ("wall_s", Value::from(t.elapsed().as_secs_f64())),
        (
            "probes",
            Value::Obj(
                p.out
                    .iter()
                    .map(|r| {
                        (
                            r.name.to_owned(),
                            obj([
                                ("value", Value::from(r.value)),
                                ("mad", Value::from(r.mad)),
                                ("iters_per_batch", Value::from(r.iters_per_batch)),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ]);
    println!("{}", doc.render());
    Ok(())
}

fn tlmm(p: &mut Probes) {
    let arena = Arc::new(PageArena::new());
    p.run("tlmm.palloc_pfree_ns", 1.0, |n| {
        timed(n, || arena.pfree(black_box(arena.palloc())))
    });
    let batch = RefCell::new(Vec::with_capacity(16));
    p.run_between(
        "tlmm.palloc_batch16_ns",
        1.0,
        || (),
        || arena.palloc_batch(16, &mut batch.borrow_mut()),
        || batch.borrow_mut().drain(..).for_each(|pd| arena.pfree(pd)),
    );

    let mut region = TlmmRegion::new(Arc::clone(&arena));
    let mut pages = Vec::new();
    arena.palloc_batch(32, &mut pages);
    // Alternate two descriptor sets so every call changes the mapping.
    let mut flip = 0usize;
    p.run("tlmm.pmap_ns", 1.0, |n| {
        timed(n, || {
            flip ^= 1;
            region.pmap(0, &pages[flip..flip + 1]);
        })
    });
    let sets: [Vec<(usize, _)>; 2] = [0, 16].map(|base| {
        (0..16).map(|i| (2 * i, pages[base + i])).collect() // every other page: scattered
    });
    region.pmap_scatter(
        &(0..32)
            .map(|i| (i, cilkm::tlmm::PD_NULL))
            .collect::<Vec<_>>(),
    );
    p.run("tlmm.pmap_scatter16_ns", 1.0, |n| {
        timed(n, || {
            flip ^= 1;
            region.pmap_scatter(&sets[flip]);
        })
    });
    let mut offset = 0usize;
    p.run("tlmm.resolve_ns", 1.0, |n| {
        timed(n, || {
            offset = (offset + 16) & 4095;
            black_box(region.resolve(TlmmAddr::from_parts(black_box(2), offset)));
        })
    });
    for pd in pages {
        arena.pfree(pd);
    }
}

/// A non-null pair for SPA probes; the maps only store it.
fn pair() -> ViewPair {
    ViewPair {
        view: std::ptr::dangling_mut::<u64>().cast(),
        monoid: std::ptr::dangling::<u64>().cast(),
    }
}

fn spa(p: &mut Probes) {
    let (a, b) = (SpaMapBox::new(), SpaMapBox::new());
    let (src, dst) = (a.as_ref(), b.as_ref());
    // Stay under the log capacity so inserts take the logged path.
    let fill = LOG_CAPACITY - 20;
    p.run_between(
        "spa.insert_ns",
        fill as f64,
        || (),
        || {
            for idx in 0..fill {
                src.insert(idx, pair());
            }
        },
        || src.clear_all(),
    );
    for idx in 0..fill {
        src.insert(idx, pair());
    }
    let mut idx = 0usize;
    p.run("spa.get_ns", 1.0, |n| {
        timed(n, || {
            idx = (idx + 1) % fill;
            black_box(src.get(black_box(idx)));
        })
    });
    src.clear_all();

    // A full page (the log overflows on the way) against a 4-view page.
    for (name, views) in [
        ("spa.drain_into_dense_ns_per_view", VIEWS_PER_MAP),
        ("spa.drain_into_sparse_ns_per_view", 4),
    ] {
        p.run_between(
            name,
            views as f64,
            || {
                for idx in 0..views {
                    src.insert(idx * (VIEWS_PER_MAP / views), pair());
                }
            },
            || {
                black_box(src.drain_into(dst));
            },
            || dst.clear_all(),
        );
    }
    for idx in 0..VIEWS_PER_MAP / 2 {
        src.insert(2 * idx, pair());
    }
    assert!(
        src.log_overflowed(),
        "124 inserts overflow the 120-entry log"
    );
    p.run(
        "spa.for_each_valid_overflow_ns_per_view",
        (VIEWS_PER_MAP / 2) as f64,
        |n| {
            timed(n, || {
                src.for_each_valid(|i, v| {
                    black_box((i, v));
                })
            })
        },
    );
    src.clear_all();

    let mut acc: Spa<u64> = Spa::new(1024);
    let mut i = 0usize;
    p.run("spa.generic_accumulate_ns", 1.0, |n| {
        timed(n, || {
            i = (i + 7) & 1023;
            acc.accumulate(i, || 0, |v| *v += 1);
        })
    });
    black_box(acc.len());
}

fn runtime(p: &mut Probes) {
    let serial_pool = Pool::new(1);
    p.run("runtime.join_inline_ns", 1.0, |n| {
        serial_pool.run(|| {
            timed(n, || {
                black_box(join(|| (), || ()));
            })
        })
    });
    const LEAVES: usize = 1024;
    p.run("runtime.parallel_for_leaf_ns", LEAVES as f64, |n| {
        serial_pool.run(|| {
            timed(n, || {
                parallel_for(0..LEAVES, 1, &|r| {
                    black_box(r);
                });
            })
        })
    });
    drop(serial_pool);

    // A pool without reducer hooks: what a region and a steal cost the
    // scheduler alone.
    let pool = Pool::new(P);
    pool.run(pin_workers)
        .expect("pinning the probe pool's workers");
    p.run("runtime.region_ns", 1.0, |n| timed(n, || pool.run(|| ())));
    const K: usize = 32;
    let (started, first_leaf_ns) = (AtomicUsize::new(0), AtomicU64::new(0));
    p.run("runtime.forced_steal_ns", K as f64, |n| {
        pool.run(|| {
            let spine = Spine {
                leaves: K,
                started: &started,
                first_leaf_ns: &first_leaf_ns,
                origin: Instant::now(),
                base: &|| (),
                leaf: &|k| {
                    black_box(k);
                },
            };
            // Timed from each round's first leaf, as the steal workloads are.
            let mut total = Duration::ZERO;
            for _ in 0..n {
                total += spine.round().elapsed();
            }
            total
        })
    });
    drop(pool);

    let (owner, stealer) = deque();
    let mut slot = 0u64;
    let item: *mut () = (&raw mut slot).cast();
    p.run("runtime.deque_push_pop_ns", 1.0, |n| {
        timed(n, || {
            owner.push(item);
            black_box(owner.pop());
        })
    });
    p.run_between(
        "runtime.deque_steal_ns",
        1.0,
        || owner.push(item),
        || assert!(matches!(stealer.steal(), Steal::Success(_))),
        || (),
    );
}

fn core(p: &mut Probes) {
    // The floor: one L1 load and store, as the add workloads' serial
    // elision does per update.
    let mut cells = [0u64; 2];
    p.run("core.l1_baseline_ns", 1.0, |n| {
        let t = Instant::now();
        for i in 0..n {
            *black_box(&mut cells[(i & 1) as usize]) += 1;
        }
        t.elapsed()
    });

    // Timed inside a one-worker region, so updates take the worker fast
    // path and the region entry amortizes over the batch.
    for (backend, hit, alt) in [
        (Backend::Mmap, "core.lookup_hit_ns", "core.lookup_alt_ns"),
        (
            Backend::Hypermap,
            "core.hypermap_lookup_hit_ns",
            "core.hypermap_lookup_alt_ns",
        ),
    ] {
        let pool = ReducerPool::new(1, backend);
        let r: Vec<Reducer<SumMonoid<u64>>> = (0..2)
            .map(|_| Reducer::new(&pool, SumMonoid::new(), 0))
            .collect();
        // Same reducer every time: the last-lookup cache hits.
        p.run(hit, 1.0, |n| pool.run(|| timed(n, || r[0].add(1))));
        // Strict alternation: the one-entry cache misses every time.
        p.run(alt, 1.0, |n| {
            pool.run(|| {
                let t = Instant::now();
                for i in 0..n {
                    r[(i & 1) as usize].add(1);
                }
                t.elapsed()
            })
        });
    }
    p.ratio(
        "core.lookup_hit_x_l1",
        "core.lookup_hit_ns",
        "core.l1_baseline_ns",
    );
    p.ratio(
        "core.lookup_alt_x_l1",
        "core.lookup_alt_ns",
        "core.l1_baseline_ns",
    );
    p.ratio(
        "core.hypermap_lookup_alt_x_l1",
        "core.hypermap_lookup_alt_ns",
        "core.l1_baseline_ns",
    );

    let pool = ReducerPool::new(1, Backend::Mmap);
    // First access after a steal: every timed update misses and pays view
    // creation plus insertion. Reading folds the views back (untimed), so
    // the next round misses again, as in a thief's fresh context.
    const FRESH: usize = 64;
    let fresh: Vec<Reducer<SumMonoid<u64>>> = (0..FRESH)
        .map(|_| Reducer::new(&pool, SumMonoid::new(), 0))
        .collect();
    p.measure("core.first_touch_ns", FRESH as f64, p.bracket, |n| {
        pool.run(|| {
            timed_between(
                n,
                || (),
                || fresh.iter().for_each(|r| r.add(1)),
                || fresh.iter().for_each(|r| r.read(|_| ())),
            )
        })
    });
    p.run("core.reducer_new_drop_ns", 1.0, |n| {
        timed(n, || {
            drop(black_box(Reducer::new(&pool, SumMonoid::<u64>::new(), 0)))
        })
    });
    let r = Reducer::new(&pool, SumMonoid::<u64>::new(), 0);
    p.run("core.take_set_ns", 1.0, |n| {
        pool.run(|| timed(n, || r.set(black_box(r.take()) + 1)))
    });
}

fn graph(p: &mut Probes) {
    const ITEMS: u32 = 1 << 16;
    p.run("graph.bag_insert_ns", f64::from(ITEMS), |n| {
        timed(n, || {
            let mut bag = Bag::new();
            for v in 0..ITEMS {
                bag.insert(v);
            }
            black_box(bag.len());
        })
    });
    let filled = |len: u32| {
        let mut bag = Bag::new();
        (0..len).for_each(|v| bag.insert(v));
        bag
    };
    // Two bags of 15: four occupied pennant ranks each, so the union
    // carries through every rank. Bigger bags cost the same per rank but
    // take a thousand times longer to build than to unite.
    let pending = Cell::new(None);
    p.run_between(
        "graph.bag_union_ns",
        1.0,
        || pending.set(Some((filled(15), filled(15)))),
        || {
            let (mut left, right) = pending.take().expect("prepared");
            left.union(right);
            pending.set(Some((left, Bag::new())));
        },
        || drop(pending.take()),
    );
    let bag = filled(ITEMS);
    p.run("graph.bag_walk_ns_per_item", f64::from(ITEMS), |n| {
        timed(n, || {
            let mut sum = 0u64;
            bag.for_each(|&v| sum += u64::from(v));
            black_box(sum);
        })
    });
    let g = gen::grid3d(32);
    p.run("graph.bfs_serial_ns_per_edge", g.num_edges() as f64, |n| {
        timed(n, || drop(black_box(bfs_serial(&g, 0))))
    });
}
