//! Criterion microbenchmarks of the individual data structures the
//! runtime is built from: the Chase–Lev deque, the SPA map, the hypermap
//! hash table, and PBFS's bag of blocks. These are the per-operation
//! costs that compose into the paper's figures.

use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, Criterion};

use cilkm_core::hypermap::HyperMap;
use cilkm_graph::Bag;
use cilkm_runtime::deque::{deque, Steal};
use cilkm_spa::{SpaMapBox, ViewPair, VIEWS_PER_MAP};

fn pair(tag: usize) -> ViewPair {
    ViewPair {
        view: (0x10_0000 + tag * 16) as *mut u8,
        monoid: 0x8000 as *const u8,
    }
}

fn bench_deque(c: &mut Criterion) {
    c.bench_function("deque/push-pop", |b| {
        let (owner, _stealer) = deque();
        b.iter(|| {
            owner.push(0x10 as *mut ());
            std::hint::black_box(owner.pop())
        });
    });

    c.bench_function("deque/push-steal", |b| {
        let (owner, stealer) = deque();
        b.iter(|| {
            owner.push(0x10 as *mut ());
            loop {
                match stealer.steal() {
                    Steal::Success(p) => break std::hint::black_box(p),
                    _ => continue,
                }
            }
        });
    });
}

fn bench_spa_map(c: &mut Criterion) {
    c.bench_function("spa/insert-remove", |b| {
        let map = SpaMapBox::new();
        let m = map.as_ref();
        b.iter(|| {
            m.insert(13, pair(1));
            std::hint::black_box(m.remove(13))
        });
    });

    c.bench_function("spa/get-hit", |b| {
        let map = SpaMapBox::new();
        let m = map.as_ref();
        m.insert(13, pair(1));
        b.iter(|| std::hint::black_box(m.get(13)));
        m.clear_all();
    });

    c.bench_function("spa/drain-16-of-248", |b| {
        let map = SpaMapBox::new();
        let m = map.as_ref();
        b.iter_custom(|iters| {
            let mut total = Duration::ZERO;
            for _ in 0..iters {
                for i in 0..16 {
                    m.insert(i * 15 % VIEWS_PER_MAP, pair(i));
                }
                let t0 = Instant::now();
                m.drain(|_, p| {
                    std::hint::black_box(p);
                });
                total += t0.elapsed();
            }
            total
        });
    });
}

fn bench_hypermap(c: &mut Criterion) {
    c.bench_function("hypermap/get-hit-16", |b| {
        let mut m = HyperMap::new();
        for i in 0..16u64 {
            m.insert(0x7000_0000 + i * 64, pair(i as usize));
        }
        b.iter(|| std::hint::black_box(m.get(0x7000_0000 + 5 * 64)));
    });

    c.bench_function("hypermap/insert-1024-with-expansion", |b| {
        b.iter_custom(|iters| {
            let mut total = Duration::ZERO;
            for _ in 0..iters {
                let mut m = HyperMap::new();
                let t0 = Instant::now();
                for i in 0..1024u64 {
                    m.insert(0x7000_0000 + i * 64, pair(i as usize));
                }
                total += t0.elapsed();
                std::hint::black_box(&m);
            }
            total
        });
    });
}

fn bench_bag(c: &mut Criterion) {
    c.bench_function("bag/insert", |b| {
        b.iter_custom(|iters| {
            let mut bag = Bag::new();
            let t0 = Instant::now();
            for i in 0..iters {
                bag.insert(i as u32);
            }
            t0.elapsed()
        });
    });

    // 1024 is eight whole blocks a side and no tail; 1000 leaves a tail of
    // 104 a side, and the left one is sealed as a block between the two.
    for side in [1024u32, 1000] {
        c.bench_function(&format!("bag/union-{side}+{side}"), |b| {
            b.iter_custom(|iters| {
                let mut total = Duration::ZERO;
                for _ in 0..iters {
                    let mut a = Bag::new();
                    let mut bb = Bag::new();
                    for i in 0..side {
                        a.insert(i);
                        bb.insert(i + 2048);
                    }
                    let t0 = Instant::now();
                    a.union(bb);
                    total += t0.elapsed();
                    std::hint::black_box(a.len());
                }
                total
            });
        });
    }

    c.bench_function("bag/walk-100000", |b| {
        let mut bag = Bag::new();
        (0..100_000u32).for_each(|i| bag.insert(i));
        b.iter(|| {
            let mut sum = 0u64;
            bag.for_each(|&v| sum += u64::from(v));
            std::hint::black_box(sum)
        });
    });
}

fn config() -> Criterion {
    Criterion::default()
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300))
        .sample_size(20)
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_deque, bench_spa_map, bench_hypermap, bench_bag
}
criterion_main!(benches);
