//! Long-running soak test (opt-in): mixed reducer workloads hammered for
//! several seconds on both backends, looking for rare scheduling
//! interleavings the fast tests miss.
//!
//! ```sh
//! cargo test --release --test soak -- --ignored
//! ```

use cilkm::prelude::*;

#[test]
#[ignore = "multi-second soak; run explicitly with --ignored"]
fn soak_mixed_workloads() {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(8);
    let mut round = 0u64;
    while std::time::Instant::now() < deadline {
        round += 1;
        for backend in [Backend::Hypermap, Backend::Mmap] {
            let pool = ReducerPool::new(4, backend);
            let sum = Reducer::new(&pool, SumMonoid::<u64>::new(), round);
            let list = Reducer::new(&pool, ListMonoid::<u32>::new(), Vec::new());
            let text = Reducer::new(&pool, StringMonoid::new(), String::new());

            pool.run(|| {
                parallel_for(0..4, 1, &|outer| {
                    for _ in outer {
                        parallel_for(0..5000, 64, &|r| {
                            for _ in r {
                                sum.add(1);
                            }
                        });
                    }
                });
                parallel_for(0..500, 8, &|r| {
                    for i in r {
                        list.push(i as u32);
                        text.append(&format!("{i};"));
                    }
                });
            });

            assert_eq!(
                sum.into_inner(),
                round + 20_000,
                "round {round} {backend:?}"
            );
            assert_eq!(
                list.into_inner(),
                (0..500).collect::<Vec<u32>>(),
                "round {round} {backend:?}"
            );
            let mut want = String::new();
            for i in 0..500 {
                want.push_str(&format!("{i};"));
            }
            assert_eq!(text.into_inner(), want, "round {round} {backend:?}");
        }
    }
    println!("soak completed {round} rounds");
}
