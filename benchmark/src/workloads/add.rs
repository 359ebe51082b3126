//! `add-1` and `add-1024`: one `parallel_for` of 2^23 `add(1)` updates,
//! over one reducer (every lookup hits the last-lookup cache) or
//! alternating over 1024 (every lookup misses it and walks the page
//! directory). Lookups do nearly all the work; the steal path almost none.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use cilkm::prelude::*;

use super::{region, Profile, Workload};

const UPDATES: usize = 1 << 23;
const GRAIN: usize = 8192;

/// `N` must be a power of two; update `i` goes to reducer `i & (N-1)`.
pub struct Add<const N: usize> {
    reducers: Vec<Reducer<SumMonoid<u64>>>,
    reps_done: u64,
    plain: Vec<u64>,
}

impl<const N: usize> Workload for Add<N> {
    type Input = ();
    const NAME: &'static str = if N == 1 { "add-1" } else { "add-1024" };
    const ITEM: &'static str = "update";
    const LOOKUP_PROBE: &'static str = if N == 1 {
        "core.lookup_hit_ns"
    } else {
        "core.lookup_alt_ns"
    };

    fn generate(_seed: u64) {}

    fn new(_input: Arc<()>, pool: &ReducerPool) -> Self {
        assert!(N.is_power_of_two());
        Add {
            reducers: (0..N)
                .map(|_| Reducer::new(pool, SumMonoid::new(), 0))
                .collect(),
            reps_done: 0,
            plain: vec![0; N],
        }
    }

    fn items_per_rep(&self) -> u64 {
        UPDATES as u64
    }

    fn serial_rep(&mut self) {
        // `black_box` keeps one load and one store per update, as the
        // reducer version has; without it the loop folds to `x += len`.
        let plain = &mut self.plain[..N];
        if N == 1 {
            for _ in 0..UPDATES {
                *black_box(&mut plain[0]) += 1;
            }
        } else {
            for i in 0..UPDATES {
                *black_box(&mut plain[i & (N - 1)]) += 1;
            }
        }
    }

    fn rep(&mut self, pool: &ReducerPool, prof: &mut Profile) -> Option<Instant> {
        let reducers = &self.reducers[..N];
        region(pool, prof, || {
            if N == 1 {
                let sum = &reducers[0];
                parallel_for(0..UPDATES, GRAIN, &|r| {
                    for _ in r {
                        sum.add(1);
                    }
                });
            } else {
                parallel_for(0..UPDATES, GRAIN, &|r| {
                    for i in r {
                        reducers[i & (N - 1)].add(1);
                    }
                });
            }
        });
        self.reps_done += 1;
        None
    }

    fn verify(&mut self) -> Result<(), String> {
        let want = self.reps_done * (UPDATES / N) as u64;
        match self.reducers.iter().position(|r| r.get_cloned() != want) {
            None => Ok(()),
            Some(i) => Err(format!(
                "reducer {i} holds {} after {} reps, serial total is {want}",
                self.reducers[i].get_cloned(),
                self.reps_done
            )),
        }
    }

    fn lookups_issued(&self) -> Option<u64> {
        Some(self.reps_done * UPDATES as u64)
    }
}
