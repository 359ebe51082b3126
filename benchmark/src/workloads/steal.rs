//! `steal-dense` and `steal-sparse`: rounds of the forced-steal spine
//! ([`crate::spine`]) inside one long region, so the steal path — view
//! creation, insertion, transferal, hypermerge, TLMM crossings, map
//! recycling — does the work and lookups are negligible.
//!
//! Dense: every stolen leaf fills whole SPA pages (1024 contiguous
//! reducers), the page-exchange side of the transferal threshold.
//! Sparse: every stolen leaf touches 8 reducers, one per SPA page, the
//! copy side — the realistic few-reducers steal.

use std::hint::black_box;
use std::sync::atomic::{AtomicU64, AtomicUsize};
use std::sync::Arc;
use std::time::Instant;

use cilkm::prelude::*;

use super::{Counters, Profile, Workload};
use crate::spine::Spine;

/// The two shapes; everything else is shared.
#[derive(Copy, Clone)]
struct Shape {
    /// Sum reducers in the pool.
    reducers: usize,
    /// Leaves, hence forced steals, per round.
    leaves: usize,
    /// Sum reducers each leaf updates, `stride` apart.
    touched: usize,
    stride: usize,
    /// Leaf `k` starts at reducer `(k-1) % starts * start_step`.
    starts: usize,
    start_step: usize,
}

/// Four contiguous quarters of 1024 (248 slots make an SPA page).
const DENSE: Shape = Shape {
    reducers: 4096,
    leaves: 32,
    touched: 1024,
    stride: 1,
    starts: 4,
    start_step: 1024,
};
/// Stride 256 puts each of a leaf's 8 reducers on its own SPA page.
const SPARSE: Shape = Shape {
    reducers: 2048,
    leaves: 64,
    touched: 8,
    stride: 256,
    starts: 256,
    start_step: 1,
};

impl Shape {
    /// Indices of the sum reducers leaf `k` (1-based) updates.
    fn targets(self, k: usize) -> impl Iterator<Item = usize> {
        let start = (k - 1) % self.starts * self.start_step;
        (0..self.touched).map(move |j| start + j * self.stride)
    }

    /// Views a thief creates per leaf: the touched sums and the list.
    fn views_per_leaf(self) -> u64 {
        self.touched as u64 + 1
    }
}

pub struct Steal<const IS_DENSE: bool> {
    sums: Vec<Reducer<SumMonoid<u64>>>,
    /// Receives `k` from leaf `k`; checked for serial order every round.
    order: Reducer<ListMonoid<u32>>,
    started: AtomicUsize,
    first_leaf_ns: AtomicU64,
    origin: Instant,
    rounds_done: u64,
    last_order: Vec<u32>,
    plain: Vec<u64>,
    plain_order: Vec<u32>,
}

impl<const IS_DENSE: bool> Steal<IS_DENSE> {
    const SHAPE: Shape = if IS_DENSE { DENSE } else { SPARSE };
}

impl<const IS_DENSE: bool> Workload for Steal<IS_DENSE> {
    type Input = ();
    const NAME: &'static str = if IS_DENSE {
        "steal-dense"
    } else {
        "steal-sparse"
    };
    const ITEM: &'static str = "stolen leaf";
    const IN_REGION: bool = true;
    // Rounds are short; this many reach the steady state of the page and
    // map caches.
    const WARMUP_REPS: usize = 30;
    const EXACT_COUNTS: bool = true;

    fn generate(_seed: u64) {}

    fn new(_input: Arc<()>, pool: &ReducerPool) -> Self {
        let shape = Self::SHAPE;
        Steal {
            sums: (0..shape.reducers)
                .map(|_| Reducer::new(pool, SumMonoid::new(), 0))
                .collect(),
            order: Reducer::new(pool, ListMonoid::new(), Vec::new()),
            started: AtomicUsize::new(0),
            first_leaf_ns: AtomicU64::new(0),
            origin: Instant::now(),
            rounds_done: 0,
            last_order: Vec::new(),
            plain: vec![0; shape.reducers],
            plain_order: Vec::new(),
        }
    }

    fn items_per_rep(&self) -> u64 {
        Self::SHAPE.leaves as u64
    }

    fn serial_rep(&mut self) {
        // One `black_box`ed load and store per update, as in the add
        // workloads' elision. Left to the vectorizer, the loops' speed
        // depends on where the heap put `plain` (15 % from run to run).
        let shape = Self::SHAPE;
        self.plain_order.clear();
        self.plain_order.push(0);
        for x in self.plain.iter_mut() {
            *black_box(x) += 1;
        }
        for k in 1..=shape.leaves {
            for i in shape.targets(k) {
                *black_box(&mut self.plain[i]) += 1;
            }
            self.plain_order.push(k as u32);
        }
        black_box(&mut self.plain_order);
    }

    /// Timed from the first leaf's start: waking the thief is left out
    /// (see [`crate::spine`]).
    fn rep(&mut self, _pool: &ReducerPool, _prof: &mut Profile) -> Option<Instant> {
        let shape = Self::SHAPE;
        let (sums, order) = (&self.sums, &self.order);
        let first_leaf = Spine {
            leaves: shape.leaves,
            started: &self.started,
            first_leaf_ns: &self.first_leaf_ns,
            origin: self.origin,
            base: &|| {
                order.push(0);
                for s in sums {
                    s.add(1);
                }
            },
            leaf: &|k| {
                for i in shape.targets(k) {
                    sums[i].add(1);
                }
                order.push(k as u32);
            },
        }
        .round();
        self.rounds_done += 1;
        // A serial point in the region's spine, as between PBFS layers.
        self.last_order = self.order.take();
        Some(first_leaf)
    }

    fn verify(&mut self) -> Result<(), String> {
        let serial = 0..=Self::SHAPE.leaves as u32;
        if self.last_order.iter().copied().eq(serial) {
            Ok(())
        } else {
            Err(format!(
                "round {}: list order {:?} is not the serial 0..={}",
                self.rounds_done,
                self.last_order,
                Self::SHAPE.leaves
            ))
        }
    }

    fn verify_final(&mut self) -> Result<(), String> {
        let shape = Self::SHAPE;
        let mut per_round = vec![1u64; shape.reducers];
        for k in 1..=shape.leaves {
            for i in shape.targets(k) {
                per_round[i] += 1;
            }
        }
        for (i, (sum, per)) in self.sums.iter().zip(per_round).enumerate() {
            let (got, want) = (sum.get_cloned(), per * self.rounds_done);
            if got != want {
                return Err(format!(
                    "sum {i} holds {got} after {} rounds, serial total is {want}",
                    self.rounds_done
                ));
            }
        }
        Ok(())
    }

    fn lookups_issued(&self) -> Option<u64> {
        let shape = Self::SHAPE;
        let per_round = shape.reducers as u64 + 1 + shape.leaves as u64 * shape.views_per_leaf();
        Some(self.rounds_done * per_round)
    }

    fn check_shape(&self, reps: u64, d: &Counters) -> Result<(), String> {
        let shape = Self::SHAPE;
        let steals = shape.leaves as u64 * reps;
        if d.sched.stolen_joins != steals {
            return Err(format!(
                "stolen_joins is {}, the spine forces {} x {reps} rounds = {steals}",
                d.sched.stolen_joins, shape.leaves
            ));
        }
        let views = steals * shape.views_per_leaf();
        if d.ins.transferal_views != views {
            return Err(format!(
                "transferal_views is {}, {steals} steals x {} views is {views}",
                d.ins.transferal_views,
                shape.views_per_leaf()
            ));
        }
        if d.ins.merge_pairs == 0 {
            return Err("merge_pairs is 0: no hypermerge reduced anything".to_owned());
        }
        Ok(())
    }
}
