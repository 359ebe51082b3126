//! The forced-steal spine: `f(k) = join(f(k-1), leaf_k)`.
//!
//! The owner descends first, pushing leaves K..1 onto its deque without
//! running any. Its base case then spins until every leaf has *started*,
//! so the only way forward is for a thief to steal all K leaves, back to
//! back, oldest first. The owner then unwinds through K joins whose
//! right side was stolen: K steals, K view transferals and K hypermerges
//! per round, the same in every run.
//!
//! The sizing runs for the issue found a plain `join` ping-pong (one
//! steal per round trip) bistable: the thief either parks between steals
//! or keeps spinning, and the round time flips between two values from
//! run to run. Here the thief finds the next leaf already waiting.
//!
//! Between rounds the thief still idles while the owner merges, and on a
//! virtual machine waking it costs anything from nothing (it was still
//! spinning) to several hundred microseconds (its processor had halted),
//! in phases that last seconds. [`Spine::round`] therefore reports when
//! the first leaf started, so a caller can time the round from there and
//! leave the wake-up out. `pbfs-grid` is the workload that pays for parks.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use cilkm::runtime::join;

/// One round's shape and bodies.
pub struct Spine<'a> {
    /// Leaves (= forced steals) per round.
    pub leaves: usize,
    /// Leaves started so far in this round; reset by [`Spine::round`].
    pub started: &'a AtomicUsize,
    /// When this round's first leaf started, in ns after `origin`.
    pub first_leaf_ns: &'a AtomicU64,
    pub origin: Instant,
    /// Runs on the owner at the bottom of the spine, before it waits.
    pub base: &'a (dyn Fn() + Sync),
    /// Runs on the thief, once per leaf `k` in `1..=leaves`.
    pub leaf: &'a (dyn Fn(usize) + Sync),
}

/// How long the owner waits for a thief before declaring the run broken.
const THIEF_TIMEOUT: Duration = Duration::from_secs(20);

impl Spine<'_> {
    /// Runs one round and returns when its first leaf started. Must be
    /// called on a worker of a pool with at least two workers; with a
    /// single worker nobody can take the leaves.
    pub fn round(&self) -> Instant {
        self.started.store(0, Ordering::Relaxed);
        self.descend(self.leaves);
        // The joins above synchronized with every leaf.
        self.origin + Duration::from_nanos(self.first_leaf_ns.load(Ordering::Relaxed))
    }

    fn descend(&self, k: usize) {
        if k == 0 {
            (self.base)();
            self.wait_for_thief();
            return;
        }
        join(
            || self.descend(k - 1),
            || {
                // Thieves take the oldest job first: leaf K.
                if k == self.leaves {
                    let now = self.origin.elapsed().as_nanos() as u64;
                    self.first_leaf_ns.store(now, Ordering::Relaxed);
                }
                // Release: pairs with the owner's Acquire load, so the
                // owner resumes only after seeing every leaf claimed.
                self.started.fetch_add(1, Ordering::Release);
                (self.leaf)(k);
            },
        );
    }

    fn wait_for_thief(&self) {
        let t0 = Instant::now();
        let mut spins = 0u32;
        while self.started.load(Ordering::Acquire) < self.leaves {
            std::hint::spin_loop();
            spins = spins.wrapping_add(1);
            if spins.is_multiple_of(1 << 20) && t0.elapsed() > THIEF_TIMEOUT {
                panic!(
                    "spine: {} of {} leaves stolen after {THIEF_TIMEOUT:?}",
                    self.started.load(Ordering::Relaxed),
                    self.leaves
                );
            }
        }
    }
}

/// Pins the two workers of the pool whose region this is called in to
/// one processor each, the first two this process may use. A one-leaf
/// spine is what gets code onto both workers: the owner pins itself in
/// the base case, the thief in the leaf.
///
/// Left to itself the host sometimes runs both workers on one processor
/// for seconds at a time, which halves parallel speed and, because views
/// then never cross a cache, also halves the cost of a steal: every
/// workload's time flips between two values from phase to phase.
pub fn pin_workers() -> Result<(), String> {
    let cpus = crate::sys::allowed_cpus()?;
    let outcome = std::sync::Mutex::new(Ok(()));
    let pin = |cpu: usize| {
        if let Err(e) = crate::sys::pin_current_thread(cpu) {
            *outcome.lock().expect("no pin panics") = Err(e);
        }
    };
    Spine {
        leaves: 1,
        started: &AtomicUsize::new(0),
        first_leaf_ns: &AtomicU64::new(0),
        origin: Instant::now(),
        base: &|| pin(cpus[0]),
        leaf: &|_| pin(cpus[1]),
    }
    .round();
    outcome.into_inner().expect("no pin panics")
}

#[cfg(test)]
mod tests {
    use super::*;
    use cilkm::prelude::*;

    /// The spine on a 2-worker pool: every leaf is stolen, and a
    /// non-commutative list reducer still comes out in serial order.
    #[test]
    fn spine_round_steals_every_leaf_and_keeps_serial_list_order() {
        const K: usize = 16;
        const ROUNDS: usize = 25;
        let pool = ReducerPool::new(2, Backend::Mmap);
        let list = Reducer::new(&pool, ListMonoid::<u32>::new(), Vec::new());
        let sum = Reducer::new(&pool, SumMonoid::<u64>::new(), 0);
        let (started, first_leaf_ns) = (AtomicUsize::new(0), AtomicU64::new(0));
        let before = pool.stats();
        let lists: Vec<Vec<u32>> = pool.run(|| {
            let spine = Spine {
                leaves: K,
                started: &started,
                first_leaf_ns: &first_leaf_ns,
                origin: Instant::now(),
                base: &|| {
                    list.push(0);
                    sum.add(1);
                },
                leaf: &|k| {
                    list.push(k as u32);
                    sum.add(1);
                },
            };
            (0..ROUNDS)
                .map(|_| {
                    let t0 = Instant::now();
                    let first_leaf = spine.round();
                    assert!(t0 <= first_leaf && first_leaf <= Instant::now());
                    list.take()
                })
                .collect()
        });
        let serial: Vec<u32> = (0..=K as u32).collect();
        for (round, got) in lists.iter().enumerate() {
            assert_eq!(got, &serial, "round {round}");
        }
        assert_eq!(sum.get_cloned(), (ROUNDS * (K + 1)) as u64);
        let after = pool.stats();
        assert_eq!(
            after.stolen_joins - before.stolen_joins,
            (K * ROUNDS) as u64
        );
        assert_eq!(after.inline_joins - before.inline_joins, 0);
    }
}
