//! The bag of PBFS: an unordered-set container of vertices with O(1)
//! amortized insertion, kept as an **ordered list of blocks**.
//!
//! ```text
//! Bag { blocks: [B0] [B1] [B2] …      // each 1..=BLOCK elements, in fill order
//!       tail:   [T; < BLOCK]          // the block being filled, inline
//!       len }
//! ```
//!
//! `insert` pushes onto the tail, and a tail that fills is moved onto the
//! end of `blocks`. [`Bag::append`] tops the tail up from the caller's
//! buffer and adopts the rest of that buffer as the new tail, or as a
//! block when it is a full one, so a buffer of [`BLOCK`] elements given
//! to an empty tail is never copied. `union` is concatenation: it seals
//! `self`'s tail as a block, moves `other`'s blocks after it and takes
//! `other`'s tail. That costs one pointer move per block of `other`,
//! where Leiserson & Schardl's pennant bag unites in O(log n). On two
//! workers PBFS's reducer unites about two non-empty views a layer, and
//! the moves stay small beside the walk: 9 a layer on a 73³ grid, and
//! 193 in the largest union seen on R-MAT, whose layers are thousands of
//! blocks (DESIGN.md §18).
//!
//! # Order
//!
//! A bag is unordered as a set, but its walks are not arbitrary: both
//! visit the blocks in the order they were listed, then the tail, and a
//! union lists the left operand before the right. A reducer folds its
//! views in serial order, so the next layer of a search lists its
//! vertices in the order of the grains that discovered them. The reason
//! is the memory system, not the contract:
//!
//! * on a graph whose numbering has locality (a grid), a walk in fill
//!   order moves through `dist` and the adjacency arrays the way the
//!   serial search does;
//! * the parallel walk halves the block list by index, so the forking
//!   worker keeps the first half and a thief gets the second. A worker
//!   that walked a contiguous run of layer d therefore gets back, at
//!   layer d + 1, the run it discovered, and the `dist` lines it wrote
//!   stay in its cache.
//!
//! DESIGN.md §18 has the measurements behind both.
//!
//! A block is the smallest unit of a parallel walk: a traversal grain is
//! a run of whole blocks, never part of one, so a `grain` argument below
//! [`BLOCK`] means "one block per grain", not a finer split.
//!
//! Bag union is associative with the empty bag as identity, which is
//! exactly what makes the bag a reducer ([`BagMonoid`]): PBFS declares
//! its "next layer" bag as a reducer so logically parallel branches can
//! insert discovered vertices without determinacy races.

use cilkm_core::Monoid;
use cilkm_runtime::join;

/// Elements in a full block, and the tail's capacity. PBFS flushes its
/// discovery buffers at this size so a full buffer is a block as it
/// stands.
pub const BLOCK: usize = 128;

/// An unordered multiset with O(1) insert, walked in the order it was
/// filled.
pub struct Bag<T> {
    /// Sealed blocks in fill order, each of 1..=[`BLOCK`] elements. All
    /// are full except where a union sealed a partial tail.
    blocks: Vec<Vec<T>>,
    /// The block being filled: always fewer than [`BLOCK`] elements.
    tail: Vec<T>,
    len: usize,
}

impl<T> Bag<T> {
    /// An empty bag. Allocates nothing until the first element arrives.
    pub fn new() -> Bag<T> {
        Bag {
            blocks: Vec::new(),
            tail: Vec::new(),
            len: 0,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the bag holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts one element: a push onto the tail, which becomes a block
    /// when it fills.
    pub fn insert(&mut self, value: T) {
        if self.tail.capacity() < BLOCK {
            // Room for a whole block, so filling it never regrows it.
            self.tail.reserve_exact(BLOCK - self.tail.len());
        }
        self.tail.push(value);
        self.len += 1;
        if self.tail.len() == BLOCK {
            self.blocks.push(std::mem::take(&mut self.tail));
        }
    }

    /// Adds every element of `items` after those already in the bag. Up
    /// to [`BLOCK`] elements, the tail is topped up from the front of
    /// `items` and the buffer with the rest becomes the new tail, or a
    /// block if it is a full one; a longer vector is inserted element by
    /// element.
    pub fn append(&mut self, mut items: Vec<T>) {
        if items.len() > BLOCK {
            items.into_iter().for_each(|x| self.insert(x));
            return;
        }
        self.len += items.len();
        if !self.tail.is_empty() {
            let room = BLOCK - self.tail.len();
            if items.len() < room {
                self.tail.append(&mut items);
                return;
            }
            self.tail.extend(items.drain(..room));
            self.blocks.push(std::mem::take(&mut self.tail));
        }
        match items.len() {
            0 => {}
            BLOCK => self.blocks.push(items),
            _ => self.tail = items,
        }
    }

    /// Appends `other` to `self`: `self`'s tail is sealed as a block,
    /// `other`'s blocks follow it, and `other`'s tail becomes the tail.
    /// An empty side costs nothing: no allocation, and no block of the
    /// other side moves.
    pub fn union(&mut self, mut other: Bag<T>) {
        if other.is_empty() {
            return;
        }
        if self.is_empty() {
            *self = other;
            return;
        }
        self.len += other.len;
        if !self.tail.is_empty() {
            self.blocks.push(std::mem::take(&mut self.tail));
        }
        self.blocks.append(&mut other.blocks);
        self.tail = other.tail;
    }

    /// Serial visit of every element, in fill order: the blocks, then the
    /// tail.
    pub fn for_each(&self, f: impl FnMut(&T)) {
        self.blocks.iter().flatten().chain(&self.tail).for_each(f);
    }

    /// Parallel visit: `f` observes each element exactly once, in no
    /// guaranteed order. See [`Bag::for_each_parallel_grains`] for how
    /// the work is split.
    pub fn for_each_parallel<F>(&self, grain: usize, f: &F)
    where
        T: Sync,
        F: Fn(&T) + Sync,
    {
        self.for_each_parallel_grains(grain, &|| (), &|(), x| f(x), &|()| {});
    }

    /// Parallel visit with per-grain state: each serial grain of the
    /// traversal gets `init()` state, every element in the grain is fed
    /// to `body`, and `flush` consumes the state when the grain ends.
    ///
    /// The blocks, with a non-empty tail counted as one more, are halved
    /// by index until a run holds at most `max(1, grain / BLOCK)` of
    /// them, and each run is one grain. The forking worker walks the
    /// first half and leaves the second to a thief, so every worker
    /// walks a contiguous run of the fill order.
    ///
    /// This is the shape PBFS needs: the grain state is a buffer of
    /// discovered vertices, and `flush` performs one reducer access per
    /// grain rather than one per element — which is why the paper's
    /// Figure 10(b) lookup counts are thousands, not millions.
    pub fn for_each_parallel_grains<S, I, B, FL>(
        &self,
        grain: usize,
        init: &I,
        body: &B,
        flush: &FL,
    ) where
        T: Sync,
        I: Fn() -> S + Sync,
        B: Fn(&mut S, &T) + Sync,
        FL: Fn(S) + Sync,
    {
        /// Walks `blocks` then `tail` in runs of at most `per_grain`.
        fn go<T, S, I, B, FL>(
            blocks: &[Vec<T>],
            tail: &[T],
            per_grain: usize,
            init: &I,
            body: &B,
            flush: &FL,
        ) where
            T: Sync,
            I: Fn() -> S + Sync,
            B: Fn(&mut S, &T) + Sync,
            FL: Fn(S) + Sync,
        {
            if blocks.len() + usize::from(!tail.is_empty()) > per_grain {
                // At least one block goes left, and a lone block splits
                // from the tail.
                let (first, second) = blocks.split_at((blocks.len() / 2).max(1));
                join(
                    || go(first, &[], per_grain, init, body, flush),
                    || go(second, tail, per_grain, init, body, flush),
                );
            } else {
                let mut state = init();
                for x in blocks.iter().flatten().chain(tail) {
                    body(&mut state, x);
                }
                flush(state);
            }
        }
        if !self.is_empty() {
            let per_grain = (grain / BLOCK).max(1);
            go(&self.blocks, &self.tail, per_grain, init, body, flush);
        }
    }

    /// Drains into a plain vector (test/diagnostic aid).
    pub fn into_vec(self) -> Vec<T>
    where
        T: Clone,
    {
        let mut out = Vec::with_capacity(self.len);
        self.for_each(|x| out.push(x.clone()));
        out
    }
}

impl<T> Default for Bag<T> {
    fn default() -> Self {
        Self::new()
    }
}

/// Bag union as a monoid: the reducer PBFS declares its layers with.
#[derive(Default)]
pub struct BagMonoid<T: Send + 'static> {
    _marker: std::marker::PhantomData<fn() -> T>,
}

impl<T: Send + 'static> BagMonoid<T> {
    /// A bag-union monoid.
    pub fn new() -> BagMonoid<T> {
        BagMonoid {
            _marker: std::marker::PhantomData,
        }
    }
}

impl<T: Send + 'static> Monoid for BagMonoid<T> {
    type View = Bag<T>;

    fn identity(&self) -> Bag<T> {
        Bag::new()
    }

    fn reduce(&self, left: &mut Bag<T>, right: Bag<T>) {
        left.union(right);
    }
}

/// Convenience: the vertex bag used by PBFS over a given graph.
pub type VertexBag = Bag<u32>;

/// Sanity helper for tests: every block holds 1..=[`BLOCK`] elements,
/// the tail fewer than [`BLOCK`], and `len` is their sum.
pub fn check_bag_invariant<T>(bag: &Bag<T>) -> bool {
    bag.blocks.iter().all(|b| (1..=BLOCK).contains(&b.len()))
        && bag.tail.len() < BLOCK
        && bag.len == bag.blocks.iter().map(Vec::len).sum::<usize>() + bag.tail.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use std::ops::Range;

    /// The bag's elements in walk order.
    fn walk(bag: &Bag<u32>) -> Vec<u32> {
        let mut v = Vec::new();
        bag.for_each(|x| v.push(*x));
        v
    }

    /// Blocks a walk hands out, a non-empty tail included.
    fn blocks(bag: &Bag<u32>) -> usize {
        bag.blocks.len() + usize::from(!bag.tail.is_empty())
    }

    fn filled(range: Range<u32>) -> Bag<u32> {
        let mut b = Bag::new();
        range.for_each(|i| b.insert(i));
        b
    }

    fn appended_in_blocks(range: Range<u32>) -> Bag<u32> {
        let mut b = Bag::new();
        let all: Vec<u32> = range.collect();
        all.chunks(BLOCK).for_each(|c| b.append(c.to_vec()));
        b
    }

    fn appended_whole(range: Range<u32>) -> Bag<u32> {
        let mut b = Bag::new();
        b.append(range.collect());
        b
    }

    /// The union of the two halves of `range`: a partial block in the
    /// middle when the first half does not end on a block boundary.
    fn united_halves(range: Range<u32>) -> Bag<u32> {
        let mid = range.start + range.len() as u32 / 2;
        let mut b = filled(range.start..mid);
        b.union(filled(mid..range.end));
        b
    }

    type Build = fn(Range<u32>) -> Bag<u32>;

    /// Every way to fill a bag from one run of values; all but the last
    /// without a union.
    const BUILDS: [(&str, Build); 4] = [
        ("insert", filled),
        ("append blocks", appended_in_blocks),
        ("append whole", appended_whole),
        ("union", united_halves),
    ];

    /// Sizes around the block boundaries.
    const SIZES: [u32; 7] = {
        let b = BLOCK as u32;
        [0, 1, b - 1, b, b + 1, 5 * b + 7, 14 * b + 90]
    };

    /// The address of every element, in walk order: equal before and
    /// after an operation iff no block or tail buffer moved.
    fn addresses(bag: &Bag<u32>) -> Vec<*const u32> {
        let mut v = Vec::new();
        bag.for_each(|x| v.push(x as *const u32));
        v
    }

    #[test]
    fn insert_counts_and_contains_all() {
        let b = filled(0..100);
        assert_eq!(b.len(), 100);
        assert!(check_bag_invariant(&b));
        assert_eq!(walk(&b), (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn union_is_element_conserving() {
        // 300 + 500: the left tail of 44 is sealed between the two sides'
        // full blocks, and the right tail of 116 is kept.
        let mut a = filled(0..300);
        a.union(filled(1000..1500));
        assert_eq!(a.len(), 800);
        assert!(check_bag_invariant(&a));
        let expect: Vec<u32> = (0..300).chain(1000..1500).collect();
        assert_eq!(walk(&a), expect);
    }

    /// The walk of `a ∪ b` is the walk of `a`, then the walk of `b`, for
    /// every pair of sizes and fills.
    #[test]
    fn union_puts_the_left_side_first() {
        let fills = &BUILDS[..3];
        for na in SIZES {
            for nb in SIZES {
                for &(how_a, fill_a) in fills {
                    for &(how_b, fill_b) in fills {
                        let mut a = fill_a(0..na);
                        let b = fill_b(10_000..10_000 + nb);
                        let mut expect = walk(&a);
                        expect.extend(walk(&b));
                        a.union(b);
                        let what = format!("{how_a} {na} ∪ {how_b} {nb}");
                        assert!(check_bag_invariant(&a), "{what}");
                        assert_eq!(walk(&a), expect, "{what}");
                    }
                }
            }
        }
    }

    #[test]
    fn union_with_an_empty_side_moves_nothing() {
        let n = 5 * BLOCK as u32 + 7;
        let mut a = filled(0..n);
        let before = addresses(&a);
        a.union(Bag::new());
        assert_eq!(addresses(&a), before);

        let mut empty = Bag::new();
        empty.union(a);
        assert_eq!(addresses(&empty), before);
        assert_eq!(empty.len(), n as usize);
        assert!(check_bag_invariant(&empty));
    }

    #[test]
    fn append_of_a_full_block_adopts_the_buffer() {
        // Onto an empty tail the buffer becomes a block as it stands.
        let mut b = filled(0..BLOCK as u32);
        let block: Vec<u32> = (1000..1000 + BLOCK as u32).collect();
        let buffer: Vec<*const u32> = block.iter().map(|x| x as *const u32).collect();
        b.append(block);
        assert_eq!(b.len(), 2 * BLOCK);
        assert!(check_bag_invariant(&b));
        assert_eq!(addresses(&b)[BLOCK..], buffer[..]);

        // Onto a partial tail it tops the tail up, and the buffer holds
        // the rest as the new tail.
        let mut b = filled(0..3);
        let block: Vec<u32> = (100..100 + BLOCK as u32).collect();
        let buffer = block.as_ptr();
        b.append(block);
        assert_eq!(b.len(), BLOCK + 3);
        assert!(check_bag_invariant(&b));
        assert_eq!(addresses(&b)[BLOCK], buffer);
        assert_eq!(
            walk(&b),
            (0..3).chain(100..100 + BLOCK as u32).collect::<Vec<_>>()
        );
    }

    #[test]
    fn duplicates_are_kept_multiset() {
        let mut b = Bag::new();
        b.insert(7u32);
        b.insert(7);
        b.insert(7);
        assert_eq!(b.len(), 3);
        let mut counts: HashMap<u32, u32> = HashMap::new();
        b.for_each(|x| *counts.entry(*x).or_default() += 1);
        assert_eq!(counts[&7], 3);
    }

    /// Bags of sizes around the block boundaries, built every way there
    /// is, walked serially and in parallel at grains around `BLOCK`.
    #[test]
    fn every_build_and_every_walk_sees_each_element_once() {
        use cilkm_obs::msync::atomic::{AtomicU32, AtomicUsize, Ordering};
        use cilkm_runtime::Pool;

        let pool = Pool::new(4);
        for (how, build) in BUILDS {
            for n in SIZES {
                let b = build(0..n);
                assert_eq!(b.len(), n as usize, "{how} {n}");
                assert!(check_bag_invariant(&b), "{how} {n}");
                assert_eq!(walk(&b), (0..n).collect::<Vec<_>>(), "{how} {n}");

                for grain in [1, BLOCK - 1, BLOCK, 4 * BLOCK] {
                    let hits: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
                    let inits = AtomicUsize::new(0);
                    let flushes = AtomicUsize::new(0);
                    pool.run(|| {
                        b.for_each_parallel_grains(
                            grain,
                            &|| {
                                inits.fetch_add(1, Ordering::Relaxed);
                                0usize
                            },
                            &|seen: &mut usize, &x: &u32| {
                                hits[x as usize].fetch_add(1, Ordering::Relaxed);
                                *seen += 1;
                            },
                            &|seen| {
                                assert!(seen > 0, "empty grain: {how} {n} grain {grain}");
                                flushes.fetch_add(1, Ordering::Relaxed);
                            },
                        );
                    });
                    assert!(
                        hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                        "{how} {n} grain {grain}"
                    );
                    let grains = inits.load(Ordering::Relaxed);
                    assert_eq!(grains, flushes.load(Ordering::Relaxed));
                    if grain <= BLOCK {
                        // A block is the smallest grain; so is the tail.
                        assert_eq!(grains, blocks(&b), "{how} {n}");
                    }
                }
            }
        }
    }

    /// Bags filled in order are walked in order: by `for_each`, and by
    /// the parallel walk when one worker runs every fork inline.
    #[test]
    fn walks_visit_blocks_in_the_order_they_were_filled() {
        use cilkm_obs::msync::atomic::{AtomicU32, Ordering};
        use cilkm_runtime::Pool;

        let pool = Pool::new(1);
        for (how, build) in BUILDS {
            for n in SIZES {
                let b = build(0..n);
                assert_eq!(walk(&b), (0..n).collect::<Vec<_>>(), "{how} {n}");

                for grain in [1, BLOCK, 4 * BLOCK] {
                    let seen = AtomicU32::new(0);
                    pool.run(|| {
                        b.for_each_parallel(grain, &|&x| {
                            let at = seen.fetch_add(1, Ordering::Relaxed);
                            assert_eq!(x, at, "{how} {n} grain {grain}");
                        });
                    });
                    assert_eq!(seen.into_inner(), n, "{how} {n} grain {grain}");
                }
            }
        }
    }

    /// What the outermost fork of a walk leaves for a thief: the blocks
    /// after index `blocks / 2`, and the tail. The forking worker holds
    /// its first element back until a thief has started, and a thief
    /// takes the oldest fork first.
    #[test]
    fn the_first_fork_offers_a_thief_the_second_half() {
        use cilkm_obs::msync::atomic::{AtomicUsize, Ordering};
        use cilkm_runtime::{current_worker_index, Pool};
        use std::time::{Duration, Instant};

        const NONE: usize = usize::MAX;
        let pool = Pool::new(2);
        for full in 2..=64usize {
            for tail in [0, 90] {
                let n = full * BLOCK + tail;
                let b = filled(0..n as u32);
                let first_stolen = AtomicUsize::new(NONE);
                pool.run(|| {
                    let forker = current_worker_index();
                    b.for_each_parallel(BLOCK, &|&x| {
                        if current_worker_index() != forker {
                            let _ = first_stolen.compare_exchange(
                                NONE,
                                x as usize,
                                Ordering::Relaxed,
                                Ordering::Relaxed,
                            );
                        } else if x == 0 {
                            let held = Instant::now();
                            while first_stolen.load(Ordering::Relaxed) == NONE
                                && held.elapsed() < Duration::from_secs(10)
                            {
                                std::thread::yield_now();
                            }
                        }
                    });
                });
                let what = format!("{full} blocks + {tail}");
                let first_stolen = first_stolen.into_inner();
                assert_ne!(first_stolen, NONE, "{what}: the first fork held no element");
                assert_eq!(first_stolen, full / 2 * BLOCK, "{what}");
            }
        }
    }

    #[test]
    fn parallel_for_each_visits_exactly_once() {
        use cilkm_obs::msync::atomic::{AtomicU32, Ordering};
        use cilkm_runtime::Pool;
        let b = filled(0..1000);
        let hits: Vec<AtomicU32> = (0..1000).map(|_| AtomicU32::new(0)).collect();
        let pool = Pool::new(4);
        pool.run(|| {
            b.for_each_parallel(32, &|&x| {
                hits[x as usize].fetch_add(1, Ordering::Relaxed);
            });
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn monoid_laws_for_bags() {
        let m = BagMonoid::<u32>::new();
        let mut v = m.identity();
        assert!(v.is_empty());
        let mut a = Bag::new();
        a.insert(1);
        m.reduce(&mut v, a);
        assert_eq!(v.len(), 1);
    }
}
