//! The bag data structure of Leiserson & Schardl's PBFS (SPAA 2010): an
//! unordered-set container with O(1) amortized insertion and O(log n)
//! union, built from *pennants* of *blocks*.
//!
//! A **pennant** of rank k is a tree of 2^k nodes whose root has exactly
//! one child, that child being a complete binary tree of 2^k − 1 nodes.
//! Two pennants of equal rank combine into one of the next rank in
//! constant time. As in the bag Leiserson & Schardl ship, a node does not
//! hold one element: it holds one *full block* of [`BLOCK`] elements, so
//! the allocator and the pointer chase are paid once per block, not once
//! per element, and a walk reads contiguous slices.
//!
//! A **bag** is a backbone of pennants of distinct ranks — the binary
//! representation of its count of full blocks — plus one partly filled
//! block, the **hopper**:
//!
//! ```text
//! Bag { pennants: [rank 0] [rank 1]   ─      [rank 3] …     hopper: [T; < BLOCK]
//!                     │        │                 │
//!                   Node     Node              Node     Node { block: [T; BLOCK],
//!                              │                 │             left, right }
//!                            Node              Node
//!                                             ╱    ╲
//!                                          Node    Node …
//! ```
//!
//! `insert` is a push onto the hopper; a hopper that fills becomes a
//! rank-0 pennant and the backbone is binary-incremented (amortized O(1)
//! pointer work per *block*). `union` is binary addition over the two
//! backbones plus one hopper merge, which inserts at most one extra
//! block. [`Bag::append`] adopts a caller's buffer of exactly [`BLOCK`]
//! elements as a node without copying it.
//!
//! A block is the smallest unit of a parallel walk: a traversal grain is
//! a group of whole nodes (or the hopper), never part of one. The tree
//! forks where it has children, and a slice of [`BLOCK`] elements has
//! none: splitting it would take a second, index-based recursion to
//! parallelise what PBFS turns into a few microseconds of work. A `grain`
//! argument below [`BLOCK`] therefore means "one node per grain", not a
//! finer split.
//!
//! # Walk order
//!
//! A bag is unordered, but its walks are not arbitrary: both visit the
//! blocks **in the order they were filled** — the pennants from the
//! highest rank down, then the hopper, and inside a pennant in-order:
//! right subtree, the node's own block, left subtree.
//! `Pennant::union(older, newer)` hangs `newer`'s root under `older`'s
//! with `older`'s old subtree as its right child, so by induction that
//! in-order is exactly `older`'s blocks followed by `newer`'s, and
//! `push_block` and `union` always pass the older side first. The reason is the memory system,
//! not the contract: a search fills its blocks in the order it meets the
//! vertices, and on a graph whose numbering has locality (a grid) a walk
//! in fill order moves through `dist` and the adjacency arrays the way
//! the serial search does, while the pre-order walk this replaced went
//! roughly newest first and restarted every hardware prefetch stream at
//! each block boundary. On `grid3d(73)` a whole search over a frontier
//! of plain 128-element blocks takes 7.1–7.3 ms visiting them in fill
//! order and 10.4–11.2 ms newest first, against 5.5–5.7 ms for
//! [`bfs_serial`](crate::bfs_serial) (EXPERIMENTS.md "PR 24").
//!
//! The parallel walk forks along the same order. A pennant splits into
//! the two pennants its last union joined (the older half runs on the
//! forking worker, the newer half is what a thief finds), so every
//! worker keeps a contiguous run of blocks. A bag peels its highest
//! pennant: `join(top pennant, rest of the backbone + hopper)`, and the
//! rest again. The first job a thief can take is then everything after
//! the top pennant: never more than half of the bag, and at least a
//! third of it whenever the rest is at least half the top pennant (6 of
//! 14 blocks), where it used to be the hopper, the smallest piece.
//!
//! Bag union is associative with the empty bag as identity, which is
//! exactly what makes the bag a reducer ([`BagMonoid`]): PBFS declares
//! its "next layer" bag as a reducer so logically parallel branches can
//! insert discovered vertices without determinacy races.

use cilkm_core::Monoid;
use cilkm_runtime::join;

/// Elements per pennant node, and the hopper's capacity. PBFS flushes its
/// discovery buffers at this size so a full buffer is a node as it stands.
pub const BLOCK: usize = 128;

/// One node of a pennant: a full block and the two subtrees.
struct Node<T> {
    /// Exactly [`BLOCK`] elements.
    block: Vec<T>,
    left: Option<Box<Node<T>>>,
    right: Option<Box<Node<T>>>,
}

impl<T> Node<T> {
    /// Serial in-order visit of every element under this node: right
    /// subtree, this block, left subtree, which is the order the blocks
    /// were filled in (module doc, "Walk order").
    fn for_each(&self, f: &mut impl FnMut(&T)) {
        if let Some(r) = &self.right {
            r.for_each(f);
        }
        self.block.iter().for_each(&mut *f);
        if let Some(l) = &self.left {
            l.for_each(f);
        }
    }
}

/// Runs one traversal grain over `items`: fresh state, every element,
/// flush.
fn run_grain<T, S>(
    items: &[T],
    init: &impl Fn() -> S,
    body: &impl Fn(&mut S, &T),
    flush: &impl Fn(S),
) {
    let mut state = init();
    for x in items {
        body(&mut state, x);
    }
    flush(state);
}

/// A pennant of rank k: 2^k nodes, `BLOCK << k` elements.
pub struct Pennant<T> {
    root: Box<Node<T>>,
    k: u8,
}

impl<T> Pennant<T> {
    /// A one-node pennant (k = 0) holding `block` as it stands.
    ///
    /// # Panics
    ///
    /// Panics unless `block` holds exactly [`BLOCK`] elements.
    pub fn singleton(block: Vec<T>) -> Pennant<T> {
        assert_eq!(block.len(), BLOCK, "a pennant node holds a full block");
        Pennant {
            root: Box::new(Node {
                block,
                left: None,
                right: None,
            }),
            k: 0,
        }
    }

    /// Number of elements: `BLOCK << k`.
    pub fn len(&self) -> usize {
        BLOCK << self.k
    }

    /// Always `false` — pennants are never empty.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Combines two pennants of equal rank into one of the next rank,
    /// in constant time (FIG. "pennant union" of the PBFS paper).
    ///
    /// # Panics
    ///
    /// Panics if the ranks differ.
    pub fn union(mut self, mut other: Pennant<T>) -> Pennant<T> {
        assert_eq!(self.k, other.k, "pennant union requires equal sizes");
        other.root.right = self.root.left.take();
        self.root.left = Some(other.root);
        self.k += 1;
        self
    }

    /// Serial visit of every element.
    pub fn for_each(&self, f: &mut impl FnMut(&T)) {
        self.root.for_each(f);
    }

    /// Parallel visit: subtrees above `grain` elements are processed as
    /// separate fork-join branches. `f` observes each element exactly
    /// once; no visit order is guaranteed (bags are unordered).
    pub fn for_each_parallel<F>(&self, grain: usize, f: &F)
    where
        T: Sync,
        F: Fn(&T) + Sync,
    {
        self.for_each_parallel_grains(grain, &|| (), &|(), x| f(x), &|()| {});
    }

    /// Parallel visit with per-grain state: each serial grain of the
    /// traversal gets `init()` state, every element in the grain is fed
    /// to `body`, and `flush` consumes the state when the grain ends. A
    /// grain is a subtree of at most `grain` elements, and never less
    /// than one node.
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
        /// Walks the pennant of `nodes` nodes made of `head`'s block and
        /// the complete tree `tree` under it.
        fn walk_par<T, S, I, B, FL>(
            head: &Node<T>,
            tree: Option<&Node<T>>,
            nodes: usize,
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
            match tree {
                // `Pennant::union` undone: `head` over `mid`'s right
                // subtree is the older half, `mid` over its left subtree
                // the newer, and each worker keeps a contiguous run.
                Some(mid) if nodes * BLOCK > grain => {
                    let half = |head, tree: &Option<Box<Node<T>>>| {
                        walk_par(head, tree.as_deref(), nodes / 2, grain, init, body, flush)
                    };
                    join(|| half(head, &mid.right), || half(mid, &mid.left));
                }
                _ => {
                    let mut state = init();
                    let mut visit = |x: &T| body(&mut state, x);
                    head.block.iter().for_each(&mut visit);
                    if let Some(tree) = tree {
                        tree.for_each(&mut visit);
                    }
                    flush(state);
                }
            }
        }
        let tree = self.root.left.as_deref();
        walk_par(&self.root, tree, 1 << self.k, grain, init, body, flush);
    }
}

/// An unordered multiset with O(1) insert and O(log n) union.
pub struct Bag<T> {
    /// `pennants[k]` holds the pennant of rank k, if the k-th bit of the
    /// full-block count is set — the binary-counter backbone.
    pennants: Vec<Option<Pennant<T>>>,
    /// The partly filled block: always fewer than [`BLOCK`] elements.
    hopper: Vec<T>,
    len: usize,
}

impl<T> Bag<T> {
    /// An empty bag. Allocates nothing until the first element arrives.
    pub fn new() -> Bag<T> {
        Bag {
            pennants: Vec::new(),
            hopper: Vec::new(),
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

    /// Inserts one element: a push onto the hopper, which becomes a node
    /// when it fills.
    pub fn insert(&mut self, value: T) {
        self.ready_hopper();
        self.hopper.push(value);
        self.len += 1;
        if self.hopper.len() == BLOCK {
            let full = std::mem::take(&mut self.hopper);
            self.push_block(full);
        }
    }

    /// Adds every element of `items`, taking over its buffer where it
    /// can: a vector of exactly [`BLOCK`] elements becomes a node as it
    /// stands, and a shorter one becomes the hopper if the hopper is
    /// empty (and is merged into it otherwise). A longer one is inserted
    /// element by element.
    pub fn append(&mut self, items: Vec<T>) {
        match items.len() {
            BLOCK => {
                self.len += BLOCK;
                self.push_block(items);
            }
            n if n < BLOCK => {
                self.len += n;
                self.pour(items);
            }
            _ => items.into_iter().for_each(|x| self.insert(x)),
        }
    }

    /// Unions `other` into `self`: binary addition over the backbones,
    /// then one hopper merge. An empty side costs nothing: no allocation,
    /// and no node or block of the other side moves.
    pub fn union(&mut self, other: Bag<T>) {
        if other.is_empty() {
            return;
        }
        if self.is_empty() {
            *self = other;
            return;
        }
        let Bag {
            pennants,
            hopper,
            len,
        } = other;
        self.len += len;
        if self.pennants.len() < pennants.len() {
            self.pennants.resize_with(pennants.len(), || None);
        }
        let mut theirs = pennants.into_iter();
        let mut carry: Option<Pennant<T>> = None;
        for slot in &mut self.pennants {
            if carry.is_none() && theirs.len() == 0 {
                break;
            }
            // Full adder over pennants.
            let (sum, new_carry) = match (slot.take(), theirs.next().flatten(), carry.take()) {
                (None, None, None) => (None, None),
                (Some(x), None, None) | (None, Some(x), None) | (None, None, Some(x)) => {
                    (Some(x), None)
                }
                (Some(x), Some(y), None) | (Some(x), None, Some(y)) | (None, Some(x), Some(y)) => {
                    (None, Some(x.union(y)))
                }
                (Some(x), Some(y), Some(z)) => (Some(z), Some(x.union(y))),
            };
            *slot = sum;
            carry = new_carry;
        }
        if carry.is_some() {
            self.pennants.push(carry);
        }
        self.pour(hopper);
    }

    /// Gives the hopper room for a whole block, so filling it never
    /// regrows it.
    fn ready_hopper(&mut self) {
        if self.hopper.capacity() < BLOCK {
            self.hopper.reserve_exact(BLOCK - self.hopper.len());
        }
    }

    /// Adds a full block as a rank-0 pennant: binary increment over the
    /// backbone. Does not touch `len`.
    fn push_block(&mut self, block: Vec<T>) {
        let mut carry = Pennant::singleton(block);
        for slot in &mut self.pennants {
            match slot.take() {
                None => {
                    *slot = Some(carry);
                    return;
                }
                Some(existing) => carry = existing.union(carry),
            }
        }
        self.pennants.push(Some(carry));
    }

    /// Merges a partial block with the hopper: the shorter of the two is
    /// moved onto the longer (so an empty hopper adopts `partial` whole),
    /// and if that fills a block it becomes a node and the remainder is
    /// the new hopper. Does not touch `len`.
    fn pour(&mut self, mut partial: Vec<T>) {
        debug_assert!(partial.len() < BLOCK);
        if partial.len() > self.hopper.len() {
            std::mem::swap(&mut self.hopper, &mut partial);
        }
        if partial.is_empty() {
            return;
        }
        self.ready_hopper();
        let room = BLOCK - self.hopper.len();
        let keep = partial.len().saturating_sub(room);
        self.hopper.extend(partial.drain(keep..));
        if self.hopper.len() == BLOCK {
            let full = std::mem::replace(&mut self.hopper, partial);
            self.push_block(full);
        }
    }

    /// Serial visit of every element, oldest block first: the pennants
    /// from the highest rank down, then the hopper.
    pub fn for_each(&self, mut f: impl FnMut(&T)) {
        for p in self.pennants.iter().rev().flatten() {
            p.for_each(&mut f);
        }
        self.hopper.iter().for_each(f);
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

    /// Parallel visit with per-grain state — see
    /// [`Pennant::for_each_parallel_grains`]. The highest pennant is
    /// peeled off and walked by the forking worker while the rest of the
    /// backbone and the hopper, together less than half of the bag, wait
    /// for a thief; the rest splits the same way, and the hopper is a
    /// grain of its own. Each serial grain of the whole-bag traversal
    /// receives `init()` state and a final `flush`.
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
        /// Walks `len` elements: `pennants` from the top down, then
        /// `hopper`.
        fn go<T, S, I, B, FL>(
            pennants: &[Option<Pennant<T>>],
            hopper: &[T],
            len: usize,
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
            match pennants.split_last() {
                None if hopper.is_empty() => {}
                None => run_grain(hopper, init, body, flush),
                Some((None, rest)) => go(rest, hopper, len, grain, init, body, flush),
                Some((Some(top), _)) if top.len() == len => {
                    top.for_each_parallel_grains(grain, init, body, flush);
                }
                Some((Some(top), rest)) => {
                    join(
                        || top.for_each_parallel_grains(grain, init, body, flush),
                        || go(rest, hopper, len - top.len(), grain, init, body, flush),
                    );
                }
            }
        }
        go(
            &self.pennants,
            &self.hopper,
            self.len,
            grain,
            init,
            body,
            flush,
        );
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

/// Sanity helper for tests: the pennant of rank k has 2^k nodes, every
/// node holds exactly [`BLOCK`] elements, the hopper holds fewer, and
/// `len` is `BLOCK × nodes + hopper`.
pub fn check_bag_invariant<T>(bag: &Bag<T>) -> bool {
    /// Nodes under `node`, or `None` if one of them is not a full block.
    fn full_nodes<T>(node: &Node<T>) -> Option<usize> {
        if node.block.len() != BLOCK {
            return None;
        }
        let mut nodes = 1;
        for child in [&node.left, &node.right].into_iter().flatten() {
            nodes += full_nodes(child)?;
        }
        Some(nodes)
    }
    let mut nodes = 0usize;
    for (k, p) in bag.pennants.iter().enumerate() {
        if let Some(p) = p {
            if usize::from(p.k) != k || full_nodes(&p.root) != Some(1 << k) {
                return false;
            }
            nodes += 1 << k;
        }
    }
    bag.hopper.len() < BLOCK && bag.len == BLOCK * nodes + bag.hopper.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn collect(bag: &Bag<u32>) -> Vec<u32> {
        let mut v = Vec::new();
        bag.for_each(|x| v.push(*x));
        v.sort_unstable();
        v
    }

    fn filled(range: std::ops::Range<u32>) -> Bag<u32> {
        let mut b = Bag::new();
        range.for_each(|i| b.insert(i));
        b
    }

    /// The address of every element, in walk order: equal before and
    /// after an operation iff no node, block or hopper buffer moved.
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
        assert_eq!(collect(&b), (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn union_is_element_conserving() {
        // 300 + 500: backbones 0b10 + 0b11 carry through two ranks, and
        // hoppers of 44 + 116 fill a block and leave 32 over.
        let mut a = filled(0..300);
        a.union(filled(1000..1500));
        assert_eq!(a.len(), 800);
        assert!(check_bag_invariant(&a));
        let expect: Vec<u32> = (0..300).chain(1000..1500).collect();
        assert_eq!(collect(&a), expect);
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
        let mut b = filled(0..3);
        let block: Vec<u32> = (100..100 + BLOCK as u32).collect();
        let buffer = block.as_ptr();
        b.append(block);
        assert_eq!(b.len(), BLOCK + 3);
        assert!(check_bag_invariant(&b));
        assert!(addresses(&b).contains(&buffer));
    }

    #[test]
    #[should_panic(expected = "equal sizes")]
    fn mismatched_pennant_union_panics() {
        let p = || Pennant::singleton(vec![0u32; BLOCK]);
        let _ = p().union(p().union(p()));
    }

    #[test]
    #[should_panic(expected = "full block")]
    fn pennant_node_rejects_a_short_block() {
        let _ = Pennant::singleton(vec![0u32; BLOCK - 1]);
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
        use cilkm_runtime::Pool;
        // lint: allow(raw-sync, test-only hit counters exercising the public Pool API from outside the runtime; the runtime's msync facade is pub(crate) and deliberately unreachable from here)
        use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};

        type Build = fn(u32) -> Bag<u32>;
        let builds: [(&str, Build); 4] = [
            ("insert", |n| filled(0..n)),
            ("union", |n| {
                let mut b = filled(0..n / 2);
                b.union(filled(n / 2..n));
                b
            }),
            ("append blocks", |n| {
                let mut b = Bag::new();
                let all: Vec<u32> = (0..n).collect();
                all.chunks(BLOCK).for_each(|c| b.append(c.to_vec()));
                b
            }),
            ("append whole", |n| {
                let mut b = Bag::new();
                b.append((0..n).collect());
                b
            }),
        ];

        let pool = Pool::new(4);
        let block = BLOCK as u32;
        for n in [0, 1, block - 1, block, block + 1, 5 * block + 7] {
            for (how, build) in builds {
                let b = build(n);
                assert_eq!(b.len(), n as usize, "{how} {n}");
                assert!(check_bag_invariant(&b), "{how} {n}");
                assert_eq!(collect(&b), (0..n).collect::<Vec<_>>(), "{how} {n}");

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
                        // A node is the smallest grain; so is the hopper.
                        assert_eq!(grains, (n as usize).div_ceil(BLOCK), "{how} {n}");
                    }
                }
            }
        }
    }

    /// Bags filled in order are walked in order: by `for_each`, and by
    /// the parallel walk when one worker runs every fork inline.
    #[test]
    fn walks_visit_blocks_in_the_order_they_were_filled() {
        use cilkm_runtime::Pool;
        // lint: allow(raw-sync, test-only position counter exercising the public Pool API from outside the runtime; the runtime's msync facade is pub(crate) and deliberately unreachable from here)
        use std::sync::atomic::{AtomicU32, Ordering};

        type Build = fn(u32) -> Bag<u32>;
        let builds: [(&str, Build); 3] = [
            ("insert", |n| filled(0..n)),
            ("append blocks", |n| {
                let mut b = Bag::new();
                let all: Vec<u32> = (0..n).collect();
                all.chunks(BLOCK).for_each(|c| b.append(c.to_vec()));
                b
            }),
            ("append whole", |n| {
                let mut b = Bag::new();
                b.append((0..n).collect());
                b
            }),
        ];

        let pool = Pool::new(1);
        let block = BLOCK as u32;
        let sizes = [
            0,
            1,
            block - 1,
            block,
            block + 1,
            5 * block + 7,
            14 * block + 90,
        ];
        for n in sizes {
            let expect: Vec<u32> = (0..n).collect();
            for (how, build) in builds {
                let b = build(n);
                let mut serial = Vec::new();
                b.for_each(|x| serial.push(*x));
                assert_eq!(serial, expect, "{how} {n}");

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

    /// What the outermost fork of a walk leaves for a thief: everything
    /// after the highest pennant (or that pennant's newer half when the
    /// bag is nothing else), which is never more than half of the bag.
    /// The forking worker holds its first element back until a thief has
    /// started, and a thief takes the oldest fork first.
    #[test]
    fn the_first_fork_offers_a_thief_the_newer_half_or_less() {
        use cilkm_runtime::{current_worker_index, Pool};
        // lint: allow(raw-sync, test-only rendezvous between the two workers of a public Pool; the runtime's msync facade is pub(crate) and deliberately unreachable from here)
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::time::{Duration, Instant};

        const NONE: usize = usize::MAX;
        let pool = Pool::new(2);
        for blocks in 2..=64usize {
            for hopper in [0, 90] {
                let n = blocks * BLOCK + hopper;
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
                let what = format!("{blocks} blocks + {hopper}");
                let first_stolen = first_stolen.into_inner();
                assert_ne!(first_stolen, NONE, "{what}: the first fork held no element");
                let offered = n - first_stolen;
                let top = BLOCK << blocks.ilog2();
                let rest = n - top;
                assert_eq!(offered, if rest == 0 { top / 2 } else { rest }, "{what}");
                assert!(2 * offered <= n, "{what}: {offered} of {n}");
                if rest == 0 || 2 * rest >= top {
                    assert!(3 * offered >= n, "{what}: {offered} of {n}");
                }
            }
        }
    }

    #[test]
    fn parallel_for_each_visits_exactly_once() {
        use cilkm_runtime::Pool;
        // lint: allow(raw-sync, test-only hit counters exercising the public Pool API from outside the runtime; the runtime's msync facade is pub(crate) and deliberately unreachable from here)
        use std::sync::atomic::{AtomicU32, Ordering};
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
