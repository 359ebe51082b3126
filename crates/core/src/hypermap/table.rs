//! The hypermap hash table, re-implemented in the style of the Cilk++ /
//! Cilk Plus runtime (§3).
//!
//! Cilk Plus hashes the reducer's address into a bucket array of chained
//! nodes, expanding (doubling and rehashing) when the load factor reaches
//! one. The observable cost characteristics the paper reports follow from
//! that structure: a lookup's time "depends on how many items the hashed
//! bucket happens to contain, as well as whether it triggers a hash-table
//! expansion" (§8, Figure 6 discussion). We keep exactly that structure —
//! chained buckets, multiplicative hashing of the reducer id (our stand-in
//! for its address), load-factor-1 doubling — so those effects reproduce.

use cilkm_spa::ViewPair;

struct Node {
    key: u64,
    pair: ViewPair,
    next: Option<Box<Node>>,
}

/// A context's hypermap: reducer id → local view.
pub struct HyperMap {
    buckets: Vec<Option<Box<Node>>>,
    len: usize,
}

// SAFETY: the raw view pointers stored in the buckets travel with their
// owning context (one thread at a time) and point at `M::View: Send`
// values, so moving the whole table between threads is sound.
unsafe impl Send for HyperMap {}

const INITIAL_BUCKETS: usize = 8;

#[inline]
fn hash(key: u64, n_buckets: usize) -> usize {
    // The Cilk Plus `hashfun` shape: the reducer's *address* xor-shifted
    // down to a bucket index (the paper, §3: "the address of a reducer is
    // used as a key to hash the local view").
    let mut k = key;
    k ^= k >> 21;
    k ^= k >> 8;
    (k as usize) & (n_buckets - 1)
}

impl HyperMap {
    /// An empty map. Allocation-free — detach is a pointer switch (§7).
    pub fn new() -> HyperMap {
        HyperMap {
            buckets: Vec::new(),
            len: 0,
        }
    }

    /// Number of views stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the map holds no views.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Looks up the view pair for `key`, walking the bucket chain.
    #[inline]
    pub fn get(&self, key: u64) -> Option<ViewPair> {
        if self.buckets.is_empty() {
            return None;
        }
        let mut node = self.buckets[hash(key, self.buckets.len())].as_deref();
        while let Some(n) = node {
            if n.key == key {
                return Some(n.pair);
            }
            node = n.next.as_deref();
        }
        None
    }

    /// Inserts a view pair for `key` (which must be absent), expanding the
    /// table first if the load factor would reach one. Returns `true` if
    /// the insert triggered an expansion.
    pub fn insert(&mut self, key: u64, pair: ViewPair) -> bool {
        debug_assert!(self.get(key).is_none(), "hypermap double insert {key}");
        let mut expanded = false;
        if self.buckets.is_empty() {
            self.buckets.resize_with(INITIAL_BUCKETS, || None);
        } else if self.len >= self.buckets.len() {
            self.expand();
            expanded = true;
        }
        let b = hash(key, self.buckets.len());
        let next = self.buckets[b].take();
        self.buckets[b] = Some(Box::new(Node { key, pair, next }));
        self.len += 1;
        expanded
    }

    /// Removes and returns the pair for `key`, if present.
    pub fn remove(&mut self, key: u64) -> Option<ViewPair> {
        if self.buckets.is_empty() {
            return None;
        }
        let b = hash(key, self.buckets.len());
        let mut cursor = &mut self.buckets[b];
        loop {
            match cursor {
                None => return None,
                Some(node) if node.key == key => {
                    let mut node = cursor.take().unwrap();
                    *cursor = node.next.take();
                    self.len -= 1;
                    return Some(node.pair);
                }
                Some(_) => {
                    cursor = &mut cursor.as_mut().unwrap().next;
                }
            }
        }
    }

    /// Drains all entries as `(key, pair)`, leaving the map empty
    /// (buckets retained).
    pub fn drain(&mut self) -> Vec<(u64, ViewPair)> {
        let mut out = Vec::with_capacity(self.len);
        for bucket in &mut self.buckets {
            let mut node = bucket.take();
            while let Some(mut n) = node {
                out.push((n.key, n.pair));
                node = n.next.take();
            }
        }
        self.len = 0;
        out
    }

    /// Visits all entries without modifying the map.
    pub fn for_each(&self, mut f: impl FnMut(u64, ViewPair)) {
        for bucket in &self.buckets {
            let mut node = bucket.as_deref();
            while let Some(n) = node {
                f(n.key, n.pair);
                node = n.next.as_deref();
            }
        }
    }

    /// Longest bucket chain (test/diagnostic aid).
    pub fn max_chain(&self) -> usize {
        self.buckets
            .iter()
            .map(|b| {
                let mut len = 0;
                let mut node = b.as_deref();
                while let Some(n) = node {
                    len += 1;
                    node = n.next.as_deref();
                }
                len
            })
            .max()
            .unwrap_or(0)
    }

    #[cold]
    fn expand(&mut self) {
        let new_size = self.buckets.len() * 2;
        let mut new_buckets: Vec<Option<Box<Node>>> = Vec::new();
        new_buckets.resize_with(new_size, || None);
        for bucket in &mut self.buckets {
            let mut node = bucket.take();
            while let Some(mut n) = node {
                node = n.next.take();
                let b = hash(n.key, new_size);
                n.next = new_buckets[b].take();
                new_buckets[b] = Some(n);
            }
        }
        self.buckets = new_buckets;
    }
}

impl Default for HyperMap {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair(tag: usize) -> ViewPair {
        ViewPair {
            view: (0x1000 + tag * 8) as *mut u8,
            monoid: std::ptr::null(),
        }
    }

    /// Address-like keys, as the real hypermap sees (heap pointers).
    fn key(i: u32) -> u64 {
        0x7f00_0000_0000 + (i as u64) * 64
    }

    #[test]
    fn insert_get_remove() {
        let mut m = HyperMap::new();
        assert!(m.get(key(3)).is_none());
        m.insert(key(3), pair(3));
        assert_eq!(m.get(key(3)), Some(pair(3)));
        assert_eq!(m.remove(key(3)), Some(pair(3)));
        assert!(m.get(key(3)).is_none());
        assert!(m.is_empty());
    }

    #[test]
    fn expansion_preserves_entries() {
        let mut m = HyperMap::new();
        let mut expansions = 0;
        for i in 0..1000u32 {
            if m.insert(key(i), pair(i as usize)) {
                expansions += 1;
            }
        }
        assert!(expansions >= 5, "doubling from 8 to >=1024 several times");
        assert_eq!(m.len(), 1000);
        for i in 0..1000u32 {
            assert_eq!(m.get(key(i)), Some(pair(i as usize)), "key {i}");
        }
    }

    #[test]
    fn remove_from_middle_of_chain() {
        // Force collisions by using many keys in a small table.
        let mut m = HyperMap::new();
        for i in 0..8u32 {
            m.insert(key(i), pair(i as usize));
        }
        assert!(m.max_chain() >= 1);
        for i in (0..8u32).step_by(2) {
            assert_eq!(m.remove(key(i)), Some(pair(i as usize)));
        }
        for i in 0..8u32 {
            if i % 2 == 0 {
                assert!(m.get(key(i)).is_none());
            } else {
                assert_eq!(m.get(key(i)), Some(pair(i as usize)));
            }
        }
    }

    #[test]
    fn drain_empties_and_returns_all() {
        let mut m = HyperMap::new();
        for i in 0..50u32 {
            m.insert(key(i), pair(i as usize));
        }
        let mut d = m.drain();
        d.sort_by_key(|e| e.0);
        assert_eq!(d.len(), 50);
        assert_eq!(d[49], (key(49), pair(49)));
        assert!(m.is_empty());
        // Reusable after drain.
        m.insert(key(7), pair(7));
        assert_eq!(m.get(key(7)), Some(pair(7)));
    }

    #[test]
    fn for_each_visits_everything() {
        let mut m = HyperMap::new();
        for i in 0..20u32 {
            m.insert(key(i * 3), pair(i as usize));
        }
        let mut n = 0;
        m.for_each(|_, _| n += 1);
        assert_eq!(n, 20);
        assert_eq!(m.len(), 20);
    }

    #[test]
    fn new_map_allocates_nothing_until_insert() {
        let m = HyperMap::new();
        assert_eq!(m.buckets.capacity(), 0);
    }
}
