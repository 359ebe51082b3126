//! A from-scratch Chase–Lev work-stealing deque.
//!
//! The owner pushes and pops jobs at the *bottom* in LIFO order — which is
//! what makes an unstolen execution mimic the serial one (§3 of the paper)
//! — while thieves steal from the *top*, taking the oldest (shallowest,
//! largest) frames first.
//!
//! The implementation follows Chase & Lev (SPAA 2005) with the C11
//! memory orderings of Lê, Pop, Cohen & Zappa Nardelli (PPoPP 2013).
//! Elements are single machine words (type-erased `JobRef`s stored as
//! `*mut ()`), so every slot access can itself be an atomic load/store and
//! the algorithm needs no data races on plain memory. Buffers grow
//! geometrically; retired buffers are kept alive until the deque is
//! dropped because a concurrent thief may still be reading an old one —
//! the classic, simple reclamation strategy for this structure (total
//! waste is bounded by 2× the peak buffer size).

use std::ptr;
use std::sync::Arc;

use crate::msync::atomic::{fence, AtomicIsize, AtomicPtr, Ordering};
use crate::msync::Mutex;

/// A geometrically grown ring buffer of job slots.
struct Buffer {
    mask: usize,
    slots: Box<[AtomicPtr<()>]>,
}

impl Buffer {
    fn new(cap: usize) -> Box<Buffer> {
        assert!(cap.is_power_of_two());
        let slots = (0..cap)
            .map(|_| AtomicPtr::new(ptr::null_mut()))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Box::new(Buffer {
            mask: cap - 1,
            slots,
        })
    }

    #[inline]
    fn get(&self, i: isize) -> *mut () {
        self.slots[(i as usize) & self.mask].load(Ordering::Relaxed)
    }

    #[inline]
    fn put(&self, i: isize, v: *mut ()) {
        self.slots[(i as usize) & self.mask].store(v, Ordering::Relaxed);
    }

    fn cap(&self) -> usize {
        self.mask + 1
    }
}

/// Shared state of one deque.
struct Shared {
    top: AtomicIsize,
    bottom: AtomicIsize,
    buffer: AtomicPtr<Buffer>,
    /// Retired buffers, freed when the deque is dropped.
    retired: Mutex<Vec<*mut Buffer>>,
}

// SAFETY: `top`/`bottom`/`buffer` are atomics, and the retired-buffer
// list is mutex-guarded; the buffer pointers are heap allocations owned
// by this deque.
unsafe impl Send for Shared {}
// SAFETY: concurrent slot access follows the Chase-Lev protocol — the
// owner operates on `bottom`, thieves claim elements by CAS on `top` —
// so no slot is handed to two threads.
unsafe impl Sync for Shared {}

impl Drop for Shared {
    fn drop(&mut self) {
        // SAFETY: `&mut self` means no worker or stealer is live; the
        // current and retired buffers were all created by
        // `Box::into_raw` in `grow` and each is freed exactly once here.
        unsafe {
            drop(Box::from_raw(self.buffer.load(Ordering::Relaxed)));
            for b in self.retired.get_mut().drain(..) {
                drop(Box::from_raw(b));
            }
        }
    }
}

/// Outcome of a steal attempt.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Steal {
    /// The deque was observed empty.
    Empty,
    /// Lost a race with the owner or another thief; worth retrying.
    Retry,
    /// Stole the given item.
    Success(*mut ()),
}

/// The owner's handle: push and pop at the bottom. Not cloneable and not
/// `Sync`; exactly one thread may own it.
pub struct DequeOwner {
    shared: Arc<Shared>,
}

/// A thief's handle: steal from the top. Cloneable and shareable.
#[derive(Clone)]
pub struct DequeStealer {
    shared: Arc<Shared>,
}

// SAFETY: the owner is a unique handle (not Clone); moving it moves the
// bottom end of the protocol wholesale to another thread.
unsafe impl Send for DequeOwner {}
// SAFETY: stealers only touch `top` (by CAS) and read slots they have
// claimed; `Shared` is Sync, so handles may move freely.
unsafe impl Send for DequeStealer {}
// SAFETY: as for `Send` — all stealer operations are already designed
// for concurrent use from many threads.
unsafe impl Sync for DequeStealer {}

/// Creates a new deque, returning the owner and a stealer handle.
pub fn deque() -> (DequeOwner, DequeStealer) {
    let shared = Arc::new(Shared {
        top: AtomicIsize::new(0),
        bottom: AtomicIsize::new(0),
        buffer: AtomicPtr::new(Box::into_raw(Buffer::new(64))),
        retired: Mutex::new(Vec::new()),
    });
    (
        DequeOwner {
            shared: Arc::clone(&shared),
        },
        DequeStealer { shared },
    )
}

impl DequeOwner {
    /// Pushes an item at the bottom.
    pub fn push(&self, item: *mut ()) {
        debug_assert!(!item.is_null());
        let s = &*self.shared;
        let b = s.bottom.load(Ordering::Relaxed);
        let t = s.top.load(Ordering::Acquire);
        // SAFETY: only the owner replaces `buffer`, and replaced buffers
        // are retired, not freed, so the pointer is always live here.
        let mut buf = unsafe { &*s.buffer.load(Ordering::Relaxed) };
        if b - t >= buf.cap() as isize {
            buf = self.grow(b, t);
        }
        buf.put(b, item);
        fence(Ordering::Release);
        s.bottom.store(b + 1, Ordering::Relaxed);
    }

    /// Pops the most recently pushed item, if any (the serial fast path).
    pub fn pop(&self) -> Option<*mut ()> {
        let s = &*self.shared;
        let b = s.bottom.load(Ordering::Relaxed) - 1;
        // SAFETY: as in `push` — owner-only replacement plus retirement
        // keep the buffer pointer valid.
        let buf = unsafe { &*s.buffer.load(Ordering::Relaxed) };
        s.bottom.store(b, Ordering::Relaxed);
        fence(Ordering::SeqCst);
        let t = s.top.load(Ordering::Relaxed);

        if t <= b {
            // Non-empty.
            let item = buf.get(b);
            if t == b {
                // Last element: race with thieves via CAS on top.
                let won = s
                    .top
                    .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed)
                    .is_ok();
                s.bottom.store(b + 1, Ordering::Relaxed);
                if won {
                    Some(item)
                } else {
                    None
                }
            } else {
                Some(item)
            }
        } else {
            // Empty: restore bottom.
            s.bottom.store(b + 1, Ordering::Relaxed);
            None
        }
    }

    /// Number of items currently in the deque (owner's racy estimate).
    pub fn len(&self) -> usize {
        let s = &*self.shared;
        let b = s.bottom.load(Ordering::Relaxed);
        let t = s.top.load(Ordering::Relaxed);
        (b - t).max(0) as usize
    }

    /// Returns `true` if the deque appears empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Doubles the buffer, copying live elements. Owner-only.
    #[cold]
    fn grow(&self, b: isize, t: isize) -> &Buffer {
        let s = &*self.shared;
        let old_ptr = s.buffer.load(Ordering::Relaxed);
        // SAFETY: `grow` is owner-only, and the owner is the only writer
        // of `buffer`, so `old_ptr` is the live current buffer.
        let old = unsafe { &*old_ptr };
        let new = Buffer::new(old.cap() * 2);
        for i in t..b {
            new.put(i, old.get(i));
        }
        let new_ptr = Box::into_raw(new);
        s.buffer.store(new_ptr, Ordering::Release);
        // A thief may still be reading `old`; retire it instead of freeing.
        s.retired.lock().push(old_ptr);
        // SAFETY: `new_ptr` came from `Box::into_raw` two lines up and
        // is freed only when the deque drops.
        unsafe { &*new_ptr }
    }
}

impl DequeStealer {
    /// Attempts to steal the oldest item from the top.
    pub fn steal(&self) -> Steal {
        let s = &*self.shared;
        let t = s.top.load(Ordering::Acquire);
        fence(Ordering::SeqCst);
        let b = s.bottom.load(Ordering::Acquire);
        if t < b {
            // Non-empty: read the element *before* claiming it; the claim
            // (CAS on top) validates that the owner has not raced past us.
            // SAFETY: buffers are retired (never freed) while stealers
            // exist, so the loaded pointer is live even if stale.
            let buf = unsafe { &*s.buffer.load(Ordering::Acquire) };
            let item = buf.get(t);
            if s.top
                .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed)
                .is_ok()
            {
                Steal::Success(item)
            } else {
                Steal::Retry
            }
        } else {
            Steal::Empty
        }
    }

    /// Racy emptiness estimate (used by victim selection heuristics).
    pub fn is_empty(&self) -> bool {
        let s = &*self.shared;
        let t = s.top.load(Ordering::Relaxed);
        let b = s.bottom.load(Ordering::Relaxed);
        t >= b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn tag(i: usize) -> *mut () {
        (i * 8 + 8) as *mut ()
    }

    #[test]
    fn lifo_for_owner() {
        let (owner, _stealer) = deque();
        owner.push(tag(1));
        owner.push(tag(2));
        owner.push(tag(3));
        assert_eq!(owner.pop(), Some(tag(3)));
        assert_eq!(owner.pop(), Some(tag(2)));
        assert_eq!(owner.pop(), Some(tag(1)));
        assert_eq!(owner.pop(), None);
    }

    #[test]
    fn fifo_for_thief() {
        let (owner, stealer) = deque();
        owner.push(tag(1));
        owner.push(tag(2));
        owner.push(tag(3));
        assert_eq!(stealer.steal(), Steal::Success(tag(1)));
        assert_eq!(stealer.steal(), Steal::Success(tag(2)));
        assert_eq!(owner.pop(), Some(tag(3)));
        assert_eq!(stealer.steal(), Steal::Empty);
    }

    #[test]
    fn grows_past_initial_capacity() {
        let (owner, stealer) = deque();
        for i in 0..1000 {
            owner.push(tag(i));
        }
        assert_eq!(owner.len(), 1000);
        // Steal a few from the top (oldest), pop the rest (newest first).
        for i in 0..10 {
            assert_eq!(stealer.steal(), Steal::Success(tag(i)));
        }
        for i in (10..1000).rev() {
            assert_eq!(owner.pop(), Some(tag(i)));
        }
        assert_eq!(owner.pop(), None);
    }

    #[test]
    fn single_element_race_is_exclusive() {
        // The t == b CAS path: owner pop and thief steal must never both
        // win the same element.
        for _ in 0..200 {
            let (owner, stealer) = deque();
            owner.push(tag(7));
            let handle = {
                let stealer = stealer.clone();
                std::thread::spawn(move || loop {
                    match stealer.steal() {
                        Steal::Success(p) => return Some(p as usize),
                        Steal::Empty => return None,
                        Steal::Retry => continue,
                    }
                })
            };
            let popped = owner.pop().map(|p| p as usize);
            let stolen = handle.join().unwrap();
            match (popped, stolen) {
                (Some(p), None) | (None, Some(p)) => assert_eq!(p, tag(7) as usize),
                other => panic!("element duplicated or lost: {other:?}"),
            }
        }
    }

    #[test]
    fn stress_all_items_delivered_exactly_once() {
        const N: usize = 20_000;
        const THIEVES: usize = 3;
        let (owner, stealer) = deque();
        let stolen: Vec<_> = (0..THIEVES)
            .map(|_| {
                let stealer = stealer.clone();
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    let mut misses = 0usize;
                    loop {
                        match stealer.steal() {
                            Steal::Success(p) => {
                                got.push(p as usize);
                                misses = 0;
                            }
                            Steal::Retry => {}
                            Steal::Empty => {
                                misses += 1;
                                if misses > 1000 {
                                    break;
                                }
                                std::thread::yield_now();
                            }
                        }
                    }
                    got
                })
            })
            .collect();

        let mut popped = Vec::new();
        for i in 0..N {
            owner.push(tag(i));
            if i % 3 == 0 {
                if let Some(p) = owner.pop() {
                    popped.push(p as usize);
                }
            }
        }
        while let Some(p) = owner.pop() {
            popped.push(p as usize);
        }

        let mut all: Vec<usize> = popped;
        for h in stolen {
            all.extend(h.join().unwrap());
        }
        assert_eq!(all.len(), N, "each pushed item delivered exactly once");
        let set: HashSet<usize> = all.iter().copied().collect();
        assert_eq!(set.len(), N, "no duplicates");
        for i in 0..N {
            assert!(set.contains(&(tag(i) as usize)));
        }
    }
}
