//! Completion latches: one-shot flags a job sets when it finishes and a
//! waiter polls or blocks on.

use std::time::Duration;

use crate::msync::atomic::{AtomicBool, AtomicUsize, Ordering};
use crate::msync::thread::{self, Thread};

/// A one-shot completion signal.
pub trait Latch {
    /// Marks the latch as set. May be called at most once.
    fn set(&self);
    /// Returns `true` once the latch has been set.
    fn probe(&self) -> bool;
}

/// A latch a worker polls while it keeps itself busy stealing — the
/// waiting discipline at a join. The waiter never blocks on it; blocking
/// would idle a worker that could be leapfrogging.
#[derive(Default)]
pub struct SpinLatch {
    set: AtomicBool,
}

impl SpinLatch {
    /// Creates an unset latch.
    pub fn new() -> SpinLatch {
        SpinLatch {
            set: AtomicBool::new(false),
        }
    }
}

impl Latch for SpinLatch {
    #[inline]
    fn set(&self) {
        self.set.store(true, Ordering::Release);
    }

    #[inline]
    fn probe(&self) -> bool {
        self.set.load(Ordering::Acquire)
    }
}

/// A blocking latch for a thread *outside* the pool (the caller of
/// [`Pool::run`]): the waiter parks, and `set` unparks it. Only the
/// thread that made the latch may wait on it.
///
/// [`Pool::run`]: crate::Pool::run
pub struct LockLatch {
    done: AtomicBool,
    waiter: Thread,
}

impl LockLatch {
    /// Creates an unset latch that the calling thread will wait on.
    #[allow(
        clippy::new_without_default,
        reason = "a `Default` would hide the thread binding"
    )]
    pub fn new() -> LockLatch {
        LockLatch {
            done: AtomicBool::new(false),
            waiter: thread::current(),
        }
    }

    /// Blocks until the latch is set. An unpark that lands before the
    /// park leaves a token that makes the park return at once; the
    /// timeout is only a backstop, and under the model it never fires.
    pub fn wait(&self) {
        while !self.done.load(Ordering::Acquire) {
            thread::park_timeout(Duration::from_millis(10));
        }
    }
}

impl Latch for LockLatch {
    fn set(&self) {
        // The latch lives on the waiter's stack and may be gone as soon
        // as the store lands, so the handle is cloned first and `self`
        // is not touched after the store.
        let waiter = self.waiter.clone();
        self.done.store(true, Ordering::Release);
        waiter.unpark();
    }

    fn probe(&self) -> bool {
        self.done.load(Ordering::Acquire)
    }
}

/// A countdown latch: set once a fixed number of [`CountLatch::count_down`]
/// calls have happened. Used by scoped multi-way constructs.
pub struct CountLatch {
    remaining: AtomicUsize,
    inner: SpinLatch,
}

impl CountLatch {
    /// Creates a latch that requires `n` countdowns.
    pub fn new(n: usize) -> CountLatch {
        let latch = CountLatch {
            remaining: AtomicUsize::new(n),
            inner: SpinLatch::new(),
        };
        if n == 0 {
            latch.inner.set();
        }
        latch
    }

    /// Records one completion; the final one sets the latch.
    pub fn count_down(&self) {
        let prev = self.remaining.fetch_sub(1, Ordering::AcqRel);
        debug_assert!(prev > 0, "count_down past zero");
        if prev == 1 {
            self.inner.set();
        }
    }
}

impl Latch for CountLatch {
    fn set(&self) {
        self.count_down();
    }

    #[inline]
    fn probe(&self) -> bool {
        self.inner.probe()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spin_latch_set_probe() {
        let l = SpinLatch::new();
        assert!(!l.probe());
        l.set();
        assert!(l.probe());
    }

    #[test]
    fn lock_latch_wakes_waiter() {
        use std::sync::Arc;
        let l = Arc::new(LockLatch::new());
        let l2 = Arc::clone(&l);
        let t = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(10));
            l2.set();
        });
        l.wait();
        assert!(l.probe());
        t.join().unwrap();
    }

    #[test]
    fn count_latch_fires_on_last() {
        let l = CountLatch::new(3);
        l.count_down();
        l.count_down();
        assert!(!l.probe());
        l.count_down();
        assert!(l.probe());
    }

    #[test]
    fn count_latch_zero_starts_set() {
        assert!(CountLatch::new(0).probe());
    }
}
