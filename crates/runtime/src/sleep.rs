//! The sleeper/waker handshake, extracted from the registry so the
//! protocol itself is a unit the model checker can drive (see
//! `model_tests` and DESIGN.md §10).
//!
//! # The protocol
//!
//! Idle workers park without any lock on the wake path; producers pay
//! one fence and one load when everybody is awake. Correctness rests on
//! a single invariant, enforced with `SeqCst` fences on both sides:
//!
//! * A **parker** announces itself (marks its slot `PARKED`, increments
//!   `sleepers`), executes a `SeqCst` fence, and only then re-checks for
//!   work. It parks only if that re-check finds nothing.
//! * A **waker** first publishes the work (deque push or injection),
//!   executes a `SeqCst` fence, and only then loads `sleepers`.
//!
//! Both fences are totally ordered. If the waker's fence comes first,
//! the parker's re-check (after its own fence) observes the published
//! work and the parker retracts instead of parking. If the parker's
//! fence comes first, the waker's `sleepers` load observes the
//! increment and the waker wakes somebody. Either way no job is left
//! behind with every worker asleep. (A plain `Relaxed` load of
//! `sleepers` *without* the waker-side fence — the bug PR 1 fixed, kept
//! reproducible here as [`SleepGate::signal_one_racy`] — can miss a
//! just-parked sleeper: the load may be satisfied before the parker's
//! increment while the parker's re-check missed the push.)
//!
//! Waking claims a specific worker by CAS `PARKED → NOTIFIED` before
//! `unpark`, so concurrent wakers each rouse a *different* sleeper
//! instead of all piling onto one. A parked worker also wakes on a
//! timeout backstop, so a liveness bug degrades to latency, not
//! deadlock — except under the model, where timeouts never fire and a
//! lost wakeup is reported as a deadlock.

use std::sync::OnceLock;
use std::time::Duration;

use crate::msync::atomic::{fence, AtomicU32, AtomicUsize, Ordering};
use crate::msync::thread;

/// Park-state values for a worker's slot (protocol above).
const AWAKE: u32 = 0;
const PARKED: u32 = 1;
const NOTIFIED: u32 = 2;

struct Slot {
    /// `AWAKE`/`PARKED`/`NOTIFIED`; wakers claim a sleeper by CAS
    /// `PARKED → NOTIFIED` before unparking it.
    state: AtomicU32,
    /// The worker's thread handle for `unpark`; the worker registers it
    /// before its first park, so any observer of `PARKED` finds it set.
    parker: OnceLock<thread::Thread>,
}

/// Per-pool sleep/wake coordination: one slot per worker plus the
/// published sleeper count.
pub(crate) struct SleepGate {
    slots: Vec<Slot>,
    /// Number of workers currently announced as sleeping. Incremented
    /// before parking, decremented on wake; wakers read it after a
    /// `SeqCst` fence.
    sleepers: AtomicUsize,
    /// Rotates the starting point of wake scans so repeated wakes do not
    /// all land on worker 0.
    wake_cursor: AtomicUsize,
}

impl SleepGate {
    /// A gate for `n` workers, all awake.
    pub(crate) fn new(n: usize) -> SleepGate {
        SleepGate {
            slots: (0..n)
                .map(|_| Slot {
                    state: AtomicU32::new(AWAKE),
                    parker: OnceLock::new(),
                })
                .collect(),
            sleepers: AtomicUsize::new(0),
            wake_cursor: AtomicUsize::new(0),
        }
    }

    /// Registers the calling thread as worker `index`'s unpark target.
    /// Must run on the worker's own thread before its first `sleep`.
    pub(crate) fn register_current(&self, index: usize) {
        self.slots[index]
            .parker
            .set(thread::current())
            .unwrap_or_else(|_| panic!("worker {index} handle registered twice"));
    }

    /// Parker side: announce, fence, re-check via `work_exists`, and
    /// only park if the re-check finds nothing. Returns with the slot
    /// back in `AWAKE` regardless of how the park ended.
    #[cold]
    pub(crate) fn sleep(&self, index: usize, work_exists: impl FnOnce() -> bool) {
        let me = &self.slots[index];
        me.state.store(PARKED, Ordering::SeqCst);
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        fence(Ordering::SeqCst);
        if !work_exists() {
            // Timeout backstop: a protocol bug shows up as latency, not
            // a hang. Spurious returns are fine — callers loop and
            // re-check. (Under the model this parks until unparked.)
            thread::park_timeout(Duration::from_millis(10));
        }
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
        // Swallow any claim raced onto us (NOTIFIED): the unpark token,
        // if still pending, only makes the next park return at once.
        me.state.swap(AWAKE, Ordering::SeqCst);
    }

    /// Waker side: the caller has already published work; fence, then
    /// wake one sleeper if any is announced.
    ///
    /// Lock-free: the common everybody-awake case is one fence and one
    /// load. The fence pairs with the parker's (module comment) — either
    /// this load observes the sleeper, or that sleeper's post-announce
    /// re-check observes the published work.
    #[inline]
    pub(crate) fn signal_one(&self) {
        fence(Ordering::SeqCst);
        if self.sleepers.load(Ordering::Relaxed) > 0 {
            self.wake_one();
        }
    }

    /// The pre-PR-1 bug, kept compilable so the model checker can prove
    /// it still catches it (see `model_tests::sleeper_regression_is_
    /// detected`): no waker-side fence, so the `Relaxed` sleeper load
    /// may be satisfied from before a just-parked worker's announcement
    /// while that worker's re-check missed the published work.
    #[cfg(feature = "model")]
    #[cfg_attr(
        not(test),
        allow(dead_code, reason = "exercised only from model_tests")
    )]
    pub(crate) fn signal_one_racy(&self) {
        if self.sleepers.load(Ordering::Relaxed) > 0 {
            self.wake_one();
        }
    }

    /// Claims and unparks one parked worker, if any is still parked.
    #[cold]
    fn wake_one(&self) {
        let n = self.slots.len();
        let start = self.wake_cursor.fetch_add(1, Ordering::Relaxed) % n;
        for i in 0..n {
            let s = &self.slots[(start + i) % n];
            if s.state
                .compare_exchange(PARKED, NOTIFIED, Ordering::SeqCst, Ordering::Relaxed)
                .is_ok()
            {
                // A worker marks itself PARKED only after registering its
                // handle, so the claim guarantees the handle is present.
                s.parker
                    .get()
                    .expect("claimed sleeper has no handle")
                    .unpark();
                return;
            }
        }
        // Every announced sleeper is already claimed or mid-wakeup; their
        // own re-checks (or the woken workers' steal loops) cover the new
        // job, so there is nobody left to rouse.
    }

    /// Wakes every worker (termination and region starts). Includes the
    /// waker-side fence.
    pub(crate) fn signal_all(&self) {
        fence(Ordering::SeqCst);
        for s in &self.slots {
            // Unconditional: claiming is pointless when waking everyone,
            // and an unpark of a running worker is a no-op beyond making
            // its next park return immediately (it re-checks and re-parks).
            let _ = s
                .state
                .compare_exchange(PARKED, NOTIFIED, Ordering::SeqCst, Ordering::Relaxed);
            if let Some(h) = s.parker.get() {
                h.unpark();
            }
        }
    }
}
