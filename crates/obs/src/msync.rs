//! The workspace's one model- and sanitizer-switchable synchronization
//! facade (DESIGN.md §10 and §17; §12 for the clippy lints that enforce
//! it).
//!
//! Every concurrency primitive the scheduler, the reducer core and the
//! tracer ring touch — atomics, fences, `Mutex`, thread
//! spawn/park/unpark, and the plain-memory accesses a detector must see
//! — comes from here rather than from `std` directly. Blocking is
//! parking: the facade has no condition variable.
//! `cilkm-runtime` and `cilkm-core` re-export this module as their
//! `crate::msync`; it lives in this crate because it is the lowest one
//! under both that carries the `model` and `sanitize` features. Each
//! item has three faces:
//!
//! * plain builds: zero-cost aliases of the real primitives (the
//!   `Mutex` is a newtype over `std::sync::Mutex` that ignores poison),
//!   and the `note_*` hooks compile to nothing;
//! * `model`: `cilkm_checker`'s recorded, schedule-explored versions,
//!   so the deque, the latches, the sleeper handshake and the ring run
//!   under the model checker unchanged. They are dual-mode: outside
//!   `cilkm_checker::model(..)` they behave like the real primitives,
//!   so the whole test suite still passes with the feature on;
//! * `sanitize` (with `model` off, because model schedules must not
//!   pollute sanitizer state): `cilkm_san`'s instrumented versions,
//!   which run the real primitives and feed the dynamic race detectors.

#[cfg(feature = "model")]
pub use cilkm_checker::sync::atomic;
#[cfg(all(not(feature = "model"), feature = "sanitize"))]
pub use cilkm_san::sync::atomic;
#[cfg(not(any(feature = "model", feature = "sanitize")))]
pub use std::sync::atomic;

#[cfg(feature = "model")]
pub use cilkm_checker::sync::Mutex;
#[cfg(all(not(feature = "model"), feature = "sanitize"))]
pub use cilkm_san::sync::Mutex;
#[cfg(not(any(feature = "model", feature = "sanitize")))]
pub use plain::Mutex;

#[cfg(not(any(feature = "model", feature = "sanitize")))]
mod plain {
    use std::sync::{MutexGuard, PoisonError};

    /// `std::sync::Mutex` with poison ignored, like the model and
    /// sanitizer faces: `Pool::run`'s region lock outlives a region
    /// that panicked while holding it.
    #[derive(Default)]
    pub struct Mutex<T>(std::sync::Mutex<T>);

    impl<T> Mutex<T> {
        /// Creates a new mutex.
        pub const fn new(value: T) -> Mutex<T> {
            Mutex(std::sync::Mutex::new(value))
        }

        /// Acquires the mutex, blocking until it is free.
        #[inline]
        pub fn lock(&self) -> MutexGuard<'_, T> {
            self.0.lock().unwrap_or_else(PoisonError::into_inner)
        }

        /// Mutable access without locking.
        pub fn get_mut(&mut self) -> &mut T {
            self.0.get_mut().unwrap_or_else(PoisonError::into_inner)
        }

        /// Consumes the mutex, returning the inner value.
        pub fn into_inner(self) -> T {
            self.0.into_inner().unwrap_or_else(PoisonError::into_inner)
        }
    }
}

/// Thread spawn/park/unpark, switchable like the atomics above.
pub mod thread {
    #[cfg(feature = "model")]
    pub use cilkm_checker::thread::{current, park_timeout, yield_now, JoinHandle, Thread};

    #[cfg(all(not(feature = "model"), feature = "sanitize"))]
    pub use cilkm_san::thread::{current, park_timeout, yield_now, JoinHandle, Thread};

    #[cfg(not(any(feature = "model", feature = "sanitize")))]
    pub use std::thread::{current, park_timeout, yield_now, JoinHandle, Thread};

    /// Spawns a thread with a name and stack size. Under the model (or
    /// the sanitizer) the spawn goes through the instrumented spawn so
    /// the new thread has a recorded identity and a fork edge.
    pub fn spawn_with<F>(name: String, stack_size: usize, f: F) -> JoinHandle<()>
    where
        F: FnOnce() + Send + 'static,
    {
        #[cfg(feature = "model")]
        {
            cilkm_checker::thread::spawn_with(Some(name), Some(stack_size), f)
        }
        #[cfg(all(not(feature = "model"), feature = "sanitize"))]
        {
            cilkm_san::thread::spawn_with(Some(name), Some(stack_size), f)
        }
        #[cfg(not(any(feature = "model", feature = "sanitize")))]
        {
            std::thread::Builder::new()
                .name(name)
                .stack_size(stack_size)
                .spawn(f)
                .expect("failed to spawn worker thread")
        }
    }
}

/// Records a plain-memory write at `addr` for the checker's (or the
/// sanitizer's) race detector; `label` names the location in reports.
/// A no-op in plain builds.
#[inline]
pub fn note_write(addr: usize, label: &'static str) {
    #[cfg(feature = "model")]
    cilkm_checker::trace::note_write(addr, label);
    #[cfg(all(not(feature = "model"), feature = "sanitize"))]
    cilkm_san::shadow_write(addr, label);
    #[cfg(not(any(feature = "model", feature = "sanitize")))]
    let _ = (addr, label);
}

/// Records a plain-memory read at `addr`; the mirror of [`note_write`].
#[inline]
pub fn note_read(addr: usize, label: &'static str) {
    #[cfg(feature = "model")]
    cilkm_checker::trace::note_read(addr, label);
    #[cfg(all(not(feature = "model"), feature = "sanitize"))]
    cilkm_san::shadow_read(addr, label);
    #[cfg(not(any(feature = "model", feature = "sanitize")))]
    let _ = (addr, label);
}
