//! Instrumented drop-in replacements for the sync primitives the
//! `msync` facade re-exports: atomics + `fence` (mirroring
//! `std::sync::atomic`) and `Mutex` (the facade's infallible API).
//!
//! Hook placement is chosen so the sanitizer's happens-before relation
//! is a superset of the real one *without* a race window between the
//! real operation and its bookkeeping:
//!
//! * **releases run before** the real store/unlock — by the time any
//!   observer can see the new value, the publisher's clock is already
//!   in the sync-object clock;
//! * **acquires run after** the real load/lock — whatever store the
//!   real operation observed, its publisher's release hook has already
//!   completed (it preceded the store).
//!
//! RMWs pessimistically release before and acquire after, even when the
//! compare-exchange fails; spurious releases only add happens-before
//! edges, which is the false-negative (never false-positive) direction.

use crate::state;

/// Instrumented mirror of `std::sync::atomic`.
pub mod atomic {
    use crate::state;

    pub use std::sync::atomic::Ordering;

    /// An atomic fence; modeled as a release into + acquire from one
    /// global fence clock, regardless of `order` (over-approximation).
    pub fn fence(order: Ordering) {
        state::fence_all();
        std::sync::atomic::fence(order);
    }

    macro_rules! instrumented_atomic {
        ($(#[$meta:meta])* $name:ident, $std:ident, $ty:ty, [$($fetch:ident),*]) => {
            $(#[$meta])*
            #[derive(Debug, Default)]
            #[repr(transparent)]
            pub struct $name {
                inner: std::sync::atomic::$std,
            }

            impl $name {
                /// Creates a new atomic with the given initial value.
                pub const fn new(v: $ty) -> Self {
                    Self {
                        inner: std::sync::atomic::$std::new(v),
                    }
                }

                fn key(&self) -> usize {
                    self as *const Self as usize
                }

                /// Instrumented `load` (treated as an acquire).
                pub fn load(&self, order: Ordering) -> $ty {
                    let v = self.inner.load(order);
                    state::atomic_acquire(self.key());
                    v
                }

                /// Instrumented `store` (treated as a release).
                pub fn store(&self, v: $ty, order: Ordering) {
                    state::atomic_release(self.key());
                    self.inner.store(v, order);
                }

                /// Instrumented `swap` (treated as acquire + release).
                pub fn swap(&self, v: $ty, order: Ordering) -> $ty {
                    state::atomic_release(self.key());
                    let old = self.inner.swap(v, order);
                    state::atomic_acquire(self.key());
                    old
                }

                /// Instrumented `compare_exchange`; both outcomes
                /// acquire, and the release is pessimistic (recorded
                /// even on failure — extra edges are harmless).
                pub fn compare_exchange(
                    &self,
                    current: $ty,
                    new: $ty,
                    success: Ordering,
                    failure: Ordering,
                ) -> Result<$ty, $ty> {
                    state::atomic_release(self.key());
                    let r = self.inner.compare_exchange(current, new, success, failure);
                    state::atomic_acquire(self.key());
                    r
                }

                /// Instrumented `compare_exchange_weak` (same hook
                /// discipline as `compare_exchange`).
                pub fn compare_exchange_weak(
                    &self,
                    current: $ty,
                    new: $ty,
                    success: Ordering,
                    failure: Ordering,
                ) -> Result<$ty, $ty> {
                    state::atomic_release(self.key());
                    let r = self
                        .inner
                        .compare_exchange_weak(current, new, success, failure);
                    state::atomic_acquire(self.key());
                    r
                }

                /// Exclusive access needs no instrumentation.
                pub fn get_mut(&mut self) -> &mut $ty {
                    self.inner.get_mut()
                }

                /// Consumes the atomic; exclusive, so uninstrumented.
                pub fn into_inner(self) -> $ty {
                    self.inner.into_inner()
                }

                $(
                    /// Instrumented read-modify-write (acquire +
                    /// release, like `swap`).
                    pub fn $fetch(&self, v: $ty, order: Ordering) -> $ty {
                        state::atomic_release(self.key());
                        let old = self.inner.$fetch(v, order);
                        state::atomic_acquire(self.key());
                        old
                    }
                )*
            }
        };
    }

    instrumented_atomic!(
        /// Instrumented `AtomicBool`.
        AtomicBool,
        AtomicBool,
        bool,
        []
    );
    instrumented_atomic!(
        /// Instrumented `AtomicU32`.
        AtomicU32,
        AtomicU32,
        u32,
        [fetch_add, fetch_sub, fetch_max, fetch_min, fetch_or, fetch_and]
    );
    instrumented_atomic!(
        /// Instrumented `AtomicU64`.
        AtomicU64,
        AtomicU64,
        u64,
        [fetch_add, fetch_sub, fetch_max, fetch_min, fetch_or, fetch_and]
    );
    instrumented_atomic!(
        /// Instrumented `AtomicUsize`.
        AtomicUsize,
        AtomicUsize,
        usize,
        [fetch_add, fetch_sub, fetch_max, fetch_min, fetch_or, fetch_and]
    );
    instrumented_atomic!(
        /// Instrumented `AtomicIsize`.
        AtomicIsize,
        AtomicIsize,
        isize,
        [fetch_add, fetch_sub, fetch_max, fetch_min, fetch_or, fetch_and]
    );

    /// Instrumented `AtomicPtr<T>`.
    #[derive(Debug)]
    #[repr(transparent)]
    pub struct AtomicPtr<T> {
        inner: std::sync::atomic::AtomicPtr<T>,
    }

    impl<T> Default for AtomicPtr<T> {
        fn default() -> Self {
            Self::new(std::ptr::null_mut())
        }
    }

    impl<T> AtomicPtr<T> {
        /// Creates a new atomic pointer.
        pub const fn new(p: *mut T) -> Self {
            Self {
                inner: std::sync::atomic::AtomicPtr::new(p),
            }
        }

        fn key(&self) -> usize {
            self as *const Self as usize
        }

        /// Instrumented `load` (treated as an acquire).
        pub fn load(&self, order: Ordering) -> *mut T {
            let v = self.inner.load(order);
            state::atomic_acquire(self.key());
            v
        }

        /// Instrumented `store` (treated as a release).
        pub fn store(&self, p: *mut T, order: Ordering) {
            state::atomic_release(self.key());
            self.inner.store(p, order);
        }

        /// Instrumented `swap` (acquire + release).
        pub fn swap(&self, p: *mut T, order: Ordering) -> *mut T {
            state::atomic_release(self.key());
            let old = self.inner.swap(p, order);
            state::atomic_acquire(self.key());
            old
        }

        /// Instrumented `compare_exchange` (pessimistic release, see
        /// the module docs).
        pub fn compare_exchange(
            &self,
            current: *mut T,
            new: *mut T,
            success: Ordering,
            failure: Ordering,
        ) -> Result<*mut T, *mut T> {
            state::atomic_release(self.key());
            let r = self.inner.compare_exchange(current, new, success, failure);
            state::atomic_acquire(self.key());
            r
        }

        /// Instrumented `compare_exchange_weak`.
        pub fn compare_exchange_weak(
            &self,
            current: *mut T,
            new: *mut T,
            success: Ordering,
            failure: Ordering,
        ) -> Result<*mut T, *mut T> {
            state::atomic_release(self.key());
            let r = self
                .inner
                .compare_exchange_weak(current, new, success, failure);
            state::atomic_acquire(self.key());
            r
        }

        /// Exclusive access needs no instrumentation.
        pub fn get_mut(&mut self) -> &mut *mut T {
            self.inner.get_mut()
        }

        /// Consumes the atomic pointer.
        pub fn into_inner(self) -> *mut T {
            self.inner.into_inner()
        }
    }
}

/// An instrumented mutex with the facade's API (infallible `lock`, no
/// poisoning). Feeds both the lock-order detector (inversion
/// check *before* blocking, so a real deadlock still gets reported) and
/// the happens-before relation (the lock address is a sync object).
pub struct Mutex<T> {
    inner: std::sync::Mutex<T>,
}

impl<T> Mutex<T> {
    /// Creates a new instrumented mutex.
    pub const fn new(value: T) -> Self {
        Self {
            inner: std::sync::Mutex::new(value),
        }
    }

    fn key(&self) -> usize {
        self as *const Self as usize
    }

    /// Acquires the lock, ignoring poisoning (panics propagate through
    /// the runtime's own latch/panic plumbing instead).
    pub fn lock(&self) -> MutexGuard<'_, T> {
        let key = self.key();
        state::lock_acquiring(key);
        let guard = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        state::lock_acquired(key);
        MutexGuard { guard, key }
    }

    /// Exclusive access; uninstrumented.
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(|p| p.into_inner())
    }

    /// Consumes the mutex; uninstrumented.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(|p| p.into_inner())
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Self::new(T::default())
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mutex").finish_non_exhaustive()
    }
}

/// Guard for [`Mutex`]; releases the sanitizer's lock bookkeeping just
/// before the real unlock.
pub struct MutexGuard<'a, T> {
    guard: std::sync::MutexGuard<'a, T>,
    key: usize,
}

impl<T> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        state::lock_released(self.key);
        // The inner guard, a field, unlocks after this body returns.
    }
}

impl<T> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}
