//! Drop-in synchronization primitives: `sync::atomic::*` and [`Mutex`],
//! the model face of the `msync` facade.
//!
//! Every type here is dual-mode. Outside a model run it forwards
//! directly to `std::sync` (with the facade's poison-ignoring `lock`),
//! so crates compiled with their `model` feature still behave normally
//! in ordinary tests. Inside [`crate::model`],
//! every operation becomes a visible event: a scheduling point, a
//! vector-clock update, and — for loads — a choice among the stores the
//! memory model allows the thread to observe.

use std::ops::{Deref, DerefMut};
use std::sync::Arc;

use crate::exec::{self, Exec};

/// Atomic types and fences, mirroring `std::sync::atomic`.
pub mod atomic {
    pub use std::sync::atomic::Ordering;

    use crate::exec;

    /// An atomic memory fence (modeled under [`crate::model`]).
    #[inline]
    pub fn fence(ord: Ordering) {
        match exec::current() {
            None => std::sync::atomic::fence(ord),
            Some((e, t)) => e.op_fence(t, ord),
        }
    }

    macro_rules! atomic_int {
        ($(#[$meta:meta])* $name:ident, $real:path, $prim:ty) => {
            $(#[$meta])*
            pub struct $name {
                real: $real,
            }

            impl $name {
                /// Creates a new atomic with the given initial value.
                pub const fn new(v: $prim) -> Self {
                    Self { real: <$real>::new(v) }
                }

                #[inline]
                fn key(&self) -> usize {
                    &self.real as *const $real as usize
                }

                /// Seed value for the modeled store history. Only the
                /// first model op on this atomic consults it; afterwards
                /// the real cell is kept write-through on the modeled
                /// coherence-latest value.
                #[inline]
                fn init(&self) -> u64 {
                    self.real.load(Ordering::Relaxed) as u64
                }

                /// Atomic load.
                #[inline]
                pub fn load(&self, ord: Ordering) -> $prim {
                    match exec::current() {
                        None => self.real.load(ord),
                        Some((e, t)) => {
                            e.op_atomic_load(t, self.key(), ord, self.init()) as $prim
                        }
                    }
                }

                /// Atomic store.
                #[inline]
                pub fn store(&self, val: $prim, ord: Ordering) {
                    match exec::current() {
                        None => self.real.store(val, ord),
                        Some((e, t)) => {
                            e.op_atomic_store(t, self.key(), ord, self.init(), val as u64);
                            self.real.store(val, Ordering::Relaxed);
                        }
                    }
                }

                /// Atomic swap; returns the previous value.
                #[inline]
                pub fn swap(&self, val: $prim, ord: Ordering) -> $prim {
                    match exec::current() {
                        None => self.real.swap(val, ord),
                        Some((e, t)) => {
                            let old = e.op_atomic_rmw(
                                t,
                                self.key(),
                                ord,
                                self.init(),
                                &mut |_| val as u64,
                            );
                            self.real.store(val, Ordering::Relaxed);
                            old as $prim
                        }
                    }
                }

                /// Strong compare-exchange.
                #[inline]
                pub fn compare_exchange(
                    &self,
                    current: $prim,
                    new: $prim,
                    success: Ordering,
                    failure: Ordering,
                ) -> Result<$prim, $prim> {
                    match exec::current() {
                        None => self.real.compare_exchange(current, new, success, failure),
                        Some((e, t)) => {
                            match e.op_atomic_cas(
                                t,
                                self.key(),
                                success,
                                failure,
                                self.init(),
                                current as u64,
                                new as u64,
                            ) {
                                Ok(v) => {
                                    self.real.store(new, Ordering::Relaxed);
                                    Ok(v as $prim)
                                }
                                Err(v) => Err(v as $prim),
                            }
                        }
                    }
                }

                /// Weak compare-exchange. The model never fails
                /// spuriously (a spurious failure is indistinguishable
                /// from a schedule where the CAS simply ran later).
                #[inline]
                pub fn compare_exchange_weak(
                    &self,
                    current: $prim,
                    new: $prim,
                    success: Ordering,
                    failure: Ordering,
                ) -> Result<$prim, $prim> {
                    match exec::current() {
                        None => self
                            .real
                            .compare_exchange_weak(current, new, success, failure),
                        Some(_) => self.compare_exchange(current, new, success, failure),
                    }
                }

                /// Atomic wrapping add; returns the previous value.
                #[inline]
                pub fn fetch_add(&self, val: $prim, ord: Ordering) -> $prim {
                    match exec::current() {
                        None => self.real.fetch_add(val, ord),
                        Some((e, t)) => {
                            let old = e.op_atomic_rmw(
                                t,
                                self.key(),
                                ord,
                                self.init(),
                                &mut |v| (v as $prim).wrapping_add(val) as u64,
                            ) as $prim;
                            self.real.store(old.wrapping_add(val), Ordering::Relaxed);
                            old
                        }
                    }
                }

                /// Atomic wrapping subtract; returns the previous value.
                #[inline]
                pub fn fetch_sub(&self, val: $prim, ord: Ordering) -> $prim {
                    match exec::current() {
                        None => self.real.fetch_sub(val, ord),
                        Some((e, t)) => {
                            let old = e.op_atomic_rmw(
                                t,
                                self.key(),
                                ord,
                                self.init(),
                                &mut |v| (v as $prim).wrapping_sub(val) as u64,
                            ) as $prim;
                            self.real.store(old.wrapping_sub(val), Ordering::Relaxed);
                            old
                        }
                    }
                }

                /// Atomic bitwise OR; returns the previous value.
                #[inline]
                pub fn fetch_or(&self, val: $prim, ord: Ordering) -> $prim {
                    match exec::current() {
                        None => self.real.fetch_or(val, ord),
                        Some((e, t)) => {
                            let old = e.op_atomic_rmw(
                                t,
                                self.key(),
                                ord,
                                self.init(),
                                &mut |v| ((v as $prim) | val) as u64,
                            ) as $prim;
                            self.real.store(old | val, Ordering::Relaxed);
                            old
                        }
                    }
                }

                /// Atomic bitwise AND; returns the previous value.
                #[inline]
                pub fn fetch_and(&self, val: $prim, ord: Ordering) -> $prim {
                    match exec::current() {
                        None => self.real.fetch_and(val, ord),
                        Some((e, t)) => {
                            let old = e.op_atomic_rmw(
                                t,
                                self.key(),
                                ord,
                                self.init(),
                                &mut |v| ((v as $prim) & val) as u64,
                            ) as $prim;
                            self.real.store(old & val, Ordering::Relaxed);
                            old
                        }
                    }
                }

                /// Atomic maximum; returns the previous value.
                #[inline]
                pub fn fetch_max(&self, val: $prim, ord: Ordering) -> $prim {
                    match exec::current() {
                        None => self.real.fetch_max(val, ord),
                        Some((e, t)) => {
                            let old = e.op_atomic_rmw(
                                t,
                                self.key(),
                                ord,
                                self.init(),
                                &mut |v| (v as $prim).max(val) as u64,
                            ) as $prim;
                            self.real.store(old.max(val), Ordering::Relaxed);
                            old
                        }
                    }
                }

                /// Atomic minimum; returns the previous value.
                #[inline]
                pub fn fetch_min(&self, val: $prim, ord: Ordering) -> $prim {
                    match exec::current() {
                        None => self.real.fetch_min(val, ord),
                        Some((e, t)) => {
                            let old = e.op_atomic_rmw(
                                t,
                                self.key(),
                                ord,
                                self.init(),
                                &mut |v| (v as $prim).min(val) as u64,
                            ) as $prim;
                            self.real.store(old.min(val), Ordering::Relaxed);
                            old
                        }
                    }
                }

                /// Mutable access without an atomic op (requires `&mut`).
                #[inline]
                pub fn get_mut(&mut self) -> &mut $prim {
                    self.real.get_mut()
                }

                /// Consumes the atomic, returning its value (the
                /// write-through cell holds the coherence-latest one).
                #[inline]
                pub fn into_inner(self) -> $prim {
                    self.real.load(Ordering::Relaxed)
                }
            }

            impl Drop for $name {
                fn drop(&mut self) {
                    exec::forget_atomic(self.key());
                }
            }

            impl Default for $name {
                fn default() -> Self {
                    Self::new(<$prim>::default())
                }
            }

            impl std::fmt::Debug for $name {
                fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                    // Not a modeled access: reads the write-through cell.
                    f.debug_tuple(stringify!($name))
                        .field(&self.real.load(Ordering::Relaxed))
                        .finish()
                }
            }
        };
    }

    atomic_int!(
        /// Model-aware `AtomicU32`.
        AtomicU32,
        std::sync::atomic::AtomicU32,
        u32
    );
    atomic_int!(
        /// Model-aware `AtomicU64`.
        AtomicU64,
        std::sync::atomic::AtomicU64,
        u64
    );
    atomic_int!(
        /// Model-aware `AtomicUsize`.
        AtomicUsize,
        std::sync::atomic::AtomicUsize,
        usize
    );
    atomic_int!(
        /// Model-aware `AtomicIsize`.
        AtomicIsize,
        std::sync::atomic::AtomicIsize,
        isize
    );

    /// Model-aware `AtomicBool`.
    pub struct AtomicBool {
        real: std::sync::atomic::AtomicBool,
    }

    impl AtomicBool {
        /// Creates a new atomic boolean.
        pub const fn new(v: bool) -> Self {
            Self {
                real: std::sync::atomic::AtomicBool::new(v),
            }
        }

        #[inline]
        fn key(&self) -> usize {
            &self.real as *const std::sync::atomic::AtomicBool as usize
        }

        #[inline]
        fn init(&self) -> u64 {
            self.real.load(Ordering::Relaxed) as u64
        }

        /// Atomic load.
        #[inline]
        pub fn load(&self, ord: Ordering) -> bool {
            match exec::current() {
                None => self.real.load(ord),
                Some((e, t)) => e.op_atomic_load(t, self.key(), ord, self.init()) != 0,
            }
        }

        /// Atomic store.
        #[inline]
        pub fn store(&self, val: bool, ord: Ordering) {
            match exec::current() {
                None => self.real.store(val, ord),
                Some((e, t)) => {
                    e.op_atomic_store(t, self.key(), ord, self.init(), val as u64);
                    self.real.store(val, Ordering::Relaxed);
                }
            }
        }

        /// Atomic swap; returns the previous value.
        #[inline]
        pub fn swap(&self, val: bool, ord: Ordering) -> bool {
            match exec::current() {
                None => self.real.swap(val, ord),
                Some((e, t)) => {
                    let old = e.op_atomic_rmw(t, self.key(), ord, self.init(), &mut |_| val as u64);
                    self.real.store(val, Ordering::Relaxed);
                    old != 0
                }
            }
        }

        /// Strong compare-exchange.
        #[inline]
        pub fn compare_exchange(
            &self,
            current: bool,
            new: bool,
            success: Ordering,
            failure: Ordering,
        ) -> Result<bool, bool> {
            match exec::current() {
                None => self.real.compare_exchange(current, new, success, failure),
                Some((e, t)) => {
                    match e.op_atomic_cas(
                        t,
                        self.key(),
                        success,
                        failure,
                        self.init(),
                        current as u64,
                        new as u64,
                    ) {
                        Ok(v) => {
                            self.real.store(new, Ordering::Relaxed);
                            Ok(v != 0)
                        }
                        Err(v) => Err(v != 0),
                    }
                }
            }
        }

        /// Weak compare-exchange (never spuriously fails in the model).
        #[inline]
        pub fn compare_exchange_weak(
            &self,
            current: bool,
            new: bool,
            success: Ordering,
            failure: Ordering,
        ) -> Result<bool, bool> {
            match exec::current() {
                None => self
                    .real
                    .compare_exchange_weak(current, new, success, failure),
                Some(_) => self.compare_exchange(current, new, success, failure),
            }
        }

        /// Mutable access without an atomic op.
        #[inline]
        pub fn get_mut(&mut self) -> &mut bool {
            self.real.get_mut()
        }

        /// Consumes the atomic, returning its value.
        #[inline]
        pub fn into_inner(self) -> bool {
            self.real.load(Ordering::Relaxed)
        }
    }

    impl Drop for AtomicBool {
        fn drop(&mut self) {
            exec::forget_atomic(self.key());
        }
    }

    impl Default for AtomicBool {
        fn default() -> Self {
            Self::new(false)
        }
    }

    impl std::fmt::Debug for AtomicBool {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.debug_tuple("AtomicBool")
                .field(&self.real.load(Ordering::Relaxed))
                .finish()
        }
    }

    /// Model-aware `AtomicPtr`.
    pub struct AtomicPtr<T> {
        real: std::sync::atomic::AtomicPtr<T>,
    }

    impl<T> AtomicPtr<T> {
        /// Creates a new atomic pointer.
        pub const fn new(p: *mut T) -> Self {
            Self {
                real: std::sync::atomic::AtomicPtr::new(p),
            }
        }

        #[inline]
        fn key(&self) -> usize {
            &self.real as *const std::sync::atomic::AtomicPtr<T> as usize
        }

        #[inline]
        fn init(&self) -> u64 {
            self.real.load(Ordering::Relaxed) as usize as u64
        }

        /// Atomic load.
        #[inline]
        pub fn load(&self, ord: Ordering) -> *mut T {
            match exec::current() {
                None => self.real.load(ord),
                Some((e, t)) => {
                    e.op_atomic_load(t, self.key(), ord, self.init()) as usize as *mut T
                }
            }
        }

        /// Atomic store.
        #[inline]
        pub fn store(&self, p: *mut T, ord: Ordering) {
            match exec::current() {
                None => self.real.store(p, ord),
                Some((e, t)) => {
                    e.op_atomic_store(t, self.key(), ord, self.init(), p as usize as u64);
                    self.real.store(p, Ordering::Relaxed);
                }
            }
        }

        /// Atomic swap; returns the previous pointer.
        #[inline]
        pub fn swap(&self, p: *mut T, ord: Ordering) -> *mut T {
            match exec::current() {
                None => self.real.swap(p, ord),
                Some((e, t)) => {
                    let old = e
                        .op_atomic_rmw(t, self.key(), ord, self.init(), &mut |_| p as usize as u64);
                    self.real.store(p, Ordering::Relaxed);
                    old as usize as *mut T
                }
            }
        }

        /// Strong compare-exchange.
        #[inline]
        pub fn compare_exchange(
            &self,
            current: *mut T,
            new: *mut T,
            success: Ordering,
            failure: Ordering,
        ) -> Result<*mut T, *mut T> {
            match exec::current() {
                None => self.real.compare_exchange(current, new, success, failure),
                Some((e, t)) => {
                    match e.op_atomic_cas(
                        t,
                        self.key(),
                        success,
                        failure,
                        self.init(),
                        current as usize as u64,
                        new as usize as u64,
                    ) {
                        Ok(v) => {
                            self.real.store(new, Ordering::Relaxed);
                            Ok(v as usize as *mut T)
                        }
                        Err(v) => Err(v as usize as *mut T),
                    }
                }
            }
        }

        /// Weak compare-exchange (never spuriously fails in the model).
        #[inline]
        pub fn compare_exchange_weak(
            &self,
            current: *mut T,
            new: *mut T,
            success: Ordering,
            failure: Ordering,
        ) -> Result<*mut T, *mut T> {
            match exec::current() {
                None => self
                    .real
                    .compare_exchange_weak(current, new, success, failure),
                Some(_) => self.compare_exchange(current, new, success, failure),
            }
        }

        /// Mutable access without an atomic op.
        #[inline]
        pub fn get_mut(&mut self) -> &mut *mut T {
            self.real.get_mut()
        }

        /// Consumes the atomic, returning the pointer.
        #[inline]
        pub fn into_inner(self) -> *mut T {
            self.real.load(Ordering::Relaxed)
        }
    }

    impl<T> Drop for AtomicPtr<T> {
        fn drop(&mut self) {
            exec::forget_atomic(self.key());
        }
    }

    impl<T> Default for AtomicPtr<T> {
        fn default() -> Self {
            Self::new(std::ptr::null_mut())
        }
    }

    impl<T> std::fmt::Debug for AtomicPtr<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.debug_tuple("AtomicPtr")
                .field(&self.real.load(Ordering::Relaxed))
                .finish()
        }
    }
}

fn lock_real<T: ?Sized>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    }
}

/// A mutex with the facade's infallible API, modeled under
/// [`crate::model`]: lock acquisition is a scheduling point, contention
/// blocks in the model scheduler, and lock/unlock transfer vector
/// clocks (so data the lock protects is ordered for the race detector).
#[derive(Default)]
pub struct Mutex<T: ?Sized> {
    inner: std::sync::Mutex<T>,
}

/// RAII guard for [`Mutex`]. The std guard sits in an `Option` so that
/// `drop` can release the real lock before the model unlock.
pub struct MutexGuard<'a, T: ?Sized> {
    lock: &'a Mutex<T>,
    /// Model context of the acquisition, if any: (execution, thread id).
    model: Option<(Arc<Exec>, usize)>,
    guard: Option<std::sync::MutexGuard<'a, T>>,
}

impl<T> Mutex<T> {
    /// Creates a new mutex.
    pub const fn new(value: T) -> Mutex<T> {
        Mutex {
            inner: std::sync::Mutex::new(value),
        }
    }

    /// Consumes the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        match self.inner.into_inner() {
            Ok(v) => v,
            Err(p) => p.into_inner(),
        }
    }
}

impl<T: ?Sized> Mutex<T> {
    #[inline]
    fn key(&self) -> usize {
        &self.inner as *const std::sync::Mutex<T> as *const () as usize
    }

    /// Acquires the mutex, blocking (in the model scheduler when under
    /// a model run) until available. Never errors.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        match exec::current() {
            None => MutexGuard {
                lock: self,
                model: None,
                guard: Some(lock_real(&self.inner)),
            },
            Some((e, t)) => {
                e.op_mutex_lock(t, self.key());
                // The model admits exactly one owner at a time, and
                // owners release the real lock before announcing the
                // model unlock, so this acquisition never contends.
                MutexGuard {
                    lock: self,
                    model: Some((e, t)),
                    guard: Some(lock_real(&self.inner)),
                }
            }
        }
    }

    /// Mutable access without locking (requires `&mut self`).
    pub fn get_mut(&mut self) -> &mut T {
        match self.inner.get_mut() {
            Ok(v) => v,
            Err(p) => p.into_inner(),
        }
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        self.guard.as_ref().expect("guard already dropped")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        self.guard.as_mut().expect("guard already dropped")
    }
}

impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        // Release the real lock first so the next model-admitted owner
        // finds it free.
        drop(self.guard.take());
        if let Some((e, t)) = self.model.take() {
            // Skip the model unlock while unwinding: if the execution is
            // being torn down (ModelAbort) a nested abort panic would be
            // a double panic; if a test assertion is unwinding, the
            // thread's finish handler records the failure and the whole
            // execution stops anyway.
            if !std::thread::panicking() {
                e.op_mutex_unlock(t, self.lock.key());
            }
        }
    }
}
