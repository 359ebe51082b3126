//! The monoid abstraction and its type-erased form.
//!
//! A reducer is defined in terms of an algebraic monoid `(T, ⊗, e)` (§2):
//! the runtime calls `IDENTITY` to create a fresh local view and `REDUCE`
//! to combine two views in serial order. Because the runtime data
//! structures (hypermaps and SPA maps) store views of *many different
//! reducer types* side by side, views travel type-erased: a view is a
//! `*mut u8` to a heap-allocated `M::View`, paired with a pointer to a
//! [`MonoidInstance`] whose vtable knows how to create, reduce, and
//! destroy views of that type. This mirrors the paper's SPA-map elements,
//! which are exactly a (view pointer, monoid pointer) pair (§6).

use std::sync::Arc;

/// An algebraic monoid: an associative binary operation with identity,
/// over view type [`Monoid::View`].
///
/// The reducer guarantee — the parallel result equals the serial result —
/// holds precisely when [`Monoid::reduce`] is associative and
/// [`Monoid::identity`] is its identity element. Nothing requires
/// commutativity: list append and string concatenation are supported and
/// are the interesting stress cases for the runtime's ordering discipline.
///
/// # Other reducers inside `identity` and `reduce`
///
/// The runtime calls both on a pool worker, with that worker's context
/// installed, so an access to *another* reducer from inside them is a
/// reducer access like any other — except where noted below. They must
/// never access the reducer whose view they create or reduce.
///
/// * `identity`, run by a first access after a steal: allowed. The
///   update lands in the same context as the access that called it.
/// * `reduce`, run by the hypermerge at a join: allowed. The update
///   lands in the continuation's context and is folded with the region.
/// * `reduce`, run by the region-end fold into the leftmost views:
///   **refused**. Every view of the region was already collected, so
///   the update would reach no region's result. The access panics with
///   "reducer accessed from a reduce run by the region-end fold", and
///   [`ReducerPool::run`](crate::ReducerPool::run) rethrows the panic in
///   its caller; the pool stays usable.
///
/// A view's `Drop`, and `identity` run by
/// [`Reducer::take`](crate::Reducer::take), have no such contract yet:
/// do not access reducers from them.
pub trait Monoid: Send + Sync + 'static {
    /// The view type local branches operate on.
    type View: Send + 'static;

    /// Creates the identity view `e` (called lazily on first access of a
    /// reducer by a freshly stolen execution context, §3/§6). It may
    /// access other reducers (see the trait docs).
    fn identity(&self) -> Self::View;

    /// Reduces `left ⊗ right` into `left`, consuming `right`. `left` is
    /// the serially-earlier view. It may access other reducers when a
    /// join's hypermerge runs it, and not when the region-end fold does
    /// (see the trait docs).
    fn reduce(&self, left: &mut Self::View, right: Self::View);
}

/// The vtable of a type-erased monoid: how the runtime manipulates views
/// without knowing their type.
pub struct MonoidVTable {
    /// Creates a boxed identity view; `data` is the `&M`.
    pub identity: unsafe fn(data: *const ()) -> *mut u8,
    /// Reduces `left ⊗ right` into `left`, consuming and freeing `right`.
    pub reduce_into: unsafe fn(data: *const (), left: *mut u8, right: *mut u8),
    /// Destroys a view without reducing it (panic/discard paths).
    pub drop_view: unsafe fn(view: *mut u8),
}

unsafe fn identity_impl<M: Monoid>(data: *const ()) -> *mut u8 {
    let m = &*(data as *const M);
    Box::into_raw(Box::new(m.identity())) as *mut u8
}

unsafe fn reduce_into_impl<M: Monoid>(data: *const (), left: *mut u8, right: *mut u8) {
    let m = &*(data as *const M);
    let right = *Box::from_raw(right as *mut M::View);
    m.reduce(&mut *(left as *mut M::View), right);
}

unsafe fn drop_view_impl<M: Monoid>(view: *mut u8) {
    drop(Box::from_raw(view as *mut M::View));
}

/// The static vtable for a concrete monoid type.
pub fn vtable_for<M: Monoid>() -> &'static MonoidVTable {
    const {
        &MonoidVTable {
            identity: identity_impl::<M>,
            reduce_into: reduce_into_impl::<M>,
            drop_view: drop_view_impl::<M>,
        }
    }
}

/// A type-erased monoid instance: the object the SPA map's "monoid
/// pointer" points at (§6 stores it right next to the view pointer so the
/// hypermerge can invoke the reduce operation without any table lookups).
///
/// Lives inside a reducer and is kept alive by it; views in flight borrow
/// it for the duration of the parallel region, which the reducer is
/// required to outlive.
#[repr(C)]
pub struct MonoidInstance {
    vtable: &'static MonoidVTable,
    /// Points at the `M` owned (via `Arc`) by the reducer.
    data: *const (),
}

// SAFETY: `data` points at an `M` kept alive by the reducer's `Arc`
// (see `new`), and the vtable shims only ever form an `&M` from it, so
// the instance can move between threads.
unsafe impl Send for MonoidInstance {}
// SAFETY: all vtable shims take `data` as a shared `&M`, and `Monoid`
// methods take `&self`, so concurrent use from several threads performs
// only shared access to the monoid.
unsafe impl Sync for MonoidInstance {}

impl MonoidInstance {
    /// Builds an instance around a shared monoid. The caller must keep
    /// `monoid`'s `Arc` alive as long as this instance is reachable.
    pub fn new<M: Monoid>(monoid: &Arc<M>) -> MonoidInstance {
        MonoidInstance {
            vtable: vtable_for::<M>(),
            data: Arc::as_ptr(monoid) as *const (),
        }
    }

    /// Creates a boxed identity view.
    ///
    /// # Safety
    ///
    /// The backing monoid must still be alive.
    #[inline]
    pub unsafe fn identity(&self) -> *mut u8 {
        (self.vtable.identity)(self.data)
    }

    /// Reduces `left ⊗ right` into `left`, consuming `right`.
    ///
    /// # Safety
    ///
    /// Both pointers must be live boxed views of this monoid's view type,
    /// created by [`MonoidInstance::identity`] (or the reducer's initial
    /// boxing), and `right` must not be used afterwards.
    #[inline]
    pub unsafe fn reduce_into(&self, left: *mut u8, right: *mut u8) {
        (self.vtable.reduce_into)(self.data, left, right)
    }

    /// Destroys a view.
    ///
    /// # Safety
    ///
    /// `view` must be a live boxed view of this monoid's view type and
    /// must not be used afterwards.
    #[inline]
    pub unsafe fn drop_view(&self, view: *mut u8) {
        (self.vtable.drop_view)(view)
    }

    /// The erased pointer stored in SPA-map / hypermap entries.
    #[inline]
    pub fn as_erased(&self) -> *const u8 {
        self as *const MonoidInstance as *const u8
    }

    /// Recovers an instance reference from an erased entry pointer.
    ///
    /// # Safety
    ///
    /// `ptr` must come from [`MonoidInstance::as_erased`] of a live
    /// instance.
    #[inline]
    pub unsafe fn from_erased<'a>(ptr: *const u8) -> &'a MonoidInstance {
        &*(ptr as *const MonoidInstance)
    }
}

/// The monoid the backends' hook-level tests share.
#[cfg(test)]
pub(crate) mod testing {
    use super::Monoid;
    use crate::msync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::Arc;

    /// Views made and dropped, and whether `reduce` should panic.
    #[derive(Default)]
    pub(crate) struct Tally {
        made: AtomicUsize,
        dropped: AtomicUsize,
        pub(crate) poisoned: AtomicBool,
    }

    impl Tally {
        /// `(made, dropped)` so far.
        pub(crate) fn counts(&self) -> (usize, usize) {
            (
                self.made.load(Ordering::SeqCst),
                self.dropped.load(Ordering::SeqCst),
            )
        }
    }

    /// A string that counts its own creation and drop.
    pub(crate) struct Tracked {
        pub(crate) s: String,
        tally: Arc<Tally>,
    }

    impl Drop for Tracked {
        fn drop(&mut self) {
            self.tally.dropped.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// String concatenation — associative, *not* commutative, so a
    /// hypermerge that swaps its operands shows — over [`Tracked`]
    /// views; `reduce` panics while the tally is poisoned.
    pub(crate) struct TrackedConcat(pub(crate) Arc<Tally>);

    impl Monoid for TrackedConcat {
        type View = Tracked;
        fn identity(&self) -> Tracked {
            self.0.made.fetch_add(1, Ordering::SeqCst);
            Tracked {
                s: String::new(),
                tally: Arc::clone(&self.0),
            }
        }
        fn reduce(&self, left: &mut Tracked, right: Tracked) {
            if self.0.poisoned.load(Ordering::SeqCst) {
                panic!("poisoned reduce");
            }
            left.s.push_str(&right.s);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Concat;
    impl Monoid for Concat {
        type View = String;
        fn identity(&self) -> String {
            String::new()
        }
        fn reduce(&self, left: &mut String, right: String) {
            left.push_str(&right);
        }
    }

    #[test]
    fn erased_identity_reduce_drop_roundtrip() {
        let m = Arc::new(Concat);
        let inst = MonoidInstance::new(&m);
        // SAFETY: the views come from this instance's `identity` and are
        // consumed exactly once (`right` by reduce, `left` by drop).
        unsafe {
            let left = inst.identity();
            let right = inst.identity();
            *(left as *mut String) = "foo".to_string();
            *(right as *mut String) = "bar".to_string();
            inst.reduce_into(left, right);
            assert_eq!(&*(left as *mut String), "foobar");
            inst.drop_view(left);
        }
    }

    #[test]
    fn erased_pointer_round_trips() {
        let m = Arc::new(Concat);
        let inst = MonoidInstance::new(&m);
        let erased = inst.as_erased();
        // SAFETY: `erased` is the address of the still-live `inst`.
        let back = unsafe { MonoidInstance::from_erased(erased) };
        assert!(std::ptr::eq(back, &inst));
    }

    #[test]
    fn reduce_is_left_biased() {
        // reduce(left, right) must leave the result in `left`, with
        // `left` as the serially earlier operand.
        let m = Concat;
        let mut l = "a".to_string();
        m.reduce(&mut l, "b".to_string());
        assert_eq!(l, "ab");
    }
}
