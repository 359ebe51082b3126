//! The monoid abstraction and its type-erased form.
//!
//! A reducer is defined in terms of an algebraic monoid `(T, ⊗, e)` (§2):
//! the runtime calls `IDENTITY` to create a fresh local view and `REDUCE`
//! to combine two views in serial order. Because the runtime data
//! structures (hypermaps and SPA maps) store views of *many different
//! reducer types* side by side, views travel type-erased: a view is a
//! `*mut u8` to an `M::View` in a cell of its creating worker's chunks
//! (a `Box` for views over 64 bytes or aligned beyond 16, and for the
//! leftmost view; see the `cells` module), paired with a pointer to a
//! [`MonoidInstance`] whose vtable knows how to create, reduce, and
//! destroy views of that type. This mirrors the paper's SPA-map elements,
//! which are exactly a (view pointer, monoid pointer) pair (§6).

use std::sync::Arc;

use crate::cells::{self, WorkerCells};
use crate::msync::atomic::{AtomicPtr, AtomicU32, Ordering};

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
/// The runtime calls both on the thread of the access that needs them,
/// with that thread's context installed (none off the pool), so an
/// access to *another* reducer from inside them is a reducer access like
/// any other — except where noted below. They must never access the
/// reducer whose view they create or reduce.
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
/// * `identity`, run by [`Reducer::take`](crate::Reducer::take) for the
///   new leftmost view: allowed. The update lands where the `take` runs:
///   off the pool in the other reducer's leftmost view, at a spine point
///   inside a region in the current context, which the region folds.
///
/// A view's `Drop` has no such contract yet: do not access reducers from
/// it.
pub trait Monoid: Send + Sync + 'static {
    /// The view type local branches operate on.
    type View: Send + 'static;

    /// Creates the identity view `e` (called lazily on first access of a
    /// reducer by a freshly stolen execution context, §3/§6, and by
    /// [`Reducer::take`](crate::Reducer::take)). It may access other
    /// reducers (see the trait docs).
    fn identity(&self) -> Self::View;

    /// Reduces `left ⊗ right` into `left`, consuming `right`. `left` is
    /// the serially-earlier view. It may access other reducers when a
    /// join's hypermerge runs it, and not when the region-end fold does
    /// (see the trait docs).
    fn reduce(&self, left: &mut Self::View, right: Self::View);
}

/// The vtable of a type-erased monoid: how the runtime manipulates views
/// without knowing their type.
///
/// The cell contract (see [`crate::cells`]): a view `identity` returns is
/// a cell from `cells`, or a `Box` when the view type has no cell class;
/// `reduce_into` and `drop_view` free such a view into `cells`, or send
/// its cell home when `cells` is null. `cells` is raw and borrowed by
/// none of these across user code, so a nested lookup inside the user's
/// `identity` or `reduce` may use the same worker's cells.
pub(crate) struct MonoidVTable {
    /// Creates an identity view in a cell of `cells`, which must be
    /// non-null; `data` is the `&M`.
    pub(crate) identity: unsafe fn(data: *const (), cells: *mut WorkerCells) -> *mut u8,
    /// Reduces `left ⊗ right` into `left`, consuming `right` and freeing
    /// its cell. `left` may be a cell or the boxed leftmost view.
    pub(crate) reduce_into:
        unsafe fn(data: *const (), cells: *mut WorkerCells, left: *mut u8, right: *mut u8),
    /// Destroys a view without reducing it (panic/discard paths), after
    /// freeing its cell.
    pub(crate) drop_view: unsafe fn(cells: *mut WorkerCells, view: *mut u8),
}

unsafe fn identity_impl<M: Monoid>(data: *const (), cells: *mut WorkerCells) -> *mut u8 {
    let m = &*(data as *const M);
    // The user's `identity` runs before the cell is taken.
    let view = m.identity();
    cells::put(cells, view)
}

unsafe fn reduce_into_impl<M: Monoid>(
    data: *const (),
    cells: *mut WorkerCells,
    left: *mut u8,
    right: *mut u8,
) {
    let m = &*(data as *const M);
    // The right cell is free again before the user's `reduce` runs.
    let right = cells::take::<M::View>(cells, right);
    m.reduce(&mut *(left as *mut M::View), right);
}

unsafe fn drop_view_impl<M: Monoid>(cells: *mut WorkerCells, view: *mut u8) {
    drop(cells::take::<M::View>(cells, view));
}

/// The static vtable for a concrete monoid type.
pub(crate) fn vtable_for<M: Monoid>() -> &'static MonoidVTable {
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
/// required to outlive. It also holds the reducer's leftmost view and
/// its serial-exclusion word, so the region-end fold reaches a view's
/// leftmost through the pair's monoid pointer, as a hypermerge reaches
/// `reduce`.
#[repr(C)]
pub struct MonoidInstance {
    vtable: &'static MonoidVTable,
    /// Points at the `M` owned (via `Arc`) by the reducer.
    data: *const (),
    /// The reducer's leftmost view: the initial value and, after a
    /// region, the final one. Null in an instance made by `new`, and
    /// after `into_inner` or drop take it. Once the instance is shared,
    /// read and written only under the serial word ([`SerialBorrow`]).
    leftmost: AtomicPtr<u8>,
    /// The serial-exclusion word: [`SERIAL_FREE`] or [`SERIAL_HELD`].
    serial: AtomicU32,
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
        Self::with_leftmost(monoid, std::ptr::null_mut())
    }

    /// As [`MonoidInstance::new`], holding `leftmost` as the reducer's
    /// leftmost view: a boxed `M::View` the instance then owns.
    pub(crate) fn with_leftmost<M: Monoid>(monoid: &Arc<M>, leftmost: *mut u8) -> MonoidInstance {
        MonoidInstance {
            vtable: vtable_for::<M>(),
            data: Arc::as_ptr(monoid) as *const (),
            leftmost: AtomicPtr::new(leftmost),
            serial: AtomicU32::new(SERIAL_FREE),
        }
    }

    /// Takes the serial word for a serial-path access or the region-end
    /// fold. Panics if it is already held: overlapping serial accesses
    /// are a program error under the Cilk serial semantics.
    pub(crate) fn serial_borrow(&self) -> SerialBorrow<'_> {
        if self
            .serial
            .compare_exchange(
                SERIAL_FREE,
                SERIAL_HELD,
                Ordering::Acquire,
                Ordering::Relaxed,
            )
            .is_err()
        {
            panic!(
                "concurrent serial access to a reducer \
                 (serial accesses must not overlap)"
            );
        }
        SerialBorrow { inst: self }
    }

    /// Creates an identity view in a cell of `cells` (see
    /// [`MonoidVTable`]).
    ///
    /// # Safety
    ///
    /// The backing monoid must still be alive, and `cells` must point at
    /// the calling worker's live `WorkerCells`, borrowed by no reference.
    #[inline]
    pub(crate) unsafe fn identity(&self, cells: *mut WorkerCells) -> *mut u8 {
        (self.vtable.identity)(self.data, cells)
    }

    /// Reduces `left ⊗ right` into `left`, consuming `right` and freeing
    /// its cell into `cells`, or home when `cells` is null.
    ///
    /// # Safety
    ///
    /// Both pointers must be live views of this monoid's view type:
    /// `right` made by [`MonoidInstance::identity`] in this domain and
    /// not used afterwards, `left` such a view or the reducer's boxed
    /// leftmost. `cells`, unless null, must point at the calling worker's
    /// live `WorkerCells`, borrowed by no reference.
    #[inline]
    pub(crate) unsafe fn reduce_into(
        &self,
        cells: *mut WorkerCells,
        left: *mut u8,
        right: *mut u8,
    ) {
        (self.vtable.reduce_into)(self.data, cells, left, right)
    }

    /// Destroys a view made by [`MonoidInstance::identity`], freeing its
    /// cell into `cells`, or home when `cells` is null.
    ///
    /// # Safety
    ///
    /// `view` must be a live view of this monoid's view type made in this
    /// domain, not used afterwards; `cells` as for
    /// [`MonoidInstance::reduce_into`].
    #[inline]
    pub(crate) unsafe fn drop_view(&self, cells: *mut WorkerCells, view: *mut u8) {
        (self.vtable.drop_view)(cells, view)
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

/// Serial word: nobody is at a serial point for this reducer.
const SERIAL_FREE: u32 = 0;
/// Serial word: a serial-path access (update outside a region,
/// read/take/set/into_inner, drop) or the region-end fold is in
/// progress.
const SERIAL_HELD: u32 = 1;

/// Guard for a reducer's serial word, and the only access to its
/// leftmost view. Two states, free and held. Holders are the reducer's
/// serial-path accesses and the region-end fold; regions are serialized
/// by the pool's region lock, so a second holder means a serial access
/// overlapped another one or the end of a region that updated the
/// reducer: a Cilk serial-semantics violation, and it panics.
///
/// The word's Acquire CAS and Release store order every leftmost access,
/// so the pointer itself moves with `Relaxed` loads and stores.
pub(crate) struct SerialBorrow<'a> {
    inst: &'a MonoidInstance,
}

impl SerialBorrow<'_> {
    /// The leftmost view (null once taken).
    pub(crate) fn leftmost(&self) -> *mut u8 {
        self.inst.leftmost.load(Ordering::Relaxed)
    }

    /// Installs `view` as the leftmost view, returning the old one. The
    /// word is held, so a load and a store do what a swap would.
    pub(crate) fn replace_leftmost(&self, view: *mut u8) -> *mut u8 {
        let old = self.leftmost();
        self.inst.leftmost.store(view, Ordering::Relaxed);
        old
    }

    /// Folds `view` into the leftmost view, `view` the serially later
    /// operand, freeing its cell into `cells` (home when null). Panics
    /// if the leftmost is gone: views must not outlive their reducer.
    ///
    /// # Safety
    ///
    /// As the right operand of [`MonoidInstance::reduce_into`].
    pub(crate) unsafe fn fold(&self, cells: *mut WorkerCells, view: *mut u8) {
        let left = self.leftmost();
        assert!(!left.is_null(), "views outlive reducer");
        self.inst.reduce_into(cells, left, view);
    }
}

impl Drop for SerialBorrow<'_> {
    fn drop(&mut self) {
        // Skip the model release while a model thread unwinds: if the
        // execution is being torn down (ModelAbort) a traced op here
        // would nest a second abort panic inside this Drop — a double
        // panic; if a test assertion is unwinding, the failure is
        // already recorded and the execution stops anyway. (Same
        // discipline as the checker's own MutexGuard.) Outside a model
        // run the word must be released: a refused or panicking
        // region-end fold unwinds through here and the reducer lives on.
        #[cfg(feature = "model")]
        if std::thread::panicking() && cilkm_checker::in_model() {
            return;
        }
        self.inst.serial.store(SERIAL_FREE, Ordering::Release);
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
        let heap = Arc::new(crate::cells::CellHeap::new());
        let mut cells = WorkerCells::new(&heap, 0);
        let cells: *mut WorkerCells = &mut cells;
        // SAFETY: the views come from this instance's `identity` and are
        // consumed exactly once (`right` by reduce, `left` by drop);
        // `cells` is live and borrowed by nothing else.
        unsafe {
            let left = inst.identity(cells);
            let right = inst.identity(cells);
            *(left as *mut String) = "foo".to_string();
            *(right as *mut String) = "bar".to_string();
            inst.reduce_into(cells, left, right);
            assert_eq!(&*(left as *mut String), "foobar");
            inst.drop_view(cells, left);
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
