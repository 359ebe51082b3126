//! The standard reducer library — the monoids the paper's benchmarks use
//! (§8: add, min, max; §2: list append) plus the other staples of the
//! Cilk Plus reducer library (logical and/or, string concatenation, a
//! holder, and a closure-built custom monoid).

mod bits;
mod index;
mod prepend;

pub use bits::{BitAndMonoid, BitOrMonoid, BitXorMonoid, Bits};
pub use index::{IndexedExtreme, MaxIndexMonoid, MinIndexMonoid};
pub use prepend::PrependListMonoid;

use crate::monoid::Monoid;
use crate::reducer::Reducer;

/// Numeric types usable with [`SumMonoid`].
pub trait Summable: Send + Copy + 'static {
    /// The additive identity.
    const ZERO: Self;
    /// `*self += rhs`.
    fn add_assign(&mut self, rhs: Self);
}

macro_rules! impl_summable {
    ($($t:ty),*) => {$(
        impl Summable for $t {
            const ZERO: Self = 0 as $t;
            #[inline]
            fn add_assign(&mut self, rhs: Self) {
                *self += rhs;
            }
        }
    )*};
}

impl_summable!(u8, u16, u32, u64, u128, usize, i8, i16, i32, i64, i128, isize, f32, f64);

/// `(T, +, 0)` — the `add-n` microbenchmark's monoid (Figure 4).
#[derive(Default)]
pub struct SumMonoid<T: Summable> {
    _marker: std::marker::PhantomData<fn() -> T>,
}

impl<T: Summable> SumMonoid<T> {
    /// A sum monoid.
    pub fn new() -> SumMonoid<T> {
        SumMonoid {
            _marker: std::marker::PhantomData,
        }
    }
}

impl<T: Summable> Monoid for SumMonoid<T> {
    type View = T;

    fn identity(&self) -> T {
        T::ZERO
    }

    fn reduce(&self, left: &mut T, right: T) {
        left.add_assign(right);
    }
}

impl<T: Summable> Reducer<SumMonoid<T>> {
    /// Adds `x` into the current view.
    #[inline]
    pub fn add(&self, x: T) {
        self.update(move |v| v.add_assign(x));
    }
}

/// `(Option<T>, min, None)` — the `min-n` microbenchmark's monoid. The
/// view carries an "is set" state exactly like the Cilk Plus
/// `reducer_min`, whose identity is the unset view.
#[derive(Default)]
pub struct MinMonoid<T: Ord + Send + Copy + 'static> {
    _marker: std::marker::PhantomData<fn() -> T>,
}

impl<T: Ord + Send + Copy + 'static> MinMonoid<T> {
    /// A min monoid.
    pub fn new() -> MinMonoid<T> {
        MinMonoid {
            _marker: std::marker::PhantomData,
        }
    }
}

impl<T: Ord + Send + Copy + 'static> Monoid for MinMonoid<T> {
    type View = Option<T>;

    fn identity(&self) -> Option<T> {
        None
    }

    fn reduce(&self, left: &mut Option<T>, right: Option<T>) {
        if let Some(r) = right {
            match left {
                Some(l) if *l <= r => {}
                _ => *left = Some(r),
            }
        }
    }
}

impl<T: Ord + Send + Copy + 'static> Reducer<MinMonoid<T>> {
    /// Folds `x` into the running minimum.
    #[inline]
    pub fn observe(&self, x: T) {
        self.update(move |v| match v {
            Some(cur) if *cur <= x => {}
            _ => *v = Some(x),
        });
    }
}

/// `(Option<T>, max, None)` — the `max-n` microbenchmark's monoid.
#[derive(Default)]
pub struct MaxMonoid<T: Ord + Send + Copy + 'static> {
    _marker: std::marker::PhantomData<fn() -> T>,
}

impl<T: Ord + Send + Copy + 'static> MaxMonoid<T> {
    /// A max monoid.
    pub fn new() -> MaxMonoid<T> {
        MaxMonoid {
            _marker: std::marker::PhantomData,
        }
    }
}

impl<T: Ord + Send + Copy + 'static> Monoid for MaxMonoid<T> {
    type View = Option<T>;

    fn identity(&self) -> Option<T> {
        None
    }

    fn reduce(&self, left: &mut Option<T>, right: Option<T>) {
        if let Some(r) = right {
            match left {
                Some(l) if *l >= r => {}
                _ => *left = Some(r),
            }
        }
    }
}

impl<T: Ord + Send + Copy + 'static> Reducer<MaxMonoid<T>> {
    /// Folds `x` into the running maximum.
    #[inline]
    pub fn observe(&self, x: T) {
        self.update(move |v| match v {
            Some(cur) if *cur >= x => {}
            _ => *v = Some(x),
        });
    }
}

/// `({true,false}, ∧, true)` — logical AND (§2's example monoid).
#[derive(Default)]
pub struct AndMonoid;

impl AndMonoid {
    /// A logical-AND monoid.
    pub fn new() -> AndMonoid {
        AndMonoid
    }
}

impl Monoid for AndMonoid {
    type View = bool;

    fn identity(&self) -> bool {
        true
    }

    fn reduce(&self, left: &mut bool, right: bool) {
        *left &= right;
    }
}

/// `({true,false}, ∨, false)` — logical OR.
#[derive(Default)]
pub struct OrMonoid;

impl OrMonoid {
    /// A logical-OR monoid.
    pub fn new() -> OrMonoid {
        OrMonoid
    }
}

impl Monoid for OrMonoid {
    type View = bool;

    fn identity(&self) -> bool {
        false
    }

    fn reduce(&self, left: &mut bool, right: bool) {
        *left |= right;
    }
}

/// List append with the empty list as identity — the reducer of the
/// paper's tree-walk example (Figure 2b). **Not commutative**: the final
/// list order equals the serial execution's, which is the property the
/// runtime's ordering discipline exists to provide.
#[derive(Default)]
pub struct ListMonoid<T: Send + 'static> {
    _marker: std::marker::PhantomData<fn() -> T>,
}

impl<T: Send + 'static> ListMonoid<T> {
    /// A list-append monoid.
    pub fn new() -> ListMonoid<T> {
        ListMonoid {
            _marker: std::marker::PhantomData,
        }
    }
}

impl<T: Send + 'static> Monoid for ListMonoid<T> {
    type View = Vec<T>;

    fn identity(&self) -> Vec<T> {
        Vec::new()
    }

    fn reduce(&self, left: &mut Vec<T>, right: Vec<T>) {
        left.extend(right);
    }
}

impl<T: Send + 'static> Reducer<ListMonoid<T>> {
    /// Appends `x` to the current view — `l->push_back(n)` of Figure 2b.
    #[inline]
    pub fn push(&self, x: T) {
        self.update(move |v| v.push(x));
    }
}

/// String concatenation with the empty string as identity. Also not
/// commutative; used by the ordering property tests.
#[derive(Default)]
pub struct StringMonoid;

impl StringMonoid {
    /// A string-concatenation monoid.
    pub fn new() -> StringMonoid {
        StringMonoid
    }
}

impl Monoid for StringMonoid {
    type View = String;

    fn identity(&self) -> String {
        String::new()
    }

    fn reduce(&self, left: &mut String, right: String) {
        left.push_str(&right);
    }
}

impl Reducer<StringMonoid> {
    /// Appends `s` to the current view.
    #[inline]
    pub fn append(&self, s: &str) {
        self.update(move |v| v.push_str(s));
    }
}

/// A holder hyperobject: per-strand scratch space. Reduction keeps the
/// left view, so after a region the holder holds the serially-last
/// value written by the leftmost strand chain — Cilk++'s `holder` with
/// "keep last" semantics reduced to its monoid skeleton.
#[derive(Default)]
pub struct HolderMonoid<T: Send + Default + 'static> {
    _marker: std::marker::PhantomData<fn() -> T>,
}

impl<T: Send + Default + 'static> HolderMonoid<T> {
    /// A holder monoid.
    pub fn new() -> HolderMonoid<T> {
        HolderMonoid {
            _marker: std::marker::PhantomData,
        }
    }
}

impl<T: Send + Default + 'static> Monoid for HolderMonoid<T> {
    type View = T;

    fn identity(&self) -> T {
        T::default()
    }

    fn reduce(&self, _left: &mut T, right: T) {
        drop(right);
    }
}

/// A monoid built from closures — for one-off custom reducers.
///
/// ```
/// use cilkm_core::{library::FnMonoid, Backend, Reducer, ReducerPool};
/// let pool = ReducerPool::new(2, Backend::Mmap);
/// // Tracks (count, sum) to average at the end.
/// let avg = Reducer::new(
///     &pool,
///     FnMonoid::new(
///         || (0u64, 0u64),
///         |l: &mut (u64, u64), r: (u64, u64)| {
///             l.0 += r.0;
///             l.1 += r.1;
///         },
///     ),
///     (0, 0),
/// );
/// pool.run(|| {
///     avg.update(|v| {
///         v.0 += 1;
///         v.1 += 10;
///     });
/// });
/// assert_eq!(avg.into_inner(), (1, 10));
/// ```
pub struct FnMonoid<V, I, R>
where
    V: Send + 'static,
    I: Fn() -> V + Send + Sync + 'static,
    R: Fn(&mut V, V) + Send + Sync + 'static,
{
    identity: I,
    reduce: R,
    _marker: std::marker::PhantomData<fn() -> V>,
}

impl<V, I, R> FnMonoid<V, I, R>
where
    V: Send + 'static,
    I: Fn() -> V + Send + Sync + 'static,
    R: Fn(&mut V, V) + Send + Sync + 'static,
{
    /// Builds a monoid from an identity constructor and a reduce closure.
    /// The reduce closure must be associative with `identity()` as its
    /// identity, or determinism is forfeit (as in Cilk).
    pub fn new(identity: I, reduce: R) -> Self {
        FnMonoid {
            identity,
            reduce,
            _marker: std::marker::PhantomData,
        }
    }
}

impl<V, I, R> Monoid for FnMonoid<V, I, R>
where
    V: Send + 'static,
    I: Fn() -> V + Send + Sync + 'static,
    R: Fn(&mut V, V) + Send + Sync + 'static,
{
    type View = V;

    fn identity(&self) -> V {
        (self.identity)()
    }

    fn reduce(&self, left: &mut V, right: V) {
        (self.reduce)(left, right);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::{Backend, ReducerPool};
    use cilkm_runtime::parallel_for;

    #[test]
    fn sum_monoid_laws() {
        let m = SumMonoid::<i64>::new();
        let mut v = m.identity();
        m.reduce(&mut v, 5);
        m.reduce(&mut v, -2);
        assert_eq!(v, 3);
    }

    #[test]
    fn min_max_monoid_laws() {
        let min = MinMonoid::<u32>::new();
        let mut v = min.identity();
        min.reduce(&mut v, Some(9));
        min.reduce(&mut v, None);
        min.reduce(&mut v, Some(3));
        min.reduce(&mut v, Some(7));
        assert_eq!(v, Some(3));

        let max = MaxMonoid::<u32>::new();
        let mut v = max.identity();
        max.reduce(&mut v, Some(3));
        max.reduce(&mut v, Some(9));
        max.reduce(&mut v, Some(7));
        assert_eq!(v, Some(9));
    }

    #[test]
    fn logic_monoid_laws() {
        let and = AndMonoid::new();
        let mut v = and.identity();
        and.reduce(&mut v, true);
        assert!(v);
        and.reduce(&mut v, false);
        assert!(!v);

        let or = OrMonoid::new();
        let mut v = or.identity();
        or.reduce(&mut v, false);
        assert!(!v);
        or.reduce(&mut v, true);
        assert!(v);
    }

    #[test]
    fn list_append_keeps_order() {
        let m = ListMonoid::<u32>::new();
        let mut l = vec![1, 2];
        m.reduce(&mut l, vec![3, 4]);
        assert_eq!(l, vec![1, 2, 3, 4]);
    }

    #[test]
    fn holder_keeps_left() {
        let m = HolderMonoid::<u32>::new();
        let mut l = 5;
        m.reduce(&mut l, 9);
        assert_eq!(l, 5);
    }

    #[test]
    #[cfg_attr(miri, ignore = "spawns OS worker threads")]
    fn parallel_min_max_find_extremes() {
        for backend in [Backend::Hypermap, Backend::Mmap] {
            let pool = ReducerPool::new(2, backend);
            let values: Vec<u64> = (0..5000).map(|i| (i * 2654435761u64) % 100_000).collect();
            let min = Reducer::new(&pool, MinMonoid::new(), None);
            let max = Reducer::new(&pool, MaxMonoid::new(), None);
            pool.run(|| {
                parallel_for(0..values.len(), 64, &|r| {
                    for i in r {
                        min.observe(values[i]);
                        max.observe(values[i]);
                    }
                });
            });
            assert_eq!(min.into_inner(), values.iter().copied().min());
            assert_eq!(max.into_inner(), values.iter().copied().max());
        }
    }

    #[test]
    #[cfg_attr(miri, ignore = "spawns OS worker threads")]
    fn parallel_list_append_is_serial_order() {
        // The non-commutative stress: result must equal serial order.
        for backend in [Backend::Hypermap, Backend::Mmap] {
            let pool = ReducerPool::new(4, backend);
            let list = Reducer::new(&pool, ListMonoid::new(), Vec::new());
            pool.run(|| {
                parallel_for(0..2000, 16, &|r| {
                    for i in r {
                        list.push(i);
                    }
                });
            });
            let got = list.into_inner();
            let expect: Vec<usize> = (0..2000).collect();
            assert_eq!(got, expect, "backend {backend:?}");
        }
    }

    #[test]
    #[cfg_attr(miri, ignore = "spawns OS worker threads")]
    fn parallel_string_concat_is_serial_order() {
        for backend in [Backend::Hypermap, Backend::Mmap] {
            let pool = ReducerPool::new(4, backend);
            let s = Reducer::new(&pool, StringMonoid::new(), String::from("start:"));
            pool.run(|| {
                parallel_for(0..500, 8, &|r| {
                    for i in r {
                        s.append(&format!("{i},"));
                    }
                });
            });
            let got = s.into_inner();
            let mut expect = String::from("start:");
            for i in 0..500 {
                expect.push_str(&format!("{i},"));
            }
            assert_eq!(got, expect, "backend {backend:?}");
        }
    }
}
