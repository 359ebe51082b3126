//! Argmin/argmax monoids — the `reducer_min_index` / `reducer_max_index`
//! family of the Cilk Plus reducer library: track the extreme value *and
//! where it occurred*, with serial tie-breaking (first occurrence wins,
//! exactly as a serial scan would decide).

use crate::monoid::Monoid;
use crate::reducer::Reducer;

/// The view of an index-tracking extreme: the best (index, value) so far.
pub type IndexedExtreme<I, T> = Option<(I, T)>;

/// Monoid tracking the minimum value and the (serially) first index
/// attaining it.
#[derive(Default)]
pub struct MinIndexMonoid<I: Send + Copy + 'static, T: Ord + Send + Copy + 'static> {
    _marker: std::marker::PhantomData<fn() -> (I, T)>,
}

impl<I: Send + Copy + 'static, T: Ord + Send + Copy + 'static> MinIndexMonoid<I, T> {
    /// A min-with-index monoid.
    pub fn new() -> Self {
        MinIndexMonoid {
            _marker: std::marker::PhantomData,
        }
    }
}

impl<I: Send + Copy + 'static, T: Ord + Send + Copy + 'static> Monoid for MinIndexMonoid<I, T> {
    type View = IndexedExtreme<I, T>;

    fn identity(&self) -> Self::View {
        None
    }

    fn reduce(&self, left: &mut Self::View, right: Self::View) {
        if let Some((ri, rv)) = right {
            match left {
                // Ties keep the left (serially earlier) occurrence.
                Some((_, lv)) if *lv <= rv => {}
                _ => *left = Some((ri, rv)),
            }
        }
    }
}

impl<I: Send + Copy + 'static, T: Ord + Send + Copy + 'static> Reducer<MinIndexMonoid<I, T>> {
    /// Folds observation `(index, value)` into the running minimum.
    #[inline]
    pub fn observe(&self, index: I, value: T) {
        self.update(move |v| match v {
            Some((_, best)) if *best <= value => {}
            _ => *v = Some((index, value)),
        });
    }
}

/// Monoid tracking the maximum value and the (serially) first index
/// attaining it.
#[derive(Default)]
pub struct MaxIndexMonoid<I: Send + Copy + 'static, T: Ord + Send + Copy + 'static> {
    _marker: std::marker::PhantomData<fn() -> (I, T)>,
}

impl<I: Send + Copy + 'static, T: Ord + Send + Copy + 'static> MaxIndexMonoid<I, T> {
    /// A max-with-index monoid.
    pub fn new() -> Self {
        MaxIndexMonoid {
            _marker: std::marker::PhantomData,
        }
    }
}

impl<I: Send + Copy + 'static, T: Ord + Send + Copy + 'static> Monoid for MaxIndexMonoid<I, T> {
    type View = IndexedExtreme<I, T>;

    fn identity(&self) -> Self::View {
        None
    }

    fn reduce(&self, left: &mut Self::View, right: Self::View) {
        if let Some((ri, rv)) = right {
            match left {
                Some((_, lv)) if *lv >= rv => {}
                _ => *left = Some((ri, rv)),
            }
        }
    }
}

impl<I: Send + Copy + 'static, T: Ord + Send + Copy + 'static> Reducer<MaxIndexMonoid<I, T>> {
    /// Folds observation `(index, value)` into the running maximum.
    #[inline]
    pub fn observe(&self, index: I, value: T) {
        self.update(move |v| match v {
            Some((_, best)) if *best >= value => {}
            _ => *v = Some((index, value)),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::{Backend, ReducerPool};
    use cilkm_runtime::parallel_for;

    #[test]
    fn min_index_keeps_first_occurrence_on_tie() {
        let m = MinIndexMonoid::<usize, u32>::new();
        let mut v = m.identity();
        m.reduce(&mut v, Some((5, 10)));
        m.reduce(&mut v, Some((9, 10))); // tie: keep index 5
        m.reduce(&mut v, Some((2, 7)));
        assert_eq!(v, Some((2, 7)));
    }

    #[test]
    #[cfg_attr(miri, ignore = "spawns OS worker threads")]
    fn parallel_argmin_argmax_match_serial_scan() {
        let values: Vec<u32> = (0..30_000u64)
            .map(|i| (i.wrapping_mul(2654435761) % 1_000_003) as u32)
            .collect();

        // The serial oracle with first-occurrence tie-breaking.
        let mut smin = (0usize, values[0]);
        let mut smax = (0usize, values[0]);
        for (i, &v) in values.iter().enumerate() {
            if v < smin.1 {
                smin = (i, v);
            }
            if v > smax.1 {
                smax = (i, v);
            }
        }

        for backend in [Backend::Hypermap, Backend::Mmap] {
            let pool = ReducerPool::new(3, backend);
            let amin = crate::reducer::Reducer::new(&pool, MinIndexMonoid::new(), None);
            let amax = crate::reducer::Reducer::new(&pool, MaxIndexMonoid::new(), None);
            pool.run(|| {
                parallel_for(0..values.len(), 256, &|r| {
                    for i in r {
                        amin.observe(i, values[i]);
                        amax.observe(i, values[i]);
                    }
                });
            });
            assert_eq!(amin.into_inner(), Some(smin), "backend {backend:?}");
            assert_eq!(amax.into_inner(), Some(smax), "backend {backend:?}");
        }
    }
}
