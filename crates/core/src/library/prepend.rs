//! The prepend list — Cilk Plus's `reducer_list_prepend`: elements are
//! pushed at the *front*, and the final list order is the reverse of the
//! serial push order (the serially-last push ends up first), which is
//! exactly what a serial sequence of `push_front` calls produces.

use std::collections::VecDeque;

use crate::monoid::Monoid;
use crate::reducer::Reducer;

/// Prepend-list monoid: `reduce(left, right)` places `right`'s elements
/// *in front of* `left`'s, because `right` is serially later and later
/// `push_front`s land further forward.
#[derive(Default)]
pub struct PrependListMonoid<T: Send + 'static> {
    _marker: std::marker::PhantomData<fn() -> T>,
}

impl<T: Send + 'static> PrependListMonoid<T> {
    /// A prepend-list monoid.
    pub fn new() -> Self {
        PrependListMonoid {
            _marker: std::marker::PhantomData,
        }
    }
}

impl<T: Send + 'static> Monoid for PrependListMonoid<T> {
    type View = VecDeque<T>;

    fn identity(&self) -> VecDeque<T> {
        VecDeque::new()
    }

    fn reduce(&self, left: &mut VecDeque<T>, right: VecDeque<T>) {
        // right (serially later pushes) goes in front.
        let mut combined = right;
        combined.append(left);
        *left = combined;
    }
}

impl<T: Send + 'static> Reducer<PrependListMonoid<T>> {
    /// Pushes `x` at the front of the current view.
    #[inline]
    pub fn push_front(&self, x: T) {
        self.update(move |v| v.push_front(x));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::{Backend, ReducerPool};
    use cilkm_runtime::parallel_for;

    #[test]
    fn reduce_places_later_views_in_front() {
        let m = PrependListMonoid::<u32>::new();
        let mut l: VecDeque<u32> = [3, 2, 1].into_iter().collect(); // pushes 1,2,3
        let r: VecDeque<u32> = [5, 4].into_iter().collect(); // pushes 4,5
        m.reduce(&mut l, r);
        // Serial pushes 1,2,3,4,5 front-to-back read 5,4,3,2,1.
        assert_eq!(l.into_iter().collect::<Vec<_>>(), vec![5, 4, 3, 2, 1]);
    }

    #[test]
    #[cfg_attr(miri, ignore = "spawns OS worker threads")]
    fn parallel_prepend_equals_reversed_serial_order() {
        for backend in [Backend::Hypermap, Backend::Mmap] {
            let pool = ReducerPool::new(4, backend);
            let list = crate::reducer::Reducer::new(
                &pool,
                PrependListMonoid::<u32>::new(),
                VecDeque::new(),
            );
            pool.run(|| {
                parallel_for(0..1000, 16, &|r| {
                    for i in r {
                        list.push_front(i as u32);
                    }
                });
            });
            let got: Vec<u32> = list.into_inner().into_iter().collect();
            let expect: Vec<u32> = (0..1000).rev().collect();
            assert_eq!(got, expect, "backend {backend:?}");
        }
    }
}
