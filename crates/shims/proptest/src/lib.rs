//! Offline stand-in for the `proptest` crate.
//!
//! Implements the subset of the proptest API this workspace's property
//! tests use — `Strategy` with `prop_map`/`prop_recursive`/`boxed`,
//! `any`, `Just`, integer-range and tuple strategies,
//! `collection::vec`, weighted `prop_oneof!`, and the `proptest!` /
//! `prop_assert*` macros — as a plain deterministic generative tester:
//! each case draws fresh inputs from a seeded RNG (seed derived from the
//! test name and case index, so failures are reproducible) and runs the
//! body. There is no shrinking; a failing case reports its case number.

pub mod strategy {
    use super::test_runner::TestRng;
    use std::ops::{Range, RangeInclusive};
    use std::sync::Arc;

    /// A generator of values of type `Value`.
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Draws one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }

        /// Type-erases the strategy behind an `Arc`.
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
            Self::Value: 'static,
        {
            BoxedStrategy(Arc::new(self))
        }

        /// Builds a recursive strategy: `self` generates leaves, and
        /// `recurse` wraps an inner strategy into one more level. Each
        /// level falls back to the leaf strategy with enough probability
        /// to keep expected sizes near `desired_size`.
        fn prop_recursive<R, F>(
            self,
            depth: u32,
            _desired_size: u32,
            _expected_branch_size: u32,
            recurse: F,
        ) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
            Self::Value: 'static,
            R: Strategy<Value = Self::Value> + 'static,
            F: Fn(BoxedStrategy<Self::Value>) -> R,
        {
            let leaf = self.boxed();
            let mut current = leaf.clone();
            for _ in 0..depth {
                // Bias toward the leaf so tree sizes stay bounded even at
                // full depth (expected branching < 1 per level).
                let level = Union {
                    arms: vec![(2, leaf.clone()), (1, recurse(current).boxed())],
                };
                current = level.boxed();
            }
            current
        }
    }

    /// A clonable, type-erased strategy.
    pub struct BoxedStrategy<T>(Arc<dyn Strategy<Value = T>>);

    impl<T> Clone for BoxedStrategy<T> {
        fn clone(&self) -> Self {
            BoxedStrategy(Arc::clone(&self.0))
        }
    }

    impl<T> Strategy for BoxedStrategy<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            self.0.generate(rng)
        }
    }

    /// Strategy returned by [`Strategy::prop_map`].
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S, O, F> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> O,
    {
        type Value = O;
        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// Always generates a clone of the given value.
    #[derive(Clone, Debug)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// A weighted union of same-typed strategies (`prop_oneof!`).
    pub struct Union<T> {
        arms: Vec<(u32, BoxedStrategy<T>)>,
    }

    impl<T> Union<T> {
        /// Builds a union from `(weight, strategy)` arms.
        pub fn new_weighted(arms: Vec<(u32, BoxedStrategy<T>)>) -> Union<T> {
            assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
            assert!(arms.iter().any(|(w, _)| *w > 0), "all weights zero");
            Union { arms }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            let total: u64 = self.arms.iter().map(|(w, _)| *w as u64).sum();
            let mut pick = rng.below(total);
            for (w, s) in &self.arms {
                if pick < *w as u64 {
                    return s.generate(rng);
                }
                pick -= *w as u64;
            }
            unreachable!("weighted pick out of range")
        }
    }

    /// `any::<T>()` — uniform values of a primitive type.
    pub fn any<T: Arbitrary>() -> ArbitraryStrategy<T> {
        ArbitraryStrategy(std::marker::PhantomData)
    }

    /// Strategy returned by [`any`].
    pub struct ArbitraryStrategy<T>(std::marker::PhantomData<fn() -> T>);

    impl<T: Arbitrary> Strategy for ArbitraryStrategy<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    /// Types with a canonical uniform generator.
    pub trait Arbitrary {
        /// Draws one uniform value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    macro_rules! arbitrary_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }
    arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    impl Arbitrary for char {
        fn arbitrary(rng: &mut TestRng) -> char {
            // Printable ASCII keeps generated text debuggable.
            (0x20u8 + (rng.below(0x5f) as u8)) as char
        }
    }

    macro_rules! range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as u64).wrapping_sub(self.start as u64);
                    self.start.wrapping_add(rng.below(span) as $t)
                }
            }
            impl Strategy for RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty inclusive range strategy");
                    let span = (hi as u64).wrapping_sub(lo as u64);
                    if span == u64::MAX {
                        return rng.next_u64() as $t;
                    }
                    lo.wrapping_add(rng.below(span + 1) as $t)
                }
            }
        )*};
    }
    range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    macro_rules! tuple_strategy {
        ($(($($s:ident . $idx:tt),+))*) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.generate(rng),)+)
                }
            }
        )*};
    }
    tuple_strategy! {
        (A.0)
        (A.0, B.1)
        (A.0, B.1, C.2)
        (A.0, B.1, C.2, D.3)
        (A.0, B.1, C.2, D.3, E.4)
        (A.0, B.1, C.2, D.3, E.4, F.5)
    }
}

pub mod collection {
    use super::strategy::Strategy;
    use super::test_runner::TestRng;
    use std::ops::Range;

    /// Size bounds for generated collections.
    #[derive(Clone, Debug)]
    pub struct SizeRange {
        lo: usize,
        hi: usize, // exclusive
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> SizeRange {
            assert!(r.start < r.end, "empty collection size range");
            SizeRange {
                lo: r.start,
                hi: r.end,
            }
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> SizeRange {
            SizeRange { lo: n, hi: n + 1 }
        }
    }

    /// Strategy for `Vec<S::Value>` with length drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    /// Strategy returned by [`vec`].
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.hi - self.size.lo) as u64;
            let len = self.size.lo + rng.below(span.max(1)) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod test_runner {
    use cilkm_base::rng::{Xoshiro256, GAMMA};

    /// Per-test configuration (subset: case count).
    #[derive(Clone, Debug)]
    pub struct ProptestConfig {
        /// Number of generated cases per property.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// Config running `cases` cases.
        pub fn with_cases(cases: u32) -> ProptestConfig {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> ProptestConfig {
            ProptestConfig { cases: 64 }
        }
    }

    /// The deterministic generator behind every strategy draw
    /// (xoshiro256** seeded with splitmix64).
    pub struct TestRng(Xoshiro256);

    impl TestRng {
        /// A generator for the given seed.
        pub fn deterministic(seed: u64) -> TestRng {
            TestRng(Xoshiro256::seed_from_u64(seed))
        }

        /// Next uniform 64-bit value.
        pub fn next_u64(&mut self) -> u64 {
            self.0.next_u64()
        }

        /// Uniform value in `[0, bound)`; `bound` must be nonzero.
        pub fn below(&mut self, bound: u64) -> u64 {
            self.0.below(bound)
        }
    }

    /// FNV-1a over the test identity, mixing in the case index — the
    /// per-case seed, stable across runs.
    pub fn case_seed(module: &str, test: &str, case: u32) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in module.bytes().chain(test.bytes()) {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        h ^ GAMMA.wrapping_mul(case as u64 + 1)
    }
}

/// The common imports, mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::collection;
    pub use crate::strategy::{any, Arbitrary, BoxedStrategy, Just, Strategy, Union};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

/// Asserts a condition inside a property body.
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Asserts equality inside a property body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Asserts inequality inside a property body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

/// A weighted (or unweighted) union of strategies of one value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new_weighted(vec![
            $(($weight as u32, $crate::strategy::Strategy::boxed($strat))),+
        ])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new_weighted(vec![
            $((1u32, $crate::strategy::Strategy::boxed($strat))),+
        ])
    };
}

/// Defines property tests: each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` running `config.cases` deterministic cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_tests!{ ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_tests!{
            ($crate::test_runner::ProptestConfig::default()) $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_tests {
    ( ($cfg:expr)
      $( $(#[$meta:meta])*
         fn $name:ident( $($arg:ident in $strat:expr),+ $(,)? ) $body:block
      )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __config: $crate::test_runner::ProptestConfig = $cfg;
                for __case in 0..__config.cases {
                    let __seed = $crate::test_runner::case_seed(
                        module_path!(),
                        stringify!($name),
                        __case,
                    );
                    let mut __rng = $crate::test_runner::TestRng::deterministic(__seed);
                    $(let $arg = $crate::strategy::Strategy::generate(&($strat), &mut __rng);)+
                    let __outcome = ::std::panic::catch_unwind(
                        ::std::panic::AssertUnwindSafe(move || $body),
                    );
                    if let Err(panic) = __outcome {
                        eprintln!(
                            "proptest case {}/{} of {} failed (seed {:#x})",
                            __case + 1,
                            __config.cases,
                            stringify!($name),
                            __seed,
                        );
                        ::std::panic::resume_unwind(panic);
                    }
                }
            }
        )*
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[derive(Debug, Clone)]
    enum Tree {
        Leaf(#[allow(dead_code, reason = "only built, never read")] u8),
        Node(Box<Tree>, Box<Tree>),
    }

    impl Tree {
        fn size(&self) -> usize {
            match self {
                Tree::Leaf(_) => 1,
                Tree::Node(a, b) => a.size() + b.size(),
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn ranges_stay_in_bounds(x in 3usize..17, y in 5u16..=9) {
            prop_assert!((3..17).contains(&x));
            prop_assert!((5..=9).contains(&y));
        }

        #[test]
        fn vec_lengths_respect_bounds(v in collection::vec(any::<u8>(), 2..6)) {
            prop_assert!(v.len() >= 2 && v.len() < 6);
        }

        #[test]
        fn oneof_and_recursion_terminate(
            t in any::<u8>().prop_map(Tree::Leaf).prop_recursive(6, 32, 2, |inner| {
                prop_oneof![
                    3 => inner.clone().prop_map(|l| Tree::Node(Box::new(l.clone()), Box::new(l))),
                    1 => (inner.clone(), inner)
                        .prop_map(|(a, b)| Tree::Node(Box::new(a), Box::new(b))),
                ]
            })
        ) {
            prop_assert!(t.size() >= 1);
        }

        #[test]
        fn just_yields_its_value(x in Just(41u32)) {
            prop_assert_eq!(x + 1, 42);
        }
    }

    #[test]
    fn cases_are_deterministic() {
        use crate::strategy::Strategy;
        let s = crate::collection::vec(any::<u32>(), 0..10);
        let seed = crate::test_runner::case_seed("m", "t", 3);
        let mut a = crate::test_runner::TestRng::deterministic(seed);
        let mut b = crate::test_runner::TestRng::deterministic(seed);
        assert_eq!(s.generate(&mut a), s.generate(&mut b));
    }
}
