//! Bitwise monoids — the `reducer_opand` / `reducer_opor` /
//! `reducer_opxor` family of the Cilk Plus reducer library.

use crate::monoid::Monoid;
use crate::reducer::Reducer;

/// Integer types usable with the bitwise monoids.
pub trait Bits: Send + Copy + 'static {
    /// All-zeros (identity of OR and XOR).
    const ZEROS: Self;
    /// All-ones (identity of AND).
    const ONES: Self;
    /// `*self &= rhs`.
    fn and_assign(&mut self, rhs: Self);
    /// `*self |= rhs`.
    fn or_assign(&mut self, rhs: Self);
    /// `*self ^= rhs`.
    fn xor_assign(&mut self, rhs: Self);
}

macro_rules! impl_bits {
    ($($t:ty),*) => {$(
        impl Bits for $t {
            const ZEROS: Self = 0;
            const ONES: Self = !0;
            #[inline]
            fn and_assign(&mut self, rhs: Self) {
                *self &= rhs;
            }
            #[inline]
            fn or_assign(&mut self, rhs: Self) {
                *self |= rhs;
            }
            #[inline]
            fn xor_assign(&mut self, rhs: Self) {
                *self ^= rhs;
            }
        }
    )*};
}

impl_bits!(u8, u16, u32, u64, u128, usize, i8, i16, i32, i64, i128, isize);

/// `(T, &, !0)` — bitwise AND.
#[derive(Default)]
pub struct BitAndMonoid<T: Bits> {
    _marker: std::marker::PhantomData<fn() -> T>,
}

impl<T: Bits> BitAndMonoid<T> {
    /// A bitwise-AND monoid.
    pub fn new() -> Self {
        BitAndMonoid {
            _marker: std::marker::PhantomData,
        }
    }
}

impl<T: Bits> Monoid for BitAndMonoid<T> {
    type View = T;

    fn identity(&self) -> T {
        T::ONES
    }

    fn reduce(&self, left: &mut T, right: T) {
        left.and_assign(right);
    }
}

impl<T: Bits> Reducer<BitAndMonoid<T>> {
    /// ANDs `x` into the current view.
    #[inline]
    pub fn and(&self, x: T) {
        self.update(move |v| v.and_assign(x));
    }
}

/// `(T, |, 0)` — bitwise OR.
#[derive(Default)]
pub struct BitOrMonoid<T: Bits> {
    _marker: std::marker::PhantomData<fn() -> T>,
}

impl<T: Bits> BitOrMonoid<T> {
    /// A bitwise-OR monoid.
    pub fn new() -> Self {
        BitOrMonoid {
            _marker: std::marker::PhantomData,
        }
    }
}

impl<T: Bits> Monoid for BitOrMonoid<T> {
    type View = T;

    fn identity(&self) -> T {
        T::ZEROS
    }

    fn reduce(&self, left: &mut T, right: T) {
        left.or_assign(right);
    }
}

impl<T: Bits> Reducer<BitOrMonoid<T>> {
    /// ORs `x` into the current view.
    #[inline]
    pub fn or(&self, x: T) {
        self.update(move |v| v.or_assign(x));
    }
}

/// `(T, ^, 0)` — bitwise XOR.
#[derive(Default)]
pub struct BitXorMonoid<T: Bits> {
    _marker: std::marker::PhantomData<fn() -> T>,
}

impl<T: Bits> BitXorMonoid<T> {
    /// A bitwise-XOR monoid.
    pub fn new() -> Self {
        BitXorMonoid {
            _marker: std::marker::PhantomData,
        }
    }
}

impl<T: Bits> Monoid for BitXorMonoid<T> {
    type View = T;

    fn identity(&self) -> T {
        T::ZEROS
    }

    fn reduce(&self, left: &mut T, right: T) {
        left.xor_assign(right);
    }
}

impl<T: Bits> Reducer<BitXorMonoid<T>> {
    /// XORs `x` into the current view.
    #[inline]
    pub fn xor(&self, x: T) {
        self.update(move |v| v.xor_assign(x));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::{Backend, ReducerPool};
    use cilkm_runtime::parallel_for;

    #[test]
    fn bit_monoid_laws() {
        let and = BitAndMonoid::<u8>::new();
        let mut v = and.identity();
        and.reduce(&mut v, 0b1100);
        and.reduce(&mut v, 0b1010);
        assert_eq!(v, 0b1000);

        let or = BitOrMonoid::<u8>::new();
        let mut v = or.identity();
        or.reduce(&mut v, 0b1100);
        or.reduce(&mut v, 0b0011);
        assert_eq!(v, 0b1111);

        let xor = BitXorMonoid::<u8>::new();
        let mut v = xor.identity();
        xor.reduce(&mut v, 0b1100);
        xor.reduce(&mut v, 0b1010);
        assert_eq!(v, 0b0110);
    }

    #[test]
    #[cfg_attr(miri, ignore = "spawns OS worker threads")]
    fn parallel_xor_checksums_match_serial() {
        let values: Vec<u64> = (0..50_000u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect();
        let expect = values.iter().fold(0u64, |a, b| a ^ b);
        for backend in [Backend::Hypermap, Backend::Mmap] {
            let pool = ReducerPool::new(3, backend);
            let x = crate::reducer::Reducer::new(&pool, BitXorMonoid::<u64>::new(), 0);
            let o = crate::reducer::Reducer::new(&pool, BitOrMonoid::<u64>::new(), 0);
            let a = crate::reducer::Reducer::new(&pool, BitAndMonoid::<u64>::new(), !0);
            pool.run(|| {
                parallel_for(0..values.len(), 512, &|r| {
                    for i in r {
                        x.xor(values[i]);
                        o.or(values[i]);
                        a.and(values[i]);
                    }
                });
            });
            assert_eq!(x.into_inner(), expect);
            assert_eq!(o.into_inner(), values.iter().fold(0u64, |acc, b| acc | b));
            assert_eq!(a.into_inner(), values.iter().fold(!0u64, |acc, b| acc & b));
        }
    }
}
