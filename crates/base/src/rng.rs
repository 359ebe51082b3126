//! Seeded pseudo-random generators: no OS entropy anywhere, so every
//! stream is a pure function of its seed.
//!
//! * [`mix64`], the splitmix64 finalizer, for hashing a counter or a
//!   seed pair into one well-spread word;
//! * [`Xoshiro256`], xoshiro256** seeded by splitmix64, with Lemire's
//!   unbiased [`below`](Xoshiro256::below) and a 53-bit
//!   [`f64`](Xoshiro256::f64): the input generators' stream;
//! * [`XorShift64`], xorshift64*, one word of state: victim selection;
//! * [`cases`], the seeded case loop every property test runs in.

/// The splitmix64 increment, 2^64 divided by the golden ratio.
pub const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// The splitmix64 finalizer: a bijective avalanche of `z`.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// xoshiro256** (Blackman and Vigna), the generator rand 0.8's
/// `SmallRng` uses on 64-bit targets.
#[derive(Clone, Debug)]
pub struct Xoshiro256 {
    s: [u64; 4],
}

impl Xoshiro256 {
    /// The generator whose state is the first four splitmix64 outputs
    /// from `seed`. They are never all zero, the one fixed point.
    pub fn seed_from_u64(seed: u64) -> Xoshiro256 {
        let mut sm = seed;
        let s = [(); 4].map(|()| {
            sm = sm.wrapping_add(GAMMA);
            mix64(sm)
        });
        Xoshiro256 { s }
    }

    /// The next uniform 64-bit word.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let [s0, s1, s2, s3] = self.s;
        let result = s1.wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s1 << 17;
        let s2 = s2 ^ s0;
        let s3 = s3 ^ s1;
        let s1 = s1 ^ s2;
        let s0 = s0 ^ s3;
        let s2 = s2 ^ t;
        let s3 = s3.rotate_left(45);
        self.s = [s0, s1, s2, s3];
        result
    }

    /// A uniform value in `[0, bound)` by Lemire's multiply-shift, with
    /// the rejection step that removes its bias. `bound` must be nonzero.
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        // 2^64 mod bound: products whose low half lands below this fall
        // in the over-represented zone and are drawn again.
        let threshold = bound.wrapping_neg() % bound;
        loop {
            let m = self.next_u64() as u128 * bound as u128;
            if m as u64 >= threshold {
                return (m >> 64) as u64;
            }
        }
    }

    /// A uniform value in `[0, 1)` from the top 53 bits of one word.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// xorshift64* (Vigna): one word of state, cheap enough for the steal
/// loop.
#[derive(Clone, Copy, Debug)]
pub struct XorShift64 {
    s: u64,
}

impl XorShift64 {
    /// The generator seeded with `seed`; zero, the absorbing state, is
    /// replaced by [`GAMMA`].
    #[inline]
    pub const fn new(seed: u64) -> XorShift64 {
        XorShift64 {
            s: if seed == 0 { GAMMA } else { seed },
        }
    }

    /// The next 64-bit word; never zero.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.s;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.s = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

/// The seed of case `case` of a property seeded with `seed`: the
/// generator [`cases`] hands that case is
/// `Xoshiro256::seed_from_u64(case_seed(seed, case))`.
pub fn case_seed(seed: u64, case: u32) -> u64 {
    mix64(seed ^ GAMMA.wrapping_mul(case as u64 + 1))
}

/// Runs a property `n` times, case `i` drawing its inputs from a fresh
/// [`Xoshiro256`] seeded with [`case_seed`]`(seed, i)`, so every run
/// draws the same inputs. There is no shrinking: a case that panics
/// prints its number and seed to stderr, and the panic goes on.
pub fn cases(seed: u64, n: u32, mut f: impl FnMut(&mut Xoshiro256)) {
    /// Names case `.0` of `.1`, with its seed, on the way out of a
    /// panicking one.
    struct Failing(u32, u32, u64);

    impl Drop for Failing {
        fn drop(&mut self) {
            let Failing(case, n, seed) = *self;
            if std::thread::panicking() {
                eprintln!(
                    "property case {}/{n} failed (case seed {seed:#x})",
                    case + 1
                );
            }
        }
    }

    for case in 0..n {
        let seed = case_seed(seed, case);
        let _failing = Failing(case, n, seed);
        f(&mut Xoshiro256::seed_from_u64(seed));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "case 2")]
    fn a_failing_case_panics_through() {
        let mut i = 0;
        cases(5, 4, |_| {
            assert!(i != 2, "case {i}");
            i += 1;
        });
    }
}
