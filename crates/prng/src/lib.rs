//! A small, dependency-free, deterministic pseudo-random number generator.
//!
//! The workspace must build and test offline, so it cannot pull `rand` from
//! a registry; this crate provides the only randomness the model needs:
//! reproducible benchmark inputs and randomised property tests. Every stream
//! is explicitly seeded — there is no global or entropy-derived state — so a
//! simulation cell produces bit-identical inputs no matter which worker
//! thread of the parallel runner executes it.
//!
//! The generator is xoshiro256** (Blackman & Vigna) seeded through
//! splitmix64, the same construction `rand`'s `SmallRng` historically used.
//! It is not cryptographically secure and does not need to be.
//!
//! ```
//! use sim_prng::Prng;
//!
//! let mut a = Prng::seed_from_u64(42);
//! let mut b = Prng::seed_from_u64(42);
//! assert_eq!(a.next_u64(), b.next_u64()); // same seed, same stream
//! let x = a.range_i32(-100, 100);
//! assert!((-100..100).contains(&x));
//! ```

/// One step of splitmix64.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A xoshiro256** generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Prng {
    s: [u64; 4],
}

impl Prng {
    /// Seed deterministically from a single word (via splitmix64, so nearby
    /// seeds give unrelated streams).
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let s =
            [splitmix64(&mut sm), splitmix64(&mut sm), splitmix64(&mut sm), splitmix64(&mut sm)];
        Prng { s }
    }

    /// The next 64 uniformly random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// The next 32 uniformly random bits.
    #[inline]
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// A uniformly random byte.
    #[inline]
    pub fn next_u8(&mut self) -> u8 {
        (self.next_u64() >> 56) as u8
    }

    /// A uniformly random boolean.
    #[inline]
    pub fn next_bool(&mut self) -> bool {
        self.next_u64() >> 63 != 0
    }

    /// `true` with probability `num / den`.
    #[inline]
    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        self.range_u64(0, den) < num
    }

    /// Uniform in `[lo, hi)`. Uses Lemire-style widening reduction — a tiny
    /// modulo bias (< 2^-32 for the ranges used here) is irrelevant for test
    /// inputs and keeps the generator branch-free.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    #[inline]
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        let span = hi - lo;
        lo + ((self.next_u64() as u128 * span as u128) >> 64) as u64
    }

    /// Uniform `u32` in `[lo, hi)`.
    #[inline]
    pub fn range_u32(&mut self, lo: u32, hi: u32) -> u32 {
        self.range_u64(lo as u64, hi as u64) as u32
    }

    /// Uniform `usize` in `[lo, hi)`.
    #[inline]
    pub fn range_usize(&mut self, lo: usize, hi: usize) -> usize {
        self.range_u64(lo as u64, hi as u64) as usize
    }

    /// Uniform `i32` in `[lo, hi)`.
    #[inline]
    pub fn range_i32(&mut self, lo: i32, hi: i32) -> i32 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        let span = (hi as i64 - lo as i64) as u64;
        (lo as i64 + self.range_u64(0, span) as i64) as i32
    }

    /// Uniform `f32` in `[lo, hi)` (24 bits of precision).
    #[inline]
    pub fn range_f32(&mut self, lo: f32, hi: f32) -> f32 {
        let unit = (self.next_u32() >> 8) as f32 * (1.0 / (1 << 24) as f32);
        lo + unit * (hi - lo)
    }

    /// A uniformly random element of a non-empty slice.
    ///
    /// # Panics
    ///
    /// Panics if the slice is empty.
    #[inline]
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.range_usize(0, items.len())]
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.range_usize(0, i + 1);
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_streams() {
        let mut a = Prng::seed_from_u64(7);
        let mut b = Prng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Prng::seed_from_u64(8);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn known_answer() {
        // Pin the stream so a refactor cannot silently change every
        // benchmark input in the repository.
        let mut r = Prng::seed_from_u64(0);
        assert_eq!(r.next_u64(), 0x99EC_5F36_CB75_F2B4);
        assert_eq!(r.next_u64(), 0xBF6E_1F78_4956_452A);
    }

    #[test]
    fn ranges_are_in_bounds() {
        let mut r = Prng::seed_from_u64(1);
        for _ in 0..10_000 {
            assert!((10..20).contains(&r.range_u64(10, 20)));
            assert!((-5..5).contains(&r.range_i32(-5, 5)));
            let f = r.range_f32(-4.0, 4.0);
            assert!((-4.0..4.0).contains(&f));
        }
    }

    #[test]
    fn range_covers_all_values() {
        let mut r = Prng::seed_from_u64(2);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            seen[r.range_usize(0, 10)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = Prng::seed_from_u64(3);
        let mut v: Vec<u32> = (0..100).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, sorted, "shuffle left the identity permutation");
    }

    #[test]
    fn chance_probability() {
        let mut r = Prng::seed_from_u64(4);
        let hits = (0..10_000).filter(|_| r.chance(1, 4)).count();
        assert!((2000..3000).contains(&hits), "1/4 chance hit {hits}/10000");
    }
}
