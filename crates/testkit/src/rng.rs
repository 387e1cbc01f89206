//! SplitMix64: the 64-bit finalizer-based PRNG of Steele, Lea & Flood
//! ("Fast splittable pseudorandom number generators", OOPSLA 2014).
//!
//! Chosen because it is seedable from a single `u64`, passes BigCrush,
//! needs no state beyond one word, and — crucially for a test harness —
//! is trivially reproducible across platforms and Rust versions.

/// A deterministic 64-bit PRNG with a one-word state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed. Equal seeds yield equal streams.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Splits off an independent generator (for nested structures whose
    /// size must not perturb the parent stream).
    pub fn split(&mut self) -> SplitMix64 {
        SplitMix64::new(self.next_u64())
    }

    /// Uniform `usize` in `[lo, hi)`. Panics if `lo >= hi`.
    pub fn gen_range_usize(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo < hi, "empty range {lo}..{hi}");
        let span = (hi - lo) as u64;
        lo + (self.next_u64() % span) as usize
    }

    /// Uniform `u64` in `[lo, hi)`. Panics if `lo >= hi`.
    pub fn gen_range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        lo + self.next_u64() % (hi - lo)
    }

    /// Uniform `i64` in `[lo, hi)`. Panics if `lo >= hi`.
    pub fn gen_range_i64(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        let span = hi.wrapping_sub(lo) as u64;
        lo.wrapping_add((self.next_u64() % span) as i64)
    }

    /// Uniform `i32` in `[lo, hi)`.
    pub fn gen_range_i32(&mut self, lo: i32, hi: i32) -> i32 {
        self.gen_range_i64(i64::from(lo), i64::from(hi)) as i32
    }

    /// A coin flip.
    pub fn gen_bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f64` in `[lo, hi)`.
    pub fn gen_range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + self.gen_f64() * (hi - lo)
    }

    /// One uniformly chosen element of a non-empty slice.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "choose from an empty slice");
        &items[self.gen_range_usize(0, items.len())]
    }

    /// A random string of `len` characters drawn from `alphabet`.
    pub fn gen_string(&mut self, alphabet: &[char], len: usize) -> String {
        (0..len).map(|_| *self.choose(alphabet)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_seeds_equal_streams() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn known_vector() {
        // Reference values for seed 0 from the canonical SplitMix64 C
        // implementation; pins the algorithm against regressions.
        let mut r = SplitMix64::new(0);
        assert_eq!(r.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(r.next_u64(), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(r.next_u64(), 0x06C4_5D18_8009_454F);
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut r = SplitMix64::new(7);
        for _ in 0..1000 {
            let v = r.gen_range_i64(-50, 50);
            assert!((-50..50).contains(&v));
            let u = r.gen_range_usize(3, 9);
            assert!((3..9).contains(&u));
            let f = r.gen_f64();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn bool_hits_both_values() {
        let mut r = SplitMix64::new(99);
        let trues = (0..1000).filter(|_| r.gen_bool()).count();
        assert!((300..700).contains(&trues), "heavily biased: {trues}");
    }

    #[test]
    fn choose_covers_slice() {
        let mut r = SplitMix64::new(5);
        let items = [1, 2, 3];
        let mut seen = [false; 3];
        for _ in 0..100 {
            seen[*r.choose(&items) as usize - 1] = true;
        }
        assert_eq!(seen, [true; 3]);
    }
}
