//! A tiny deterministic PRNG (SplitMix64) for model-internal randomness.
//!
//! The simulation kernel must be exactly reproducible, so network models
//! never use ambient OS entropy; each component derives its own stream from
//! an explicit seed. SplitMix64 is tiny, fast, and passes BigCrush when used
//! this way. The workspace's property tests draw their cases from it too
//! ([`for_each_case`]), so a failing case is reproduced by its seed.

use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

/// SplitMix64 deterministic generator.
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Create a generator from a seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Derive an independent child stream (e.g. one per NIC).
    pub fn fork(&mut self) -> SplitMix64 {
        SplitMix64::new(self.next_u64() ^ 0x9E37_79B9_7F4A_7C15)
    }

    /// Next 64 uniformly random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform float in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, n)`. `n` must be nonzero.
    pub fn next_below(&mut self, n: u64) -> u64 {
        assert!(n > 0);
        // Multiply-shift; bias is negligible for the model use cases here.
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform integer in `[range.start, range.end)`; the range must not be
    /// empty.
    pub fn range(&mut self, range: Range<usize>) -> usize {
        range.start + self.next_below((range.end - range.start) as u64) as usize
    }

    /// A vector of `item`s whose length is uniform in `len`.
    pub fn vec<T>(&mut self, len: Range<usize>, mut item: impl FnMut(&mut Self) -> T) -> Vec<T> {
        (0..self.range(len)).map(|_| item(self)).collect()
    }

    /// Bernoulli trial with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }
}

/// Run a property `cases` times, each on its own generator seeded from a
/// fixed base, so every run checks the same cases. If `property` panics the
/// failing case's seed is printed (`SplitMix64::new(seed)` reproduces its
/// inputs) and the panic continues.
pub fn for_each_case(cases: u32, mut property: impl FnMut(&mut SplitMix64)) {
    let mut seeds = SplitMix64::new(0x1997_0401);
    for case in 0..cases {
        let seed = seeds.next_u64();
        let run = AssertUnwindSafe(|| property(&mut SplitMix64::new(seed)));
        if let Err(panic) = catch_unwind(run) {
            eprintln!("property failed on case {case} of {cases}: seed {seed:#018x}");
            resume_unwind(panic);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = SplitMix64::new(7);
        for _ in 0..1000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn next_below_in_range_and_covers() {
        let mut r = SplitMix64::new(9);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let x = r.next_below(10) as usize;
            assert!(x < 10);
            seen[x] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }

    #[test]
    fn chance_extremes() {
        let mut r = SplitMix64::new(3);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
    }

    #[test]
    fn fork_streams_are_independent() {
        let mut parent = SplitMix64::new(5);
        let mut c1 = parent.fork();
        let mut c2 = parent.fork();
        assert_ne!(c1.next_u64(), c2.next_u64());
    }
}
