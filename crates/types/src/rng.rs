//! A tiny deterministic RNG for allocation fast paths.
//!
//! The paper's BW-AWARE implementation (§3.2.2) draws a random number in
//! `[0, 99]` on every page allocation. The OS fast path cannot afford a
//! heavyweight generator, so we model it with SplitMix64 — a 64-bit
//! splittable PRNG with good statistical quality, one multiply-xor-shift
//! round per output, and trivially reproducible streams.

/// A SplitMix64 pseudo-random number generator.
///
/// Deterministic for a given seed; `Clone` copies the full stream state.
///
/// # Examples
///
/// ```
/// use hmtypes::SplitMix64;
/// let mut a = SplitMix64::new(42);
/// let mut b = SplitMix64::new(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// let pct = a.next_below(100);
/// assert!(pct < 100);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SplitMix64 {
    state: u64,
}

/// The state stride per output (the golden-ratio increment).
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// The SplitMix64 output function of one state: a strong 64-bit mixer,
/// usable on its own for stateless seed derivation (per-case or
/// per-point seeds).
#[inline]
pub const fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SplitMix64 {
    /// Creates a generator seeded with `seed`.
    pub const fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Returns the next 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GAMMA);
        mix(self.state)
    }

    /// Returns the output the `(k + 1)`-th [`SplitMix64::next_u64`]
    /// call from here would return, without advancing: `peek(0)` is
    /// the next output. Each output is a pure function of its own state,
    /// so outputs at several offsets can be computed independently.
    #[inline]
    pub fn peek(&self, k: u64) -> u64 {
        mix(self
            .state
            .wrapping_add(k.wrapping_add(1).wrapping_mul(GAMMA)))
    }

    /// Returns a value uniformly distributed in `[0, bound)`.
    ///
    /// Uses the widening-multiply technique (Lemire); bias is < 2^-64 per
    /// draw, far below anything observable in simulation.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    #[inline]
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }

    /// Returns a uniform `f64` in `[0.0, 1.0)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        // 53 high bits -> uniform double in [0, 1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Advances the stream past `n` outputs in O(1) without computing
    /// them — the state stride per output is a constant add, so a bulk
    /// skip is one wrapping multiply-add. Equivalent to calling
    /// [`SplitMix64::next_u64`] `n` times and discarding the results.
    #[inline]
    pub fn skip(&mut self, n: u64) {
        self.state = self.state.wrapping_add(n.wrapping_mul(GAMMA));
    }

    /// Forks an independent generator, advancing this one.
    pub fn fork(&mut self) -> Self {
        SplitMix64::new(self.next_u64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
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
    fn next_below_respects_bound() {
        let mut rng = SplitMix64::new(99);
        for _ in 0..10_000 {
            assert!(rng.next_below(100) < 100);
        }
    }

    #[test]
    fn next_below_is_roughly_uniform() {
        // The BW-AWARE fast path relies on the [0,100) draw converging to
        // the requested ratio; check 30% of draws land below 30 within 2%.
        let mut rng = SplitMix64::new(12345);
        let n = 100_000;
        let below_30 = (0..n).filter(|_| rng.next_below(100) < 30).count();
        let frac = below_30 as f64 / n as f64;
        assert!((frac - 0.30).abs() < 0.02, "got {frac}");
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut rng = SplitMix64::new(5);
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn peek_is_a_later_output_and_does_not_advance() {
        for seed in [0u64, 3, u64::MAX, 0x9E37_79B9_7F4A_7C15] {
            let rng = SplitMix64::new(seed);
            let mut walk = rng.clone();
            for k in 0..64 {
                assert_eq!(rng.peek(k), walk.next_u64(), "seed {seed} k {k}");
            }
            assert_eq!(rng, SplitMix64::new(seed), "peek leaves the state alone");
            // A far offset agrees with a bulk skip to it.
            let mut skipped = rng.clone();
            skipped.skip(1 << 40);
            assert_eq!(rng.peek(1 << 40), skipped.next_u64());
        }
    }

    #[test]
    fn fork_produces_independent_stream() {
        let mut a = SplitMix64::new(11);
        let mut c = a.fork();
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn next_below_zero_panics() {
        SplitMix64::new(0).next_below(0);
    }
}
