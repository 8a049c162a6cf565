//! Deterministic pseudo-random number generation for the harness.
//!
//! Two generators, both tiny, both fully reproducible:
//!
//! * [`SplitMix64`] — one multiply-xor-shift round per output. Used for
//!   seeding, stateless seed derivation, and anywhere a cheap
//!   stream is enough (it is the same algorithm `hmtypes::SplitMix64`
//!   models the BW-AWARE allocation fast path with; the harness carries
//!   its own copy so it depends on nothing).
//! * [`Xoshiro256StarStar`] — the xoshiro256** generator, seeded through
//!   SplitMix64 as its authors recommend. This is the workhorse behind
//!   property-test case generation, where long non-overlapping streams
//!   matter more than raw speed.

/// A SplitMix64 pseudo-random number generator.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator seeded with `seed`.
    pub const fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Returns the next 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.state)
    }
}

/// The SplitMix64 output function: a strong 64-bit mixer usable on its
/// own for stateless seed derivation (e.g. per-test or per-case seeds).
#[inline]
pub const fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The xoshiro256** generator (Blackman & Vigna): 256 bits of state,
/// period 2^256 - 1, passes BigCrush.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Xoshiro256StarStar {
    s: [u64; 4],
}

impl Xoshiro256StarStar {
    /// Creates a generator from `seed`, expanding it through SplitMix64
    /// (the seeding procedure the xoshiro authors recommend).
    pub fn new(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = sm.next_u64();
        }
        // An all-zero state is the one fixed point; SplitMix64 cannot
        // produce four consecutive zeros, but keep the guard explicit.
        if s == [0; 4] {
            s[0] = 0x9E37_79B9_7F4A_7C15;
        }
        Xoshiro256StarStar { s }
    }

    /// Returns the next 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let out = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        out
    }

    /// Returns a value uniformly distributed in `[0, bound)` via the
    /// widening-multiply technique (bias < 2^-64 per draw).
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
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Forks an independent generator, advancing this one.
    pub fn fork(&mut self) -> Self {
        Xoshiro256StarStar::new(self.next_u64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_deterministic() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn xoshiro_deterministic_and_seeds_diverge() {
        let mut a = Xoshiro256StarStar::new(1);
        let mut b = Xoshiro256StarStar::new(1);
        let mut c = Xoshiro256StarStar::new(2);
        for _ in 0..64 {
            let x = a.next_u64();
            assert_eq!(x, b.next_u64());
            assert_ne!(x, c.next_u64());
        }
    }

    #[test]
    fn next_below_respects_bound_and_is_roughly_uniform() {
        let mut rng = Xoshiro256StarStar::new(42);
        let n = 100_000;
        let below_30 = (0..n)
            .map(|_| rng.next_below(100))
            .inspect(|&x| assert!(x < 100))
            .filter(|&x| x < 30)
            .count();
        let frac = below_30 as f64 / n as f64;
        assert!((frac - 0.30).abs() < 0.02, "got {frac}");
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut rng = Xoshiro256StarStar::new(5);
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn fork_produces_independent_stream() {
        let mut a = Xoshiro256StarStar::new(11);
        let mut c = a.fork();
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn mix_is_stateless_and_nontrivial() {
        assert_eq!(mix(123), mix(123));
        assert_ne!(mix(123), mix(124));
        assert_ne!(mix(123), 123);
    }
}
