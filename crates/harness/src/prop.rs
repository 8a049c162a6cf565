//! A minimal in-tree property-test kit replacing `proptest`.
//!
//! Design goals, in order: **zero dependencies**, **deterministic by
//! default** (a fixed seed per property derived from its name, so
//! `cargo test` is reproducible byte-for-byte), and **shrinking-lite**
//! (on failure, the failing case is re-generated at smaller *sizes* from
//! the same case seed, and the smallest still-failing size is reported).
//!
//! Properties are written with the [`props!`](crate::props) macro:
//!
//! ```
//! hetmem_harness::props! {
//!     cases = 32;
//!
//!     /// Addition commutes.
//!     fn add_commutes(a in 0u64..1000, b in 0u64..1000) {
//!         assert_eq!(a + b, b + a);
//!     }
//! }
//! # fn main() {}
//! ```
//!
//! Inside the body plain `assert!`/`assert_eq!` are used (no
//! `prop_assert!` dialect); the runner catches panics per case.
//!
//! Case generation is *sized*: case `i` of `n` draws values from a
//! range scaled by a size factor ramping from ~10% up to 100% of the
//! declared span, so small inputs are explored first and the full range
//! by the end of the run. Failures report the property name, case seed,
//! and a `HM_PROP_SEED` environment override for replay; `HM_PROP_CASES`
//! scales the number of cases globally.

use std::ops::{Range, RangeInclusive};
use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::rng::{mix, Xoshiro256StarStar};
use crate::telemetry::fnv1a;

/// The per-case generation context handed to property bodies (via the
/// macro) and to [`Sample`] implementations.
#[derive(Debug)]
pub struct Gen {
    rng: Xoshiro256StarStar,
    size: f64,
}

impl Gen {
    /// Creates a generator for one case. `size` in `(0, 1]` scales the
    /// span of every sampled range (shrinking-lite re-runs a failing
    /// case at smaller sizes).
    pub fn new(case_seed: u64, size: f64) -> Self {
        Gen {
            rng: Xoshiro256StarStar::new(case_seed),
            size: size.clamp(0.001, 1.0),
        }
    }

    /// The current size factor in `(0, 1]`.
    pub fn size(&self) -> f64 {
        self.size
    }

    /// Raw 64-bit draw (unsized; prefer [`Gen::sample`]).
    pub fn next_u64(&mut self) -> u64 {
        self.rng.next_u64()
    }

    /// Uniform draw in `[0, bound)` (unsized).
    pub fn next_below(&mut self, bound: u64) -> u64 {
        self.rng.next_below(bound)
    }

    /// Uniform `f64` in `[0, 1)` (unsized).
    pub fn next_f64(&mut self) -> f64 {
        self.rng.next_f64()
    }

    /// Samples a value from any [`Sample`] source.
    pub fn sample<S: Sample>(&mut self, source: &S) -> S::Output {
        source.sample(self)
    }

    /// Applies the size factor to an integer span, keeping at least one
    /// representable value.
    fn sized_span(&self, span: u64) -> u64 {
        if span <= 1 {
            return span;
        }
        (((span as f64) * self.size).ceil() as u64).clamp(1, span)
    }
}

/// A source of sized pseudo-random values — the kit's analogue of a
/// proptest `Strategy`. Implemented for primitive ranges, tuples of
/// sources, and [`VecOf`].
pub trait Sample {
    /// The generated value type.
    type Output;
    /// Draws one value.
    fn sample(&self, g: &mut Gen) -> Self::Output;
}

macro_rules! impl_sample_int {
    ($($t:ty),*) => {$(
        impl Sample for Range<$t> {
            type Output = $t;
            fn sample(&self, g: &mut Gen) -> $t {
                assert!(self.start < self.end, "empty range");
                let span = (self.end - self.start) as u64;
                let eff = g.sized_span(span);
                self.start + g.next_below(eff) as $t
            }
        }
        impl Sample for RangeInclusive<$t> {
            type Output = $t;
            fn sample(&self, g: &mut Gen) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range");
                let span = (hi - lo) as u64;
                if span == u64::MAX {
                    // Full-width range: size-scaling by bitmask instead.
                    let bits = (64.0 * g.size).ceil() as u32;
                    let mask = if bits >= 64 { u64::MAX } else { (1u64 << bits) - 1 };
                    return (g.next_u64() & mask) as $t;
                }
                let eff = g.sized_span(span + 1);
                lo + g.next_below(eff) as $t
            }
        }
    )*};
}

impl_sample_int!(u8, u16, u32, u64, usize);

impl Sample for Range<f64> {
    type Output = f64;
    fn sample(&self, g: &mut Gen) -> f64 {
        assert!(self.start < self.end, "empty range");
        let span = (self.end - self.start) * g.size;
        self.start + g.next_f64() * span
    }
}

macro_rules! impl_sample_tuple {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: Sample),+> Sample for ($($name,)+) {
            type Output = ($($name::Output,)+);
            fn sample(&self, g: &mut Gen) -> Self::Output {
                ($(self.$idx.sample(g),)+)
            }
        }
    };
}

impl_sample_tuple!(A: 0, B: 1);
impl_sample_tuple!(A: 0, B: 1, C: 2);
impl_sample_tuple!(A: 0, B: 1, C: 2, D: 3);

/// A sized vector source: `vec_of(elem, len_range)` — the kit's
/// `proptest::collection::vec`.
#[derive(Debug, Clone)]
pub struct VecOf<S> {
    elem: S,
    len: Range<usize>,
}

/// Builds a [`VecOf`] source sampling `len`-many `elem` values.
pub fn vec_of<S: Sample>(elem: S, len: Range<usize>) -> VecOf<S> {
    VecOf { elem, len }
}

impl<S: Sample> Sample for VecOf<S> {
    type Output = Vec<S::Output>;
    fn sample(&self, g: &mut Gen) -> Vec<S::Output> {
        let n = self.len.sample(g);
        (0..n).map(|_| self.elem.sample(g)).collect()
    }
}

/// Full-range `u64` source (`proptest`'s `any::<u64>()`).
pub fn any_u64() -> RangeInclusive<u64> {
    0..=u64::MAX
}

fn env_u64(name: &str) -> Option<u64> {
    let raw = std::env::var(name).ok()?;
    let raw = raw.trim();
    let parsed = if let Some(hex) = raw.strip_prefix("0x") {
        u64::from_str_radix(hex, 16)
    } else {
        raw.parse()
    };
    Some(parsed.unwrap_or_else(|_| panic!("{name} must be an integer, got {raw:?}")))
}

/// Size ramp: early cases are small, the last case samples the full
/// declared ranges.
fn size_for(case: u32, cases: u32) -> f64 {
    if cases <= 1 {
        return 1.0;
    }
    let t = f64::from(case) / f64::from(cases - 1);
    0.1 + 0.9 * t
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Runs `cases` generated cases of the property `f`, with deterministic
/// per-name seeding and shrinking-lite on failure. The
/// [`props!`](crate::props!) macro expands each property into a
/// `#[test]` calling this.
///
/// Environment overrides: `HM_PROP_SEED` (base seed; decimal or `0x`
/// hex) and `HM_PROP_CASES` (case count for every property).
///
/// # Panics
///
/// Panics (failing the test) when a case fails, reporting the property
/// name, case index, case seed, the smallest failing size factor, and
/// the original assertion message.
pub fn run_prop<F: Fn(&mut Gen)>(name: &str, cases: u32, f: F) {
    let base_seed = env_u64("HM_PROP_SEED").unwrap_or_else(|| fnv1a(name.as_bytes()));
    let cases = env_u64("HM_PROP_CASES").map_or(cases, |c| c.max(1) as u32);

    let run_case = |seed: u64, size: f64| -> Result<(), String> {
        let mut g = Gen::new(seed, size);
        catch_unwind(AssertUnwindSafe(|| f(&mut g))).map_err(panic_message)
    };

    for case in 0..cases {
        let case_seed = mix(base_seed ^ mix(u64::from(case).wrapping_add(1)));
        let size = size_for(case, cases);
        if run_case(case_seed, size).is_ok() {
            continue;
        }
        // Shrinking-lite: same case seed, smaller sizes, smallest
        // failure wins. Probe ascending so the first hit is minimal.
        let mut failing_size = size;
        for probe in [size / 16.0, size / 8.0, size / 4.0, size / 2.0] {
            if probe >= 0.001 && run_case(case_seed, probe).is_err() {
                failing_size = probe;
                break;
            }
        }
        let message = run_case(case_seed, failing_size)
            .expect_err("case must still fail at the reported size");
        panic!(
            "property `{name}` failed: case {case}/{cases}, case seed {case_seed:#x}, \
             size {failing_size:.3}\n  {message}\n  replay: \
             HM_PROP_SEED={base_seed:#x} HM_PROP_CASES={cases} cargo test {name}"
        );
    }
}

/// Declares deterministic property tests (see the [module docs]
/// (self) for the dialect). Each `fn name(arg in source, ...) { body }`
/// expands to a `#[test]` running [`run_prop`]; an optional leading
/// `cases = N;` sets the per-property case count (default 64).
#[macro_export]
macro_rules! props {
    ($($(#[$meta:meta])* fn $name:ident($($arg:ident in $source:expr),+ $(,)?) $body:block)*) => {
        $crate::props! { cases = 64; $($(#[$meta])* fn $name($($arg in $source),+) $body)* }
    };
    (cases = $cases:expr; $($(#[$meta:meta])* fn $name:ident($($arg:ident in $source:expr),+ $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            #[test]
            fn $name() {
                $crate::prop::run_prop(stringify!($name), $cases, |g: &mut $crate::prop::Gen| {
                    $(let $arg = g.sample(&($source));)+
                    $body
                });
            }
        )*
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_respect_bounds() {
        let mut g = Gen::new(1, 1.0);
        for _ in 0..1000 {
            let x = g.sample(&(10u64..20));
            assert!((10..20).contains(&x));
            let y = g.sample(&(0u8..=100));
            assert!(y <= 100);
            let z = g.sample(&(1.5f64..2.5));
            assert!((1.5..2.5).contains(&z));
            let v = g.sample(&vec_of(0u32..5, 2..6));
            assert!((2..6).contains(&v.len()));
            assert!(v.iter().all(|&e| e < 5));
            let (a, b, c) = g.sample(&(0u64..3, 0u32..3, 0u64..3));
            assert!(a < 3 && b < 3 && c < 3);
        }
    }

    #[test]
    fn small_size_shrinks_spans() {
        let mut g = Gen::new(9, 0.01);
        for _ in 0..200 {
            // 1% of a 0..10000 span: all draws land near the bottom.
            assert!(g.sample(&(0u64..10_000)) <= 100);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let draw = || {
            let mut g = Gen::new(77, 0.7);
            (0..32).map(|_| g.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(), draw());
    }

    #[test]
    fn passing_property_passes() {
        run_prop("passing", 50, |g| {
            let x = g.sample(&(0u64..100));
            assert!(x < 100);
        });
    }

    #[test]
    fn failing_property_reports_identity() {
        let err = std::panic::catch_unwind(|| {
            run_prop("always_fails", 10, |g| {
                let x = g.sample(&(0u64..100));
                assert!(x == u64::MAX, "x was {x}");
            });
        })
        .expect_err("property must fail");
        let msg = panic_message(err);
        assert!(msg.contains("always_fails"), "missing name: {msg}");
        assert!(msg.contains("case seed"), "missing seed: {msg}");
        assert!(msg.contains("HM_PROP_SEED"), "missing replay hint: {msg}");
    }

    #[test]
    fn shrinking_reports_smaller_size() {
        // Fails at every size; the shrinker should settle on the
        // smallest probe rather than the original ramp size.
        let err = std::panic::catch_unwind(|| {
            run_prop("fails_everywhere", 8, |_| panic!("boom"));
        })
        .expect_err("property must fail");
        let msg = panic_message(err);
        assert!(msg.contains("boom"), "original message preserved: {msg}");
        assert!(msg.contains("size 0.0"), "shrunk size reported: {msg}");
    }

    props! {
        cases = 16;

        /// The macro itself: multiple bindings and a tuple source.
        fn macro_smoke(a in 0u64..50, pair in (0u32..4, 0.0f64..1.0)) {
            assert!(a < 50);
            assert!(pair.0 < 4);
            assert!((0.0..1.0).contains(&pair.1));
        }
    }
}
