//! A micro-benchmark timing loop replacing `criterion`.
//!
//! Criterion is excellent, but it is a third-party crate and this
//! workspace builds with zero network access. `hetmem-perf` needs far
//! less: run a closure a fixed number of times and report min/mean and
//! tail per-iteration time. That is exactly what [`bench`] does.

use std::time::Instant;

use crate::metrics::Histogram;

/// One benchmark's measurements.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchResult {
    /// Benchmark id (e.g. `lbm/BW-AWARE`).
    pub name: String,
    /// Measured iterations (after one warm-up call).
    pub iters: u64,
    /// Mean wall time per iteration, nanoseconds.
    pub mean_ns: f64,
    /// Fastest iteration, nanoseconds.
    pub min_ns: f64,
    /// Median iteration, nanoseconds (log-bucket midpoint estimate,
    /// within 1/16 relative error of the true order statistic).
    pub p50_ns: f64,
    /// 99th-percentile iteration, nanoseconds (same estimator).
    pub p99_ns: f64,
}

impl BenchResult {
    fn fmt_line(&self) -> String {
        format!(
            "{:<44}{:>8} iters   mean {:>12}   min {:>12}   p50 {:>12}   p99 {:>12}",
            self.name,
            self.iters,
            fmt_ns(self.mean_ns),
            fmt_ns(self.min_ns),
            fmt_ns(self.p50_ns),
            fmt_ns(self.p99_ns)
        )
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} us", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

/// Measures `f`: one warm-up call, then `iters` (at least 1) timed
/// calls. Prints the result line to stderr and returns it.
pub fn bench<R>(name: &str, iters: u64, mut f: impl FnMut() -> R) -> BenchResult {
    // Warm-up (also primes lazy state so the first sample is honest).
    std::hint::black_box(f());

    let iters = iters.max(1);
    let mut total_ns = 0.0f64;
    let mut min_ns = f64::INFINITY;
    // Per-iteration samples (warm-up excluded) feed a log-bucketed
    // histogram, giving tail quantiles without storing the series.
    let samples = Histogram::new();
    for _ in 0..iters {
        let start = Instant::now();
        std::hint::black_box(f());
        let elapsed = start.elapsed().as_nanos();
        samples.record(elapsed.min(u128::from(u64::MAX)) as u64);
        total_ns += elapsed as f64;
        min_ns = min_ns.min(elapsed as f64);
    }
    let snap = samples.snapshot();
    let result = BenchResult {
        name: name.to_string(),
        iters,
        mean_ns: total_ns / iters as f64,
        min_ns,
        p50_ns: snap.quantile(0.50) as f64,
        p99_ns: snap.quantile(0.99) as f64,
    };
    eprintln!("{}", result.fmt_line());
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_a_fixed_iteration_count() {
        let r = bench("t/sum", 5, || (0..1000u64).sum::<u64>());
        assert_eq!(r.iters, 5);
        assert!(r.min_ns <= r.mean_ns);
        // Quantiles are bucket-midpoint estimates over real samples:
        // ordered, positive, and p99 within the sampled range's bucket.
        assert!(r.p50_ns > 0.0);
        assert!(r.p50_ns <= r.p99_ns);
    }

    #[test]
    fn ns_formatting() {
        assert_eq!(fmt_ns(500.0), "500 ns");
        assert_eq!(fmt_ns(1500.0), "1.500 us");
        assert_eq!(fmt_ns(2.5e6), "2.500 ms");
        assert_eq!(fmt_ns(3.2e9), "3.200 s");
    }
}
