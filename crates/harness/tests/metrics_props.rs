//! Property tests for the metrics histogram: count conservation and
//! quantile bucket-bound guarantees.

use hetmem_harness::metrics::{bucket_bounds, bucket_index, Histogram, HistogramSnapshot};
use hetmem_harness::vec_of;

fn snapshot_of(values: &[u64]) -> HistogramSnapshot {
    let h = Histogram::new();
    for &v in values {
        h.record(v);
    }
    h.snapshot()
}

hetmem_harness::props! {
    cases = 64;

    /// Counts and sums are conserved exactly: a snapshot of n recorded
    /// values reports count n and the exact value sum.
    fn counts_are_conserved(values in vec_of(0u64..=1 << 40, 0..200)) {
        let s = snapshot_of(&values);
        assert_eq!(s.count(), values.len() as u64);
        let expected: u64 = values.iter().fold(0u64, |a, &v| a.saturating_add(v));
        assert_eq!(s.sum(), expected);
    }

    /// Every quantile estimate falls inside the bounds of the bucket
    /// holding the true rank-⌈q·n⌉ order statistic.
    fn quantiles_stay_in_bucket_bounds(
        values in vec_of(0u64..=1 << 36, 1..150),
        q in 0.0f64..1.0,
    ) {
        let s = snapshot_of(&values);
        let mut sorted = values.clone();
        sorted.sort_unstable();
        for q in [q, 0.0, 0.5, 0.95, 0.99, 1.0] {
            let n = sorted.len() as u64;
            let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
            let truth = sorted[(rank - 1) as usize];
            let est = s.quantile(q);
            let (lo, hi) = bucket_bounds(bucket_index(truth));
            assert!(
                est >= lo && est <= hi,
                "q={q}: estimate {est} outside [{lo},{hi}] of true rank value {truth}"
            );
        }
    }

    /// bucket_index/bucket_bounds are mutually consistent for arbitrary
    /// values: every value lies inside its own bucket's bounds.
    fn value_lies_in_own_bucket(v in hetmem_harness::any_u64()) {
        let (lo, hi) = bucket_bounds(bucket_index(v));
        assert!(lo <= v && v <= hi, "{v} outside [{lo},{hi}]");
    }
}
