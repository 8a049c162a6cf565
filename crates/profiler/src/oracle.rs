//! Oracle page ranking (paper §4.2).
//!
//! With perfect knowledge of page access frequency (from a first
//! profiling pass), the oracle chooses which pages live in the
//! bandwidth-optimized pool. Two regimes:
//!
//! * **Capacity-constrained** (BO cannot hold the target traffic share):
//!   fill BO with the hottest pages until capacity runs out — the
//!   paper's greedy rule, which is what nearly doubles BW-AWARE's
//!   performance for skewed workloads at 10% capacity.
//! * **Unconstrained**: split *every* hotness class at the bandwidth
//!   ratio (stratified sampling). Greedy would reach the same global
//!   ratio using only the hottest pages, but hotness classes correlate
//!   with execution phases in real traces, and an all-or-nothing split
//!   per class serves some phases from one pool only — wasting the other
//!   pool's bandwidth. Stratification keeps the traffic ratio in every
//!   phase, which is the paper's observation that the oracle matches
//!   (never beats) BW-AWARE when capacity is ample.
//!
//! Pages are ranked in factor-of-4 hotness buckets with hash tie-breaks:
//! finer count differences are profiling noise (e.g. a truncated
//! streaming pass leaves early pages with slightly higher counts), and
//! ranking on them would correlate placement with time.

use hmtypes::{PageMap, PageNum, SplitMix64};

use crate::histogram::PageHistogram;

/// The oracle's chosen BO-resident page set.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct OraclePlacement {
    /// `true` for each page steered to BO.
    bo: PageMap<bool>,
    bo_page_count: usize,
    bo_traffic_fraction: f64,
}

/// Factor-of-4 hotness class of an access count.
fn bucket(count: u64) -> u32 {
    (u64::BITS - count.leading_zeros()) / 2
}

impl OraclePlacement {
    /// Computes the oracle placement from a profile.
    ///
    /// * `histogram` — per-page access counts from the profiling pass.
    /// * `bo_capacity_pages` — how many pages fit in the BO pool.
    /// * `target_bo_traffic` — the bandwidth-service fraction the BO pool
    ///   should carry (`bB/(bB+bC)`, 5/7 for the paper's baseline).
    ///
    /// # Panics
    ///
    /// Panics if `target_bo_traffic` is outside `[0, 1]`.
    pub fn compute(
        histogram: &PageHistogram,
        bo_capacity_pages: u64,
        target_bo_traffic: f64,
    ) -> Self {
        assert!(
            (0.0..=1.0).contains(&target_bo_traffic),
            "target fraction out of range"
        );
        let total = histogram.total_accesses();
        if total == 0 {
            return OraclePlacement::default();
        }

        // Rank: hotness bucket (hot first), then page-number hash. Each
        // key is computed once (the hash is a bijection of the page
        // number, so keys never tie and the order is fully determined).
        let mut ranked = histogram.hot_to_cold();
        ranked.sort_by_cached_key(|&(page, count)| {
            (
                core::cmp::Reverse(bucket(count)),
                SplitMix64::new(page.index()).next_u64(),
            )
        });

        // How many pages the stratified (unconstrained) split needs.
        let stratified_pages = (ranked.len() as f64 * target_bo_traffic).ceil() as u64;
        let constrained = bo_capacity_pages < stratified_pages;

        let mut placement = OraclePlacement::default();
        let mut cum = 0u64;
        if constrained {
            // Greedy: hottest pages until the ratio target or capacity.
            for (page, count) in ranked {
                if placement.bo_page_count as u64 >= bo_capacity_pages {
                    break;
                }
                if cum as f64 / total as f64 >= target_bo_traffic {
                    break;
                }
                placement.insert(page);
                cum += count;
            }
        } else {
            // Stratified: within each bucket take pages (in hash order)
            // until the bucket's traffic share reaches the target.
            let mut i = 0;
            while i < ranked.len() {
                let b = bucket(ranked[i].1);
                let mut j = i;
                let mut bucket_traffic = 0u64;
                while j < ranked.len() && bucket(ranked[j].1) == b {
                    bucket_traffic += ranked[j].1;
                    j += 1;
                }
                let bucket_target = bucket_traffic as f64 * target_bo_traffic;
                let mut taken = 0u64;
                for &(page, count) in &ranked[i..j] {
                    if (taken as f64) >= bucket_target
                        || placement.bo_page_count as u64 >= bo_capacity_pages
                    {
                        break;
                    }
                    placement.insert(page);
                    taken += count;
                }
                cum += taken;
                i = j;
            }
        }
        placement.bo_traffic_fraction = cum as f64 / total as f64;
        placement
    }

    /// Steers `page` (not yet in the set) to BO.
    fn insert(&mut self, page: PageNum) {
        *self.bo.get_mut(page) = true;
        self.bo_page_count += 1;
    }

    /// Whether the oracle wants `page` in the BO pool.
    pub fn is_bo(&self, page: PageNum) -> bool {
        self.bo.get(page)
    }

    /// Number of pages steered to BO.
    pub fn bo_page_count(&self) -> usize {
        self.bo_page_count
    }

    /// The traffic fraction (per the profile) the BO set carries.
    pub fn bo_traffic_fraction(&self) -> f64 {
        self.bo_traffic_fraction
    }

    /// Iterates over the BO page set in ascending page order, so every
    /// rendering of an oracle placement is deterministic.
    pub fn bo_pages(&self) -> impl Iterator<Item = PageNum> + '_ {
        self.bo.iter().map(|(page, _)| page)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One page at 55%, two at 15%, seven at ~2% each.
    fn hist() -> PageHistogram {
        let mut counts = vec![
            (PageNum::new(0), 550),
            (PageNum::new(1), 150),
            (PageNum::new(2), 150),
        ];
        for i in 3..10 {
            counts.push((PageNum::new(i), 150 / 7));
        }
        PageHistogram::from_counts(counts)
    }

    #[test]
    fn constrained_takes_hottest_first() {
        // Capacity 2 < stratified need (7 pages): greedy regime.
        let o = OraclePlacement::compute(&hist(), 2, 0.99);
        assert_eq!(o.bo_page_count(), 2);
        assert!(o.is_bo(PageNum::new(0)), "hottest page must be BO");
        // Second pick is one of the two 150-count pages.
        assert!(o.is_bo(PageNum::new(1)) || o.is_bo(PageNum::new(2)));
        assert!(o.bo_traffic_fraction() > 0.6);
    }

    #[test]
    fn constrained_stops_at_ratio_target() {
        // Capacity 3 pages (constrained regime) but target 55%: page 0
        // alone reaches the ratio, so capacity is left unused.
        let o = OraclePlacement::compute(&hist(), 3, 0.55);
        assert_eq!(o.bo_page_count(), 1);
        assert!(o.is_bo(PageNum::new(0)));
    }

    #[test]
    fn stratified_regime_respects_capacity() {
        // Capacity exactly at the stratified estimate: per-bucket ceils
        // must not overshoot it.
        let o = OraclePlacement::compute(&hist(), 6, 0.55);
        assert!(o.bo_page_count() <= 6, "got {}", o.bo_page_count());
    }

    #[test]
    fn unconstrained_is_stratified_across_buckets() {
        // Plenty of capacity: every hotness bucket must contribute to
        // both pools (no all-or-nothing classes).
        let uniform = PageHistogram::from_counts((0..100).map(|i| (PageNum::new(i), 40)));
        let o = OraclePlacement::compute(&uniform, 1000, 0.7);
        assert!(
            (65..=75).contains(&o.bo_page_count()),
            "got {} BO pages of 100",
            o.bo_page_count()
        );
        assert!((o.bo_traffic_fraction() - 0.7).abs() < 0.05);
    }

    #[test]
    fn unconstrained_splits_each_class_not_just_globally() {
        // Two classes: 50 hot pages (100 each), 50 cold pages (10 each).
        let mut counts = Vec::new();
        for i in 0..50 {
            counts.push((PageNum::new(i), 100));
        }
        for i in 50..100 {
            counts.push((PageNum::new(i), 10));
        }
        let h = PageHistogram::from_counts(counts);
        let o = OraclePlacement::compute(&h, 1000, 0.7);
        let hot_bo = (0..50).filter(|&i| o.is_bo(PageNum::new(i))).count();
        let cold_bo = (50..100).filter(|&i| o.is_bo(PageNum::new(i))).count();
        assert!((30..=40).contains(&hot_bo), "hot split: {hot_bo}/50");
        assert!((30..=40).contains(&cold_bo), "cold split: {cold_bo}/50");
    }

    #[test]
    fn zero_capacity_places_nothing() {
        let o = OraclePlacement::compute(&hist(), 0, 0.7);
        assert_eq!(o.bo_page_count(), 0);
        assert_eq!(o.bo_traffic_fraction(), 0.0);
    }

    #[test]
    fn empty_histogram() {
        let o = OraclePlacement::compute(&PageHistogram::default(), 10, 0.7);
        assert_eq!(o.bo_page_count(), 0);
    }

    #[test]
    fn untouched_pages_never_chosen() {
        let o = OraclePlacement::compute(&hist(), 100, 1.0);
        assert!(!o.is_bo(PageNum::new(555)));
        assert_eq!(o.bo_page_count(), 10);
    }

    #[test]
    fn noise_level_count_differences_share_a_bucket() {
        assert_eq!(bucket(16), bucket(30), "sub-2x differences can tie");
        assert!(bucket(16) < bucket(64), "4x differences are distinct");
        assert!(bucket(1) < bucket(1000));
    }

    #[test]
    #[should_panic(expected = "target fraction out of range")]
    fn bad_target_rejected() {
        let _ = OraclePlacement::compute(&hist(), 1, 1.5);
    }
}
