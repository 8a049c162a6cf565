//! Page access histograms and bandwidth CDFs (paper Fig. 6).

use hmtypes::{PageMap, PageNum};

/// DRAM accesses per virtual page, as produced by a profiling simulation
/// run (accesses counted *after* on-chip cache filtering, exactly as the
/// paper's Fig. 6 methodology specifies). Built from the report's
/// per-page counts with `From`, or from pairs with
/// [`PageHistogram::from_counts`].
///
/// # Examples
///
/// ```
/// use hmtypes::PageNum;
/// use profiler::PageHistogram;
///
/// let h = PageHistogram::from_counts([(PageNum::new(0), 90), (PageNum::new(1), 10)]);
/// assert_eq!(h.total_accesses(), 100);
/// assert_eq!(h.hot_to_cold()[0].0, PageNum::new(0));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PageHistogram {
    counts: PageMap<u64>,
}

impl PageHistogram {
    /// Builds a histogram from `(page, accesses)` pairs; duplicate pages
    /// accumulate.
    pub fn from_counts(counts: impl IntoIterator<Item = (PageNum, u64)>) -> Self {
        let mut map = PageMap::new();
        for (p, c) in counts {
            *map.get_mut(p) += c;
        }
        PageHistogram { counts: map }
    }

    /// Number of distinct pages with at least one access.
    pub fn touched_pages(&self) -> usize {
        self.counts.iter().count()
    }

    /// Sum of all access counts.
    pub fn total_accesses(&self) -> u64 {
        self.iter().map(|(_, c)| c).sum()
    }

    /// Accesses to one page (0 if untouched).
    pub fn accesses(&self, page: PageNum) -> u64 {
        self.counts.get(page)
    }

    /// Pages sorted from most to least accessed (ties by page number for
    /// determinism).
    pub fn hot_to_cold(&self) -> Vec<(PageNum, u64)> {
        let mut v: Vec<(PageNum, u64)> = self.iter().collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v
    }

    /// The bandwidth cumulative distribution function over pages sorted
    /// hot→cold (paper Fig. 6).
    pub fn cdf(&self) -> Cdf {
        let sorted = self.hot_to_cold();
        let total = self.total_accesses();
        let mut points = Vec::with_capacity(sorted.len());
        let mut cum = 0u64;
        for (i, (_, c)) in sorted.iter().enumerate() {
            cum += c;
            points.push(CdfPoint {
                page_fraction: (i + 1) as f64 / sorted.len() as f64,
                traffic_fraction: if total == 0 {
                    0.0
                } else {
                    cum as f64 / total as f64
                },
            });
        }
        Cdf { points }
    }

    /// Iterates over `(page, count)` in ascending page order, so every
    /// rendering of a histogram is deterministic.
    pub fn iter(&self) -> impl Iterator<Item = (PageNum, u64)> + '_ {
        self.counts.iter()
    }
}

impl From<PageMap<u64>> for PageHistogram {
    fn from(counts: PageMap<u64>) -> Self {
        PageHistogram { counts }
    }
}

impl FromIterator<(PageNum, u64)> for PageHistogram {
    fn from_iter<I: IntoIterator<Item = (PageNum, u64)>>(iter: I) -> Self {
        PageHistogram::from_counts(iter)
    }
}

/// One point of a bandwidth CDF.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CdfPoint {
    /// Fraction of (touched) pages considered, hot→cold, in `(0, 1]`.
    pub page_fraction: f64,
    /// Fraction of total DRAM traffic those pages carry, in `[0, 1]`.
    pub traffic_fraction: f64,
}

/// A bandwidth CDF: traffic fraction as a function of page fraction,
/// pages sorted hot→cold (paper Fig. 6).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Cdf {
    points: Vec<CdfPoint>,
}

impl Cdf {
    /// The CDF points, in increasing page fraction.
    pub fn points(&self) -> &[CdfPoint] {
        &self.points
    }

    /// Fraction of traffic carried by the hottest `page_fraction` of
    /// pages (linear interpolation between points).
    ///
    /// # Panics
    ///
    /// Panics if `page_fraction` is outside `[0, 1]`.
    pub fn traffic_in_top(&self, page_fraction: f64) -> f64 {
        assert!(
            (0.0..=1.0).contains(&page_fraction),
            "fraction out of range"
        );
        if self.points.is_empty() || page_fraction == 0.0 {
            return 0.0;
        }
        let idx = self
            .points
            .partition_point(|p| p.page_fraction < page_fraction);
        if idx >= self.points.len() {
            return 1.0;
        }
        let hi = self.points[idx];
        if idx == 0 {
            // Interpolate from the origin.
            return hi.traffic_fraction * (page_fraction / hi.page_fraction);
        }
        let lo = self.points[idx - 1];
        let span = hi.page_fraction - lo.page_fraction;
        if span <= 0.0 {
            return hi.traffic_fraction;
        }
        let t = (page_fraction - lo.page_fraction) / span;
        lo.traffic_fraction + t * (hi.traffic_fraction - lo.traffic_fraction)
    }

    /// A scalar skew measure: traffic in the hottest 10% of pages. A
    /// uniform workload scores ≈0.1; the paper's `bfs`/`xsbench` score
    /// above 0.6.
    pub fn skewness(&self) -> f64 {
        self.traffic_in_top(0.10)
    }

    /// Whether the CDF is monotonically non-decreasing in both axes
    /// (always true for histogram-derived CDFs; exposed for testing).
    pub fn is_monotone(&self) -> bool {
        self.points.windows(2).all(|w| {
            w[0].page_fraction <= w[1].page_fraction
                && w[0].traffic_fraction <= w[1].traffic_fraction + 1e-12
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn skewed() -> PageHistogram {
        // 10 pages: one page carries 910 of 1000 accesses.
        let mut counts = vec![(PageNum::new(0), 910)];
        for i in 1..10 {
            counts.push((PageNum::new(i), 10));
        }
        PageHistogram::from_counts(counts)
    }

    fn uniform(pages: u64) -> PageHistogram {
        PageHistogram::from_counts((0..pages).map(|i| (PageNum::new(i), 5)))
    }

    #[test]
    fn totals_and_lookup() {
        let h = skewed();
        assert_eq!(h.total_accesses(), 1000);
        assert_eq!(h.touched_pages(), 10);
        assert_eq!(h.accesses(PageNum::new(0)), 910);
        assert_eq!(h.accesses(PageNum::new(99)), 0);
    }

    #[test]
    fn duplicate_pages_accumulate() {
        let h = PageHistogram::from_counts([(PageNum::new(3), 4), (PageNum::new(3), 6)]);
        assert_eq!(h.accesses(PageNum::new(3)), 10);
        assert_eq!(h.touched_pages(), 1);
    }

    #[test]
    fn hot_to_cold_is_sorted() {
        let sorted = skewed().hot_to_cold();
        assert!(sorted.windows(2).all(|w| w[0].1 >= w[1].1));
        assert_eq!(sorted[0].0, PageNum::new(0));
    }

    #[test]
    fn skewed_cdf_rises_fast() {
        let cdf = skewed().cdf();
        assert!(cdf.is_monotone());
        // Hottest 10% of pages (the single hot page) carries 91%.
        assert!((cdf.skewness() - 0.91).abs() < 1e-9);
        assert!((cdf.traffic_in_top(1.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn uniform_cdf_is_linear() {
        let cdf = uniform(100).cdf();
        assert!(cdf.is_monotone());
        for frac in [0.1, 0.25, 0.5, 0.9] {
            assert!(
                (cdf.traffic_in_top(frac) - frac).abs() < 0.02,
                "at {frac}: {}",
                cdf.traffic_in_top(frac)
            );
        }
    }

    #[test]
    fn empty_histogram_cdf() {
        let cdf = PageHistogram::default().cdf();
        assert_eq!(cdf.points().len(), 0);
        assert_eq!(cdf.traffic_in_top(0.5), 0.0);
    }

    #[test]
    fn interpolation_between_points() {
        // 2 pages: 80/20 split. top 25% of pages = half of page 1's mass.
        let h = PageHistogram::from_counts([(PageNum::new(0), 80), (PageNum::new(1), 20)]);
        let cdf = h.cdf();
        let v = cdf.traffic_in_top(0.25);
        assert!((v - 0.40).abs() < 1e-9, "got {v}");
    }

    #[test]
    #[should_panic(expected = "fraction out of range")]
    fn traffic_in_top_validates() {
        skewed().cdf().traffic_in_top(1.5);
    }
}
