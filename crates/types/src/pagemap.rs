//! The per-page table.
//!
//! Every per-page fact in the workspace — the OS model's page → frame
//! mapping, the profiler's DRAM access counts, the oracle's BO set and
//! the online migrator's per-page state — lives in one [`PageMap`].
//! Lookups sit on the simulator's per-access path, so page numbers
//! below [`DENSE_PAGE_CAP`] index a flat vector (one bounds-checked
//! load, no hashing); the rare page at or above it spills into an
//! ordered map, so iteration is in page order across the whole range.

use std::collections::BTreeMap;

use crate::PageNum;

/// How many pages a [`PageMap`]'s dense vector may cover: 2^22 pages =
/// 16 GiB of 4 kB-page address space, beyond any catalog footprint.
pub const DENSE_PAGE_CAP: u64 = 1 << 22;

/// A `V` per virtual page, with `V::default()` meaning "no entry".
///
/// Pages below [`DENSE_PAGE_CAP`] live in a `Vec<V>` indexed by page
/// number (grown by doubling as pages appear), pages at or above it in
/// a `BTreeMap`. A page never written reads as `V::default()`, and
/// [`PageMap::iter`] yields only entries that differ from it, in page
/// order. Equality compares those entries, never how far the dense
/// vector has grown.
///
/// # Examples
///
/// ```
/// use hmtypes::{PageMap, PageNum, DENSE_PAGE_CAP};
///
/// let mut counts: PageMap<u64> = PageMap::new();
/// *counts.get_mut(PageNum::new(DENSE_PAGE_CAP + 9)) += 2; // spills
/// *counts.get_mut(PageNum::new(3)) += 1;
/// assert_eq!(counts.get(PageNum::new(3)), 1);
/// assert_eq!(counts.get(PageNum::new(1 << 40)), 0);
/// let entries: Vec<_> = counts.iter().collect();
/// assert_eq!(
///     entries,
///     [(PageNum::new(3), 1), (PageNum::new(DENSE_PAGE_CAP + 9), 2)]
/// );
/// ```
#[derive(Clone, Default)]
pub struct PageMap<V> {
    dense: Vec<V>,
    spill: BTreeMap<u64, V>,
}

impl<V: Copy + Default + PartialEq> PageMap<V> {
    /// Creates an empty map.
    pub fn new() -> Self {
        PageMap {
            dense: Vec::new(),
            spill: BTreeMap::new(),
        }
    }

    /// `page`'s value (`V::default()` if it has none).
    #[inline]
    pub fn get(&self, page: PageNum) -> V {
        let idx = page.index();
        let slot = if idx < DENSE_PAGE_CAP {
            self.dense.get(idx as usize)
        } else {
            self.spill.get(&idx)
        };
        slot.copied().unwrap_or_default()
    }

    /// `page`'s value for update, created as `V::default()` if absent.
    #[inline]
    pub fn get_mut(&mut self, page: PageNum) -> &mut V {
        let idx = page.index();
        if idx < DENSE_PAGE_CAP {
            let i = idx as usize;
            if i >= self.dense.len() {
                self.dense.resize((i + 1).next_power_of_two(), V::default());
            }
            &mut self.dense[i]
        } else {
            self.spill.entry(idx).or_default()
        }
    }

    /// Every page whose value is not `V::default()`, in page order.
    pub fn iter(&self) -> impl Iterator<Item = (PageNum, V)> + '_ {
        let dense = self.dense.iter().enumerate().map(|(i, &v)| (i as u64, v));
        let spill = self.spill.iter().map(|(&i, &v)| (i, v));
        dense
            .chain(spill)
            .filter(|(_, v)| *v != V::default())
            .map(|(i, v)| (PageNum::new(i), v))
    }
}

/// Sets each page's value; a later pair for the same page wins.
impl<V: Copy + Default + PartialEq> FromIterator<(PageNum, V)> for PageMap<V> {
    fn from_iter<I: IntoIterator<Item = (PageNum, V)>>(iter: I) -> Self {
        let mut map = PageMap::new();
        for (page, v) in iter {
            *map.get_mut(page) = v;
        }
        map
    }
}

impl<V: Copy + Default + PartialEq> PartialEq for PageMap<V> {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl<V: Copy + Default + Eq> Eq for PageMap<V> {}

impl<V: Copy + Default + PartialEq + core::fmt::Debug> core::fmt::Debug for PageMap<V> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SplitMix64;
    use std::collections::HashMap;

    #[test]
    fn page_map_matches_hashmap_semantics() {
        let mut pm: PageMap<u64> = PageMap::new();
        let mut reference: HashMap<u64, u64> = HashMap::new();
        let mut rng = SplitMix64::new(7);
        // The first spill page, written first.
        *pm.get_mut(PageNum::new(DENSE_PAGE_CAP)) += 1;
        reference.insert(DENSE_PAGE_CAP, 1);
        for _ in 0..10_000 {
            // Mix dense-range pages with spill-range outliers.
            let page = if rng.next_below(50) == 0 {
                DENSE_PAGE_CAP + rng.next_below(1 << 30)
            } else {
                rng.next_below(5_000)
            };
            *pm.get_mut(PageNum::new(page)) += 1;
            *reference.entry(page).or_insert(0) += 1;
        }
        for (&page, &count) in &reference {
            assert_eq!(pm.get(PageNum::new(page)), count, "page {page}");
        }
        assert_eq!(pm.get(PageNum::new(DENSE_PAGE_CAP - 1)), 0);
        assert!(pm.dense.len() <= 8192, "dense never grew past page 5000");

        // Iteration yields exactly the reference, in page order across
        // the dense/spill boundary.
        let got: Vec<(u64, u64)> = pm.iter().map(|(p, c)| (p.index(), c)).collect();
        let mut want: Vec<(u64, u64)> = reference.into_iter().collect();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn equality_ignores_dense_capacity_and_default_entries() {
        let small: PageMap<u64> = [(PageNum::new(1), 4)].into_iter().collect();
        let mut grown = small.clone();
        // Touching pages without writing them grows the dense vector
        // and adds a default spill entry; neither is an entry.
        *grown.get_mut(PageNum::new(100_000)) += 0;
        *grown.get_mut(PageNum::new(DENSE_PAGE_CAP + 3)) += 0;
        assert!(grown.dense.len() > small.dense.len());
        assert_eq!(grown, small);
        assert_eq!(grown.iter().count(), 1);
        assert_eq!(format!("{grown:?}"), "{PageNum(1): 4}");
        *grown.get_mut(PageNum::new(DENSE_PAGE_CAP + 3)) = 1;
        assert_ne!(grown, small);
        // A value reset to the default removes the entry again.
        *grown.get_mut(PageNum::new(DENSE_PAGE_CAP + 3)) = 0;
        assert_eq!(grown, small);
        assert_eq!(PageMap::<u64>::new(), PageMap::default());
    }
}
