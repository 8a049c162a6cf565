//! Flat hot-path tables for the simulator.
//!
//! The simulator's per-event bookkeeping — MSHR waiter lists, per-SM
//! pending-miss lists, per-page access counts — sits on the hottest
//! path in the repo. `HashMap<u64, Vec<..>>` there means SipHash on
//! every probe and a fresh `Vec` allocation per miss. This module
//! replaces them with two purpose-built structures:
//!
//! * [`WaiterMap`]: an open-addressed multimap (`u64` key → list of
//!   `Copy` waiters) with Fibonacci hashing, linear probing, and
//!   backward-shift deletion. A key's **first waiter lives inline** in
//!   its slot, so the common single-waiter miss touches one slot and
//!   nothing else. Only a merge (a second waiter for the same key)
//!   spills the rest into a side list; spill lists are recycled through
//!   a free list, so the steady state allocates nothing.
//! * [`PageCounter`]: per-page access counts as a dense `Vec<u64>`
//!   indexed by page number, with a `HashMap` spill for pathologically
//!   high page numbers.
//!
//! Both are drop-in *behavioral* equivalents of the maps they replace;
//! the golden-equivalence suite (`tests/golden_simreport.rs`) pins that.

use std::collections::HashMap;

use hmtypes::PageNum;

/// Key sentinel for an empty slot. Simulator keys are line indices
/// (`addr / 128`), which cannot reach `u64::MAX`.
const EMPTY: u64 = u64::MAX;

/// Spill-list sentinel: the slot's key has only its inline waiter.
const NO_SPILL: u32 = u32::MAX;

/// Fibonacci-hashing multiplier (2^64 / φ).
const HASH_MUL: u64 = 0x9E37_79B9_7F4A_7C15;

/// One open-addressing slot: the key, its first waiter, and the index
/// of the spill list holding any later waiters.
#[derive(Debug, Clone, Copy)]
struct Slot<W> {
    key: u64,
    first: W,
    spill: u32,
}

/// Open-addressed multimap from `u64` keys to small lists of `Copy`
/// waiters, in insertion order per key.
///
/// # Examples
///
/// ```
/// use gpusim::flat::WaiterMap;
///
/// let mut map: WaiterMap<u32> = WaiterMap::with_key_capacity(16);
/// assert!(map.push(7, 1)); // new key
/// assert!(map.push_if_present(7, 2)); // merged into the existing list
/// assert!(!map.push_if_present(8, 3)); // absent key: nothing stored
/// assert_eq!(map.len(), 1);
///
/// let mut scratch = Vec::new();
/// assert!(map.remove_into(7, &mut scratch));
/// assert_eq!(scratch, [1, 2]);
/// assert!(map.is_empty());
/// ```
#[derive(Debug)]
pub struct WaiterMap<W: Copy + Default> {
    slots: Vec<Slot<W>>,
    /// Waiters after the first, for keys that merged; indexed by
    /// `Slot::spill`. Emptied lists keep their capacity.
    spills: Vec<Vec<W>>,
    /// Indices of empty `spills` lists, reused LIFO.
    free_spills: Vec<u32>,
    /// Number of distinct keys present.
    len: usize,
    mask: usize,
    /// `64 - log2(capacity)`, for the Fibonacci hash.
    shift: u32,
}

impl<W: Copy + Default> WaiterMap<W> {
    /// Creates a map sized so that `keys` distinct keys stay under a
    /// 50% load factor (capacity is the next power of two above
    /// `2 * keys`). The map still grows if the estimate is exceeded.
    pub fn with_key_capacity(keys: usize) -> Self {
        let cap = (keys.max(4) * 2).next_power_of_two();
        WaiterMap {
            slots: Self::empty_slots(cap),
            spills: Vec::new(),
            free_spills: Vec::new(),
            len: 0,
            mask: cap - 1,
            shift: 64 - cap.trailing_zeros(),
        }
    }

    fn empty_slots(cap: usize) -> Vec<Slot<W>> {
        vec![
            Slot {
                key: EMPTY,
                first: W::default(),
                spill: NO_SPILL,
            };
            cap
        ]
    }

    #[inline]
    fn home(&self, key: u64) -> usize {
        (key.wrapping_mul(HASH_MUL) >> self.shift) as usize
    }

    /// Number of distinct keys (not waiters).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no keys are present.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The slot holding `key`, or `Err` with the empty slot that ends
    /// its probe chain.
    #[inline]
    fn find(&self, key: u64) -> Result<usize, usize> {
        debug_assert_ne!(key, EMPTY, "key sentinel");
        let mut i = self.home(key);
        loop {
            let k = self.slots[i].key;
            if k == key {
                return Ok(i);
            }
            if k == EMPTY {
                return Err(i);
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Appends `w` behind slot `i`'s existing waiters.
    #[inline]
    fn merge(&mut self, i: usize, w: W) {
        let mut spill = self.slots[i].spill;
        if spill == NO_SPILL {
            spill = self.free_spills.pop().unwrap_or_else(|| {
                self.spills.push(Vec::new());
                u32::try_from(self.spills.len() - 1).expect("spill lists fit u32 indices")
            });
            self.slots[i].spill = spill;
        }
        self.spills[spill as usize].push(w);
    }

    /// Appends `w` to `key`'s waiter list, creating the list if the key
    /// is new. Returns `true` iff the key was newly inserted.
    #[inline]
    pub fn push(&mut self, key: u64, w: W) -> bool {
        if (self.len + 1) * 2 > self.slots.len() {
            self.grow();
        }
        match self.find(key) {
            Ok(i) => {
                self.merge(i, w);
                false
            }
            Err(i) => {
                self.slots[i] = Slot {
                    key,
                    first: w,
                    spill: NO_SPILL,
                };
                self.len += 1;
                true
            }
        }
    }

    /// Appends `w` to `key`'s waiter list if `key` is present; returns
    /// whether it was (an absent key is left absent).
    #[inline]
    pub fn push_if_present(&mut self, key: u64, w: W) -> bool {
        match self.find(key) {
            Ok(i) => {
                self.merge(i, w);
                true
            }
            Err(_) => false,
        }
    }

    /// Removes `key`, writing its waiters into `out` (cleared first) in
    /// insertion order. Returns `false` (with `out` empty) if the key is
    /// absent.
    #[inline]
    pub fn remove_into(&mut self, key: u64, out: &mut Vec<W>) -> bool {
        out.clear();
        let Ok(i) = self.find(key) else {
            return false;
        };
        let slot = self.slots[i];
        out.push(slot.first);
        if slot.spill != NO_SPILL {
            let list = &mut self.spills[slot.spill as usize];
            out.extend_from_slice(list);
            list.clear();
            self.free_spills.push(slot.spill);
        }
        self.len -= 1;
        // Backward-shift deletion: pull displaced entries into the hole
        // so probe chains never need tombstones.
        let mask = self.mask;
        let mut hole = i;
        let mut j = i;
        loop {
            j = (j + 1) & mask;
            let k = self.slots[j].key;
            if k == EMPTY {
                break;
            }
            let h = self.home(k);
            // Move iff the hole lies within k's probe path [h, j].
            if (j.wrapping_sub(h) & mask) >= (j.wrapping_sub(hole) & mask) {
                self.slots[hole] = self.slots[j];
                hole = j;
            }
        }
        self.slots[hole].key = EMPTY;
        true
    }

    fn grow(&mut self) {
        let new_cap = self.slots.len() * 2;
        let old = std::mem::replace(&mut self.slots, Self::empty_slots(new_cap));
        self.mask = new_cap - 1;
        self.shift = 64 - new_cap.trailing_zeros();
        for slot in old {
            if slot.key != EMPTY {
                let Err(i) = self.find(slot.key) else {
                    unreachable!("keys are unique");
                };
                self.slots[i] = slot;
            }
        }
    }
}

/// How many pages the dense counter array may cover (2^22 pages =
/// 16 GiB of 4 kB-page address space — beyond any catalog footprint).
const DENSE_PAGE_CAP: u64 = 1 << 22;

/// Per-virtual-page access counter: dense array for the (universal)
/// case of compact page numbers, hash-map spill beyond
/// [`DENSE_PAGE_CAP`]. Replaces `HashMap<PageNum, u64>` on the DRAM
/// access path; converts back to one in [`PageCounter::into_map`].
#[derive(Debug, Default)]
pub struct PageCounter {
    dense: Vec<u64>,
    spill: HashMap<u64, u64>,
}

impl PageCounter {
    /// Creates an empty counter.
    pub fn new() -> Self {
        PageCounter::default()
    }

    /// Counts one access to `page`.
    #[inline]
    pub fn bump(&mut self, page: u64) {
        if page < DENSE_PAGE_CAP {
            let idx = page as usize;
            if idx >= self.dense.len() {
                self.dense.resize((idx + 1).next_power_of_two(), 0);
            }
            self.dense[idx] += 1;
        } else {
            *self.spill.entry(page).or_insert(0) += 1;
        }
    }

    /// Converts to the report-facing map of nonzero counts.
    pub fn into_map(self) -> HashMap<PageNum, u64> {
        let mut map: HashMap<PageNum, u64> =
            HashMap::with_capacity(self.spill.len() + self.dense.len() / 2);
        for (page, count) in self.dense.into_iter().enumerate() {
            if count > 0 {
                map.insert(PageNum::new(page as u64), count);
            }
        }
        for (page, count) in self.spill {
            map.insert(PageNum::new(page), count);
        }
        map
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_merge_remove_roundtrip() {
        let mut map: WaiterMap<(u16, u64)> = WaiterMap::with_key_capacity(8);
        assert!(map.push(100, (1, 10)));
        assert!(!map.push(100, (2, 20)));
        assert!(map.push(200, (3, 30)));
        assert_eq!(map.len(), 2);
        assert!(map.push_if_present(100, (4, 40)));
        assert!(!map.push_if_present(999, (5, 50)));
        assert_eq!(map.len(), 2);

        let mut out = vec![(9u16, 9u64)]; // stale contents must be cleared
        assert!(map.remove_into(100, &mut out));
        assert_eq!(out, [(1, 10), (2, 20), (4, 40)]);
        assert!(!map.remove_into(100, &mut out));
        assert!(out.is_empty());
        assert!(map.remove_into(200, &mut out));
        assert_eq!(out, [(3, 30)]);
        assert!(map.is_empty());
    }

    #[test]
    fn grows_past_the_initial_estimate() {
        let mut map: WaiterMap<u32> = WaiterMap::with_key_capacity(4);
        for k in 0..1000u64 {
            assert!(map.push(k * 7919, k as u32));
            if k % 3 == 0 {
                assert!(!map.push(k * 7919, k as u32 + 1));
            }
        }
        assert_eq!(map.len(), 1000);
        let mut out = Vec::new();
        for k in 0..1000u64 {
            assert!(map.remove_into(k * 7919, &mut out), "key {k}");
            if k % 3 == 0 {
                assert_eq!(out, [k as u32, k as u32 + 1]);
            } else {
                assert_eq!(out, [k as u32]);
            }
        }
        assert!(map.is_empty());
    }

    #[test]
    fn fuzz_matches_std_hashmap() {
        let mut map: WaiterMap<u32> = WaiterMap::with_key_capacity(4);
        let mut reference: HashMap<u64, Vec<u32>> = HashMap::new();
        let mut rng = hmtypes::SplitMix64::new(42);
        let mut out = Vec::new();
        for step in 0..20_000u32 {
            let key = rng.next_below(64); // small key space: heavy churn
            if rng.next_below(3) > 0 {
                let was_new = map.push(key, step);
                assert_eq!(was_new, !reference.contains_key(&key));
                reference.entry(key).or_default().push(step);
            } else {
                let removed = map.remove_into(key, &mut out);
                match reference.remove(&key) {
                    Some(want) => {
                        assert!(removed);
                        assert_eq!(out, want, "step {step} key {key}");
                    }
                    None => assert!(!removed && out.is_empty()),
                }
            }
            assert_eq!(map.len(), reference.len());
        }
    }

    #[test]
    fn single_waiters_never_spill_and_merges_recycle_lists() {
        let mut map: WaiterMap<u32> = WaiterMap::with_key_capacity(8);
        let mut out = Vec::new();
        for i in 0..100 {
            map.push(i, 0);
            map.remove_into(i, &mut out);
        }
        assert!(map.spills.is_empty(), "no merge, no spill list");
        for round in 0..100u32 {
            for i in 0..50 {
                map.push(5, round + i);
            }
            map.remove_into(5, &mut out);
            assert_eq!(out.len(), 50);
        }
        // One spill list, its capacity kept across every round.
        assert_eq!(map.spills.len(), 1);
        assert!(map.spills[0].capacity() >= 49);
        assert_eq!(map.free_spills, [0]);
    }

    #[test]
    fn page_counter_matches_hashmap_semantics() {
        let mut pc = PageCounter::new();
        let mut reference: HashMap<u64, u64> = HashMap::new();
        let mut rng = hmtypes::SplitMix64::new(7);
        for _ in 0..10_000 {
            // Mix dense-range pages with spill-range outliers.
            let page = if rng.next_below(50) == 0 {
                DENSE_PAGE_CAP + rng.next_below(1 << 30)
            } else {
                rng.next_below(5_000)
            };
            pc.bump(page);
            *reference.entry(page).or_insert(0) += 1;
        }
        let got = pc.into_map();
        assert_eq!(got.len(), reference.len());
        for (page, count) in reference {
            assert_eq!(got.get(&PageNum::new(page)), Some(&count), "page {page}");
        }
    }
}
