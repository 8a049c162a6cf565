//! The simulator's flat miss-tracking table.
//!
//! MSHR waiter lists and per-SM pending-miss lists sit on the hottest
//! path in the repo. `HashMap<u64, Vec<..>>` there means SipHash on
//! every probe and a fresh `Vec` allocation per miss. [`WaiterMap`]
//! replaces it: an open-addressed multimap (`u64` key → list of `Copy`
//! waiters) with Fibonacci hashing, linear probing, and backward-shift
//! deletion. A key's **first waiter lives inline** in its slot, so the
//! common single-waiter miss touches one slot and nothing else. Only a
//! merge (a second waiter for the same key) spills the rest into a side
//! list; spill lists are recycled through a free list, so the steady
//! state allocates nothing. One [`WaiterMap::lookup`] answers "present
//! or where to insert", so a caller that merges or inserts after other
//! checks probes once, and [`WaiterMap::remove_with`] hands each waiter
//! straight to the caller instead of copying the list out.
//!
//! It is a drop-in *behavioral* equivalent of the map it replaces; the
//! golden-equivalence suite (`tests/golden_simreport.rs`) pins that.
//! Per-page state (access counts, the migrator's records) lives in the
//! shared per-page table, `hmtypes::PageMap`.

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

/// A present key's slot, from [`WaiterMap::lookup`]; consumed by
/// [`WaiterMap::merge`].
#[derive(Debug)]
#[must_use]
pub struct Found(usize);

/// An absent key's insertion slot, from [`WaiterMap::lookup`]; consumed
/// by [`WaiterMap::insert`].
#[derive(Debug)]
#[must_use]
pub struct Vacant(usize);

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
/// // One probe decides: merge into the existing list...
/// match map.lookup(7) {
///     Ok(found) => map.merge(found, 2),
///     Err(_) => unreachable!("7 is present"),
/// }
/// // ...or insert at the empty slot the probe ended on.
/// match map.lookup(8) {
///     Ok(_) => unreachable!("8 is absent"),
///     Err(vacant) => map.insert(vacant, 8, 3),
/// }
/// assert_eq!(map.len(), 2);
///
/// let mut woken = Vec::new();
/// assert!(map.remove_with(7, |w| woken.push(w)));
/// assert_eq!(woken, [1, 2]);
/// assert!(!map.remove_with(7, |_| unreachable!()));
/// assert_eq!(map.len(), 1);
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

    /// Probes for `key` once: `Ok` with the slot holding it, or `Err`
    /// with the empty slot that ends its probe chain — where
    /// [`WaiterMap::insert`] puts it. Either handle is valid only until
    /// the map is next mutated.
    #[inline]
    pub fn lookup(&self, key: u64) -> Result<Found, Vacant> {
        match self.find(key) {
            Ok(i) => Ok(Found(i)),
            Err(i) => Err(Vacant(i)),
        }
    }

    /// Appends `w` behind the waiters of the key `at` found.
    #[inline]
    pub fn merge(&mut self, at: Found, w: W) {
        let i = at.0;
        debug_assert_ne!(self.slots[i].key, EMPTY, "stale Found handle");
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

    /// Inserts `key`, absent when [`WaiterMap::lookup`] returned `at`,
    /// with `w` as its first waiter.
    #[inline]
    pub fn insert(&mut self, at: Vacant, key: u64, w: W) {
        let mut i = at.0;
        if (self.len + 1) * 2 > self.slots.len() {
            self.grow();
            let Err(j) = self.find(key) else {
                unreachable!("inserted key was absent");
            };
            i = j;
        }
        debug_assert_eq!(self.find(key), Err(i), "stale Vacant handle");
        self.slots[i] = Slot {
            key,
            first: w,
            spill: NO_SPILL,
        };
        self.len += 1;
    }

    /// Appends `w` to `key`'s waiter list, creating the list if the key
    /// is new. Returns `true` iff the key was newly inserted.
    #[inline]
    pub fn push(&mut self, key: u64, w: W) -> bool {
        match self.lookup(key) {
            Ok(found) => {
                self.merge(found, w);
                false
            }
            Err(vacant) => {
                self.insert(vacant, key, w);
                true
            }
        }
    }

    /// Removes `key`, handing each of its waiters to `f` in insertion
    /// order. Returns `false` (without calling `f`) if the key is
    /// absent.
    #[inline]
    pub fn remove_with(&mut self, key: u64, mut f: impl FnMut(W)) -> bool {
        let Ok(i) = self.find(key) else {
            return false;
        };
        let slot = self.slots[i];
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
        f(slot.first);
        if slot.spill != NO_SPILL {
            for w in self.spills[slot.spill as usize].drain(..) {
                f(w);
            }
            self.free_spills.push(slot.spill);
        }
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// Drains `key` into a fresh vector (`None` if absent).
    fn take<W: Copy + Default>(map: &mut WaiterMap<W>, key: u64) -> Option<Vec<W>> {
        let mut out = Vec::new();
        map.remove_with(key, |w| out.push(w)).then_some(out)
    }

    #[test]
    fn push_merge_remove_roundtrip() {
        let mut map: WaiterMap<(u16, u64)> = WaiterMap::with_key_capacity(8);
        assert!(map.push(100, (1, 10)));
        assert!(!map.push(100, (2, 20)));
        assert!(map.push(200, (3, 30)));
        assert_eq!(map.len(), 2);
        let found = map.lookup(100).expect("present");
        map.merge(found, (4, 40));
        assert!(map.lookup(999).is_err());
        assert_eq!(map.len(), 2);

        assert_eq!(take(&mut map, 100).unwrap(), [(1, 10), (2, 20), (4, 40)]);
        assert_eq!(take(&mut map, 100), None);
        assert_eq!(take(&mut map, 200).unwrap(), [(3, 30)]);
        assert!(map.is_empty());
    }

    #[test]
    fn insert_at_vacant_grows_when_full() {
        // Capacity 8 holds 4 keys under the 50% load bound; the fifth
        // insert grows the table and re-probes for its slot.
        let mut map: WaiterMap<u32> = WaiterMap::with_key_capacity(4);
        for k in 0..5u64 {
            let vacant = map.lookup(k * 31).expect_err("absent");
            map.insert(vacant, k * 31, k as u32);
        }
        assert_eq!(map.len(), 5);
        assert_eq!(map.slots.len(), 16);
        for k in 0..5u64 {
            assert_eq!(take(&mut map, k * 31).unwrap(), [k as u32]);
        }
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
        for k in 0..1000u64 {
            let got = take(&mut map, k * 7919).unwrap_or_else(|| panic!("key {k}"));
            if k % 3 == 0 {
                assert_eq!(got, [k as u32, k as u32 + 1]);
            } else {
                assert_eq!(got, [k as u32]);
            }
        }
        assert!(map.is_empty());
    }

    #[test]
    fn fuzz_matches_std_hashmap() {
        let mut map: WaiterMap<u32> = WaiterMap::with_key_capacity(4);
        let mut reference: HashMap<u64, Vec<u32>> = HashMap::new();
        let mut rng = hmtypes::SplitMix64::new(42);
        for step in 0..20_000u32 {
            let key = rng.next_below(64); // small key space: heavy churn
            if rng.next_below(3) > 0 {
                let was_new = map.push(key, step);
                assert_eq!(was_new, !reference.contains_key(&key));
                reference.entry(key).or_default().push(step);
            } else {
                assert_eq!(
                    take(&mut map, key),
                    reference.remove(&key),
                    "step {step} key {key}"
                );
            }
            assert_eq!(map.len(), reference.len());
        }
    }

    #[test]
    fn single_waiters_never_spill_and_merges_recycle_lists() {
        let mut map: WaiterMap<u32> = WaiterMap::with_key_capacity(8);
        for i in 0..100 {
            map.push(i, 0);
            take(&mut map, i);
        }
        assert!(map.spills.is_empty(), "no merge, no spill list");
        for round in 0..100u32 {
            for i in 0..50 {
                map.push(5, round + i);
            }
            assert_eq!(take(&mut map, 5).unwrap().len(), 50);
        }
        // One spill list, its capacity kept across every round.
        assert_eq!(map.spills.len(), 1);
        assert!(map.spills[0].capacity() >= 49);
        assert_eq!(map.free_spills, [0]);
    }
}
