//! The simulator's flat miss-tracking table.
//!
//! MSHR waiter lists and per-SM pending-miss lists sit on the hottest
//! path in the repo. `HashMap<u64, Vec<..>>` there means SipHash on
//! every probe and a fresh `Vec` allocation per miss. [`WaiterMap`]
//! replaces it: an open-addressed multimap (`u64` key → list of `Copy`
//! waiters) with Fibonacci hashing, linear probing, and backward-shift
//! deletion.
//!
//! The table has two parts. The **probe array** holds one `u64` word per
//! slot, `key << 16 | entry`, so a probe reads 8 bytes and a
//! backward-shift delete moves 8. The **entry slab** holds, per present
//! key, its first waiter inline and the index of a spill list for any
//! later ones; an entry never moves while its key is present, and freed
//! entries are reused LIFO. The slab is sized to the table's key bound
//! (`l2_mshrs` for an MSHR table, `warps × MLP` for a pending table) and
//! the probe array to four words per bound key, so a table held at its
//! bound runs at ≤25% load and a lookup, hit or miss, probes about once.
//! For the simulator's 128-MSHR tables that is 4 KiB of words plus a
//! 3 KiB slab, against the 8 KiB of the 32-byte slots at 50% load it
//! replaces. Only a merge (a second waiter for the same key) spills the
//! rest into a side list; spill lists are recycled through a free list,
//! so the steady state allocates nothing. One [`WaiterMap::lookup`]
//! answers "present or where to insert", so a caller that merges or
//! inserts after other checks probes once, and [`WaiterMap::remove_with`]
//! hands each waiter straight to the caller instead of copying the list
//! out.
//!
//! Keys are at most [`MAX_KEY`] (48 bits; simulator keys are line
//! indices, `addr / 128`, far below it) and a table holds at most
//! 65,536 keys. A table pushed past its bound grows, doubling both parts.
//!
//! It is a drop-in *behavioral* equivalent of the map it replaces; the
//! golden-equivalence suite (`tests/golden_simreport.rs`) pins that.
//! Per-page state (access counts, the migrator's records) lives in the
//! shared per-page table, `hmtypes::PageMap`.

/// Bits of a probe word that hold the slab entry index.
const ENTRY_BITS: u32 = 16;
const ENTRY_MASK: u64 = (1 << ENTRY_BITS) - 1;
/// Most keys a table can hold: one slab entry per key.
const MAX_ENTRIES: usize = 1 << ENTRY_BITS;

/// Largest key a [`WaiterMap`] accepts: keys fill the top 48 bits of a
/// probe word, and the all-ones word is the empty sentinel.
pub const MAX_KEY: u64 = (1 << (64 - ENTRY_BITS)) - 2;

/// Probe-word sentinel for an empty slot (key `MAX_KEY + 1`).
const EMPTY: u64 = u64::MAX;

/// Probe-array slots per key the table holds before it grows: the load
/// factor stays at or below 1/4.
const SLOTS_PER_KEY: usize = 4;

/// Null index: an entry without a spill list, or the end of the free
/// entry list.
const NIL: u32 = u32::MAX;

/// Fibonacci-hashing multiplier (2^64 / φ).
const HASH_MUL: u64 = 0x9E37_79B9_7F4A_7C15;

/// One slab entry: a present key's first waiter and the index of the
/// spill list holding any later waiters (`NIL` if none). While the entry
/// is free, `link` is the next free entry instead.
#[derive(Debug, Clone, Copy)]
struct Entry<W> {
    first: W,
    link: u32,
}

/// A present key's slab entry, from [`WaiterMap::lookup`]; consumed by
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
pub struct WaiterMap<W: Copy> {
    /// Probe array: `key << ENTRY_BITS | entry`, or `EMPTY`.
    words: Vec<u64>,
    /// Entry slab, indexed by a word's low bits. Grows to the peak
    /// number of keys present at once and is recycled through `free`.
    entries: Vec<Entry<W>>,
    /// Head of the LIFO free list of `entries`.
    free: u32,
    /// Waiters after the first, for keys that merged; indexed by
    /// `Entry::link`. Emptied lists keep their capacity.
    spills: Vec<Vec<W>>,
    /// Indices of empty `spills` lists, reused LIFO.
    free_spills: Vec<u32>,
    /// Number of distinct keys present.
    len: usize,
    /// Keys the table holds before it grows: `words.len() / SLOTS_PER_KEY`.
    bound: usize,
    mask: usize,
    /// `64 - log2(words.len())`, for the Fibonacci hash.
    shift: u32,
}

impl<W: Copy> WaiterMap<W> {
    /// Creates a map that holds `keys` distinct keys (at most 65,536)
    /// without growing: the slab reserves one entry per key and the
    /// probe array is the next power of two of at least four slots per
    /// key, so the load factor stays at or below 25%. The map still
    /// grows if the estimate is exceeded.
    pub fn with_key_capacity(keys: usize) -> Self {
        let keys = keys.clamp(1, MAX_ENTRIES);
        let cap = (keys * SLOTS_PER_KEY).next_power_of_two();
        WaiterMap {
            words: vec![EMPTY; cap],
            entries: Vec::with_capacity(keys),
            free: NIL,
            spills: Vec::new(),
            free_spills: Vec::new(),
            len: 0,
            bound: cap / SLOTS_PER_KEY,
            mask: cap - 1,
            shift: 64 - cap.trailing_zeros(),
        }
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

    /// The probe slot holding `key`, or `Err` with the empty slot that
    /// ends its probe chain. A key above [`MAX_KEY`] is never present.
    #[inline]
    fn find(&self, key: u64) -> Result<usize, usize> {
        let mut i = self.home(key);
        loop {
            let word = self.words[i];
            if word == EMPTY {
                return Err(i);
            }
            if word >> ENTRY_BITS == key {
                return Ok(i);
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Probes for `key` once: `Ok` with the entry holding its waiters,
    /// or `Err` with the empty slot that ends its probe chain — where
    /// [`WaiterMap::insert`] puts it. Either handle is valid only until
    /// the map is next mutated.
    #[inline]
    pub fn lookup(&self, key: u64) -> Result<Found, Vacant> {
        match self.find(key) {
            Ok(i) => Ok(Found((self.words[i] & ENTRY_MASK) as usize)),
            Err(i) => Err(Vacant(i)),
        }
    }

    /// Appends `w` behind the waiters of the key `at` found.
    #[inline]
    pub fn merge(&mut self, at: Found, w: W) {
        let e = at.0;
        let mut spill = self.entries[e].link;
        if spill == NIL {
            spill = self.free_spills.pop().unwrap_or_else(|| {
                self.spills.push(Vec::new());
                u32::try_from(self.spills.len() - 1).expect("spill lists fit u32 indices")
            });
            self.entries[e].link = spill;
        }
        self.spills[spill as usize].push(w);
    }

    /// Inserts `key`, absent when [`WaiterMap::lookup`] returned `at`,
    /// with `w` as its first waiter.
    ///
    /// # Panics
    ///
    /// Panics if `key` exceeds [`MAX_KEY`], or if the map would hold
    /// more than 65,536 keys.
    #[inline]
    pub fn insert(&mut self, at: Vacant, key: u64, w: W) {
        assert!(key <= MAX_KEY, "WaiterMap key {key:#x} exceeds MAX_KEY");
        let mut i = at.0;
        if self.len == self.bound {
            self.grow();
            let Err(j) = self.find(key) else {
                unreachable!("inserted key was absent");
            };
            i = j;
        }
        debug_assert_eq!(self.find(key), Err(i), "stale Vacant handle");
        let entry = Entry {
            first: w,
            link: NIL,
        };
        let e = if self.free == NIL {
            self.entries.push(entry);
            self.entries.len() - 1
        } else {
            let e = self.free as usize;
            self.free = self.entries[e].link;
            self.entries[e] = entry;
            e
        };
        self.words[i] = key << ENTRY_BITS | e as u64;
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
        let e = (self.words[i] & ENTRY_MASK) as usize;
        self.len -= 1;
        // Backward-shift deletion: pull displaced words into the hole
        // so probe chains never need tombstones.
        let mask = self.mask;
        let mut hole = i;
        let mut j = i;
        loop {
            j = (j + 1) & mask;
            let word = self.words[j];
            if word == EMPTY {
                break;
            }
            let h = self.home(word >> ENTRY_BITS);
            // Move iff the hole lies within the word's probe path [h, j].
            if (j.wrapping_sub(h) & mask) >= (j.wrapping_sub(hole) & mask) {
                self.words[hole] = word;
                hole = j;
            }
        }
        self.words[hole] = EMPTY;
        let Entry { first, link: spill } = self.entries[e];
        self.entries[e].link = self.free;
        self.free = e as u32;
        f(first);
        if spill != NIL {
            for w in self.spills[spill as usize].drain(..) {
                f(w);
            }
            self.free_spills.push(spill);
        }
        true
    }

    /// Doubles the probe array (and with it the key bound); slab entries
    /// stay where they are.
    fn grow(&mut self) {
        assert!(
            self.bound < MAX_ENTRIES,
            "WaiterMap holds at most {MAX_ENTRIES} keys"
        );
        let new_cap = self.words.len() * 2;
        let old = std::mem::replace(&mut self.words, vec![EMPTY; new_cap]);
        self.bound = new_cap / SLOTS_PER_KEY;
        self.mask = new_cap - 1;
        self.shift = 64 - new_cap.trailing_zeros();
        for word in old {
            if word != EMPTY {
                let Err(i) = self.find(word >> ENTRY_BITS) else {
                    unreachable!("keys are unique");
                };
                self.words[i] = word;
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
        // 16 probe slots hold 4 keys under the 25% load bound; the fifth
        // insert grows the table and re-probes for its slot.
        let mut map: WaiterMap<u32> = WaiterMap::with_key_capacity(4);
        assert_eq!(map.words.len(), 16);
        for k in 0..5u64 {
            let vacant = map.lookup(k * 31).expect_err("absent");
            map.insert(vacant, k * 31, k as u32);
        }
        assert_eq!(map.len(), 5);
        assert_eq!(map.words.len(), 32);
        assert_eq!(map.entries.len(), 5);
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
    fn fuzz_at_the_key_bound_never_grows() {
        // The simulator's tables sit at their key bound (l2_mshrs, or
        // warps x MLP): filled to it and churned there, against a
        // HashMap reference, with keys up to the packing limit, the
        // probe array and the slab keep their size.
        const BOUND: usize = 128;
        let mut map: WaiterMap<(u16, u64)> = WaiterMap::with_key_capacity(BOUND);
        let words = map.words.len();
        assert_eq!(words, BOUND * SLOTS_PER_KEY);
        let mut reference: HashMap<u64, Vec<(u16, u64)>> = HashMap::new();
        let mut rng = hmtypes::SplitMix64::new(7);
        let mut max_key_inserted = false;
        let key_at = |rng: &mut hmtypes::SplitMix64| match rng.next_below(4) {
            0 => MAX_KEY - rng.next_below(BOUND as u64 * 2),
            _ => rng.next_below(BOUND as u64 * 2) * 128,
        };
        for step in 0..50_000u32 {
            let key = key_at(&mut rng);
            let w = (step as u16, u64::from(step));
            let present = reference.contains_key(&key);
            if rng.next_below(3) > 0 && (present || reference.len() < BOUND) {
                assert_eq!(map.push(key, w), !present, "step {step} key {key:#x}");
                max_key_inserted |= key == MAX_KEY;
                reference.entry(key).or_default().push(w);
            } else {
                assert_eq!(take(&mut map, key), reference.remove(&key), "step {step}");
            }
            assert_eq!(map.len(), reference.len());
            assert_eq!(map.words.len(), words, "grew at step {step}");
            assert!(map.entries.len() <= BOUND);
        }
        assert!(reference.len() > BOUND / 2, "the fuzz ran near the bound");
        assert!(max_key_inserted, "the fuzz reached the packing limit");
    }

    #[test]
    fn keys_above_the_packing_limit_are_absent_and_refused() {
        let mut map: WaiterMap<u32> = WaiterMap::with_key_capacity(4);
        assert!(map.push(MAX_KEY, 1));
        // MAX_KEY + 1 is the empty word's key field: never a match.
        assert!(map.lookup(MAX_KEY + 1).is_err());
        assert!(map.lookup(u64::MAX).is_err());
        assert!(!map.remove_with(MAX_KEY + 1, |_| unreachable!()));
        assert_eq!(take(&mut map, MAX_KEY).unwrap(), [1]);
        let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            map.push(MAX_KEY + 1, 2);
        }));
        assert!(refused.is_err(), "a key past MAX_KEY must be refused");
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
