//! A content-addressed LRU result cache.
//!
//! `hetmem-serve` answers repeated `simulate` queries from this cache:
//! the key is the canonical JSON of everything that determines the
//! result (workload, configuration, policy, seed), and the value is the
//! already-serialized response body. Because the simulator is
//! deterministic and the JSON writer is byte-stable, a cache hit is
//! **byte-identical** to recomputing — callers can assert equality, not
//! just equivalence.
//!
//! The cache is thread-safe (internal mutex, no lock held across
//! compute) and bounded: inserting beyond capacity evicts the least
//! recently used entry. Hit/miss/eviction counters feed the server's
//! `stats` endpoint.
//!
//! Every entry carries an FNV-1a checksum taken at insert time, and
//! [`ResultCache::get`] verifies it before returning: an entry whose
//! bytes no longer match (bit rot, or chaos-injected corruption via
//! [`ResultCache::corrupt`]) is dropped and counted instead of served.
//! A corrupted lookup therefore degrades to a miss — the caller
//! recomputes and the byte-identity contract holds.

use std::collections::HashMap;
use std::sync::Mutex;

use crate::json::{JsonObject, JsonValue};
use crate::telemetry::fnv1a;

/// Point-in-time counters for one [`ResultCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups that found an entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries written (including overwrites of an existing key).
    pub insertions: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
    /// Entries dropped because their bytes failed the integrity check.
    pub corruptions: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// Maximum resident entries.
    pub capacity: usize,
}

impl CacheStats {
    /// The `cache` block of a server's `stats` body.
    pub fn to_json(&self) -> String {
        JsonObject::new()
            .u64("hits", self.hits)
            .u64("misses", self.misses)
            .u64("insertions", self.insertions)
            .u64("evictions", self.evictions)
            .u64("corruptions", self.corruptions)
            .u64("entries", self.entries as u64)
            .u64("capacity", self.capacity as u64)
            .finish()
    }

    /// Reads a [`to_json`](Self::to_json) block back; a missing or
    /// ill-typed counter reads 0.
    pub fn from_json(v: &JsonValue) -> CacheStats {
        let get = |key: &str| v.get(key).and_then(JsonValue::as_u64).unwrap_or(0);
        CacheStats {
            hits: get("hits"),
            misses: get("misses"),
            insertions: get("insertions"),
            evictions: get("evictions"),
            corruptions: get("corruptions"),
            entries: get("entries") as usize,
            capacity: get("capacity") as usize,
        }
    }

    /// Adds `other`'s counters to these (a fleet's caches summed).
    pub fn merge(&mut self, other: &CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.insertions += other.insertions;
        self.evictions += other.evictions;
        self.corruptions += other.corruptions;
        self.entries += other.entries;
        self.capacity += other.capacity;
    }
}

#[derive(Debug)]
struct Entry {
    value: String,
    /// FNV-1a over `value` at insert time; verified on every get.
    checksum: u64,
    last_use: u64,
}

#[derive(Debug)]
struct CacheInner {
    /// key -> entry. Recency is a monotonic counter rather than a
    /// linked list: eviction scans for the minimum, which is O(n) but n
    /// is the configured capacity (hundreds), and it keeps the
    /// structure trivially correct.
    map: HashMap<String, Entry>,
    tick: u64,
    stats: CacheStats,
}

/// A bounded, thread-safe, content-addressed LRU cache from canonical
/// key strings to pre-serialized result strings.
///
/// # Examples
///
/// ```
/// use hetmem_harness::cache::ResultCache;
///
/// let cache = ResultCache::new(2);
/// assert_eq!(cache.get("a"), None);
/// cache.insert("a", "1".to_string());
/// assert_eq!(cache.get("a").as_deref(), Some("1"));
/// cache.insert("b", "2".to_string());
/// cache.insert("c", "3".to_string()); // full: evicts "a", the LRU entry
/// assert_eq!(cache.get("a"), None);
/// assert_eq!(cache.stats().evictions, 1);
/// ```
#[derive(Debug)]
pub struct ResultCache {
    inner: Mutex<CacheInner>,
}

impl ResultCache {
    /// Creates a cache holding at most `capacity` entries (minimum 1).
    pub fn new(capacity: usize) -> Self {
        ResultCache {
            inner: Mutex::new(CacheInner {
                map: HashMap::new(),
                tick: 0,
                stats: CacheStats {
                    capacity: capacity.max(1),
                    ..CacheStats::default()
                },
            }),
        }
    }

    /// Looks up `key`, refreshing its recency and verifying the entry's
    /// checksum. A verified lookup counts a hit; a missing key counts a
    /// miss; a corrupted entry is removed, counted as a corruption
    /// **and** a miss, and `None` is returned so the caller recomputes.
    pub fn get(&self, key: &str) -> Option<String> {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.tick += 1;
        let tick = inner.tick;
        match inner.map.get_mut(key) {
            Some(entry) => {
                if fnv1a(entry.value.as_bytes()) != entry.checksum {
                    inner.map.remove(key);
                    inner.stats.corruptions += 1;
                    inner.stats.misses += 1;
                    inner.stats.entries = inner.map.len();
                    return None;
                }
                entry.last_use = tick;
                let v = entry.value.clone();
                inner.stats.hits += 1;
                Some(v)
            }
            None => {
                inner.stats.misses += 1;
                None
            }
        }
    }

    /// Inserts (or overwrites) `key`, evicting the least recently used
    /// entry if the cache is full. The entry's checksum is taken here.
    pub fn insert(&self, key: &str, value: String) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.tick += 1;
        let tick = inner.tick;
        let capacity = inner.stats.capacity;
        if !inner.map.contains_key(key) && inner.map.len() >= capacity {
            if let Some(lru) = inner
                .map
                .iter()
                .min_by_key(|(_, entry)| entry.last_use)
                .map(|(k, _)| k.clone())
            {
                inner.map.remove(&lru);
                inner.stats.evictions += 1;
            }
        }
        let checksum = fnv1a(value.as_bytes());
        inner.map.insert(
            key.to_string(),
            Entry {
                value,
                checksum,
                last_use: tick,
            },
        );
        inner.stats.insertions += 1;
        inner.stats.entries = inner.map.len();
    }

    /// Chaos hook: flips one byte of `key`'s resident value **without**
    /// updating its checksum, simulating in-memory bit rot. Returns
    /// whether an entry was corrupted. The next [`get`](Self::get) of
    /// the key detects the mismatch and drops the entry.
    pub fn corrupt(&self, key: &str) -> bool {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let Some(entry) = inner.map.get_mut(key) else {
            return false;
        };
        if entry.value.is_empty() {
            entry.value.push('!');
            return true;
        }
        // Flip the low bit of the middle byte within ASCII so the
        // String stays valid UTF-8.
        let mid = entry.value.len() / 2;
        let mut bytes = std::mem::take(&mut entry.value).into_bytes();
        bytes[mid] = if bytes[mid].is_ascii() {
            bytes[mid] ^ 1
        } else {
            b'?'
        };
        entry.value = String::from_utf8(bytes).unwrap_or_else(|e| {
            // Non-ASCII middle byte was replaced wholesale; re-validate.
            String::from_utf8_lossy(e.as_bytes()).into_owned()
        });
        true
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let mut stats = inner.stats;
        stats.entries = inner.map.len();
        stats
    }

    /// Resident entry count.
    pub fn len(&self) -> usize {
        self.stats().entries
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_then_hit() {
        let c = ResultCache::new(4);
        assert_eq!(c.get("k"), None);
        c.insert("k", "v".into());
        assert_eq!(c.get("k").as_deref(), Some("v"));
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.insertions), (1, 1, 1));
        assert_eq!(s.entries, 1);
    }

    #[test]
    fn stats_block_round_trips_and_sums() {
        let c = ResultCache::new(4);
        c.insert("k", "v".into());
        let _ = c.get("k");
        let _ = c.get("nope");
        let s = c.stats();
        let block = s.to_json();
        assert_eq!(
            block,
            r#"{"hits":1,"misses":1,"insertions":1,"evictions":0,"corruptions":0,"entries":1,"capacity":4}"#
        );
        assert_eq!(CacheStats::from_json(&JsonValue::parse(&block).unwrap()), s);
        let mut sum = s;
        sum.merge(&s);
        assert_eq!((sum.hits, sum.entries, sum.capacity), (2, 2, 8));
    }

    #[test]
    fn evicts_least_recently_used() {
        let c = ResultCache::new(2);
        c.insert("a", "1".into());
        c.insert("b", "2".into());
        assert_eq!(c.get("a").as_deref(), Some("1")); // refresh "a"
        c.insert("c", "3".into()); // must evict "b"
        assert_eq!(c.get("b"), None);
        assert_eq!(c.get("a").as_deref(), Some("1"));
        assert_eq!(c.get("c").as_deref(), Some("3"));
        assert_eq!(c.stats().evictions, 1);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn overwrite_does_not_evict() {
        let c = ResultCache::new(2);
        c.insert("a", "1".into());
        c.insert("b", "2".into());
        c.insert("a", "1b".into());
        assert_eq!(c.stats().evictions, 0);
        assert_eq!(c.get("a").as_deref(), Some("1b"));
        assert_eq!(c.get("b").as_deref(), Some("2"));
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let c = ResultCache::new(0);
        c.insert("a", "1".into());
        assert_eq!(c.get("a").as_deref(), Some("1"));
        c.insert("b", "2".into());
        assert_eq!(c.get("a"), None);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn corrupted_entries_are_detected_and_dropped() {
        let c = ResultCache::new(4);
        c.insert("k", r#"{"cycles":100}"#.into());
        assert!(c.corrupt("k"), "resident entry must be corruptible");
        // The corrupted entry is never served: the lookup degrades to a
        // counted miss and the entry is gone.
        assert_eq!(c.get("k"), None);
        let s = c.stats();
        assert_eq!(s.corruptions, 1);
        assert_eq!(s.misses, 1);
        assert_eq!(s.hits, 0);
        assert_eq!(s.entries, 0);
        // Recomputing and re-inserting restores byte-identical hits.
        c.insert("k", r#"{"cycles":100}"#.into());
        assert_eq!(c.get("k").as_deref(), Some(r#"{"cycles":100}"#));
        // Corrupting a missing key is a no-op.
        assert!(!c.corrupt("nope"));
    }

    #[test]
    fn corrupt_handles_tiny_values() {
        let c = ResultCache::new(2);
        c.insert("empty", String::new());
        c.insert("one", "x".into());
        assert!(c.corrupt("empty"));
        assert!(c.corrupt("one"));
        assert_eq!(c.get("empty"), None);
        assert_eq!(c.get("one"), None);
        assert_eq!(c.stats().corruptions, 2);
    }

    #[test]
    fn concurrent_access_is_safe_and_counted() {
        use std::sync::Arc;
        let c = Arc::new(ResultCache::new(64));
        std::thread::scope(|scope| {
            for t in 0..8 {
                let c = Arc::clone(&c);
                scope.spawn(move || {
                    for i in 0..50 {
                        let key = format!("k{}", (t + i) % 16);
                        if c.get(&key).is_none() {
                            c.insert(&key, format!("v{}", (t + i) % 16));
                        }
                    }
                });
            }
        });
        let s = c.stats();
        assert_eq!(s.hits + s.misses, 400);
        assert!(s.entries <= 16);
    }
}
