//! A set-associative, LRU, tag-only cache model.
//!
//! The simulator only needs hit/miss decisions and victim selection —
//! data contents are never modeled — so the cache stores tags and LRU
//! ordering only.
//!
//! Storage is two packed arrays indexed `set * ways + way`: one of tags,
//! where `INVALID` marks an empty way, and one of LRU stamps, where an
//! empty way holds 0 and a valid way the (nonzero) access tick of its
//! last use. The victim is the first way with the smallest stamp — the
//! first empty way if there is one, else the least recently used.
//! [`SetAssocCache::access`] walks the set once, comparing tags and
//! tracking that minimum in the same pass, so a miss never rereads the
//! set to pick its victim.

use crate::config::CacheConfig;

/// Tag sentinel for an invalid way. Tags are line indices shifted right
/// by the set bits, and line indices (`addr / 128`) cannot reach it.
const INVALID: u64 = u64::MAX;

/// Result of a cache probe-and-update.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// The line was present.
    Hit,
    /// The line was absent and has been allocated; the evicted line's
    /// index is reported when a valid line was displaced.
    Miss {
        /// The line index that was evicted to make room, if any.
        evicted: Option<u64>,
    },
}

impl CacheOutcome {
    /// `true` on [`CacheOutcome::Hit`].
    pub fn is_hit(self) -> bool {
        matches!(self, CacheOutcome::Hit)
    }
}

/// A set-associative LRU cache over global line indices.
///
/// # Examples
///
/// ```
/// use gpusim::{CacheConfig, SetAssocCache};
///
/// let mut c = SetAssocCache::new(CacheConfig::new(1024, 2)); // 8 lines, 4 sets
/// assert!(!c.access(0).is_hit());
/// assert!(c.access(0).is_hit());
/// ```
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    cfg: CacheConfig,
    /// Per-way tags; [`INVALID`] for an empty way.
    tags: Vec<u64>,
    /// Per-way LRU stamps; higher = more recently used, 0 = empty way.
    stamps: Vec<u64>,
    set_mask: u64,
    set_bits: u32,
    tick: u64,
    hits: u64,
    misses: u64,
}

impl SetAssocCache {
    /// Creates an empty cache with the given geometry.
    pub fn new(cfg: CacheConfig) -> Self {
        let sets = cfg.sets();
        let set_mask = sets as u64 - 1;
        SetAssocCache {
            cfg,
            tags: vec![INVALID; sets * cfg.ways],
            stamps: vec![0; sets * cfg.ways],
            set_mask,
            set_bits: set_mask.trailing_ones(),
            tick: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// The first way index of `line`'s set, and `line`'s tag.
    #[inline]
    fn locate(&self, line: u64) -> (usize, u64) {
        let set = (line & self.set_mask) as usize;
        (set * self.cfg.ways, line >> self.set_bits)
    }

    /// The way of set `base` holding `tag`, if any. A valid tag sits in
    /// at most one way of its set, so the whole set is compared without
    /// an early exit (branch-free for the small associativities used).
    #[inline]
    fn find(&self, base: usize, tag: u64) -> Option<usize> {
        let mut found = None;
        for (w, &t) in self.tags[base..base + self.cfg.ways].iter().enumerate() {
            if t == tag {
                found = Some(base + w);
            }
        }
        found
    }

    /// Probes for `line` and allocates it on a miss (LRU victim).
    #[inline]
    pub fn access(&mut self, line: u64) -> CacheOutcome {
        self.tick += 1;
        let (base, tag) = self.locate(line);
        let ways = self.cfg.ways;
        let tags = &self.tags[base..base + ways];
        let stamps = &self.stamps[base..base + ways];
        // One pass: the hit way (a valid tag sits in at most one way)
        // and the first way with the minimum stamp.
        let mut hit = None;
        let mut victim = 0;
        let mut oldest = stamps[0];
        for (w, (&t, &stamp)) in tags.iter().zip(stamps).enumerate() {
            if t == tag {
                hit = Some(w);
            }
            if stamp < oldest {
                oldest = stamp;
                victim = w;
            }
        }
        if let Some(w) = hit {
            self.stamps[base + w] = self.tick;
            self.hits += 1;
            return CacheOutcome::Hit;
        }

        self.misses += 1;
        let way = base + victim;
        let old = self.tags[way];
        let evicted = (old != INVALID).then(|| (old << self.set_bits) | (line & self.set_mask));
        self.tags[way] = tag;
        self.stamps[way] = self.tick;
        CacheOutcome::Miss { evicted }
    }

    /// Probes for `line` without allocating (used for write no-allocate).
    #[inline]
    pub fn probe(&mut self, line: u64) -> bool {
        self.tick += 1;
        let (base, tag) = self.locate(line);
        if let Some(way) = self.find(base, tag) {
            self.stamps[way] = self.tick;
            self.hits += 1;
            true
        } else {
            self.misses += 1;
            false
        }
    }

    /// Invalidates `line` if present; returns whether it was present.
    pub fn invalidate(&mut self, line: u64) -> bool {
        let (base, tag) = self.locate(line);
        if let Some(way) = self.find(base, tag) {
            self.tags[way] = INVALID;
            self.stamps[way] = 0;
            true
        } else {
            false
        }
    }

    /// (hits, misses) counters since construction.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Hit rate in `[0, 1]`; 0 before any access.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// The cache geometry.
    pub fn config(&self) -> CacheConfig {
        self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SetAssocCache {
        // 4 sets x 2 ways = 8 lines.
        SetAssocCache::new(CacheConfig::new(8 * 128, 2))
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = tiny();
        assert_eq!(c.access(5), CacheOutcome::Miss { evicted: None });
        assert!(c.access(5).is_hit());
        assert_eq!(c.stats(), (1, 1));
    }

    #[test]
    fn lru_evicts_oldest_within_set() {
        let mut c = tiny();
        // Lines 0, 4, 8 all map to set 0 (4 sets).
        c.access(0);
        c.access(4);
        c.access(0); // 0 now most recent; 4 is LRU
        match c.access(8) {
            CacheOutcome::Miss { evicted: Some(v) } => assert_eq!(v, 4),
            other => panic!("expected eviction of 4, got {other:?}"),
        }
        assert!(c.access(0).is_hit(), "0 must survive");
        assert!(!c.access(4).is_hit(), "4 was evicted");
    }

    #[test]
    fn different_sets_do_not_conflict() {
        let mut c = tiny();
        for line in 0..4 {
            c.access(line);
        }
        for line in 0..4 {
            assert!(c.access(line).is_hit());
        }
    }

    #[test]
    fn probe_does_not_allocate() {
        let mut c = tiny();
        assert!(!c.probe(9));
        assert!(!c.access(9).is_hit(), "probe must not have allocated");
        assert!(c.probe(9), "access allocated it");
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = tiny();
        c.access(3);
        assert!(c.invalidate(3));
        assert!(!c.invalidate(3));
        assert!(!c.access(3).is_hit());
    }

    #[test]
    fn eviction_reports_correct_line_index() {
        let mut c = SetAssocCache::new(CacheConfig::new(128 * 2, 1)); // 2 sets, direct-mapped
        c.access(6); // set 0 (6 & 1 == 0), tag 3
        match c.access(8) {
            // 8 -> set 0, tag 4; must evict 6.
            CacheOutcome::Miss { evicted: Some(v) } => assert_eq!(v, 6),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn invalidated_way_is_refilled_first() {
        let mut c = tiny();
        // Set 0 holds 0 and 4; invalidating the more recent one frees
        // its way, which the next miss must take over the LRU line 0.
        c.access(0);
        c.access(4);
        assert!(c.invalidate(4));
        assert_eq!(c.access(8), CacheOutcome::Miss { evicted: None });
        assert!(c.access(0).is_hit());
    }

    #[test]
    fn hit_rate_tracks() {
        let mut c = tiny();
        c.access(1);
        c.access(1);
        c.access(1);
        c.access(2);
        assert!((c.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn working_set_larger_than_cache_thrashes() {
        let mut c = tiny();
        // 16 distinct lines round-robin over an 8-line cache -> all misses.
        for pass in 0..3 {
            for line in 0..16 {
                let hit = c.access(line).is_hit();
                if pass == 0 {
                    assert!(!hit);
                }
            }
        }
        let (hits, misses) = c.stats();
        assert_eq!(hits, 0);
        assert_eq!(misses, 48);
    }
}
