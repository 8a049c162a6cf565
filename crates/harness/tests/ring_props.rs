//! Property-based tests for the consistent-hash ring behind
//! `hetmem-fleet`, on the in-tree `hetmem_harness::props!` kit.
//!
//! The two contracts the router leans on:
//!
//! 1. **Balance** — across 1000 keys every backend's load stays within
//!    a constant factor of its fair share, so no cache shard runs hot.
//! 2. **Minimal remap** — excluding one backend moves only the keys it
//!    owned; every other key keeps its owner byte-for-byte, which is
//!    what keeps surviving backends' cache hits identical through a
//!    failover.

use std::collections::HashMap;

use hetmem_harness::{HashRing, DEFAULT_VNODES};

hetmem_harness::props! {
    cases = 48;

    /// With DEFAULT_VNODES virtual points per backend, 1000 keys land
    /// within [fair/2, 2*fair] per backend — the balance bound the
    /// fleet router assumes when it sizes backend pools.
    fn balance_within_bound_across_1000_keys(
        backends in 2usize..9,
        key_salt in 0u64..u64::MAX,
    ) {
        let ring = HashRing::new(backends, DEFAULT_VNODES);
        let mut counts = vec![0usize; backends];
        for i in 0..1000 {
            counts[ring.route(&format!("key-{key_salt}-{i}"))] += 1;
        }
        let fair = 1000.0 / backends as f64;
        for (backend, &n) in counts.iter().enumerate() {
            assert!(
                (n as f64) >= fair / 2.0 && (n as f64) <= fair * 2.0,
                "backend {backend} owns {n} of 1000 keys (fair share {fair:.0}, counts {counts:?})"
            );
        }
        // The ownership gauge agrees with observed load direction:
        // shares are positive and sum to 1.
        let shares = ring.shares();
        let total: f64 = shares.iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert!(shares.iter().all(|&s| s > 0.0));
    }

    /// Removing one backend remaps only the keys it owned: every key
    /// owned by a survivor keeps exactly its owner, and orphaned keys
    /// land on the removed backend's successor (never back on it).
    fn membership_change_remaps_only_the_removed_backends_keys(
        backends in 2usize..9,
        removed_salt in 0u64..u64::MAX,
        key_salt in 0u64..u64::MAX,
    ) {
        let ring = HashRing::new(backends, DEFAULT_VNODES);
        let removed = (removed_salt % backends as u64) as usize;
        let mut moved = 0usize;
        for i in 0..1000 {
            let key = format!("key-{key_salt}-{i}");
            let before = ring.route(&key);
            // The router's failover: the first surviving successor.
            let successors = ring.successors(&key);
            let after = successors
                .iter()
                .copied()
                .find(|&b| b != removed)
                .expect("other backends remain");
            assert_ne!(after, removed);
            if before == removed {
                moved += 1;
                // The orphan lands on the next backend of its walk.
                assert_eq!(after, successors[1]);
            } else {
                assert_eq!(after, before, "key '{key}' moved without cause");
            }
        }
        // Sanity: the remapped fraction tracks the removed backend's
        // share, so "minimal" is not vacuous.
        assert!(moved <= 1000 * 2 / backends, "moved {moved} of 1000");
    }

    /// Routing is a pure function: two identically-built rings agree
    /// on every key, so router restarts keep cache shards in place.
    fn routing_is_deterministic_across_ring_rebuilds(
        backends in 1usize..9,
        vnodes in 1usize..129,
        key_salt in 0u64..u64::MAX,
    ) {
        let a = HashRing::new(backends, vnodes);
        let b = HashRing::new(backends, vnodes);
        let mut owners: HashMap<String, usize> = HashMap::new();
        for i in 0..200 {
            let key = format!("key-{key_salt}-{i}");
            let owner = a.route(&key);
            assert_eq!(owner, b.route(&key));
            assert_eq!(a.successors(&key), b.successors(&key));
            owners.insert(key, owner);
        }
        assert!(owners.values().all(|&o| o < backends.max(1)));
    }
}
