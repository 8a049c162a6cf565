//! Consistent-hash routing for the `hetmem-fleet` router.
//!
//! A [`HashRing`] places `vnodes` virtual points per backend on a
//! 64-bit hash circle; a key routes to the backend owning the first
//! point at or clockwise of the key's hash. Two properties make this
//! the right router for a sharded result cache (both property-tested
//! in `tests/ring_props.rs`):
//!
//! 1. **Balance** — with enough virtual points, every backend owns a
//!    bounded share of the key space, so no cache shard runs hot.
//! 2. **Minimal remap** — excluding a backend (crash, circuit open)
//!    moves *only* the keys that backend owned; every other key keeps
//!    its owner, so the surviving backends' caches stay warm and their
//!    hits stay byte-identical.
//!
//! Failover order is the ring's successor walk: [`HashRing::successors`]
//! lists every backend in the order a key would reach them, and the
//! router takes the first one it finds healthy.

use crate::rng::mix;
use crate::telemetry::fnv1a;

/// Virtual points per backend when the caller doesn't choose.
pub const DEFAULT_VNODES: usize = 64;

/// The ring's hash for any label or key: the splitmix64 finalizer
/// over the FNV-1a digest. FNV alone clusters on near-identical inputs
/// (`backend-0/vnode-1` vs `.../vnode-2` differ in one trailing byte),
/// which skews ring arcs badly; the finalizer's avalanche spreads the
/// points uniformly around the circle.
fn ring_hash(bytes: &[u8]) -> u64 {
    mix(fnv1a(bytes))
}

/// A consistent-hash ring over backends `0..n`.
#[derive(Debug, Clone)]
pub struct HashRing {
    /// `(point hash, backend)` sorted by hash.
    points: Vec<(u64, usize)>,
    backends: usize,
}

impl HashRing {
    /// Builds a ring with `vnodes` virtual points for each of
    /// `backends` backends (0 of either falls back to sane minimums).
    pub fn new(backends: usize, vnodes: usize) -> Self {
        let backends = backends.max(1);
        let vnodes = vnodes.max(1);
        let mut points = Vec::with_capacity(backends * vnodes);
        for backend in 0..backends {
            for vnode in 0..vnodes {
                let label = format!("backend-{backend}/vnode-{vnode}");
                points.push((ring_hash(label.as_bytes()), backend));
            }
        }
        // Ties (hash collisions) resolve to the lower backend index so
        // ownership is deterministic regardless of build order.
        points.sort_unstable();
        HashRing { points, backends }
    }

    /// How many backends the ring spans.
    pub fn backends(&self) -> usize {
        self.backends
    }

    /// The hash a key routes by.
    fn key_hash(key: &str) -> u64 {
        ring_hash(key.as_bytes())
    }

    /// Index into `points` of the first point at or after the key's
    /// hash (wrapping past the top of the circle).
    fn first_point(&self, key: &str) -> usize {
        let h = Self::key_hash(key);
        match self.points.binary_search(&(h, 0)) {
            Ok(i) => i,
            Err(i) => i % self.points.len(),
        }
    }

    /// The backend owning `key` with every backend eligible.
    pub fn route(&self, key: &str) -> usize {
        self.points[self.first_point(key)].1
    }

    /// Every distinct backend in the order the successor walk from
    /// `key` reaches them — the failover order. The first element is
    /// [`HashRing::route`]'s answer.
    pub fn successors(&self, key: &str) -> Vec<usize> {
        let start = self.first_point(key);
        let mut seen = vec![false; self.backends];
        let mut order = Vec::with_capacity(self.backends);
        for i in 0..self.points.len() {
            let backend = self.points[(start + i) % self.points.len()].1;
            if !seen[backend] {
                seen[backend] = true;
                order.push(backend);
                if order.len() == self.backends {
                    break;
                }
            }
        }
        order
    }

    /// Each backend's share of the hash circle, in `[0, 1]` summing to
    /// 1 — the ring-ownership gauge's source.
    pub fn shares(&self) -> Vec<f64> {
        let mut arc = vec![0u128; self.backends];
        for (i, &(hash, backend)) in self.points.iter().enumerate() {
            let prev = if i == 0 {
                // The arc from the last point wraps through u64::MAX.
                self.points[self.points.len() - 1].0
            } else {
                self.points[i - 1].0
            };
            let len = hash.wrapping_sub(prev);
            let len = if self.points.len() == 1 {
                u128::from(u64::MAX) + 1
            } else {
                u128::from(len)
            };
            arc[backend] += len;
        }
        let total = u128::from(u64::MAX) + 1;
        arc.iter().map(|&a| a as f64 / total as f64).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn route_is_deterministic_and_first_successor() {
        let ring = HashRing::new(4, 16);
        for i in 0..100 {
            let key = format!("key-{i}");
            assert_eq!(ring.route(&key), ring.route(&key));
            assert_eq!(ring.route(&key), ring.successors(&key)[0]);
        }
    }

    #[test]
    fn successors_cover_every_backend_once() {
        let ring = HashRing::new(5, 8);
        let order = ring.successors("some-key");
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn shares_sum_to_one() {
        let ring = HashRing::new(4, 64);
        let shares = ring.shares();
        assert_eq!(shares.len(), 4);
        let total: f64 = shares.iter().sum();
        assert!((total - 1.0).abs() < 1e-9, "got {total}");
        assert!(shares.iter().all(|&s| s > 0.0));
    }

    #[test]
    fn ring_hash_values_are_pinned() {
        // Ring placement is the fleet's routing contract: a changed
        // hash would move every cached key to another backend.
        assert_eq!(ring_hash(b"backend-0/vnode-0"), 0x5d9d_afbd_2149_6a6b);
        assert_eq!(ring_hash(b"key-0"), 0x9d7b_96d3_35c9_f9fb);
    }

    #[test]
    fn degenerate_sizes_clamp() {
        let ring = HashRing::new(0, 0);
        assert_eq!(ring.backends(), 1);
        assert_eq!(ring.route("anything"), 0);
        assert_eq!(ring.shares(), vec![1.0]);
    }
}
