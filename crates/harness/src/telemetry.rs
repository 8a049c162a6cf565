//! The two pieces every telemetry line shares: the [`fnv1a`] config
//! hash and the [`hit_rate`] ratio.
//!
//! `hetmem::grid` renders each simulated run's `"run"` line and its
//! `"interval"` lines straight from the simulator's reports through the
//! in-tree [`json`](crate::json) writer (this crate knows no simulator
//! types). Every line of one grid point carries the same FNV-1a config
//! hash, and the leading `"record"` field (`"run"` vs `"interval"`)
//! tells the two apart. Lines carry no wall-clock field and leave in
//! grid order (see [`sweep`](crate::sweep)), so a sweep's telemetry
//! file is byte-identical across repeated runs and thread counts.

/// `hits / (hits + misses)`, or `0.0` with no accesses.
pub fn hit_rate(hits: u64, misses: u64) -> f64 {
    let total = hits + misses;
    if total == 0 {
        0.0
    } else {
        hits as f64 / total as f64
    }
}

/// FNV-1a over a byte string — the stable hash behind every telemetry
/// line's `config_hash`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_rate_handles_zero_accesses() {
        assert_eq!(hit_rate(0, 0), 0.0);
        assert_eq!(hit_rate(3, 1), 0.75);
    }

    #[test]
    fn config_hash_is_stable() {
        assert_eq!(fnv1a(b"abc"), fnv1a(b"abc"));
        assert_ne!(fnv1a(b"abc"), fnv1a(b"abd"));
        // FNV-1a known answer for the empty string.
        assert_eq!(fnv1a(b""), 0xCBF2_9CE4_8422_2325);
    }
}
