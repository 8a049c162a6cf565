//! Run telemetry: per-run JSONL records and the end-of-sweep summary.
//!
//! Each simulated run produces one [`RunRecord`] — workload, config
//! label, a stable config hash, cycles, per-pool traffic, achieved
//! bandwidth, cache hit rates, and energy. Records serialize to JSON
//! Lines through the in-tree [`json`](crate::json) writer, so a sweep's
//! telemetry file is **byte-identical** across repeated runs and across
//! thread counts (results are collected in grid order; see
//! [`sweep`](crate::sweep)). Observed runs add `"interval"` lines to the
//! same file, one per sampling window; `hetmem::grid` renders those
//! straight from the simulator's interval reports (this crate knows no
//! simulator types), sharing [`hit_rate`] and the [`fnv1a`] config
//! hash. The leading `"record"` field (`"run"` vs `"interval"`) tells
//! the two apart.
//!
//! Wall-clock time is the one nondeterministic field: it is carried on
//! the record for progress/summary display but **excluded from the
//! JSONL by default** (`include_timing` opts it in for ad-hoc
//! profiling, forfeiting byte-identity).

use std::collections::HashMap;

use crate::json::{array, JsonObject};

/// Per-pool traffic telemetry for one run.
#[derive(Debug, Clone, PartialEq)]
pub struct PoolTelemetry {
    /// Pool name (e.g. `GDDR5`).
    pub name: String,
    /// Bytes read from DRAM in this pool.
    pub bytes_read: u64,
    /// Bytes written to DRAM in this pool.
    pub bytes_written: u64,
    /// Achieved bandwidth over the run for this pool, GB/s.
    pub achieved_gbps: f64,
    /// DRAM row-buffer hit rate over the run, in `[0.0, 1.0]`.
    pub row_hit_rate: f64,
}

/// One run of one `(workload, config)` grid point.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// The sweep this run belongs to (e.g. `fig3`).
    pub sweep: String,
    /// Workload name.
    pub workload: String,
    /// Configuration label within the sweep (e.g. `30C-70B`).
    pub config: String,
    /// FNV-1a hash over the canonical configuration description; two
    /// records with equal hashes ran the same machine + placement.
    pub config_hash: u64,
    /// Simulated cycles.
    pub cycles: u64,
    /// Whether the run finished within the cycle limit.
    pub completed: bool,
    /// Warp memory operations issued.
    pub mem_ops: u64,
    /// Aggregate achieved DRAM bandwidth, GB/s.
    pub achieved_gbps: f64,
    /// L1 hit rate over the run, in `[0.0, 1.0]`.
    pub l1_hit_rate: f64,
    /// L2 hit rate over the run, in `[0.0, 1.0]`.
    pub l2_hit_rate: f64,
    /// Reads held at L2 slices on MSHR exhaustion.
    pub mshr_stalls: u64,
    /// Total DRAM access energy across pools, joules.
    pub energy_joules: f64,
    /// Per-pool traffic.
    pub pools: Vec<PoolTelemetry>,
    /// Online migration counters — present (and serialized) only for
    /// runs driven by the `MIGRATE` policy.
    pub migration: Option<MigrationTelemetry>,
    /// Fast-forward extrapolation block — present (and serialized) only
    /// for `fidelity: sampled` runs, so full-fidelity record bytes are
    /// unchanged.
    pub estimated: Option<EstimateTelemetry>,
    /// Host wall-clock for the point, milliseconds (nondeterministic;
    /// not serialized unless asked).
    pub wall_ms: Option<f64>,
}

/// What a sampled fast-forward run extrapolated (mirrors
/// `gpusim::EstimateReport`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EstimateTelemetry {
    /// Windows simulated at full fidelity (including warm-up).
    pub windows_detail: u64,
    /// Windows drained and extrapolated.
    pub windows_extrapolated: u64,
    /// Warp operations simulated in detail.
    pub ops_simulated: u64,
    /// Warp operations drained and extrapolated.
    pub ops_extrapolated: u64,
    /// Cycles actually simulated (the concatenated detail timeline).
    pub cycles_measured: u64,
    /// Cycles added by the extrapolation model.
    pub cycles_extrapolated: u64,
    /// Model self-confidence in `[0, 1]`.
    pub confidence: f64,
}

/// What the online migration engine did during one `MIGRATE` run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MigrationTelemetry {
    /// Total pages physically moved (promoted + demoted + evicted).
    pub pages_migrated: u64,
    /// Pages promoted into the bandwidth-optimized pool.
    pub pages_promoted: u64,
    /// Pages demoted by the cold threshold.
    pub pages_demoted: u64,
    /// Pages evicted to make room for promotions.
    pub pages_evicted: u64,
    /// Epoch boundaries processed.
    pub epochs: u64,
    /// Bytes of page-copy traffic charged to DRAM.
    pub copy_bytes: u64,
    /// Cycles accesses stalled on freshly rewritten mappings.
    pub remap_stall_cycles: u64,
}

impl RunRecord {
    /// Serializes the record as one JSON line (no trailing newline).
    /// `include_timing` adds the nondeterministic `wall_ms` field.
    pub fn jsonl(&self, include_timing: bool) -> String {
        let pools = array(self.pools.iter().map(|p| {
            JsonObject::new()
                .str("name", &p.name)
                .u64("bytes_read", p.bytes_read)
                .u64("bytes_written", p.bytes_written)
                .f64("achieved_gbps", p.achieved_gbps)
                .f64("row_hit_rate", p.row_hit_rate)
                .finish()
        }));
        let mut obj = JsonObject::new()
            .str("record", "run")
            .str("sweep", &self.sweep)
            .str("workload", &self.workload)
            .str("config", &self.config)
            .str("config_hash", &format!("{:016x}", self.config_hash))
            .u64("cycles", self.cycles)
            .bool("completed", self.completed)
            .u64("mem_ops", self.mem_ops)
            .f64("achieved_gbps", self.achieved_gbps)
            .f64("l1_hit_rate", self.l1_hit_rate)
            .f64("l2_hit_rate", self.l2_hit_rate)
            .u64("mshr_stalls", self.mshr_stalls)
            .f64("energy_joules", self.energy_joules)
            .raw("pools", &pools);
        if let Some(m) = &self.migration {
            let mig = JsonObject::new()
                .u64("pages_migrated", m.pages_migrated)
                .u64("pages_promoted", m.pages_promoted)
                .u64("pages_demoted", m.pages_demoted)
                .u64("pages_evicted", m.pages_evicted)
                .u64("epochs", m.epochs)
                .u64("copy_bytes", m.copy_bytes)
                .u64("remap_stall_cycles", m.remap_stall_cycles)
                .finish();
            obj = obj.raw("migration", &mig);
        }
        if let Some(e) = &self.estimated {
            let est = JsonObject::new()
                .u64("windows_detail", e.windows_detail)
                .u64("windows_extrapolated", e.windows_extrapolated)
                .u64("ops_simulated", e.ops_simulated)
                .u64("ops_extrapolated", e.ops_extrapolated)
                .u64("cycles_measured", e.cycles_measured)
                .u64("cycles_extrapolated", e.cycles_extrapolated)
                .f64("confidence", e.confidence)
                .finish();
            obj = obj.raw("estimated", &est);
        }
        if include_timing {
            if let Some(ms) = self.wall_ms {
                obj = obj.f64("wall_ms", ms);
            }
        }
        obj.finish()
    }
}

/// `hits / (hits + misses)`, or `0.0` with no accesses.
pub fn hit_rate(hits: u64, misses: u64) -> f64 {
    let total = hits + misses;
    if total == 0 {
        0.0
    } else {
        hits as f64 / total as f64
    }
}

/// FNV-1a over a byte string — the stable hash behind
/// [`RunRecord::config_hash`].
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Formats the end-of-sweep summary table: per-config run counts, cycle
/// totals, and aggregate achieved bandwidth, plus a grand total line.
pub fn summary(records: &[RunRecord]) -> String {
    use std::fmt::Write;

    let mut out = String::new();
    if records.is_empty() {
        out.push_str("sweep summary: no runs recorded\n");
        return out;
    }
    // Group by (sweep, config) preserving first-appearance order; the
    // HashMap indexes into the ordered Vec so grouping stays linear in
    // the record count.
    let mut groups: Vec<(String, u64, u64, f64)> = Vec::new();
    let mut index: HashMap<String, usize> = HashMap::new();
    for r in records {
        let key = format!("{}/{}", r.sweep, r.config);
        match index.get(&key) {
            Some(&i) => {
                let (_, n, cycles, gbps) = &mut groups[i];
                *n += 1;
                *cycles += r.cycles;
                *gbps += r.achieved_gbps;
            }
            None => {
                index.insert(key.clone(), groups.len());
                groups.push((key, 1, r.cycles, r.achieved_gbps));
            }
        }
    }
    let _ = writeln!(
        out,
        "{:<34}{:>6}{:>16}{:>14}",
        "sweep/config", "runs", "total kcycles", "mean GB/s"
    );
    for (key, n, cycles, gbps) in &groups {
        let _ = writeln!(
            out,
            "{:<34}{:>6}{:>16.1}{:>14.2}",
            key,
            n,
            *cycles as f64 / 1e3,
            gbps / *n as f64
        );
    }
    let total_runs = records.len();
    let total_cycles: u64 = records.iter().map(|r| r.cycles).sum();
    let wall: f64 = records.iter().filter_map(|r| r.wall_ms).sum();
    let _ = writeln!(
        out,
        "total: {total_runs} runs, {:.1} Mcycles simulated{}",
        total_cycles as f64 / 1e6,
        if wall > 0.0 {
            format!(", {:.2}s wall", wall / 1e3)
        } else {
            String::new()
        }
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(config: &str, cycles: u64) -> RunRecord {
        RunRecord {
            sweep: "fig3".into(),
            workload: "bfs".into(),
            config: config.into(),
            config_hash: fnv1a(config.as_bytes()),
            cycles,
            completed: true,
            mem_ops: 100,
            achieved_gbps: 12.5,
            l1_hit_rate: 0.5,
            l2_hit_rate: 0.25,
            mshr_stalls: 3,
            energy_joules: 1e-6,
            pools: vec![PoolTelemetry {
                name: "GDDR5".into(),
                bytes_read: 4096,
                bytes_written: 1024,
                achieved_gbps: 10.0,
                row_hit_rate: 0.75,
            }],
            migration: None,
            estimated: None,
            wall_ms: Some(3.25),
        }
    }

    #[test]
    fn jsonl_is_deterministic_and_excludes_timing_by_default() {
        let r = record("30C-70B", 1000);
        let line = r.jsonl(false);
        assert_eq!(line, r.clone().jsonl(false));
        assert!(!line.contains("wall_ms"));
        assert!(line.starts_with(r#"{"record":"run","sweep":"fig3","workload":"bfs""#));
        assert!(line.contains(r#""completed":true"#));
        assert!(line.contains(r#""l1_hit_rate":0.5"#));
        assert!(line.contains(r#""mshr_stalls":3"#));
        assert!(line.contains(r#""pools":[{"name":"GDDR5""#));
        assert!(line.contains(r#""row_hit_rate":0.75"#));
        assert!(r.jsonl(true).contains(r#""wall_ms":3.25"#));
    }

    #[test]
    fn migration_block_serialized_only_when_present() {
        let plain = record("LOCAL", 1000);
        assert!(!plain.jsonl(false).contains("migration"));
        let mut migrated = record("MIGRATE", 1000);
        migrated.migration = Some(MigrationTelemetry {
            pages_migrated: 6,
            pages_promoted: 4,
            pages_demoted: 1,
            pages_evicted: 1,
            epochs: 3,
            copy_bytes: 49152,
            remap_stall_cycles: 8400,
        });
        let line = migrated.jsonl(false);
        assert!(line.contains(r#""migration":{"pages_migrated":6,"pages_promoted":4"#));
        assert!(line.contains(r#""epochs":3"#));
        // The block sits between the pools array and end of record.
        assert!(line.find("pools").unwrap() < line.find("migration").unwrap());
    }

    #[test]
    fn estimated_block_serialized_only_when_present() {
        let plain = record("LOCAL", 1000);
        assert!(!plain.jsonl(false).contains("estimated"));
        let mut sampled = record("LOCAL", 1000);
        sampled.estimated = Some(EstimateTelemetry {
            windows_detail: 14,
            windows_extrapolated: 378,
            ops_simulated: 14_336,
            ops_extrapolated: 387_072,
            cycles_measured: 9_000,
            cycles_extrapolated: 240_000,
            confidence: 0.93,
        });
        let line = sampled.jsonl(false);
        assert!(line.contains(r#""estimated":{"windows_detail":14,"windows_extrapolated":378"#));
        assert!(line.contains(r#""confidence":0.93"#));
        // The block sits after the pools array, like migration.
        assert!(line.find("pools").unwrap() < line.find("estimated").unwrap());
    }

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

    #[test]
    fn summary_groups_by_config() {
        let records = vec![
            record("LOCAL", 1000),
            record("LOCAL", 2000),
            record("30C-70B", 1500),
        ];
        let s = summary(&records);
        assert!(s.contains("fig3/LOCAL"), "{s}");
        assert!(s.contains("fig3/30C-70B"), "{s}");
        assert!(s.contains("total: 3 runs"), "{s}");
    }

    #[test]
    fn summary_of_nothing() {
        assert!(summary(&[]).contains("no runs"));
    }
}
