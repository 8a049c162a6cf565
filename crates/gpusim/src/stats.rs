//! Simulation results.

use hmtypes::{Bandwidth, MemKind, PageMap};

/// Per-pool traffic and timing summary.
#[derive(Debug, Clone, PartialEq)]
pub struct PoolReport {
    /// Pool name from the config.
    pub name: String,
    /// Pool kind.
    pub kind: MemKind,
    /// Bytes read from DRAM in this pool.
    pub bytes_read: u64,
    /// Bytes written to DRAM in this pool.
    pub bytes_written: u64,
    /// Row-buffer hit rate across the pool's channels.
    pub row_hit_rate: f64,
    /// Sum of channel data-bus busy cycles.
    pub bus_busy_cycles: f64,
    /// DRAM access energy spent in this pool, in joules.
    pub energy_joules: f64,
}

impl PoolReport {
    /// Total DRAM traffic for this pool.
    pub fn bytes_total(&self) -> u64 {
        self.bytes_read + self.bytes_written
    }
}

impl SimReport {
    /// Total DRAM access energy across pools, in joules.
    pub fn dram_energy_joules(&self) -> f64 {
        self.pools.iter().map(|p| p.energy_joules).sum()
    }

    /// Energy-delay product (joules x seconds) at `sm_clock_ghz` — the
    /// combined efficiency metric for placement-policy comparisons.
    pub fn energy_delay_product(&self, sm_clock_ghz: f64) -> f64 {
        self.dram_energy_joules() * (self.cycles as f64 / (sm_clock_ghz * 1e9))
    }
}

/// What the online migration engine did during one run: decision
/// counters plus the DRAM and translation cost the simulator charged
/// for them. Present in [`SimReport::migration`] only when a real
/// [`PageMigrator`](crate::migrate::PageMigrator) was attached.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MigrationReport {
    /// Pages promoted into the bandwidth-optimized zone.
    pub pages_promoted: u64,
    /// Pages demoted by the cold threshold.
    pub pages_demoted: u64,
    /// Pages evicted to make room for promotions.
    pub pages_evicted: u64,
    /// Epoch boundaries processed.
    pub epochs: u64,
    /// Bytes of copy traffic charged to DRAM (reads + writes).
    pub copy_bytes: u64,
    /// DRAM data-bus cycles occupied by copy bursts.
    pub copy_cycles: f64,
    /// Cycles accesses stalled on freshly rewritten mappings.
    pub remap_stall_cycles: u64,
}

impl MigrationReport {
    /// Total pages physically moved.
    pub fn pages_migrated(&self) -> u64 {
        self.pages_promoted + self.pages_demoted + self.pages_evicted
    }
}

/// The result of one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Cycles from start to the last retired event.
    pub cycles: u64,
    /// `false` if the run aborted at the configured cycle limit.
    pub completed: bool,
    /// Warp memory operations issued.
    pub mem_ops: u64,
    /// L1 (hits, misses) summed over SMs.
    pub l1: (u64, u64),
    /// L2 (hits, misses) summed over slices.
    pub l2: (u64, u64),
    /// Requests NACKed because an L2 slice's MSHRs were full.
    pub mshr_stalls: u64,
    /// Number of warps that ran to retirement.
    pub retired_warps: u32,
    /// Per-pool traffic.
    pub pools: Vec<PoolReport>,
    /// DRAM accesses per *virtual* page (paper Fig. 6 counts accesses
    /// "after being filtered by on-chip caches"); pages never accessed
    /// have no entry. Present only when page profiling was enabled.
    pub page_accesses: Option<PageMap<u64>>,
    /// Online migration activity and cost. Present only when a real
    /// migrator drove the run (the `MIGRATE` policy); `None` otherwise.
    pub migration: Option<MigrationReport>,
    /// What a sampled fast-forward run extrapolated. Always present for
    /// [`Fidelity::Sampled`](crate::Fidelity::Sampled) runs and always
    /// `None` for full-fidelity runs, which keeps their serialized
    /// reports byte-identical to the pre-sampling fixtures.
    pub estimated: Option<crate::sampled::EstimateReport>,
}

impl SimReport {
    /// Total DRAM bytes moved across all pools.
    pub fn dram_bytes(&self) -> u64 {
        self.pools.iter().map(PoolReport::bytes_total).sum()
    }

    /// Fraction of DRAM traffic served by pool `idx` (0 when idle).
    pub fn pool_traffic_fraction(&self, idx: usize) -> f64 {
        let total = self.dram_bytes();
        if total == 0 {
            0.0
        } else {
            self.pools[idx].bytes_total() as f64 / total as f64
        }
    }

    /// Achieved aggregate DRAM bandwidth over the run at `sm_clock_ghz`.
    pub fn achieved_bandwidth(&self, sm_clock_ghz: f64) -> Bandwidth {
        if self.cycles == 0 {
            return Bandwidth::ZERO;
        }
        let seconds = self.cycles as f64 / (sm_clock_ghz * 1e9);
        Bandwidth::from_bytes_per_sec(self.dram_bytes() as f64 / seconds)
    }

    /// L1 hit rate in `[0, 1]`.
    pub fn l1_hit_rate(&self) -> f64 {
        ratio(self.l1)
    }

    /// L2 hit rate in `[0, 1]`.
    pub fn l2_hit_rate(&self) -> f64 {
        ratio(self.l2)
    }

    /// Relative performance vs a baseline run of the same work:
    /// `baseline.cycles / self.cycles` (higher is better).
    pub fn speedup_over(&self, baseline: &SimReport) -> f64 {
        baseline.cycles as f64 / self.cycles as f64
    }
}

fn ratio((hits, misses): (u64, u64)) -> f64 {
    let total = hits + misses;
    if total == 0 {
        0.0
    } else {
        hits as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> SimReport {
        SimReport {
            cycles: 1400, // 1 microsecond at 1.4 GHz
            completed: true,
            mem_ops: 100,
            l1: (50, 50),
            l2: (10, 40),
            mshr_stalls: 0,
            retired_warps: 32,
            pools: vec![
                PoolReport {
                    name: "GDDR5".into(),
                    kind: MemKind::BandwidthOptimized,
                    bytes_read: 7000,
                    bytes_written: 0,
                    row_hit_rate: 0.9,
                    bus_busy_cycles: 100.0,
                    energy_joules: 2e-6,
                },
                PoolReport {
                    name: "DDR4".into(),
                    kind: MemKind::CapacityOptimized,
                    bytes_read: 3000,
                    bytes_written: 0,
                    row_hit_rate: 0.8,
                    bus_busy_cycles: 100.0,
                    energy_joules: 1e-6,
                },
            ],
            page_accesses: None,
            migration: None,
            estimated: None,
        }
    }

    #[test]
    fn traffic_fractions() {
        let r = report();
        assert_eq!(r.dram_bytes(), 10_000);
        assert!((r.pool_traffic_fraction(0) - 0.7).abs() < 1e-12);
        assert!((r.pool_traffic_fraction(1) - 0.3).abs() < 1e-12);
    }

    #[test]
    fn achieved_bandwidth_math() {
        let r = report();
        // 10 kB in 1 us = 10 GB/s.
        assert!((r.achieved_bandwidth(1.4).gbps() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn hit_rates() {
        let r = report();
        assert!((r.l1_hit_rate() - 0.5).abs() < 1e-12);
        assert!((r.l2_hit_rate() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn speedup() {
        let fast = SimReport {
            cycles: 700,
            ..report()
        };
        let slow = report();
        assert!((fast.speedup_over(&slow) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn energy_totals_and_edp() {
        let r = report();
        assert!((r.dram_energy_joules() - 3e-6).abs() < 1e-18);
        // 1400 cycles at 1.4 GHz = 1 us -> EDP = 3e-6 * 1e-6.
        assert!((r.energy_delay_product(1.4) - 3e-12).abs() < 1e-20);
    }

    #[test]
    fn zero_cycles_bandwidth_is_zero() {
        let r = SimReport {
            cycles: 0,
            ..report()
        };
        assert_eq!(r.achieved_bandwidth(1.4), Bandwidth::ZERO);
    }
}
