//! Simulator configuration.
//!
//! [`SimConfig::paper_baseline`] reproduces Table 1 of the paper: a
//! Fermi-like GPU (15 SMs @ 1.4 GHz, 16 kB L1 per SM, memory-side 128 kB
//! L2 per DRAM channel with 128 MSHRs per slice) in front of a
//! heterogeneous memory system (8-channel 200 GB/s GDDR5 GPU-local pool +
//! 4-channel 80 GB/s DDR4 pool one interconnect hop away).

use hmtypes::{Bandwidth, MemKind, LINE_SIZE};

/// Geometry of one set-associative cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub capacity_bytes: usize,
    /// Associativity (ways per set).
    pub ways: usize,
}

impl CacheConfig {
    /// Creates a cache geometry.
    ///
    /// # Panics
    ///
    /// Panics unless capacity is a positive multiple of `ways * LINE_SIZE`
    /// and the resulting set count is a power of two.
    pub fn new(capacity_bytes: usize, ways: usize) -> Self {
        assert!(ways > 0, "cache needs at least one way");
        assert!(
            capacity_bytes > 0 && capacity_bytes.is_multiple_of(ways * LINE_SIZE),
            "capacity must be a positive multiple of ways * line size"
        );
        let sets = capacity_bytes / (ways * LINE_SIZE);
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        CacheConfig {
            capacity_bytes,
            ways,
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.capacity_bytes / (self.ways * LINE_SIZE)
    }

    /// Total lines held.
    pub fn lines(&self) -> usize {
        self.capacity_bytes / LINE_SIZE
    }
}

/// DRAM bank timing parameters, expressed in **SM cycles**.
///
/// Table 1 gives GDDR5 timings in DRAM command clocks
/// (`RCD=RP=12, RC=40, CL=WR=12`); at the simulated 1.4 GHz SM clock and
/// a ~350 MHz DRAM command clock those convert at ×4, which
/// [`DramTiming::paper_gddr5`] applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramTiming {
    /// RAS-to-CAS delay (activate → column command).
    pub rcd: u64,
    /// Row precharge time.
    pub rp: u64,
    /// CAS latency (column command → first data).
    pub cl: u64,
    /// Write recovery time.
    pub wr: u64,
    /// Row cycle time (activate → next activate, same bank).
    pub rc: u64,
}

impl DramTiming {
    /// Table 1 timings (DRAM clocks ×4 → SM cycles).
    pub const fn paper_gddr5() -> Self {
        DramTiming {
            rcd: 48,
            rp: 48,
            cl: 48,
            wr: 48,
            rc: 160,
        }
    }

    /// Latency of a row-buffer hit (CAS only).
    pub const fn hit_latency(&self) -> u64 {
        self.cl
    }

    /// Latency of a row-buffer miss (precharge + activate + CAS).
    pub const fn miss_latency(&self) -> u64 {
        self.rp + self.rcd + self.cl
    }
}

/// One memory pool: a set of DRAM channels of a given [`MemKind`] at a
/// given distance from the GPU.
#[derive(Debug, Clone, PartialEq)]
pub struct PoolConfig {
    /// Human-readable name (e.g. `"GDDR5"`).
    pub name: String,
    /// Memory technology class.
    pub kind: MemKind,
    /// Number of independent DRAM channels.
    pub channels: u32,
    /// Aggregate pool bandwidth (split evenly across channels).
    pub bandwidth: Bandwidth,
    /// Extra interconnect latency from the GPU, in SM cycles, applied on
    /// the request path (Table 1: 100 cycles to the CPU-attached pool).
    pub extra_latency: u64,
    /// Bank timing.
    pub timing: DramTiming,
    /// Banks per channel.
    pub banks_per_channel: u32,
    /// DRAM access energy in picojoules per bit (paper §2.1: GDDR5
    /// needs significantly more energy per access than DDR4/LPDDR4;
    /// die-stacked memories less still).
    pub pj_per_bit: f64,
}

impl PoolConfig {
    /// Per-channel bandwidth in bytes per SM cycle at `sm_clock_ghz`.
    pub fn channel_bytes_per_cycle(&self, sm_clock_ghz: f64) -> f64 {
        self.bandwidth.bytes_per_cycle(sm_clock_ghz) / f64::from(self.channels)
    }

    /// SM cycles one 128 B burst occupies a channel's data bus.
    pub fn burst_cycles(&self, sm_clock_ghz: f64) -> f64 {
        LINE_SIZE as f64 / self.channel_bytes_per_cycle(sm_clock_ghz)
    }
}

/// Full simulator configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Number of streaming multiprocessors.
    pub num_sms: u32,
    /// Hardware warp contexts per SM (programs may use fewer).
    pub max_warps_per_sm: u32,
    /// SM core clock in GHz (all latencies are in SM cycles).
    pub sm_clock_ghz: f64,
    /// Per-SM L1 geometry.
    pub l1: CacheConfig,
    /// L1 hit/lookup latency.
    pub l1_latency: u64,
    /// Per-channel memory-side L2 slice geometry.
    pub l2: CacheConfig,
    /// L2 lookup latency (on top of interconnect).
    pub l2_latency: u64,
    /// MSHR entries per L2 slice (Table 1: 128). Requests arriving at a
    /// slice with no free MSHR are held and admitted as fills complete.
    pub l2_mshrs: usize,
    /// Baseline GPU-to-L2 interconnect latency (SM cycles, both ways
    /// combined), before any per-pool extra latency.
    pub base_mem_latency: u64,
    /// The memory pools; index is the pool id used in address placement.
    pub pools: Vec<PoolConfig>,
    /// Safety valve: abort the simulation after this many cycles.
    pub max_cycles: u64,
}

impl SimConfig {
    /// The paper's simulated system (Table 1).
    pub fn paper_baseline() -> Self {
        SimConfig {
            num_sms: 15,
            max_warps_per_sm: 48,
            sm_clock_ghz: 1.4,
            l1: CacheConfig::new(16 * 1024, 4),
            l1_latency: 4,
            l2: CacheConfig::new(128 * 1024, 8),
            l2_latency: 40,
            l2_mshrs: 128,
            base_mem_latency: 60,
            pools: vec![
                PoolConfig {
                    name: "GDDR5".to_string(),
                    kind: MemKind::BandwidthOptimized,
                    channels: 8,
                    bandwidth: Bandwidth::from_gbps(200.0),
                    extra_latency: 0,
                    timing: DramTiming::paper_gddr5(),
                    banks_per_channel: 16,
                    pj_per_bit: 7.0,
                },
                PoolConfig {
                    name: "DDR4".to_string(),
                    kind: MemKind::CapacityOptimized,
                    channels: 4,
                    bandwidth: Bandwidth::from_gbps(80.0),
                    extra_latency: 100,
                    timing: DramTiming::paper_gddr5(),
                    banks_per_channel: 16,
                    pj_per_bit: 4.5,
                },
            ],
            max_cycles: 2_000_000_000,
        }
    }

    /// Returns a copy with the BO pool's bandwidth scaled by `factor`
    /// (the Fig. 2a sweep).
    pub fn with_bo_bandwidth_scaled(mut self, factor: f64) -> Self {
        for p in &mut self.pools {
            if p.kind == MemKind::BandwidthOptimized {
                p.bandwidth = p.bandwidth.scaled(factor);
            }
        }
        self
    }

    /// Returns a copy with `extra` cycles added to every pool's latency
    /// (the Fig. 2b sweep).
    pub fn with_extra_latency(mut self, extra: u64) -> Self {
        for p in &mut self.pools {
            p.extra_latency += extra;
        }
        self
    }

    /// Returns a copy with the CO pool set to `bw` (the Fig. 5 sweep).
    /// A zero bandwidth models an absent pool.
    pub fn with_co_bandwidth(mut self, bw: Bandwidth) -> Self {
        for p in &mut self.pools {
            if p.kind == MemKind::CapacityOptimized {
                p.bandwidth = bw;
            }
        }
        self
    }

    /// Aggregate bandwidth over all pools.
    pub fn total_bandwidth(&self) -> Bandwidth {
        self.pools.iter().map(|p| p.bandwidth).sum()
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics on a config that cannot be simulated (no SMs, no pools,
    /// a pool with no channels, no banks or more than
    /// [`MAX_BANKS`](crate::dram::MAX_BANKS) banks per channel, or zero
    /// warps).
    pub fn validate(&self) {
        assert!(self.num_sms > 0, "need at least one SM");
        assert!(self.max_warps_per_sm > 0, "need at least one warp per SM");
        assert!(!self.pools.is_empty(), "need at least one memory pool");
        assert!(self.sm_clock_ghz > 0.0, "SM clock must be positive");
        for p in &self.pools {
            assert!(p.channels > 0, "pool {} has no channels", p.name);
            assert!(p.banks_per_channel > 0, "pool {} has no banks", p.name);
            assert!(
                p.banks_per_channel <= crate::dram::MAX_BANKS,
                "pool {} has {} banks per channel; the DRAM scheduler supports at most {}",
                p.name,
                p.banks_per_channel,
                crate::dram::MAX_BANKS
            );
        }
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig::paper_baseline()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_baseline_matches_table_1() {
        let cfg = SimConfig::paper_baseline();
        cfg.validate();
        assert_eq!(cfg.num_sms, 15);
        assert_eq!(cfg.l1.capacity_bytes, 16 * 1024);
        assert_eq!(cfg.l2.capacity_bytes, 128 * 1024);
        assert_eq!(cfg.l2_mshrs, 128);
        assert_eq!(cfg.pools.len(), 2);
        assert_eq!(cfg.pools[0].channels, 8);
        assert_eq!(cfg.pools[0].bandwidth.gbps(), 200.0);
        assert_eq!(cfg.pools[1].channels, 4);
        assert_eq!(cfg.pools[1].bandwidth.gbps(), 80.0);
        assert_eq!(cfg.pools[1].extra_latency, 100);
        assert_eq!(cfg.total_bandwidth().gbps(), 280.0);
    }

    #[test]
    fn validate_accepts_the_widest_bank_mask() {
        let mut cfg = SimConfig::paper_baseline();
        cfg.pools[0].banks_per_channel = crate::dram::MAX_BANKS;
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "has 65 banks per channel; the DRAM scheduler supports at most 64")]
    fn validate_rejects_more_banks_than_the_stale_mask_holds() {
        let mut cfg = SimConfig::paper_baseline();
        cfg.pools[1].banks_per_channel = 65;
        cfg.validate();
    }

    #[test]
    fn cache_geometry() {
        let l1 = CacheConfig::new(16 * 1024, 4);
        assert_eq!(l1.sets(), 32);
        assert_eq!(l1.lines(), 128);
        let l2 = CacheConfig::new(128 * 1024, 8);
        assert_eq!(l2.sets(), 128);
        assert_eq!(l2.lines(), 1024);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn cache_rejects_non_pow2_sets() {
        let _ = CacheConfig::new(3 * 128 * 4, 4);
    }

    #[test]
    fn burst_cycles_match_channel_bandwidth() {
        let cfg = SimConfig::paper_baseline();
        // GDDR5: 25 GB/s per channel at 1.4 GHz -> 17.86 B/cyc -> 7.17 cyc per 128 B.
        let burst = cfg.pools[0].burst_cycles(cfg.sm_clock_ghz);
        assert!((burst - 7.168).abs() < 1e-2, "got {burst}");
        // DDR4: 20 GB/s per channel -> 8.96 cyc.
        let burst = cfg.pools[1].burst_cycles(cfg.sm_clock_ghz);
        assert!((burst - 8.96).abs() < 1e-2, "got {burst}");
    }

    #[test]
    fn scaling_helpers() {
        let cfg = SimConfig::paper_baseline().with_bo_bandwidth_scaled(2.0);
        assert_eq!(cfg.pools[0].bandwidth.gbps(), 400.0);
        assert_eq!(cfg.pools[1].bandwidth.gbps(), 80.0);

        let cfg = SimConfig::paper_baseline().with_extra_latency(200);
        assert_eq!(cfg.pools[0].extra_latency, 200);
        assert_eq!(cfg.pools[1].extra_latency, 300);

        let cfg = SimConfig::paper_baseline().with_co_bandwidth(Bandwidth::from_gbps(160.0));
        assert_eq!(cfg.pools[1].bandwidth.gbps(), 160.0);
    }

    #[test]
    fn dram_timing_latencies() {
        let t = DramTiming::paper_gddr5();
        assert_eq!(t.hit_latency(), 48);
        assert_eq!(t.miss_latency(), 144);
        assert!(t.rc >= t.rcd + t.rp, "row cycle covers activate+precharge");
    }
}
