//! NUMA topology: zones and their attributes.
//!
//! A topology describes what the OS learns at boot: which memory zones
//! exist, how big they are, what kind of memory backs them ([`MemKind`]),
//! and their latency and bandwidth as seen from the GPU. Linux reads the
//! latencies from the ACPI SLIT; the paper's key OS observation (§3.1) is
//! that GPUs also need each zone's *bandwidth*, which it proposes to
//! expose through a new System Bandwidth Information Table (SBIT). Here
//! each [`ZoneSpec`] carries both, so the zone list is the SLIT and the
//! SBIT: [`NumaTopology::zonelist`] is the SLIT's fallback order and
//! [`NumaTopology::bw_weights_per_mille`] the SBIT's placement split.

use core::fmt;

use hmtypes::{Bandwidth, MemKind, PAGE_SIZE};

/// Identifies a NUMA zone (index into the topology's zone list).
///
/// # Examples
///
/// ```
/// use mempolicy::ZoneId;
/// let z = ZoneId::new(1);
/// assert_eq!(z.index(), 1);
/// assert_eq!(z.to_string(), "zone1");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ZoneId(usize);

impl ZoneId {
    /// Creates a zone id from its index.
    pub const fn new(index: usize) -> Self {
        ZoneId(index)
    }

    /// The zero-based index of this zone.
    pub const fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for ZoneId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "zone{}", self.0)
    }
}

/// Static description of one NUMA zone.
#[derive(Debug, Clone, PartialEq)]
pub struct ZoneSpec {
    /// Human-readable name (e.g. `"GPU-GDDR5"`).
    pub name: String,
    /// Memory technology class of this zone.
    pub kind: MemKind,
    /// Capacity in 4 kB pages.
    pub capacity_pages: u64,
    /// Aggregate bandwidth of the zone's channels.
    pub bandwidth: Bandwidth,
    /// Extra access latency from the GPU, in GPU core cycles.
    pub extra_latency_cycles: u64,
}

impl ZoneSpec {
    /// Creates a zone spec.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_pages` is zero.
    pub fn new(
        name: impl Into<String>,
        kind: MemKind,
        capacity_pages: u64,
        bandwidth: Bandwidth,
        extra_latency_cycles: u64,
    ) -> Self {
        assert!(capacity_pages > 0, "zone capacity must be positive");
        ZoneSpec {
            name: name.into(),
            kind,
            capacity_pages,
            bandwidth,
            extra_latency_cycles,
        }
    }

    /// Capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.capacity_pages * PAGE_SIZE as u64
    }
}

/// The machine's memory topology: an ordered list of zones, each with
/// its SLIT latency and SBIT bandwidth.
///
/// # Examples
///
/// ```
/// use hmtypes::{Bandwidth, MemKind};
/// use mempolicy::{NumaTopology, ZoneId, ZoneSpec};
///
/// let topo = NumaTopology::builder()
///     .zone(ZoneSpec::new("HBM", MemKind::BandwidthOptimized, 1024,
///                         Bandwidth::from_gbps(1000.0), 0))
///     .zone(ZoneSpec::new("DDR4", MemKind::CapacityOptimized, 65536,
///                         Bandwidth::from_gbps(80.0), 100))
///     .build();
/// assert_eq!(topo.num_zones(), 2);
/// assert_eq!(topo.local_zone(), ZoneId::new(0));
/// assert_eq!(topo.bw_weights_per_mille(), vec![926, 74]);
/// assert!((topo.bw_ratio() - 12.5).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct NumaTopology {
    zones: Vec<ZoneSpec>,
}

impl NumaTopology {
    /// Starts building a topology.
    pub fn builder() -> TopologyBuilder {
        TopologyBuilder { zones: Vec::new() }
    }

    /// The paper's baseline two-zone system (Table 1): zone 0 is GPU-local
    /// 200 GB/s GDDR5 (BO), zone 1 is 80 GB/s DDR4 one interconnect hop
    /// (+100 GPU cycles) away (CO). Capacities are caller-chosen so
    /// experiments can impose capacity constraints.
    pub fn paper_baseline(bo_pages: u64, co_pages: u64) -> Self {
        NumaTopology::builder()
            .zone(ZoneSpec::new(
                "GPU-GDDR5",
                MemKind::BandwidthOptimized,
                bo_pages,
                Bandwidth::from_gbps(200.0),
                0,
            ))
            .zone(ZoneSpec::new(
                "CPU-DDR4",
                MemKind::CapacityOptimized,
                co_pages,
                Bandwidth::from_gbps(80.0),
                100,
            ))
            .build()
    }

    /// The zones, in id order.
    pub fn zones(&self) -> &[ZoneSpec] {
        &self.zones
    }

    /// The spec for `zone`, or `None` if out of range.
    pub fn zone(&self, zone: ZoneId) -> Option<&ZoneSpec> {
        self.zones.get(zone.index())
    }

    /// Number of zones.
    pub fn num_zones(&self) -> usize {
        self.zones.len()
    }

    /// All zone ids, in order.
    pub fn zone_ids(&self) -> impl Iterator<Item = ZoneId> + '_ {
        (0..self.zones.len()).map(ZoneId::new)
    }

    /// Zone ids sorted by increasing extra latency, ties by id: the
    /// zonelist fallback order Linux builds from the SLIT.
    pub fn zonelist(&self) -> Vec<ZoneId> {
        let mut ids: Vec<ZoneId> = self.zone_ids().collect();
        ids.sort_by_key(|&z| (self.zones[z.index()].extra_latency_cycles, z));
        ids
    }

    /// The GPU-local zone (lowest latency — what `LOCAL` allocates from).
    pub fn local_zone(&self) -> ZoneId {
        self.zonelist()[0]
    }

    /// `MPOL_BWAWARE`'s per-zone placement weights in per-mille, read
    /// from the SBIT bandwidths and index-aligned with the zone ids: each
    /// zone's share of total bandwidth (paper §3.1: `fB = bB / (bB + bC)`,
    /// generalized to N zones), spread evenly when the total is zero.
    ///
    /// The largest-remainder method makes the weights sum to exactly 1000
    /// whatever the rounding, as the allocation fast path's integer draw
    /// needs.
    pub fn bw_weights_per_mille(&self) -> Vec<u32> {
        let total = self.total_bandwidth().bytes_per_sec();
        let exact: Vec<f64> = self
            .zones
            .iter()
            .map(|z| {
                if total == 0.0 {
                    1000.0 / self.zones.len() as f64
                } else {
                    z.bandwidth.bytes_per_sec() / total * 1000.0
                }
            })
            .collect();
        let mut w: Vec<u32> = exact.iter().map(|&e| e.floor() as u32).collect();
        let assigned: u32 = w.iter().sum();
        let mut order: Vec<usize> = (0..w.len()).collect();
        order.sort_by(|&a, &b| {
            let fa = exact[a] - exact[a].floor();
            let fb = exact[b] - exact[b].floor();
            fb.partial_cmp(&fa).unwrap().then(a.cmp(&b))
        });
        for &i in order.iter().take((1000 - assigned) as usize) {
            w[i] += 1;
        }
        w
    }

    /// Zones of the given kind, in id order.
    pub fn zones_of_kind(&self, kind: MemKind) -> Vec<ZoneId> {
        self.zone_ids()
            .filter(|z| self.zones[z.index()].kind == kind)
            .collect()
    }

    /// First zone of `kind`, if any. Convenient for two-zone systems.
    pub fn zone_of_kind(&self, kind: MemKind) -> Option<ZoneId> {
        self.zones_of_kind(kind).first().copied()
    }

    /// Aggregate bandwidth across all zones.
    pub fn total_bandwidth(&self) -> Bandwidth {
        self.zones.iter().map(|z| z.bandwidth).sum()
    }

    /// The paper's Fig. 1 *BW-Ratio*: BO bandwidth over CO bandwidth.
    ///
    /// Returns `f64::INFINITY` when there is no CO bandwidth.
    pub fn bw_ratio(&self) -> f64 {
        let bo: Bandwidth = self
            .zones
            .iter()
            .filter(|z| z.kind == MemKind::BandwidthOptimized)
            .map(|z| z.bandwidth)
            .sum();
        let co: Bandwidth = self
            .zones
            .iter()
            .filter(|z| z.kind == MemKind::CapacityOptimized)
            .map(|z| z.bandwidth)
            .sum();
        bo.ratio_to(co)
    }

    /// Total capacity in pages across all zones.
    pub fn total_pages(&self) -> u64 {
        self.zones.iter().map(|z| z.capacity_pages).sum()
    }
}

impl fmt::Display for NumaTopology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "NUMA topology ({} zones):", self.zones.len())?;
        for (i, z) in self.zones.iter().enumerate() {
            writeln!(
                f,
                "  zone{}: {:10} {} {:>8} pages {:>12} +{}cyc",
                i,
                z.name,
                z.kind,
                z.capacity_pages,
                z.bandwidth.to_string(),
                z.extra_latency_cycles
            )?;
        }
        Ok(())
    }
}

/// Incrementally builds a [`NumaTopology`]; see [`NumaTopology::builder`].
#[derive(Debug, Default)]
pub struct TopologyBuilder {
    zones: Vec<ZoneSpec>,
}

impl TopologyBuilder {
    /// Appends a zone; its id is its position in insertion order.
    pub fn zone(mut self, spec: ZoneSpec) -> Self {
        self.zones.push(spec);
        self
    }

    /// Finalizes the topology.
    ///
    /// # Panics
    ///
    /// Panics if no zones were added.
    pub fn build(self) -> NumaTopology {
        assert!(!self.zones.is_empty(), "topology needs at least one zone");
        NumaTopology { zones: self.zones }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_baseline_matches_table_1() {
        let topo = NumaTopology::paper_baseline(100, 200);
        assert_eq!(topo.num_zones(), 2);
        let bo = topo.zone(ZoneId::new(0)).unwrap();
        let co = topo.zone(ZoneId::new(1)).unwrap();
        assert_eq!(bo.kind, MemKind::BandwidthOptimized);
        assert_eq!(co.kind, MemKind::CapacityOptimized);
        assert_eq!(bo.bandwidth.gbps(), 200.0);
        assert_eq!(co.bandwidth.gbps(), 80.0);
        assert_eq!(co.extra_latency_cycles, 100);
        assert!((topo.bw_ratio() - 2.5).abs() < 1e-12);
        assert_eq!(topo.local_zone(), ZoneId::new(0));
    }

    #[test]
    fn zones_of_kind_filters() {
        let topo = NumaTopology::paper_baseline(1, 1);
        assert_eq!(
            topo.zones_of_kind(MemKind::BandwidthOptimized),
            vec![ZoneId::new(0)]
        );
        assert_eq!(
            topo.zone_of_kind(MemKind::CapacityOptimized),
            Some(ZoneId::new(1))
        );
    }

    #[test]
    fn total_bandwidth_and_pages() {
        let topo = NumaTopology::paper_baseline(10, 30);
        assert_eq!(topo.total_bandwidth().gbps(), 280.0);
        assert_eq!(topo.total_pages(), 40);
    }

    /// One single-page zone per `(extra latency, GB/s)` pair.
    fn topo_of(zones: &[(u64, f64)]) -> NumaTopology {
        zones
            .iter()
            .fold(NumaTopology::builder(), |b, &(lat, gbps)| {
                b.zone(ZoneSpec::new(
                    "z",
                    MemKind::BandwidthOptimized,
                    1,
                    Bandwidth::from_gbps(gbps),
                    lat,
                ))
            })
            .build()
    }

    #[test]
    fn zonelist_is_in_latency_order() {
        let topo = topo_of(&[(100, 1.0), (0, 1.0), (250, 1.0)]);
        assert_eq!(
            topo.zonelist(),
            vec![ZoneId::new(1), ZoneId::new(0), ZoneId::new(2)]
        );
        assert_eq!(topo.local_zone(), ZoneId::new(1));
    }

    #[test]
    fn latency_ties_break_by_zone_id() {
        let topo = topo_of(&[(50, 1.0), (0, 1.0), (50, 1.0), (0, 1.0)]);
        assert_eq!(
            topo.zonelist(),
            vec![
                ZoneId::new(1),
                ZoneId::new(3),
                ZoneId::new(0),
                ZoneId::new(2)
            ]
        );
        assert_eq!(topo.local_zone(), ZoneId::new(1));
    }

    #[test]
    fn paper_bw_weights_split_714_286() {
        // 200/280 = 714.28... -> 714, 80/280 = 285.7 -> 286.
        let w = NumaTopology::paper_baseline(1, 1).bw_weights_per_mille();
        assert_eq!(w, vec![714, 286]);
        assert_eq!(w.iter().sum::<u32>(), 1000);
    }

    #[test]
    fn zero_total_bandwidth_spreads_evenly() {
        let w = topo_of(&[(0, 0.0); 3]).bw_weights_per_mille();
        assert_eq!(w, vec![334, 333, 333]);
        assert_eq!(w.iter().sum::<u32>(), 1000);
    }

    #[test]
    fn display_lists_zones() {
        let s = NumaTopology::paper_baseline(1, 1).to_string();
        assert!(s.contains("GPU-GDDR5"));
        assert!(s.contains("CPU-DDR4"));
    }

    #[test]
    #[should_panic(expected = "at least one zone")]
    fn empty_topology_panics() {
        let _ = NumaTopology::builder().build();
    }

    #[test]
    fn capacity_bytes() {
        let z = ZoneSpec::new(
            "x",
            MemKind::BandwidthOptimized,
            2,
            Bandwidth::from_gbps(1.0),
            0,
        );
        assert_eq!(z.capacity_bytes(), 8192);
    }
}
