//! BW-AWARE generalizes beyond two pools (paper §3.1: "BW-AWARE
//! placement will generalize to an optimal policy where there are more
//! than two technologies by placing pages in the bandwidth ratio of all
//! memory pools"). This test wires a three-pool machine — on-package
//! HBM, GPU-attached GDDR5, and remote DDR4 — through the full stack.

use std::cell::RefCell;
use std::rc::Rc;

use gpusim::{DramTiming, PoolConfig, SimConfig, Simulator, StreamKernel};
use hetmem::{topology_for, OsTranslator};
use hmtypes::VirtAddr;
use hmtypes::{Bandwidth, MemKind};
use mempolicy::{AddressSpace, Mempolicy, VmaRange};

fn three_pool_sim() -> SimConfig {
    let mut sim = SimConfig::paper_baseline();
    sim.num_sms = 4;
    sim.pools = vec![
        PoolConfig {
            name: "HBM".to_string(),
            kind: MemKind::BandwidthOptimized,
            channels: 8,
            bandwidth: Bandwidth::from_gbps(500.0),
            extra_latency: 0,
            timing: DramTiming::paper_gddr5(),
            banks_per_channel: 16,
            pj_per_bit: 2.5,
        },
        PoolConfig {
            name: "GDDR5".to_string(),
            kind: MemKind::BandwidthOptimized,
            channels: 8,
            bandwidth: Bandwidth::from_gbps(200.0),
            extra_latency: 40,
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
    ];
    sim
}

#[test]
fn sbit_weights_cover_three_pools() {
    let sim = three_pool_sim();
    let topo = topology_for(&sim, &[1024, 1024, 1024]);
    let w = topo.bw_weights_per_mille();
    assert_eq!(w.len(), 3);
    assert_eq!(w.iter().sum::<u32>(), 1000);
    // 500/780, 200/780, 80/780.
    assert!((f64::from(w[0]) / 1000.0 - 500.0 / 780.0).abs() < 0.01);
    assert!((f64::from(w[2]) / 1000.0 - 80.0 / 780.0).abs() < 0.01);
}

#[test]
fn bw_aware_traffic_splits_across_three_pools() {
    let sim = three_pool_sim();
    let pages = 4096u64;
    let topo = topology_for(&sim, &[pages, pages, pages]);
    let mut mm = AddressSpace::new(topo.clone());
    mm.set_mempolicy(Mempolicy::bw_aware_for(&topo));
    let bytes = 8u64 << 20;
    // StreamKernel addresses start at 0: map the range there (MAP_FIXED).
    mm.mmap_fixed(VmaRange::new(VirtAddr::new(0), bytes))
        .unwrap();

    let kernel = StreamKernel::new(&sim, 48, bytes).with_mlp(8);
    let mm = Rc::new(RefCell::new(mm));
    let report = Simulator::new(sim.clone(), OsTranslator::new(Rc::clone(&mm)), kernel).run();

    assert!(report.completed);
    let fractions: Vec<f64> = (0..3).map(|i| report.pool_traffic_fraction(i)).collect();
    let expected = [500.0 / 780.0, 200.0 / 780.0, 80.0 / 780.0];
    for (i, (&got, &want)) in fractions.iter().zip(&expected).enumerate() {
        assert!(
            (got - want).abs() < 0.06,
            "pool {i}: traffic {got:.3} vs expected {want:.3}"
        );
    }
    // The aggregate beats any single pool's bandwidth.
    let achieved = report.achieved_bandwidth(sim.sm_clock_ghz).gbps();
    assert!(
        achieved > 500.0,
        "aggregate bandwidth in use: {achieved:.0} GB/s"
    );
}

#[test]
fn local_uses_only_the_nearest_pool() {
    let sim = three_pool_sim();
    let topo = topology_for(&sim, &[4096, 4096, 4096]);
    let mut mm = AddressSpace::new(topo);
    mm.set_mempolicy(Mempolicy::local());
    let bytes = 4u64 << 20;
    mm.mmap_fixed(VmaRange::new(VirtAddr::new(0), bytes))
        .unwrap();
    let kernel = StreamKernel::new(&sim, 16, bytes);
    let mm = Rc::new(RefCell::new(mm));
    let report = Simulator::new(sim, OsTranslator::new(mm), kernel).run();
    assert!(
        report.pool_traffic_fraction(0) > 0.99,
        "everything from HBM"
    );
    assert_eq!(
        report.pools[1].bytes_total() + report.pools[2].bytes_total(),
        0
    );
}
