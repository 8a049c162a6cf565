//! End-to-end pipeline tests: workload catalog → OS placement → GPU
//! simulation, checking the paper's qualitative claims at small scale.

use gpusim::SimConfig;
use hetmem::runner::{Capacity, Placement, RunBuilder};
use hetmem::topology_for;
use hmtypes::Percent;
use mempolicy::Mempolicy;
use workloads::{catalog, WorkloadSpec};

fn quick_sim() -> SimConfig {
    let mut sim = SimConfig::paper_baseline();
    sim.num_sms = 4;
    sim
}

fn quick(name: &str, ops: u64) -> WorkloadSpec {
    let mut spec = catalog::by_name(name).expect("catalog name");
    spec.mem_ops = ops;
    spec
}

fn run(spec: &WorkloadSpec, sim: &SimConfig, policy: Mempolicy) -> hetmem::WorkloadRun {
    RunBuilder::new(spec, sim)
        .placement(&Placement::Policy(policy))
        .run()
}

#[test]
fn bw_aware_wins_on_bandwidth_bound_workloads() {
    let sim = quick_sim();
    let topo = topology_for(&sim, &[1, 1]);
    for name in ["lbm", "srad", "pathfinder"] {
        let spec = quick(name, 40_000);
        let local = run(&spec, &sim, Mempolicy::local());
        let inter = run(&spec, &sim, Mempolicy::interleave_all(&topo));
        let bwa = run(&spec, &sim, Mempolicy::bw_aware_for(&topo));
        assert!(
            bwa.speedup_over(&local) > 1.03,
            "{name}: BW-AWARE vs LOCAL {}",
            bwa.speedup_over(&local)
        );
        assert!(
            bwa.speedup_over(&inter) > 1.05,
            "{name}: BW-AWARE vs INTERLEAVE {}",
            bwa.speedup_over(&inter)
        );
    }
}

#[test]
fn local_wins_on_the_latency_sensitive_workload() {
    // Paper §3.2.2: sgemm can lose up to ~12% under BW-AWARE because 30%
    // of its accesses pay the remote-hop latency.
    let sim = quick_sim();
    let topo = topology_for(&sim, &[1, 1]);
    let spec = quick("sgemm", 30_000);
    let local = run(&spec, &sim, Mempolicy::local());
    let bwa = run(&spec, &sim, Mempolicy::bw_aware_for(&topo));
    let rel = bwa.speedup_over(&local);
    assert!(
        rel < 1.0,
        "sgemm should prefer LOCAL, got BW-AWARE at {rel}"
    );
    assert!(rel > 0.80, "degradation should be moderate, got {rel}");
}

#[test]
fn compute_bound_workload_is_placement_insensitive() {
    let sim = quick_sim();
    let topo = topology_for(&sim, &[1, 1]);
    let spec = quick("comd", 20_000);
    let local = run(&spec, &sim, Mempolicy::local());
    let inter = run(&spec, &sim, Mempolicy::interleave_all(&topo));
    let rel = inter.speedup_over(&local);
    assert!(
        (0.9..=1.1).contains(&rel),
        "comd should not care about placement, got {rel}"
    );
}

#[test]
fn dram_traffic_follows_placement_ratio() {
    let sim = quick_sim();
    let spec = quick("hotspot", 40_000);
    for co_pct in [10u8, 30, 50, 70] {
        let run = RunBuilder::new(&spec, &sim)
            .placement(&Placement::Policy(Mempolicy::ratio_co(Percent::new(
                co_pct,
            ))))
            .run();
        let co = run.report.pool_traffic_fraction(1);
        assert!(
            (co - f64::from(co_pct) / 100.0).abs() < 0.08,
            "requested {co_pct}% CO traffic, measured {co:.3}"
        );
    }
}

#[test]
fn all_19_workloads_complete_under_bw_aware() {
    let sim = quick_sim();
    let topo = topology_for(&sim, &[1, 1]);
    for mut spec in catalog::all() {
        spec.mem_ops = 8_000;
        let run = run(&spec, &sim, Mempolicy::bw_aware_for(&topo));
        assert!(run.report.completed, "{} hit the cycle limit", spec.name);
        assert!(
            run.report.retired_warps > 0,
            "{} retired no warps",
            spec.name
        );
        let mapped: u64 = run.placement.iter().sum();
        assert!(mapped > 0, "{}: nothing was mapped", spec.name);
        assert!(
            mapped <= run.footprint_pages,
            "{}: mapped {} pages exceeds footprint {}",
            spec.name,
            mapped,
            run.footprint_pages
        );
    }
}

#[test]
fn zero_extra_latency_local_equals_bo_only_machine() {
    // With everything in the BO pool, CO parameters are irrelevant.
    let sim = quick_sim();
    let spec = quick("gaussian", 30_000);
    let a = run(&spec, &sim, Mempolicy::local());
    let slower_co = {
        let mut s = sim.clone();
        s.pools[1].extra_latency = 500;
        RunBuilder::new(&spec, &s)
            .placement(&Placement::Policy(Mempolicy::local()))
            .run()
    };
    assert_eq!(a.report.cycles, slower_co.report.cycles);
}

#[test]
fn observed_run_matches_plain_run_on_figure_workloads() {
    // Observing must not perturb the simulation, on both a
    // bandwidth-bound (lbm, Fig. 3) and a capacity-constrained (bfs,
    // Fig. 4) figure workload.
    use gpusim::IntervalSampler;

    let sim = quick_sim();
    let topo = topology_for(&sim, &[1, 1]);
    for (name, capacity) in [
        ("lbm", Capacity::Unconstrained),
        ("bfs", Capacity::FractionOfFootprint(0.10)),
    ] {
        let spec = quick(name, 20_000);
        let placement = Placement::Policy(Mempolicy::bw_aware_for(&topo));
        let built = RunBuilder::new(&spec, &sim)
            .capacity(capacity)
            .placement(&placement)
            .run();
        let obs = (Some(IntervalSampler::new(1_000, sim.pools.len())), None);
        let built_obs = RunBuilder::new(&spec, &sim)
            .capacity(capacity)
            .placement(&placement)
            .observe(obs)
            .run_observed();
        // The observed path must not perturb the simulation itself.
        assert_eq!(built_obs.run.report.cycles, built.report.cycles, "{name}");
    }
}
