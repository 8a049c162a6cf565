//! Explore any (workload, policy, capacity) point interactively:
//!
//! ```text
//! cargo run --release -p hetmem-bench --bin explore -- \
//!     [workload] [local|interleave|bw-aware|oracle|annotated|<co_pct>] [capacity%]
//! ```
//!
//! Examples:
//!
//! ```text
//! explore xsbench bw-aware 100     # unconstrained BW-AWARE
//! explore xsbench oracle 10        # two-phase oracle at 10% capacity
//! explore bfs 30 50                # explicit 30C-70B at 50% capacity
//! ```
//!
//! Exit codes: 0 success, 2 usage error (a workload outside the
//! catalog, an unknown policy, a capacity that is not a percentage).

use gpusim::SimConfig;
use hetmem::runner::{hints_from_profile, profile_workload, Capacity, Placement, RunBuilder};
use hetmem::topology_for;
use hetmem_bench::cli::usage_exit;
use hmtypes::Percent;
use mempolicy::Mempolicy;
use workloads::catalog;

const POLICIES: &str = "local|interleave|bw-aware|oracle|annotated|<co_pct>";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let usage = |msg: String| -> ! { usage_exit("explore", 2, &msg) };
    let workload = args.first().map(String::as_str).unwrap_or("bfs");
    let policy = args.get(1).map(String::as_str).unwrap_or("bw-aware");
    let capacity_pct: f64 = match args.get(2).map(|s| (s, s.parse::<f64>())) {
        None => 100.0,
        Some((_, Ok(pct))) if pct >= 0.0 => pct,
        Some((text, _)) => usage(format!(
            "capacity must be a percentage of the footprint, got '{text}'"
        )),
    };

    let spec = catalog::by_name(workload).unwrap_or_else(|| {
        usage(format!(
            "unknown workload '{workload}' (catalog: {})",
            catalog::names().join(", ")
        ))
    });
    let sim = SimConfig::paper_baseline();
    let topo = topology_for(&sim, &[1, 1]);
    let capacity = if capacity_pct >= 100.0 {
        Capacity::Unconstrained
    } else {
        Capacity::FractionOfFootprint(capacity_pct / 100.0)
    };

    let placement = match policy {
        "local" => Placement::Policy(Mempolicy::local()),
        "interleave" => Placement::Policy(Mempolicy::interleave_all(&topo)),
        "bw-aware" => Placement::Policy(Mempolicy::bw_aware_for(&topo)),
        "oracle" => {
            eprintln!("profiling pass...");
            let (hist, _) = profile_workload(&spec, &sim);
            Placement::Oracle(hist)
        }
        "annotated" => {
            eprintln!("profiling pass...");
            let (_, profile) = profile_workload(&spec, &sim);
            Placement::Hinted(hints_from_profile(&profile, &spec, &sim, capacity))
        }
        pct => match pct.parse::<u8>() {
            Ok(co) if co <= 100 => Placement::Policy(Mempolicy::ratio_co(Percent::new(co))),
            _ => usage(format!("policy must be {POLICIES}, got '{pct}'")),
        },
    };

    eprintln!("running {workload} under {policy} at {capacity_pct:.0}% BO capacity...");
    let run = RunBuilder::new(&spec, &sim)
        .capacity(capacity)
        .placement(&placement)
        .run();
    let r = &run.report;
    let ghz = sim.sm_clock_ghz;

    println!(
        "workload          {workload} ({} structures, {:.1} MiB footprint)",
        spec.structures.len(),
        spec.footprint_bytes() as f64 / (1 << 20) as f64
    );
    println!(
        "placement         {policy}  |  BO budget {} of {} pages",
        run.bo_pages, run.footprint_pages
    );
    println!("cycles            {}", r.cycles);
    println!("runtime           {:.1} us", r.cycles as f64 / (ghz * 1e3));
    println!("achieved BW       {}", r.achieved_bandwidth(ghz));
    println!(
        "DRAM traffic      {:.2} MiB  ({:.1}% from CO)",
        r.dram_bytes() as f64 / (1 << 20) as f64,
        r.pool_traffic_fraction(1) * 100.0
    );
    println!("DRAM energy       {:.3} mJ", r.dram_energy_joules() * 1e3);
    println!(
        "L1 / L2 hit rate  {:.1}% / {:.1}%",
        r.l1_hit_rate() * 100.0,
        r.l2_hit_rate() * 100.0
    );
    for p in &r.pools {
        println!(
            "  {:<8} {:>8.2} MiB read {:>8.2} MiB written  row-hit {:>4.1}%",
            p.name,
            p.bytes_read as f64 / (1 << 20) as f64,
            p.bytes_written as f64 / (1 << 20) as f64,
            p.row_hit_rate * 100.0
        );
    }
    println!("pages mapped      {:?} (per zone)", run.placement);
}
