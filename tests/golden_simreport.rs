//! Golden-equivalence suite for the simulator hot path.
//!
//! Pins a canonical serialization of [`gpusim::SimReport`] (plus
//! per-page profiling counts, zone placement, and interval-sampler
//! counters) across the **full catalog** × {LOCAL, INTERLEAVE,
//! BW-AWARE, ORACLE} at fixed seeds, against fixtures committed under
//! `tests/fixtures/`. Sampled-fidelity reports (with their `estimated`
//! block) and full-fidelity runs on edge configs are pinned the same
//! way. Any change to the engine calendar, the MSHR /
//! pending tables, the DRAM scheduler, or the page profiler that
//! perturbs a single counter, cycle count, or float shows up here as a
//! byte diff.
//!
//! Regenerate the fixtures (only when an *intentional* model change
//! lands) with:
//!
//! ```text
//! HM_GOLDEN_WRITE=1 cargo test --release --test golden_simreport
//! ```

use gpusim::observe::IntervalReport;
use gpusim::{DramTiming, Fidelity, IntervalSampler, SampleConfig, SimConfig, SimReport};
use hetmem::grid::{self, Column, ProfileJob, RunPoint, Strategy};
use hetmem::runner::{Capacity, Placement, RunBuilder};
use hetmem::{profile_workload, topology_for};
use hetmem_harness::json::{array, JsonObject};
use mempolicy::Mempolicy;
use workloads::catalog;

const POLICIES: &[&str] = &["LOCAL", "INTERLEAVE", "BW-AWARE", "ORACLE"];
/// Reduced operation count: the suite pins behavior, not scale. 76
/// points (19 workloads x 4 policies) must stay test-suite fast.
const GOLDEN_MEM_OPS: u64 = 12_000;
const GOLDEN_SMS: u32 = 4;

fn golden_sim() -> SimConfig {
    let mut sim = SimConfig::paper_baseline();
    sim.num_sms = GOLDEN_SMS;
    sim
}

/// Canonical JSON for a report: every counter, every pool, floats in
/// Rust's shortest-roundtrip formatting, page counts in ascending page
/// order (never map iteration order).
fn canonical_report(r: &SimReport) -> String {
    let pools = array(r.pools.iter().map(|p| {
        JsonObject::new()
            .str("name", &p.name)
            .u64("bytes_read", p.bytes_read)
            .u64("bytes_written", p.bytes_written)
            .f64("row_hit_rate", p.row_hit_rate)
            .f64("bus_busy_cycles", p.bus_busy_cycles)
            .f64("energy_joules", p.energy_joules)
            .finish()
    }));
    let mut obj = JsonObject::new()
        .u64("cycles", r.cycles)
        .bool("completed", r.completed)
        .u64("mem_ops", r.mem_ops)
        .u64("l1_hits", r.l1.0)
        .u64("l1_misses", r.l1.1)
        .u64("l2_hits", r.l2.0)
        .u64("l2_misses", r.l2.1)
        .u64("mshr_stalls", r.mshr_stalls)
        .u64("retired_warps", u64::from(r.retired_warps))
        .raw("pools", &pools);
    if let Some(pages) = &r.page_accesses {
        obj = obj.raw(
            "page_accesses",
            &array(pages.iter().map(|(p, c)| format!("[{},{c}]", p.index()))),
        );
    }
    if let Some(m) = &r.migration {
        let mig = JsonObject::new()
            .u64("pages_promoted", m.pages_promoted)
            .u64("pages_demoted", m.pages_demoted)
            .u64("pages_evicted", m.pages_evicted)
            .u64("epochs", m.epochs)
            .u64("copy_bytes", m.copy_bytes)
            .f64("copy_cycles", m.copy_cycles)
            .u64("remap_stall_cycles", m.remap_stall_cycles)
            .finish();
        obj = obj.raw("migration", &mig);
    }
    if let Some(e) = &r.estimated {
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
    obj.finish()
}

fn canonical_intervals(intervals: &[IntervalReport]) -> String {
    array(intervals.iter().map(|i| {
        let pools = array(i.pools.iter().map(|p| {
            JsonObject::new()
                .u64("bytes_read", p.bytes_read)
                .u64("bytes_written", p.bytes_written)
                .u64("services", p.services)
                .f64("busy_cycles", p.busy_cycles)
                .u64("zone_pages", p.zone_pages)
                .finish()
        }));
        JsonObject::new()
            .u64("index", i.index)
            .u64("mem_ops", i.mem_ops)
            .u64("l1_hits", i.l1_hits)
            .u64("l1_misses", i.l1_misses)
            .u64("l2_hits", i.l2_hits)
            .u64("l2_misses", i.l2_misses)
            .u64("mshr_stalls", i.mshr_stalls)
            .u64("mshr_peak", i.mshr_peak)
            .u64("warps_retired", i.warps_retired)
            .raw("pools", &pools)
            .finish()
    }))
}

/// `policy` as a `simulate` request names it, resolved (profiled first
/// for ORACLE) the way every run path resolves it.
fn placement_for(policy: &str, spec: &workloads::WorkloadSpec, sim: &SimConfig) -> Placement {
    let (strategy, config) = Strategy::parse(policy, sim).expect("known policy");
    let column = Column {
        config,
        sim: sim.clone(),
        capacity: Capacity::Unconstrained,
        strategy,
    };
    let point = RunPoint {
        spec: spec.clone(),
        column,
    };
    let serial = |jobs: &[ProfileJob<'_>]| {
        let profile = |&(spec, sim): &ProfileJob<'_>| profile_workload(spec, sim);
        jobs.iter().map(profile).collect()
    };
    grid::resolve(std::slice::from_ref(&point), serial).remove(0)
}

/// Compares (or, under `HM_GOLDEN_WRITE=1`, rewrites) one fixture.
fn check_fixture(name: &str, lines: &[String]) {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    let body: String = lines.iter().map(|l| format!("{l}\n")).collect();
    if std::env::var("HM_GOLDEN_WRITE").is_ok() {
        std::fs::write(&path, &body).expect("write fixture");
        eprintln!("golden: wrote {path} ({} line(s))", lines.len());
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing fixture {path}: {e}; regenerate with HM_GOLDEN_WRITE=1")
    });
    let want_lines: Vec<&str> = want.lines().collect();
    assert_eq!(
        want_lines.len(),
        lines.len(),
        "{name}: fixture has {} line(s), run produced {}",
        want_lines.len(),
        lines.len()
    );
    for (i, (want, got)) in want_lines.iter().zip(lines).enumerate() {
        assert_eq!(
            want, got,
            "{name}: line {i} diverged — the hot path is no longer \
             byte-equivalent (regenerate ONLY for intentional model changes)"
        );
    }
}

/// The core matrix: full catalog x 4 policies, unconstrained capacity.
#[test]
fn catalog_matrix_reports_are_golden() {
    let sim = golden_sim();
    let mut lines = Vec::new();
    for name in catalog::names() {
        let mut spec = catalog::by_name(name).expect("catalog name");
        spec.mem_ops = GOLDEN_MEM_OPS;
        for policy in POLICIES {
            let placement = placement_for(policy, &spec, &sim);
            let run = RunBuilder::new(&spec, &sim).placement(&placement).run();
            lines.push(
                JsonObject::new()
                    .str("workload", name)
                    .str("policy", policy)
                    .raw("report", &canonical_report(&run.report))
                    .raw(
                        "zone_pages",
                        &array(run.placement.iter().map(u64::to_string)),
                    )
                    .finish(),
            );
        }
    }
    check_fixture("golden_reports.jsonl", &lines);
}

/// Capacity-constrained ORACLE (greedy regime) pins the profile →
/// oracle → pre-placement pipeline, including page-order determinism.
#[test]
fn constrained_oracle_reports_are_golden() {
    let sim = golden_sim();
    let mut lines = Vec::new();
    for name in ["bfs", "hotspot", "xsbench", "sgemm"] {
        let mut spec = catalog::by_name(name).expect("catalog name");
        spec.mem_ops = GOLDEN_MEM_OPS;
        let placement = placement_for("ORACLE", &spec, &sim);
        let run = RunBuilder::new(&spec, &sim)
            .capacity(Capacity::FractionOfFootprint(0.10))
            .placement(&placement)
            .run();
        lines.push(
            JsonObject::new()
                .str("workload", name)
                .str("policy", "ORACLE-10pct")
                .raw("report", &canonical_report(&run.report))
                .raw(
                    "zone_pages",
                    &array(run.placement.iter().map(u64::to_string)),
                )
                .finish(),
        );
    }
    check_fixture("golden_oracle_constrained.jsonl", &lines);
}

/// Profiled runs pin the per-page DRAM access counts themselves, in
/// sorted page order.
#[test]
fn profiled_page_counts_are_golden() {
    let sim = golden_sim();
    let mut lines = Vec::new();
    for name in ["bfs", "hotspot", "xsbench", "spmv"] {
        let mut spec = catalog::by_name(name).expect("catalog name");
        spec.mem_ops = GOLDEN_MEM_OPS;
        let placement = placement_for("BW-AWARE", &spec, &sim);
        let run = RunBuilder::new(&spec, &sim)
            .placement(&placement)
            .profiled()
            .run();
        assert!(run.report.page_accesses.is_some(), "profiling was on");
        lines.push(
            JsonObject::new()
                .str("workload", name)
                .raw("report", &canonical_report(&run.report))
                .finish(),
        );
    }
    check_fixture("golden_profiles.jsonl", &lines);
}

/// Capacity-constrained MIGRATE runs pin the whole online engine:
/// hotness epochs, the promotion/eviction state machine, copy-burst
/// scheduling, and remap stalls, across two migrate configurations.
#[test]
fn migrate_reports_are_golden() {
    let sim = golden_sim();
    let topo = topology_for(&sim, &vec![1; sim.pools.len()]);
    let mut lines = Vec::new();
    for name in ["bfs", "hotspot", "xsbench", "sgemm"] {
        let mut spec = catalog::by_name(name).expect("catalog name");
        spec.mem_ops = GOLDEN_MEM_OPS;
        for policy in [
            "MIGRATE:epoch=20000,hot=4",
            "MIGRATE:epoch=20000,hot=2,cold=1,batch=16",
        ] {
            let placement =
                Placement::Policy(Mempolicy::parse(policy, &topo).expect("valid migrate spec"));
            let run = RunBuilder::new(&spec, &sim)
                .capacity(Capacity::FractionOfFootprint(0.10))
                .placement(&placement)
                .run();
            let m = run
                .report
                .migration
                .as_ref()
                .expect("MIGRATE runs always carry a migration report");
            assert!(m.epochs >= 1, "{name}/{policy}: at least one epoch fired");
            lines.push(
                JsonObject::new()
                    .str("workload", name)
                    .str("policy", policy)
                    .raw("report", &canonical_report(&run.report))
                    .raw(
                        "zone_pages",
                        &array(run.placement.iter().map(u64::to_string)),
                    )
                    .finish(),
            );
        }
    }
    check_fixture("golden_migrate.jsonl", &lines);
}

/// Interval-sampler counters from observed runs stay golden too (the
/// sampler sits on the same hot path through the observer hooks).
#[test]
fn interval_counters_are_golden() {
    let sim = golden_sim();
    let mut lines = Vec::new();
    for name in ["bfs", "lbm"] {
        let mut spec = catalog::by_name(name).expect("catalog name");
        spec.mem_ops = GOLDEN_MEM_OPS;
        for policy in ["LOCAL", "BW-AWARE"] {
            let placement = placement_for(policy, &spec, &sim);
            let observed = RunBuilder::new(&spec, &sim)
                .placement(&placement)
                .observe((Some(IntervalSampler::new(5_000, sim.pools.len())), None))
                .run_observed();
            lines.push(
                JsonObject::new()
                    .str("workload", name)
                    .str("policy", policy)
                    .raw("report", &canonical_report(&observed.run.report))
                    .raw("intervals", &canonical_intervals(&observed.intervals))
                    .finish(),
            );
        }
    }
    check_fixture("golden_intervals.jsonl", &lines);
}

/// Sampled runs pin the fast-forward path end to end: the window
/// schedule, the `skip_ops` drain (every generator state it leaves
/// behind feeds the next detail window), and the extrapolated report
/// with its `estimated` block. A small schedule at four times the
/// golden op count puts about a dozen detail windows, and the
/// drain/detail boundaries between them, into each run.
#[test]
fn sampled_reports_are_golden() {
    let sim = golden_sim();
    let sampled = Fidelity::Sampled(SampleConfig {
        window_ops: 1024,
        warmup_windows: 1,
        period: 8,
        seed: 0,
    });
    let mut lines = Vec::new();
    for name in catalog::names() {
        let mut spec = catalog::by_name(name).expect("catalog name");
        spec.mem_ops = 4 * GOLDEN_MEM_OPS;
        for policy in ["LOCAL", "BW-AWARE"] {
            let placement = placement_for(policy, &spec, &sim);
            let run = RunBuilder::new(&spec, &sim)
                .placement(&placement)
                .fidelity(sampled)
                .run();
            assert!(run.report.estimated.is_some(), "sampled runs estimate");
            lines.push(
                JsonObject::new()
                    .str("workload", name)
                    .str("policy", policy)
                    .raw("report", &canonical_report(&run.report))
                    .finish(),
            );
        }
    }
    check_fixture("golden_sampled.jsonl", &lines);
}

/// Full-fidelity runs on configs that push the engine down its rarer
/// paths: two L2 MSHRs per slice (reads queue on the slice wait queue
/// and are admitted by fills), row activations slow enough that DRAM
/// fills land beyond the calendar's timing wheel (the overflow heap),
/// and zero L2 and interconnect latency (events scheduled for the
/// instant being processed).
#[test]
fn edge_config_reports_are_golden() {
    let mut few_mshrs = golden_sim();
    few_mshrs.l2_mshrs = 2;
    let mut slow_rows = golden_sim();
    for pool in &mut slow_rows.pools {
        pool.timing = DramTiming {
            rcd: 2500,
            rp: 2500,
            ..pool.timing
        };
    }
    let mut zero_latency = golden_sim();
    zero_latency.l2_latency = 0;
    zero_latency.base_mem_latency = 0;
    let mut lines = Vec::new();
    for (config, sim) in [
        ("l2_mshrs=2", &few_mshrs),
        ("slow-rows", &slow_rows),
        ("zero-latency", &zero_latency),
    ] {
        for name in ["bfs", "lbm", "sgemm", "xsbench"] {
            let mut spec = catalog::by_name(name).expect("catalog name");
            spec.mem_ops = GOLDEN_MEM_OPS;
            for policy in ["LOCAL", "BW-AWARE"] {
                let placement = placement_for(policy, &spec, sim);
                let run = RunBuilder::new(&spec, sim).placement(&placement).run();
                if sim.l2_mshrs == 2 {
                    assert!(run.report.mshr_stalls > 0, "{name}: the wait queue is used");
                }
                lines.push(
                    JsonObject::new()
                        .str("config", config)
                        .str("workload", name)
                        .str("policy", policy)
                        .raw("report", &canonical_report(&run.report))
                        .finish(),
                );
            }
        }
    }
    check_fixture("golden_edge_configs.jsonl", &lines);
}
