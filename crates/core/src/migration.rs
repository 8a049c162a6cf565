//! Extension: post-placement page migration (the paper's §5.5
//! discussion, implemented as a what-if study).
//!
//! The paper measured Linux 3.16 moving pages between NUMA zones at no
//! more than a few GB/s with several microseconds from invalidation to
//! first re-use, and argued that *initial placement* should be solved
//! before online migration. This module quantifies that argument on the
//! simulated system: migrate a capacity-constrained BW-AWARE placement
//! to the oracle placement between kernel invocations, charge the copy
//! cost, and report how many kernel repetitions are needed to break
//! even.

use gpusim::SimConfig;
use mempolicy::Mempolicy;
use profiler::OraclePlacement;

use crate::experiments::{ExpOptions, Table};
use crate::runner::{
    bo_traffic_target, check_fidelity, profile_workload, Capacity, Placement, RunBuilder,
};
use crate::translate::topology_for;

// The cost model moved next to the online engine; this study is a thin
// consumer of the shared type (same defaults, same arithmetic).
pub use crate::migrate::MigrationModel;

/// One workload's migration what-if result.
#[derive(Debug, Clone, PartialEq)]
pub struct MigrationOutcome {
    /// Cycles per kernel invocation before migration (BW-AWARE at the
    /// given capacity).
    pub before_cycles: u64,
    /// Cycles per invocation after migrating to the oracle placement.
    pub after_cycles: u64,
    /// Pages that had to move (into BO plus displaced out of BO).
    pub pages_moved: u64,
    /// One-time migration cost in cycles.
    pub migration_cycles: u64,
}

impl MigrationOutcome {
    /// Kernel invocations needed before migration pays for itself;
    /// `f64::INFINITY` when migration does not help at all.
    pub fn breakeven_invocations(&self) -> f64 {
        if self.after_cycles >= self.before_cycles {
            return f64::INFINITY;
        }
        self.migration_cycles as f64 / (self.before_cycles - self.after_cycles) as f64
    }
}

/// Evaluates migrating one workload from BW-AWARE to oracle placement at
/// `capacity`, using `model`'s costs.
pub fn evaluate_migration(
    spec: &workloads::WorkloadSpec,
    sim: &SimConfig,
    capacity: Capacity,
    model: MigrationModel,
) -> MigrationOutcome {
    let topo = topology_for(sim, &[1, 1]);
    let (hist, _) = profile_workload(spec, sim);

    let before = RunBuilder::new(spec, sim)
        .capacity(capacity)
        .placement(&Placement::Policy(Mempolicy::bw_aware_for(&topo)))
        .run();
    let after = RunBuilder::new(spec, sim)
        .capacity(capacity)
        .placement(&Placement::Oracle(hist.clone()))
        .run();

    // Moves: BW-AWARE filled BO with ~capacity pages of *arbitrary*
    // hotness; the oracle wants its own set there. Upper-bound the moves
    // as evictions plus promotions of the full BO working set.
    let oracle = OraclePlacement::compute(&hist, before.bo_pages, bo_traffic_target(sim));
    let pages_moved = 2 * oracle.bo_page_count() as u64;
    MigrationOutcome {
        before_cycles: before.report.cycles,
        after_cycles: after.report.cycles,
        pages_moved,
        migration_cycles: model.cost_cycles(pages_moved, sim.sm_clock_ghz),
    }
}

/// The migration what-if table across the options' workloads at 10%
/// capacity (columns in kilocycles except the last).
pub fn ext_migration(opts: &ExpOptions) -> Table {
    let model = MigrationModel::default();
    let mut t = Table::new(
        "Extension — migrate BW-AWARE→oracle at 10% capacity (paper §5.5 what-if)",
        vec![
            "before(kcyc)".to_string(),
            "after(kcyc)".to_string(),
            "migrate(kcyc)".to_string(),
            "breakeven(iters)".to_string(),
        ],
    );
    let specs = opts.specs();
    let outcomes = crate::grid::sweep(
        "ext_migration",
        opts,
        &specs,
        |s| s.name.to_string(),
        |s| evaluate_migration(s, &opts.sim, Capacity::FractionOfFootprint(0.10), model),
        |_, _| Vec::new(),
    );
    for (spec, o) in specs.iter().zip(&outcomes) {
        t.push_row(
            spec.name,
            vec![
                o.before_cycles as f64 / 1e3,
                o.after_cycles as f64 / 1e3,
                o.migration_cycles as f64 / 1e3,
                o.breakeven_invocations().min(9999.0),
            ],
        );
    }
    t
}

/// Caps a shared [`TraceProgram`] to a per-epoch memory-operation budget
/// so one workload can be simulated in slices with migration between
/// them.
#[derive(Debug)]
struct EpochProgram<'a> {
    inner: &'a mut workloads::TraceProgram,
    budget: u64,
}

impl gpusim::WarpProgram for EpochProgram<'_> {
    fn warps_per_sm(&self) -> u32 {
        self.inner.warps_per_sm()
    }

    fn mem_level_parallelism(&self) -> u32 {
        self.inner.mem_level_parallelism()
    }

    fn next_op(&mut self, warp: gpusim::WarpId) -> Option<gpusim::WarpOp> {
        if self.budget == 0 {
            return None;
        }
        let op = self.inner.next_op(warp);
        if matches!(op, Some(gpusim::WarpOp::Mem { .. })) {
            self.budget -= 1;
        }
        op
    }
}

/// Result of an online-migration run.
#[derive(Debug, Clone, PartialEq)]
pub struct OnlineOutcome {
    /// Kernel cycles summed over all epochs (excluding migration).
    pub compute_cycles: u64,
    /// Cycles spent migrating between epochs.
    pub migration_cycles: u64,
    /// Total pages moved across all epochs.
    pub pages_moved: u64,
    /// Number of epochs executed.
    pub epochs: u32,
}

impl OnlineOutcome {
    /// Total wall-clock cycles including migration overhead.
    pub fn total_cycles(&self) -> u64 {
        self.compute_cycles + self.migration_cycles
    }
}

/// Runs `spec` in `epochs` slices under an initial BW-AWARE placement,
/// and — when `migrate` is set — reshuffles pages toward each epoch's
/// observed hot set between slices (an AutoNUMA-style online scheme),
/// charging `model`'s costs.
///
/// With `migrate` false this is the epoch-sliced baseline: comparing the
/// two isolates the value of online migration with identical cache
/// warm-up behaviour, quantifying the paper's §5.5 open question.
pub fn run_online(
    spec: &workloads::WorkloadSpec,
    sim: &SimConfig,
    capacity: Capacity,
    epochs: u32,
    model: MigrationModel,
    migrate: bool,
) -> OnlineOutcome {
    use gpusim::Simulator;
    use hmtypes::MemKind;
    use profiler::PageHistogram;
    use std::rc::Rc;

    assert!(epochs > 0, "need at least one epoch");
    let footprint_pages = spec.footprint_pages();
    let bo_pages = capacity.bo_pages(footprint_pages);
    let topo = topology_for(sim, &[bo_pages, footprint_pages + 64]);
    let mut rt = crate::runtime::HmRuntime::new(topo.clone());
    for s in &spec.structures {
        rt.malloc(s.name, s.bytes).expect("allocation");
    }
    let bases: Vec<_> = rt.allocations().iter().map(|a| a.range.start).collect();
    let mut program = workloads::TraceProgram::new(spec, &bases, sim.num_sms);
    let total_ops = program.total_ops();
    let budget = total_ops.div_ceil(u64::from(epochs));

    let mm = rt.address_space();
    let bo = topo
        .zone_of_kind(MemKind::BandwidthOptimized)
        .expect("BO zone");
    let co = topo
        .zone_of_kind(MemKind::CapacityOptimized)
        .expect("CO zone");
    let target = bo_traffic_target(sim);

    let mut compute_cycles = 0u64;
    let mut migration_cycles = 0u64;
    let mut pages_moved = 0u64;
    for epoch in 0..epochs {
        let slice = EpochProgram {
            inner: &mut program,
            budget,
        };
        let translator = crate::translate::OsTranslator::new(Rc::clone(&mm));
        let report = Simulator::new(sim.clone(), translator, slice)
            .with_page_profiling()
            .run();
        compute_cycles += report.cycles;

        if !migrate || epoch + 1 == epochs {
            continue;
        }
        // Reshuffle toward this epoch's hot set (the online predictor:
        // last epoch's histogram predicts the next).
        let hist = PageHistogram::from_counts(report.page_accesses.expect("profiling enabled"));
        let desired = OraclePlacement::compute(&hist, bo_pages, target);
        let mut mm_mut = mm.borrow_mut();
        let mapped: Vec<_> = mm_mut.mappings().collect();
        let mut moves = 0u64;
        // Demote first to free BO capacity, then promote.
        for &(page, frame) in &mapped {
            if mm_mut.allocator().zone_of(frame) == Some(bo)
                && !desired.is_bo(page)
                && mm_mut.migrate_page(page, co).is_ok()
            {
                moves += 1;
            }
        }
        for &(page, frame) in &mapped {
            if mm_mut.allocator().zone_of(frame) != Some(bo)
                && desired.is_bo(page)
                && mm_mut.migrate_page(page, bo).is_ok()
            {
                moves += 1;
            }
        }
        drop(mm_mut);
        pages_moved += moves;
        if moves > 0 {
            migration_cycles += model.cost_cycles(moves, sim.sm_clock_ghz);
        }
    }
    OnlineOutcome {
        compute_cycles,
        migration_cycles,
        pages_moved,
        epochs,
    }
}

/// Extension table: online migration vs the epoch-sliced static
/// baseline at 10% capacity.
pub fn ext_online(opts: &ExpOptions) -> Table {
    let model = MigrationModel::default();
    let mut t = Table::new(
        "Extension — online (epoch) migration at 10% capacity (vs static BW-AWARE)",
        vec![
            "static(kcyc)".to_string(),
            "online(kcyc)".to_string(),
            "moved(pages)".to_string(),
            "net speedup".to_string(),
        ],
    );
    let cap = Capacity::FractionOfFootprint(0.10);
    let epochs = 4;
    let specs = opts.specs();
    let outcomes = crate::grid::sweep(
        "ext_online",
        opts,
        &specs,
        |s| s.name.to_string(),
        |s| {
            (
                run_online(s, &opts.sim, cap, epochs, model, false),
                run_online(s, &opts.sim, cap, epochs, model, true),
            )
        },
        |_, _| Vec::new(),
    );
    for (spec, (baseline, online)) in specs.iter().zip(&outcomes) {
        t.push_row(
            spec.name,
            vec![
                baseline.total_cycles() as f64 / 1e3,
                online.total_cycles() as f64 / 1e3,
                online.pages_moved as f64,
                baseline.total_cycles() as f64 / online.total_cycles() as f64,
            ],
        );
    }
    t
}

/// The headline question for the online engine: how close does
/// *reactive* migration (the `MIGRATE` policy, no future knowledge) get
/// to the constrained oracle at 10% BO capacity?
///
/// Bandwidth-efficiency is the fraction of the oracle's achieved
/// *demand* bandwidth that the reactive run attains — the `MIGRATE`
/// run's DRAM traffic minus its own copy bytes, over its cycles,
/// relative to the oracle's traffic over the oracle's cycles. 1.0 means
/// migration fully closed the gap; BW-AWARE's number is the floor.
///
/// # Panics
///
/// Panics with the `unsupported-fidelity` error before any run if
/// `opts.fidelity` is sampled (see [`check_fidelity`]).
pub fn ext_reactive(opts: &ExpOptions) -> Table {
    let mut t = Table::new(
        "Extension — reactive MIGRATE vs constrained oracle at 10% capacity",
        vec![
            "BWA(kcyc)".to_string(),
            "MIGRATE(kcyc)".to_string(),
            "Oracle(kcyc)".to_string(),
            "moved(pages)".to_string(),
            "bw-eff(BWA)".to_string(),
            "bw-eff(MIG)".to_string(),
        ],
    );
    let cap = Capacity::FractionOfFootprint(0.10);
    let topo = topology_for(&opts.sim, &[1, 1]);
    // Reactive settings scaled to the catalog's run lengths: epochs
    // short enough to act several times per run, a hot threshold low
    // enough to catch the skewed pages.
    let migrate = Mempolicy::parse("MIGRATE:epoch=25000,hot=4", &topo).expect("valid spec");
    if let Err(e) = check_fidelity(opts.fidelity, &migrate) {
        panic!("ext_reactive: {e} ({})", e.code());
    }
    let specs = opts.specs();
    let hists = crate::grid::sweep(
        "ext_reactive",
        opts,
        &specs,
        |s| format!("{}/profile", s.name),
        |s| profile_workload(s, &opts.sim).0,
        |_, _| Vec::new(),
    );
    let mut points = Vec::new();
    for (spec, hist) in specs.iter().zip(&hists) {
        let configs = [
            (
                "BW-AWARE",
                Placement::Policy(Mempolicy::bw_aware_for(&topo)),
            ),
            ("MIGRATE", Placement::Policy(migrate.clone())),
            ("Oracle", Placement::Oracle(hist.clone())),
        ];
        for (config, placement) in configs {
            points.push(crate::grid::RunPoint {
                spec: spec.clone(),
                config: config.to_string(),
                sim: opts.sim.clone(),
                capacity: cap,
                placement,
            });
        }
    }
    let runs = crate::grid::run_point_sweep("ext_reactive", opts, &points);
    for (spec, chunk) in specs.iter().zip(runs.chunks(3)) {
        let (bwa, mig, oracle) = (&chunk[0], &chunk[1], &chunk[2]);
        let m = mig.report.migration.expect("MIGRATE run reports migration");
        // Demand bandwidth per cycle, copy traffic excluded.
        let demand = |bytes: u64, cycles: u64| bytes as f64 / cycles as f64;
        let oracle_bw = demand(oracle.report.dram_bytes(), oracle.report.cycles);
        let mig_bw = demand(mig.report.dram_bytes() - m.copy_bytes, mig.report.cycles);
        let bwa_bw = demand(bwa.report.dram_bytes(), bwa.report.cycles);
        t.push_row(
            spec.name,
            vec![
                bwa.report.cycles as f64 / 1e3,
                mig.report.cycles as f64 / 1e3,
                oracle.report.cycles as f64 / 1e3,
                m.pages_migrated() as f64,
                bwa_bw / oracle_bw,
                mig_bw / oracle_bw,
            ],
        );
    }
    t.push_geomean();
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::catalog;

    #[test]
    fn cost_model_matches_paper_scale() {
        let m = MigrationModel::default();
        // 1000 pages = 4 MB at 4 GB/s ~= 1 ms ~= 1.4 M cycles at 1.4 GHz.
        let cycles = m.cost_cycles(1000, 1.4);
        assert!((1_400_000..1_500_000).contains(&cycles), "got {cycles}");
        // Zero pages still pays the pipeline latency.
        assert!(m.cost_cycles(0, 1.4) >= 4_000);
    }

    #[test]
    fn breakeven_math() {
        let o = MigrationOutcome {
            before_cycles: 200_000,
            after_cycles: 100_000,
            pages_moved: 100,
            migration_cycles: 1_000_000,
        };
        assert!((o.breakeven_invocations() - 10.0).abs() < 1e-9);
        let no_gain = MigrationOutcome {
            after_cycles: 200_000,
            ..o
        };
        assert!(no_gain.breakeven_invocations().is_infinite());
    }

    #[test]
    fn online_epochs_cover_all_operations() {
        let mut sim = SimConfig::paper_baseline();
        sim.num_sms = 2;
        let mut spec = catalog::by_name("hotspot").unwrap();
        spec.mem_ops = 12_000;
        let o = run_online(
            &spec,
            &sim,
            Capacity::FractionOfFootprint(0.5),
            3,
            MigrationModel::default(),
            false,
        );
        assert_eq!(o.epochs, 3);
        assert_eq!(o.pages_moved, 0);
        assert_eq!(o.migration_cycles, 0);
        assert!(o.compute_cycles > 0);
    }

    #[test]
    fn online_migration_moves_pages_and_charges_cost() {
        let mut sim = SimConfig::paper_baseline();
        sim.num_sms = 4;
        let mut spec = catalog::by_name("xsbench").unwrap();
        spec.mem_ops = 30_000;
        let o = run_online(
            &spec,
            &sim,
            Capacity::FractionOfFootprint(0.10),
            4,
            MigrationModel::default(),
            true,
        );
        assert!(o.pages_moved > 0, "skewed workload must trigger moves");
        assert!(o.migration_cycles > 0);
        // Compute-only portion should beat the static baseline (the
        // reshuffle tracks the hot set) even if cost eats the gain.
        let baseline = run_online(
            &spec,
            &sim,
            Capacity::FractionOfFootprint(0.10),
            4,
            MigrationModel::default(),
            false,
        );
        assert!(
            o.compute_cycles < baseline.compute_cycles,
            "online compute {} vs static {}",
            o.compute_cycles,
            baseline.compute_cycles
        );
    }

    #[test]
    fn migration_helps_skewed_workload_but_costs_many_iterations() {
        let mut sim = SimConfig::paper_baseline();
        sim.num_sms = 4;
        let mut spec = catalog::by_name("xsbench").unwrap();
        spec.mem_ops = 30_000;
        let o = evaluate_migration(
            &spec,
            &sim,
            Capacity::FractionOfFootprint(0.10),
            MigrationModel::default(),
        );
        assert!(
            o.after_cycles < o.before_cycles,
            "oracle placement should win: {} vs {}",
            o.after_cycles,
            o.before_cycles
        );
        let breakeven = o.breakeven_invocations();
        assert!(
            breakeven > 1.0,
            "migration must not be free (paper §5.5), got {breakeven}"
        );
    }
}
