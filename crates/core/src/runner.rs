//! The experiment engine: run one workload under one placement strategy.
//!
//! This is the glue every figure of the paper is regenerated through:
//! allocate the workload's data structures through the runtime, apply a
//! placement strategy (an OS policy, profile-derived hints, or the
//! two-phase oracle), simulate, and report.

use std::cell::RefCell;
use std::rc::Rc;

use gpusim::{
    run_sampled, EventTracer, Fidelity, IntervalReport, IntervalSampler, NullMigrator,
    NullObserver, Observer, PageMigrator, ProbeObserver, SimConfig, SimReport, SimTraceEvent,
    Simulator,
};
use hmtypes::MemKind;
use mempolicy::{AddressSpace, Mempolicy, MigrateSpec, PlacementEvent, ZoneId};
use profiler::{get_allocation, MemHint, OraclePlacement, PageHistogram, RunProfile};
use workloads::{TraceProgram, WorkloadSpec};

use crate::error::HetmemError;
use crate::migrate::{MigrationEpochEvent, OnlineMigrator};
use crate::runtime::HmRuntime;
use crate::translate::{topology_for, OsTranslator};

/// How much bandwidth-optimized capacity the machine has, relative to
/// the workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Capacity {
    /// BO comfortably holds the whole footprint (the paper's §3 setting).
    Unconstrained,
    /// BO holds only this fraction of the application footprint (the
    /// paper's §4/§5 setting; 0.10 for the headline experiments).
    FractionOfFootprint(f64),
}

impl Capacity {
    /// Concrete BO page budget for a given footprint.
    pub fn bo_pages(self, footprint_pages: u64) -> u64 {
        match self {
            // Headroom beyond the footprint so guard gaps never constrain.
            Capacity::Unconstrained => footprint_pages + 64,
            Capacity::FractionOfFootprint(f) => {
                assert!((0.0..=1.0).contains(&f), "fraction out of range");
                ((footprint_pages as f64 * f).ceil() as u64).max(1)
            }
        }
    }
}

/// A placement strategy for one run.
#[derive(Debug, Clone)]
pub enum Placement {
    /// Fault pages in under an OS policy (`LOCAL`, `INTERLEAVE`,
    /// `BW-AWARE`, or any explicit `xC-yB` ratio).
    Policy(Mempolicy),
    /// Per-structure hints, in allocation order (paper §5; produce them
    /// with [`hints_from_profile`] or [`profiler::get_allocation`]).
    Hinted(Vec<MemHint>),
    /// Perfect-knowledge placement from a profiling pass (paper §4.2):
    /// hottest pages into BO until the bandwidth-service target or BO
    /// capacity is reached.
    Oracle(PageHistogram),
}

/// Result of one workload run.
#[derive(Debug, Clone)]
pub struct WorkloadRun {
    /// The simulator's report.
    pub report: SimReport,
    /// Mapped pages per zone after the run.
    pub placement: Vec<u64>,
    /// The workload's footprint in pages.
    pub footprint_pages: u64,
    /// The BO page budget the run had.
    pub bo_pages: u64,
    /// The named allocation ranges of the run (profiler input).
    pub ranges: Vec<profiler::AllocRange>,
}

impl WorkloadRun {
    /// Relative performance vs `baseline` (`baseline.cycles / cycles`).
    pub fn speedup_over(&self, baseline: &WorkloadRun) -> f64 {
        self.report.speedup_over(&baseline.report)
    }
}

/// What to observe during an instrumented run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObserveConfig {
    /// Emit one interval sample every this many cycles (`None` = off).
    pub sample_cycles: Option<u64>,
    /// Collect a Chrome-trace-convertible event stream.
    pub trace: bool,
    /// Event budget for the tracer (drops beyond it are counted).
    pub trace_budget: usize,
}

impl ObserveConfig {
    /// Default tracer budget: plenty for a quick run, bounded for a
    /// full one (~20 MB of JSON worst case).
    pub const DEFAULT_TRACE_BUDGET: usize = 100_000;
}

impl Default for ObserveConfig {
    fn default() -> Self {
        ObserveConfig {
            sample_cycles: None,
            trace: false,
            trace_budget: Self::DEFAULT_TRACE_BUDGET,
        }
    }
}

/// The raw event stream from one traced run.
#[derive(Debug, Clone)]
pub struct SimTrace {
    /// Retained events, in retirement order.
    pub events: Vec<SimTraceEvent>,
    /// Events dropped once the budget was exhausted.
    pub dropped: u64,
    /// The budget the tracer ran with.
    pub budget: usize,
}

/// A [`WorkloadRun`] plus everything the observers collected.
#[derive(Debug, Clone)]
pub struct ObservedRun {
    /// The plain run result (identical to an unobserved run).
    pub run: WorkloadRun,
    /// Per-interval time-series (empty when sampling was off).
    pub intervals: Vec<IntervalReport>,
    /// The event trace (`None` when tracing was off).
    pub trace: Option<SimTrace>,
    /// Every OS placement decision, in decision order.
    pub placements: Vec<PlacementEvent>,
    /// Per-epoch migration deltas, in cycle order (empty unless the
    /// placement carried a `MIGRATE` spec).
    pub migration_epochs: Vec<MigrationEpochEvent>,
}

/// The BW-AWARE bandwidth-service target for the BO pool
/// (`bB / (bB + bC)` from the simulated machine's pools).
pub fn bo_traffic_target(sim: &SimConfig) -> f64 {
    let bo: f64 = sim
        .pools
        .iter()
        .filter(|p| p.kind == MemKind::BandwidthOptimized)
        .map(|p| p.bandwidth.bytes_per_sec())
        .sum();
    let total: f64 = sim.pools.iter().map(|p| p.bandwidth.bytes_per_sec()).sum();
    if total == 0.0 {
        0.0
    } else {
        bo / total
    }
}

/// The unified session API for running one workload: every run — plain,
/// profiled, or observed — is configured through this one builder.
///
/// Unset knobs take the paper's defaults: unconstrained BO capacity,
/// BW-AWARE placement (the proposed GPU default, §3.2.2), no page
/// profiling and no observers. The trace seed is the spec's own
/// (`WorkloadSpec::seed`).
///
/// # Examples
///
/// ```
/// use gpusim::SimConfig;
/// use hetmem::runner::{Capacity, Placement, RunBuilder};
/// use mempolicy::Mempolicy;
/// use workloads::catalog;
///
/// let mut sim = SimConfig::paper_baseline();
/// sim.num_sms = 2;
/// let mut spec = catalog::by_name("hotspot").unwrap();
/// spec.mem_ops = 5_000;
///
/// let run = RunBuilder::new(&spec, &sim)
///     .capacity(Capacity::FractionOfFootprint(0.5))
///     .placement(&Placement::Policy(Mempolicy::local()))
///     .run();
/// assert!(run.report.completed);
/// ```
#[derive(Debug, Clone)]
pub struct RunBuilder<'a> {
    spec: &'a WorkloadSpec,
    sim: &'a SimConfig,
    capacity: Capacity,
    placement: Option<&'a Placement>,
    profile_pages: bool,
    observe: ObserveConfig,
    fidelity: Fidelity,
}

impl<'a> RunBuilder<'a> {
    /// Starts a run of `spec` on the machine `sim` with default knobs.
    pub fn new(spec: &'a WorkloadSpec, sim: &'a SimConfig) -> Self {
        RunBuilder {
            spec,
            sim,
            capacity: Capacity::Unconstrained,
            placement: None,
            profile_pages: false,
            observe: ObserveConfig::default(),
            fidelity: Fidelity::Full,
        }
    }

    /// Sets the BO capacity regime (default: unconstrained).
    pub fn capacity(mut self, capacity: Capacity) -> Self {
        self.capacity = capacity;
        self
    }

    /// Sets the placement strategy (default: the task-wide BW-AWARE
    /// policy derived from the machine's pools).
    pub fn placement(mut self, placement: &'a Placement) -> Self {
        self.placement = Some(placement);
        self
    }

    /// Additionally collects the per-page DRAM access histogram
    /// (slower; what profiling passes read).
    pub fn profiled(mut self) -> Self {
        self.profile_pages = true;
        self
    }

    /// Attaches the observability layer per `obs` on the observed run
    /// path ([`RunBuilder::run_observed`]).
    pub fn observe(mut self, obs: ObserveConfig) -> Self {
        self.observe = obs;
        self
    }

    /// Sets the simulation fidelity (default: [`Fidelity::Full`]).
    /// [`Fidelity::Sampled`] runs the SMARTS-style fast-forward engine:
    /// the report's [`SimReport::estimated`] block is then always
    /// present and aggregate counters are model extrapolations, not
    /// exact counts. Sampled fidelity cannot run a `MIGRATE` policy;
    /// see [`check_fidelity`].
    pub fn fidelity(mut self, fidelity: Fidelity) -> Self {
        self.fidelity = fidelity;
        self
    }

    /// Resolves the effective placement (BW-AWARE default), then hands
    /// it to `body`.
    ///
    /// # Panics
    ///
    /// Panics if [`check_fidelity`] refuses the fidelity/placement pair.
    fn with_placement<R>(&self, body: impl FnOnce(&Placement) -> R) -> R {
        if let Some(Placement::Policy(policy)) = self.placement {
            if let Err(e) = check_fidelity(self.fidelity, policy) {
                panic!("{e}");
            }
        }
        let default_placement;
        let placement = match self.placement {
            Some(p) => p,
            None => {
                default_placement = Placement::Policy(Mempolicy::bw_aware_for(
                    &crate::translate::topology_for(self.sim, &vec![1; self.sim.pools.len()]),
                ));
                &default_placement
            }
        };
        body(placement)
    }

    /// Executes the run and returns the plain typed output.
    ///
    /// # Panics
    ///
    /// Panics if the strategy is [`Placement::Hinted`] with the wrong
    /// number of hints, if the simulated machine runs out of total
    /// memory, or if the fidelity is [`Fidelity::Sampled`] and the
    /// placement a `MIGRATE` policy (the `unsupported-fidelity` case of
    /// [`check_fidelity`]).
    pub fn run(&self) -> WorkloadRun {
        let (prep, report, _) = self.execute(NullObserver, false);
        prep.finish(report)
    }

    /// Executes the run with the observability layer attached (interval
    /// sampler and/or event tracer per the builder's [`ObserveConfig`],
    /// plus the OS placement decision log) and returns the observed
    /// typed output. Its `run` is exactly what [`RunBuilder::run`]
    /// returns. Under [`Fidelity::Sampled`] the observers see only the
    /// detail windows, while the report is the extrapolated one.
    ///
    /// # Panics
    ///
    /// Same conditions as [`RunBuilder::run`], including the refusal of
    /// sampled fidelity with a `MIGRATE` policy.
    pub fn run_observed(&self) -> ObservedRun {
        let obs = &self.observe;
        let probe = ProbeObserver::new(
            obs.sample_cycles
                .map(|n| IntervalSampler::new(n, self.sim.pools.len())),
            obs.trace.then(|| EventTracer::new(obs.trace_budget)),
        );
        let (prep, report, probe) = self.execute(probe, true);
        let placements = prep.mm.borrow_mut().take_placement_log();
        let migration_epochs = prep
            .epochs
            .as_ref()
            .map_or_else(Vec::new, |log| log.borrow().clone());
        ObservedRun {
            run: prep.finish(report),
            intervals: probe
                .sampler
                .map(IntervalSampler::into_reports)
                .unwrap_or_default(),
            trace: probe.tracer.map(|t| {
                let budget = t.budget();
                let (events, dropped) = t.into_parts();
                SimTrace {
                    events,
                    dropped,
                    budget,
                }
            }),
            placements,
            migration_epochs,
        }
    }

    /// The one run dispatch: prepares the run (logging OS placements
    /// when `log_placements`), attaches `obs`, then picks the migrator
    /// once and the fidelity once, with page profiling per
    /// [`RunBuilder::profiled`] on either fidelity.
    fn execute<O: Observer>(&self, obs: O, log_placements: bool) -> (PreparedRun, SimReport, O) {
        self.with_placement(|placement| {
            let mut prep = prepare_run(
                self.spec,
                self.sim,
                self.capacity,
                placement,
                log_placements,
            );
            let (translator, program) = prep.take_sim_parts();
            let (report, obs) = match migrate_spec_of(placement) {
                Some(ms) => {
                    let mig = OnlineMigrator::new(Rc::clone(&prep.mm), ms, self.sim);
                    prep.epochs = Some(mig.epoch_log());
                    self.simulate(translator, program, obs, mig)
                }
                None => self.simulate(translator, program, obs, NullMigrator),
            };
            (prep, report, obs)
        })
    }

    /// Runs the prepared program at the builder's fidelity.
    fn simulate<O: Observer, M: PageMigrator>(
        &self,
        translator: OsTranslator,
        program: TraceProgram,
        obs: O,
        mig: M,
    ) -> (SimReport, O) {
        let sim = self.sim.clone();
        let (report, obs, _) = match self.fidelity {
            Fidelity::Sampled(sc) => {
                run_sampled(sim, translator, program, sc, obs, mig, self.profile_pages)
            }
            Fidelity::Full => {
                let mut simulator = Simulator::new(sim, translator, program)
                    .with_observer(obs)
                    .with_migrator(mig);
                if self.profile_pages {
                    simulator = simulator.with_page_profiling();
                }
                simulator.run_instrumented()
            }
        };
        (report, obs)
    }
}

/// Everything shared between the plain and observed run paths: the
/// allocated/placed address space, the program, and the run metadata.
struct PreparedRun {
    mm: Rc<RefCell<AddressSpace>>,
    translator: OsTranslator,
    program: Option<TraceProgram>,
    ranges: Vec<profiler::AllocRange>,
    footprint_pages: u64,
    bo_pages: u64,
    /// The online migrator's epoch log (`MIGRATE` runs only).
    epochs: Option<Rc<RefCell<Vec<MigrationEpochEvent>>>>,
}

impl PreparedRun {
    /// Splits off the simulator inputs, leaving the post-run metadata.
    fn take_sim_parts(&mut self) -> (OsTranslator, TraceProgram) {
        (
            self.translator.clone(),
            self.program.take().expect("program taken once"),
        )
    }

    /// Builds the final [`WorkloadRun`] once the simulator has reported.
    fn finish(self, report: SimReport) -> WorkloadRun {
        let placement_hist = self.mm.borrow().placement_histogram();
        WorkloadRun {
            report,
            placement: placement_hist,
            footprint_pages: self.footprint_pages,
            bo_pages: self.bo_pages,
            ranges: self.ranges,
        }
    }
}

/// Refuses a fidelity `policy` cannot run under: [`Fidelity::Sampled`]
/// with a `MIGRATE` policy is [`HetmemError::UnsupportedFidelity`]
/// (stable code `unsupported-fidelity`). The sampled engine simulates
/// only detail windows, so the migrator would rank pages on a fraction
/// of the access stream — measured at 2M ops per point, sampled
/// bandwidth was 13–33% off full fidelity and bfs moved 172 pages where
/// the full run moved 935.
///
/// # Errors
///
/// Returns [`HetmemError::UnsupportedFidelity`] for that one pair;
/// every other combination is `Ok`.
///
/// # Examples
///
/// ```
/// use gpusim::{Fidelity, SampleConfig};
/// use hetmem::runner::check_fidelity;
/// use hetmem::topology_for;
/// use mempolicy::Mempolicy;
///
/// let sim = gpusim::SimConfig::paper_baseline();
/// let topo = topology_for(&sim, &[1, 1]);
/// let sampled = Fidelity::Sampled(SampleConfig::default());
/// let migrate = Mempolicy::parse("MIGRATE", &topo).unwrap();
/// let err = check_fidelity(sampled, &migrate).unwrap_err();
/// assert_eq!(err.code(), "unsupported-fidelity");
/// assert!(check_fidelity(Fidelity::Full, &migrate).is_ok());
/// assert!(check_fidelity(sampled, &Mempolicy::bw_aware_for(&topo)).is_ok());
/// ```
pub fn check_fidelity(fidelity: Fidelity, policy: &Mempolicy) -> Result<(), HetmemError> {
    match fidelity {
        Fidelity::Sampled(_) if policy.migrate_spec().is_some() => {
            Err(HetmemError::UnsupportedFidelity {
                fidelity: "sampled".to_string(),
                policy: policy.name(),
            })
        }
        _ => Ok(()),
    }
}

/// The `MIGRATE` spec of a policy placement, if any — what decides
/// whether a run path attaches an [`OnlineMigrator`].
fn migrate_spec_of(placement: &Placement) -> Option<MigrateSpec> {
    match placement {
        Placement::Policy(p) => p.migrate_spec().copied(),
        _ => None,
    }
}

/// Allocates, places, and wires up one run. `log_placements` turns the
/// OS decision log on *before* the placement strategy is applied, so
/// hinted and oracle pre-placements are captured too.
fn prepare_run(
    spec: &WorkloadSpec,
    sim: &SimConfig,
    capacity: Capacity,
    placement: &Placement,
    log_placements: bool,
) -> PreparedRun {
    spec.validate();
    let footprint_pages = spec.footprint_pages();
    let bo_pages = capacity.bo_pages(footprint_pages);
    // The CO pool always holds the spill (the paper's systems never OOM:
    // CO is the high-capacity pool).
    let co_pages = footprint_pages + 64;
    let topo = topology_for(sim, &[bo_pages, co_pages]);
    let mut rt = HmRuntime::new(topo.clone());
    if log_placements {
        rt.address_space().borrow_mut().enable_placement_log();
    }

    match placement {
        Placement::Policy(p) => {
            rt.set_policy(p.clone());
            for s in &spec.structures {
                rt.malloc(s.name, s.bytes).expect("allocation");
            }
        }
        Placement::Hinted(hints) => {
            assert_eq!(hints.len(), spec.structures.len(), "one hint per structure");
            for (s, &h) in spec.structures.iter().zip(hints) {
                rt.malloc_with_hint(s.name, s.bytes, h).expect("allocation");
            }
        }
        Placement::Oracle(histogram) => {
            for s in &spec.structures {
                rt.malloc(s.name, s.bytes).expect("allocation");
            }
            preplace_oracle(&rt, histogram, bo_pages, bo_traffic_target(sim));
        }
    }

    let bases: Vec<_> = rt.allocations().iter().map(|a| a.range.start).collect();
    let program = TraceProgram::new(spec, &bases, sim.num_sms);
    let mm = rt.address_space();
    let translator = OsTranslator::new(Rc::clone(&mm));
    let ranges = rt.alloc_ranges();
    PreparedRun {
        mm,
        translator,
        program: Some(program),
        ranges,
        footprint_pages,
        bo_pages,
        epochs: None,
    }
}

/// Pre-places every allocated page per the oracle ranking, hottest pages
/// first so BO capacity always goes to the top of the ranking.
fn preplace_oracle(rt: &HmRuntime, histogram: &PageHistogram, bo_pages: u64, target: f64) {
    let oracle = OraclePlacement::compute(histogram, bo_pages, target);
    let mm = rt.address_space();
    let mut mm = mm.borrow_mut();
    let topo = mm.topology().clone();
    let bo = topo
        .zone_of_kind(MemKind::BandwidthOptimized)
        .unwrap_or(ZoneId::new(0));
    let co = topo
        .zone_of_kind(MemKind::CapacityOptimized)
        .unwrap_or(ZoneId::new(0));
    let ranges = rt.alloc_ranges();

    // BO set first (capacity guarantee), then everything else to CO;
    // `bo_pages()` iterates in page order, keeping placement (and hence
    // frame assignment) deterministic.
    for page in oracle.bo_pages() {
        mm.ensure_mapped_in(page, &[bo, co])
            .expect("oracle BO page");
    }
    for range in &ranges {
        for page in range.pages() {
            if !oracle.is_bo(page) {
                mm.ensure_mapped_in(page, &[co, bo])
                    .expect("oracle CO page");
            }
        }
    }
}

/// Runs the profiling pass of the two-phase flows (paper §4.2, §5.1):
/// unconstrained capacity, BW-AWARE placement, page counting on. Returns
/// the page histogram and the per-structure attribution.
pub fn profile_workload(spec: &WorkloadSpec, sim: &SimConfig) -> (PageHistogram, RunProfile) {
    let policy = Mempolicy::bw_aware_for(&topology_for(sim, &vec![1; sim.pools.len()]));
    let run = RunBuilder::new(spec, sim)
        .placement(&Placement::Policy(policy))
        .profiled()
        .run();
    let histogram = PageHistogram::from_counts(
        run.report
            .page_accesses
            .expect("profiling run collects page counts"),
    );
    let profile = RunProfile::attribute(run.ranges, &histogram);
    (histogram, profile)
}

/// Computes annotation hints for `spec` from a (possibly different
/// dataset's) profile, under the given BO capacity — the full §5.3 flow:
/// profile → annotation arrays → `GetAllocation`.
pub fn hints_from_profile(
    profile: &RunProfile,
    spec: &WorkloadSpec,
    sim: &SimConfig,
    capacity: Capacity,
) -> Vec<MemHint> {
    // Sizes come from *this* run's allocations (the program knows its
    // sizes at runtime); hotness comes from the training profile.
    let sizes: Vec<u64> = spec.structures.iter().map(|s| s.bytes).collect();
    let hotness: Vec<f64> = profile.structures().iter().map(|s| s.hotness).collect();
    let bo_bytes = capacity.bo_pages(spec.footprint_pages()) * hmtypes::PAGE_SIZE as u64;
    get_allocation(&sizes, &hotness, bo_bytes, bo_traffic_target(sim))
}

/// Geometric mean of positive values; 0.0 for an empty slice.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmtypes::Percent;
    use workloads::catalog;

    fn quick_sim() -> SimConfig {
        let mut sim = SimConfig::paper_baseline();
        sim.num_sms = 4;
        sim
    }

    fn quick_spec(name: &str) -> WorkloadSpec {
        let mut spec = catalog::by_name(name).unwrap();
        spec.mem_ops = 30_000;
        spec
    }

    #[test]
    fn sampled_migrate_is_refused_on_every_run_path() {
        let spec = quick_spec("hotspot");
        let sim = quick_sim();
        let topo = topology_for(&sim, &[1, 1]);
        let placement = Placement::Policy(Mempolicy::parse("MIGRATE", &topo).unwrap());
        let builder = RunBuilder::new(&spec, &sim)
            .placement(&placement)
            .fidelity(Fidelity::Sampled(gpusim::SampleConfig::default()));
        let message = |r: std::thread::Result<()>| {
            let e = r.expect_err("sampled MIGRATE must panic");
            e.downcast_ref::<String>().cloned().unwrap_or_default()
        };
        let run = std::panic::AssertUnwindSafe(|| {
            builder.run();
        });
        let observed = std::panic::AssertUnwindSafe(|| {
            builder.run_observed();
        });
        for msg in [
            message(std::panic::catch_unwind(run)),
            message(std::panic::catch_unwind(observed)),
        ] {
            assert!(msg.contains("does not support policy 'MIGRATE"), "{msg}");
        }
    }

    /// A sampled schedule that actually skips at `quick_spec` scale.
    fn short_windows() -> Fidelity {
        Fidelity::Sampled(gpusim::SampleConfig {
            window_ops: 2_048,
            warmup_windows: 1,
            period: 4,
            seed: 0,
        })
    }

    #[test]
    fn profiled_observed_run_matches_profiled_run() {
        let spec = quick_spec("bfs");
        let sim = quick_sim();
        for fidelity in [Fidelity::Full, short_windows()] {
            let builder = RunBuilder::new(&spec, &sim).fidelity(fidelity).profiled();
            let plain = builder.run();
            let observed = builder.run_observed();
            assert!(plain.report.page_accesses.is_some(), "{fidelity:?}");
            assert_eq!(observed.run.report, plain.report, "{fidelity:?}");
        }
    }

    #[test]
    fn run_reports_match_hand_assembled_runs() {
        let spec = quick_spec("hotspot");
        let sim = quick_sim();
        let topo = topology_for(&sim, &[1, 1]);
        let capacity = Capacity::FractionOfFootprint(0.25);
        let cases = [
            (Mempolicy::local(), Fidelity::Full),
            (
                Mempolicy::parse("MIGRATE:epoch=2000", &topo).unwrap(),
                Fidelity::Full,
            ),
            (Mempolicy::bw_aware_for(&topo), short_windows()),
        ];
        for (policy, fidelity) in cases {
            let name = policy.name();
            let placement = Placement::Policy(policy);
            let run = RunBuilder::new(&spec, &sim)
                .capacity(capacity)
                .placement(&placement)
                .fidelity(fidelity)
                .run();
            let mut prep = prepare_run(&spec, &sim, capacity, &placement, false);
            let (translator, program) = prep.take_sim_parts();
            let (report, _, engine) = match (fidelity, migrate_spec_of(&placement)) {
                (Fidelity::Sampled(sc), _) => run_sampled(
                    sim.clone(),
                    translator,
                    program,
                    sc,
                    NullObserver,
                    NullMigrator,
                    false,
                ),
                (Fidelity::Full, Some(ms)) => Simulator::new(sim.clone(), translator, program)
                    .with_migrator(OnlineMigrator::new(Rc::clone(&prep.mm), ms, &sim))
                    .run_instrumented(),
                (Fidelity::Full, None) => {
                    Simulator::new(sim.clone(), translator, program).run_instrumented()
                }
            };
            assert_eq!(run.report, report, "{name}");
            assert!(engine.events_processed > report.mem_ops, "{name}");
        }
    }

    #[test]
    fn local_unconstrained_places_everything_in_bo() {
        let spec = quick_spec("hotspot");
        let run = RunBuilder::new(&spec, &quick_sim())
            .placement(&Placement::Policy(Mempolicy::local()))
            .run();
        assert!(run.report.completed);
        assert_eq!(run.placement[1], 0, "no CO pages under unconstrained LOCAL");
        assert!(run.report.pool_traffic_fraction(0) > 0.99);
    }

    #[test]
    fn ratio_policy_splits_dram_traffic() {
        let spec = quick_spec("hotspot");
        let run = RunBuilder::new(&spec, &quick_sim())
            .placement(&Placement::Policy(Mempolicy::ratio_co(Percent::new(30))))
            .run();
        let co = run.report.pool_traffic_fraction(1);
        assert!((co - 0.30).abs() < 0.08, "CO traffic fraction {co}");
    }

    #[test]
    fn bw_aware_beats_local_and_interleave_for_streaming() {
        let spec = quick_spec("lbm");
        let sim = quick_sim();
        let local = RunBuilder::new(&spec, &sim)
            .placement(&Placement::Policy(Mempolicy::local()))
            .run();
        let inter = RunBuilder::new(&spec, &sim)
            .placement(&Placement::Policy(Mempolicy::ratio_co(Percent::new(50))))
            .run();
        let bwa = RunBuilder::new(&spec, &sim)
            .placement(&Placement::Policy(Mempolicy::ratio_co(Percent::new(30))))
            .run();
        assert!(
            bwa.speedup_over(&local) > 1.05,
            "BW-AWARE vs LOCAL: {}",
            bwa.speedup_over(&local)
        );
        assert!(
            bwa.speedup_over(&inter) > 1.05,
            "BW-AWARE vs INTERLEAVE: {}",
            bwa.speedup_over(&inter)
        );
    }

    #[test]
    fn capacity_fraction_limits_bo_pages() {
        let spec = quick_spec("bfs");
        let run = RunBuilder::new(&spec, &quick_sim())
            .capacity(Capacity::FractionOfFootprint(0.10))
            .placement(&Placement::Policy(Mempolicy::local()))
            .run();
        let bo_budget = Capacity::FractionOfFootprint(0.10).bo_pages(spec.footprint_pages());
        assert!(run.placement[0] <= bo_budget);
        assert!(run.placement[1] > 0, "spill to CO under constraint");
    }

    #[test]
    fn profile_attributes_all_structures() {
        let spec = quick_spec("bfs");
        let (hist, profile) = profile_workload(&spec, &quick_sim());
        assert!(hist.total_accesses() > 0);
        assert_eq!(profile.structures().len(), spec.structures.len());
        assert_eq!(profile.unattributed(), 0, "all traffic attributed");
        // The paper's bfs observation: hot structures are hot.
        let visited = profile
            .structures()
            .iter()
            .find(|s| s.range.name == "d_graph_visited")
            .unwrap();
        let edges = profile
            .structures()
            .iter()
            .find(|s| s.range.name == "d_graph_edges")
            .unwrap();
        assert!(visited.hotness > edges.hotness);
    }

    #[test]
    fn oracle_beats_bw_aware_under_capacity_constraint() {
        let spec = quick_spec("xsbench");
        let sim = quick_sim();
        let (hist, _) = profile_workload(&spec, &sim);
        let cap = Capacity::FractionOfFootprint(0.10);
        let bwa = RunBuilder::new(&spec, &sim)
            .capacity(cap)
            .placement(&Placement::Policy(Mempolicy::ratio_co(Percent::new(30))))
            .run();
        let oracle = RunBuilder::new(&spec, &sim)
            .capacity(cap)
            .placement(&Placement::Oracle(hist))
            .run();
        assert!(
            oracle.speedup_over(&bwa) > 1.02,
            "oracle vs BW-AWARE at 10% capacity: {}",
            oracle.speedup_over(&bwa)
        );
    }

    #[test]
    fn hinted_placement_runs_and_respects_structure_count() {
        let spec = quick_spec("minife");
        let sim = quick_sim();
        let (_, profile) = profile_workload(&spec, &sim);
        let cap = Capacity::FractionOfFootprint(0.2);
        let hints = hints_from_profile(&profile, &spec, &sim, cap);
        assert_eq!(hints.len(), spec.structures.len());
        let run = RunBuilder::new(&spec, &sim)
            .capacity(cap)
            .placement(&Placement::Hinted(hints))
            .run();
        assert!(run.report.completed);
    }

    #[test]
    fn builder_defaults_are_unconstrained_bw_aware() {
        let spec = quick_spec("hotspot");
        let sim = quick_sim();
        let defaulted = RunBuilder::new(&spec, &sim).run();
        let topo = crate::translate::topology_for(&sim, &vec![1; sim.pools.len()]);
        let explicit = RunBuilder::new(&spec, &sim)
            .capacity(Capacity::Unconstrained)
            .placement(&Placement::Policy(Mempolicy::bw_aware_for(&topo)))
            .run();
        assert_eq!(defaulted.report.cycles, explicit.report.cycles);
        assert_eq!(defaulted.placement, explicit.placement);
    }

    #[test]
    fn spec_seed_drives_the_trace() {
        let spec = quick_spec("hotspot");
        let sim = quick_sim();
        let base = RunBuilder::new(&spec, &sim).run();
        let same = RunBuilder::new(&spec, &sim).run();
        let reseeded = WorkloadSpec {
            seed: spec.seed ^ 0xDEAD,
            ..spec.clone()
        };
        let different = RunBuilder::new(&reseeded, &sim).run();
        assert_eq!(base.report.cycles, same.report.cycles);
        assert_ne!(base.report.cycles, different.report.cycles);
    }

    #[test]
    fn geomean_basics() {
        assert_eq!(geomean(&[]), 0.0);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[3.0]) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn bo_traffic_target_matches_paper() {
        assert!((bo_traffic_target(&SimConfig::paper_baseline()) - 5.0 / 7.0).abs() < 1e-12);
    }
}
