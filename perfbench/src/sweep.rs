//! The in-process simulator sweeps: sim-full and sim-sampled.
//!
//! The untraced run measures whole grid points through `RunBuilder`,
//! the path every figure and the serve `simulate` op take. The traced
//! run assembles each point by hand from the crates' public functions,
//! so each layer gets its own span, and checks that the hand-assembled
//! simulator reproduces `RunBuilder`'s digest.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::rc::Rc;
use std::time::{Duration, Instant};

use gpusim::{
    run_sampled, Fidelity, NullObserver, SampleConfig, SimConfig, SimReport, Simulator, WarpId,
    WarpProgram,
};
use hetmem::{
    bo_traffic_target, profile_workload, topology_for, Capacity, HmRuntime, OnlineMigrator,
    OsTranslator, Placement, RunBuilder, WorkloadRun,
};
use hetmem_harness::fnv1a;
use hetmem_harness::rng::mix;
use hmtypes::MemKind;
use mempolicy::{AddressSpace, Mempolicy, ZoneId};
use profiler::{OraclePlacement, PageHistogram};
use workloads::{catalog, TraceProgram, WorkloadSpec};

use crate::report::{peak_rss_mb, Calibrator, Outcome, Samples, CALIBRATOR_BYTES};
use crate::spans::Tracer;
use crate::{Args, DEFAULT_SEED};

/// Where the committed references live, relative to the checkout root.
const REFERENCE: &str = "perfbench/reference.txt";

/// bfs (graph), lbm (streaming), sgemm (cache-resident), xsbench
/// (random lookup): four access patterns that load different parts of
/// the memory system.
const WORKLOADS: [&str; 4] = ["bfs", "lbm", "sgemm", "xsbench"];
const POLICIES: [&str; 2] = ["LOCAL", "BW-AWARE"];
const MIGRATE: &str = "MIGRATE:epoch=20000+hot=4";
const MIGRATE_ON: [&str; 2] = ["bfs", "lbm"];
const ORACLE_ON: &str = "xsbench";
const ORACLE_BO_FRACTION: f64 = 0.10;

/// Memory ops per grid point. Sampled points run 20x the ops of full
/// ones, the length the production sampling schedule was tuned at.
const FULL_OPS: u64 = 100_000;
const SAMPLED_OPS: u64 = 2_000_000;
/// Smoke runs divide every size by this.
const SMOKE_DIVISOR: u64 = 20;
/// Set-up is repeated this often and its median reported.
const SETUP_REPS: usize = 5;
/// Largest sampled-vs-full bandwidth error (percent) a point may have
/// before it counts as failed. Over 17 seeds the largest per-point error
/// was 2–4% on most seeds and 8.7% at worst; the limit catches a broken
/// extrapolation, and `sampled.bw_error_pct` tracks the size.
pub const BW_ERROR_LIMIT_PCT: f64 = 15.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Full,
    Sampled,
}

impl Kind {
    pub const NAMES: [&'static str; 2] = ["sim-full", "sim-sampled"];

    pub fn parse(name: &str) -> Kind {
        if name == Self::NAMES[1] {
            Kind::Sampled
        } else {
            Kind::Full
        }
    }

    fn name(self) -> &'static str {
        match self {
            Kind::Full => Self::NAMES[0],
            Kind::Sampled => Self::NAMES[1],
        }
    }

    fn ops(self, smoke: bool) -> u64 {
        let ops = match self {
            Kind::Full => FULL_OPS,
            Kind::Sampled => SAMPLED_OPS,
        };
        if smoke {
            ops / SMOKE_DIVISOR
        } else {
            ops
        }
    }
}

#[derive(Debug, Clone)]
enum Strategy {
    Policy(Mempolicy),
    Oracle,
}

/// One grid point: a workload with its generated inputs and a placement
/// strategy.
#[derive(Debug, Clone)]
struct Point {
    label: String,
    spec: WorkloadSpec,
    strategy: Strategy,
}

impl Point {
    fn capacity(&self) -> Capacity {
        match self.strategy {
            Strategy::Oracle => Capacity::FractionOfFootprint(ORACLE_BO_FRACTION),
            Strategy::Policy(_) => Capacity::Unconstrained,
        }
    }
}

/// Everything a run needs before its first timed point.
struct Setup {
    sim: SimConfig,
    fidelity: Fidelity,
    points: Vec<Point>,
    reference: Option<Reference>,
}

fn sim_config() -> SimConfig {
    SimConfig::paper_baseline()
}

/// The sim-full workload seed of `name` under benchmark seed `seed`.
fn workload_seed(seed: u64, name: &str) -> u64 {
    mix(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ fnv1a(name.as_bytes()))
}

/// The grid; `seed` picks every workload's trace seed. The sampling
/// schedule stays the production one: its seed decides how many windows
/// each point simulates in detail, which would change the work done.
fn points(kind: Kind, seed: u64, smoke: bool, sim: &SimConfig) -> Vec<Point> {
    let topo = topology_for(sim, &vec![1; sim.pools.len()]);
    let policy = |s: &str| Strategy::Policy(Mempolicy::parse(s, &topo).expect("valid policy"));
    let mut out = Vec::new();
    let mut push = |name: &str, label: &str, strategy: Strategy| {
        let mut spec = catalog::by_name(name).expect("catalog workload");
        spec.mem_ops = kind.ops(smoke);
        spec.seed = workload_seed(seed, name);
        out.push(Point {
            label: format!("{name}/{label}"),
            spec,
            strategy,
        });
    };
    for w in WORKLOADS {
        for p in POLICIES {
            push(w, p, policy(p));
        }
    }
    if kind == Kind::Full {
        for w in MIGRATE_ON {
            push(w, "MIGRATE", policy(MIGRATE));
        }
        push(ORACLE_ON, "ORACLE", Strategy::Oracle);
    }
    out
}

fn fidelity(kind: Kind) -> Fidelity {
    match kind {
        Kind::Full => Fidelity::Full,
        Kind::Sampled => Fidelity::Sampled(SampleConfig::default()),
    }
}

fn setup(kind: Kind, args: &Args) -> Result<Setup, String> {
    let sim = sim_config();
    let points = points(kind, args.seed, args.smoke, &sim);
    let reference = if args.smoke {
        None
    } else {
        Some(Reference::load()?)
    };
    Ok(Setup {
        fidelity: fidelity(kind),
        sim,
        points,
        reference,
    })
}

/// Runs one point through `RunBuilder`, profiling first for ORACLE.
fn run_point(p: &Point, sim: &SimConfig, fidelity: Fidelity) -> WorkloadRun {
    let placement = match &p.strategy {
        Strategy::Policy(pol) => Placement::Policy(pol.clone()),
        Strategy::Oracle => Placement::Oracle(profile_workload(&p.spec, sim).0),
    };
    RunBuilder::new(&p.spec, sim)
        .capacity(p.capacity())
        .placement(&placement)
        .fidelity(fidelity)
        .run()
}

/// FNV-1a over cycles, completion, mem ops, per-pool bytes read and
/// written, and the migration counters.
fn digest(r: &SimReport) -> u64 {
    let mut s = format!("{} {} {}", r.cycles, r.completed, r.mem_ops);
    for p in &r.pools {
        s.push_str(&format!(" {}:{}/{}", p.name, p.bytes_read, p.bytes_written));
    }
    if let Some(m) = &r.migration {
        s.push_str(&format!(
            " mig {} {} {} {} {} {}",
            m.pages_promoted,
            m.pages_demoted,
            m.pages_evicted,
            m.epochs,
            m.copy_bytes,
            m.remap_stall_cycles
        ));
    }
    fnv1a(s.as_bytes())
}

fn bandwidth_gbps(r: &SimReport, sim: &SimConfig) -> f64 {
    r.achieved_bandwidth(sim.sm_clock_ghz).gbps()
}

/// Fingerprint of the generated inputs: every point's trace seed.
fn inputs_fingerprint(setup: &Setup) -> u64 {
    let mut s = String::new();
    for p in &setup.points {
        s.push_str(&format!("{}:{} ", p.label, p.spec.seed));
    }
    fnv1a(s.as_bytes())
}

/// The committed references: sim-full digests at the default seed and
/// the full-fidelity bandwidth of every sim-sampled point.
struct Reference {
    digests: BTreeMap<String, u64>,
    bandwidth: BTreeMap<String, f64>,
}

fn reference_config() -> String {
    let sim = sim_config();
    format!(
        "full_ops={FULL_OPS} sampled_ops={SAMPLED_OPS} sms={} seed={DEFAULT_SEED}",
        sim.num_sms
    )
}

impl Reference {
    fn load() -> Result<Reference, String> {
        let text = std::fs::read_to_string(REFERENCE)
            .map_err(|e| format!("cannot read {REFERENCE}: {e}"))?;
        let mut digests = BTreeMap::new();
        let mut bandwidth = BTreeMap::new();
        let mut config = None;
        for line in text
            .lines()
            .filter(|l| !l.starts_with('#') && !l.is_empty())
        {
            let (kind, rest) = line.split_once(' ').ok_or("malformed reference line")?;
            match kind {
                "config" => config = Some(rest.to_string()),
                "digest" | "bw" => {
                    let (label, value) = rest.split_once(' ').ok_or("malformed reference line")?;
                    if kind == "digest" {
                        let d = u64::from_str_radix(value, 16).map_err(|e| e.to_string())?;
                        digests.insert(label.to_string(), d);
                    } else {
                        let bw = value.parse().map_err(|e| format!("{e}"))?;
                        bandwidth.insert(label.to_string(), bw);
                    }
                }
                other => return Err(format!("unknown reference entry '{other}'")),
            }
        }
        if config.as_deref() != Some(reference_config().as_str()) {
            return Err(format!(
                "{REFERENCE} was recorded for another configuration; rerun with --bless"
            ));
        }
        Ok(Reference { digests, bandwidth })
    }
}

/// Rewrites the reference file from fresh runs at the default seed.
pub fn bless() -> Result<String, String> {
    let sim = sim_config();
    let mut text = format!(
        "# sim-full digests at seed {DEFAULT_SEED} and the full-fidelity achieved bandwidth \
         (GB/s) of every sim-sampled point; regenerate with `perfbench --bless`\n\
         config {}\n",
        reference_config()
    );
    for p in points(Kind::Full, DEFAULT_SEED, false, &sim) {
        let run = run_point(&p, &sim, Fidelity::Full);
        text.push_str(&format!(
            "digest {} {:016x}\n",
            p.label,
            digest(&run.report)
        ));
    }
    for p in points(Kind::Sampled, DEFAULT_SEED, false, &sim) {
        let run = run_point(&p, &sim, Fidelity::Full);
        text.push_str(&format!(
            "bw {} {}\n",
            p.label,
            bandwidth_gbps(&run.report, &sim)
        ));
    }
    std::fs::write(REFERENCE, text).map_err(|e| format!("cannot write {REFERENCE}: {e}"))?;
    Ok(REFERENCE.to_string())
}

/// Per-point output checks shared by the untraced and traced runs.
struct Checker {
    /// Each point's first digest and (sim-sampled) achieved bandwidth.
    first: BTreeMap<String, (u64, f64)>,
}

impl Checker {
    fn new() -> Self {
        Checker {
            first: BTreeMap::new(),
        }
    }

    /// Checks one point's report: completion, the same digest as the
    /// point's first repetition and, for sim-full at the default seed,
    /// the committed digest.
    fn check(&mut self, setup: &Setup, p: &Point, r: &SimReport, seed: u64) -> Vec<String> {
        let mut errors = Vec::new();
        if !r.completed {
            errors.push(format!("{} did not complete", p.label));
        }
        let d = digest(r);
        let (first, _) = *self
            .first
            .entry(p.label.clone())
            .or_insert((d, bandwidth_gbps(r, &setup.sim)));
        if d != first {
            errors.push(format!(
                "{} digest {d:016x} differs from its first run {first:016x}",
                p.label
            ));
        }
        let reference = setup.reference.as_ref().filter(|_| seed == DEFAULT_SEED);
        if let (Fidelity::Full, Some(reference)) = (setup.fidelity, reference) {
            match reference.digests.get(&p.label) {
                Some(&want) if want == d => {}
                Some(&want) => errors.push(format!(
                    "{} digest {d:016x} differs from the reference {want:016x}",
                    p.label
                )),
                None => errors.push(format!("{} has no reference digest", p.label)),
            }
        }
        errors
    }

    /// sim-sampled accuracy, checked once per point after the timed
    /// phase: each point's achieved bandwidth against the same point at
    /// full fidelity, committed for the default seed and simulated here
    /// for any other. Returns the largest error, in percent.
    fn accuracy(&self, out: &mut Outcome, setup: &Setup, seed: u64) -> f64 {
        let mut largest = 0.0f64;
        for p in &setup.points {
            let Some(&(_, sampled)) = self.first.get(&p.label) else {
                continue;
            };
            let committed = setup
                .reference
                .as_ref()
                .filter(|_| seed == DEFAULT_SEED)
                .and_then(|r| r.bandwidth.get(&p.label).copied());
            let full = committed.unwrap_or_else(|| {
                bandwidth_gbps(&run_point(p, &setup.sim, Fidelity::Full).report, &setup.sim)
            });
            let err = (sampled - full).abs() / full * 100.0;
            largest = largest.max(err);
            out.op(err <= BW_ERROR_LIMIT_PCT, || {
                format!(
                    "{} sampled bandwidth error {err:.2}% exceeds {BW_ERROR_LIMIT_PCT}%",
                    p.label
                )
            });
        }
        largest
    }
}

/// The untraced run: set-up repeated [`SETUP_REPS`] times, then whole
/// passes over the grid until `args.seconds` have elapsed. Throughput is
/// the grid's memory ops over the sum of each point's median wall time,
/// rescaled to the reference host speed.
pub fn run(kind: Kind, args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut cal = Calibrator::new();
    let mut setup_s = Samples::default();
    let mut prepared = None;
    for _ in 0..SETUP_REPS {
        let (s, t) = cal.time(|| {
            let s = setup(kind, args)?;
            black_box(run_point(&s.points[0], &s.sim, s.fidelity));
            Ok::<_, String>(s)
        });
        setup_s.push(t.scaled_s);
        prepared = Some(s?);
    }
    let s = prepared.expect("at least one set-up");
    out.note(format!(
        "workload {} seed {} inputs {:016x}",
        kind.name(),
        args.seed,
        inputs_fingerprint(&s)
    ));

    let mut checker = Checker::new();
    let mut walls = vec![Samples::default(); s.points.len()];
    let mut pass_ops = vec![0u64; s.points.len()];
    let (mut raw_s, mut total_ops, mut passes) = (0.0, 0u64, 0);
    let start = Instant::now();
    while passes < 2 || start.elapsed() < args.seconds {
        for (i, p) in s.points.iter().enumerate() {
            let (run, t) = cal.time(|| run_point(p, &s.sim, s.fidelity));
            walls[i].push(t.scaled_s);
            raw_s += t.raw_s;
            pass_ops[i] = run.report.mem_ops;
            total_ops += run.report.mem_ops;
            let errors = checker.check(&s, p, &run.report, args.seed);
            out.op(errors.is_empty(), || errors.join("; "));
        }
        passes += 1;
    }
    let median_pass_s: f64 = walls.iter().filter_map(Samples::median).sum();
    let rss = peak_rss_mb("self").map(|mb| mb - CALIBRATOR_BYTES as f64 / (1 << 20) as f64);

    out.pct_metric("setup_s", &setup_s, 0.5, "s");
    out.metric(
        "mem_ops_per_s",
        pass_ops.iter().sum::<u64>() as f64 / median_pass_s,
        "1/s",
    );
    out.metric("peak_rss_mb", rss.unwrap_or(f64::NAN), "MB");
    out.note(format!(
        "mem_ops_per_s over the per-point medians of {passes} passes of {} points; \
         unscaled: {total_ops} memory ops in {raw_s:.3} s = {:.0}/s",
        s.points.len(),
        total_ops as f64 / raw_s
    ));
    if kind == Kind::Sampled {
        let largest = checker.accuracy(&mut out, &s, args.seed);
        out.note(format!("largest sampled bandwidth error {largest:.3}%"));
    }
    Ok(out)
}

/// A point assembled by hand, ready to simulate.
struct Prepared {
    mm: Rc<RefCell<AddressSpace>>,
    translator: OsTranslator,
    program: TraceProgram,
    bases: Vec<hmtypes::VirtAddr>,
}

/// What `RunBuilder` does before simulating: topology, runtime, policy,
/// one allocation per structure (plus the oracle's pre-placement), the
/// trace program and the translator.
fn prepare(
    p: &Point,
    sim: &SimConfig,
    oracle: Option<&PageHistogram>,
    tracer: &mut Tracer,
) -> Prepared {
    p.spec.validate();
    let footprint = p.spec.footprint_pages();
    let bo_pages = p.capacity().bo_pages(footprint);
    let topo = topology_for(sim, &[bo_pages, footprint + 64]);
    let mut rt = HmRuntime::new(topo);
    if let Strategy::Policy(pol) = &p.strategy {
        rt.set_policy(pol.clone());
    }
    for s in &p.spec.structures {
        rt.malloc(s.name, s.bytes).expect("allocation");
    }
    if let Some(hist) = oracle {
        let (placement, _) = tracer.span("profiler.oracle", |_| {
            OraclePlacement::compute(hist, bo_pages, bo_traffic_target(sim))
        });
        preplace(&rt, &placement);
    }
    let bases: Vec<_> = rt.allocations().iter().map(|a| a.range.start).collect();
    let program = TraceProgram::new(&p.spec, &bases, sim.num_sms);
    let mm = rt.address_space();
    let translator = OsTranslator::new(Rc::clone(&mm));
    Prepared {
        mm,
        translator,
        program,
        bases,
    }
}

/// Maps the oracle's BO set first, then every other page to CO, in page
/// order, as the oracle placement strategy does.
fn preplace(rt: &HmRuntime, oracle: &OraclePlacement) {
    let mm = rt.address_space();
    let mut mm = mm.borrow_mut();
    let topo = mm.topology().clone();
    let bo = topo
        .zone_of_kind(MemKind::BandwidthOptimized)
        .unwrap_or(ZoneId::new(0));
    let co = topo
        .zone_of_kind(MemKind::CapacityOptimized)
        .unwrap_or(ZoneId::new(0));
    for page in oracle.bo_pages() {
        mm.ensure_mapped_in(page, &[bo, co])
            .expect("oracle BO page");
    }
    for range in rt.alloc_ranges() {
        for page in range.pages() {
            if !oracle.is_bo(page) {
                mm.ensure_mapped_in(page, &[co, bo])
                    .expect("oracle CO page");
            }
        }
    }
}

/// Drains a fresh copy of the point's program warp by warp, through
/// `next_op` or `skip_ops`, and returns the ops drained.
fn drain(p: &Point, sim: &SimConfig, bases: &[hmtypes::VirtAddr], skip: bool) -> u64 {
    let mut program = TraceProgram::new(&p.spec, bases, sim.num_sms);
    let warps = sim.num_sms * program.warps_per_sm().min(sim.max_warps_per_sm).max(1);
    let mut ops = 0;
    for w in 0..warps {
        if skip {
            ops += program.skip_ops(WarpId(w), u64::MAX).0;
        } else {
            while let Some(op) = program.next_op(WarpId(w)) {
                black_box(op);
                ops += 1;
            }
        }
    }
    ops
}

/// Per-pass model output of the hand-assembled runs.
#[derive(Default)]
struct PassTotals {
    events: u64,
    mem_ops: u64,
    cycles: u64,
    l1: (u64, u64),
    l2: (u64, u64),
    row_hits_weighted: f64,
    dram_bytes: u64,
    mshr_stalls: u64,
    pages_moved: u64,
    epochs: u64,
    windows_detail: u64,
    ops_simulated: u64,
    ops_total: u64,
    min_confidence: Option<f64>,
}

impl PassTotals {
    fn add(&mut self, r: &SimReport, events: u64) {
        self.events += events;
        self.mem_ops += r.mem_ops;
        self.cycles += r.cycles;
        self.l1 = (self.l1.0 + r.l1.0, self.l1.1 + r.l1.1);
        self.l2 = (self.l2.0 + r.l2.0, self.l2.1 + r.l2.1);
        for pool in &r.pools {
            self.row_hits_weighted += pool.row_hit_rate * pool.bytes_total() as f64;
            self.dram_bytes += pool.bytes_total();
        }
        self.mshr_stalls += r.mshr_stalls;
        if let Some(m) = &r.migration {
            self.pages_moved += m.pages_migrated();
            self.epochs += m.epochs;
        }
        if let Some(e) = &r.estimated {
            self.windows_detail += e.windows_detail;
            self.ops_simulated += e.ops_simulated;
            self.ops_total += e.ops_simulated + e.ops_extrapolated;
            self.min_confidence = Some(
                self.min_confidence
                    .map_or(e.confidence, |c| c.min(e.confidence)),
            );
        }
    }
}

fn rate((hits, misses): (u64, u64)) -> f64 {
    hits as f64 / (hits + misses).max(1) as f64
}

/// The traced run of one sweep for `seconds`: each point runs through
/// `RunBuilder` untraced, then hand-assembled inside spans, then its
/// program is drained without simulating.
pub fn run_traced(
    kind: Kind,
    args: &Args,
    seconds: Duration,
    tracer: &mut Tracer,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let s = setup(kind, args)?;
    tracer.set_track(match kind {
        Kind::Full => 1,
        Kind::Sampled => 2,
    });
    let mut checker = Checker::new();
    let mut untraced_ns = 0.0;
    let mut traced_ns = 0.0;
    let mut drained_ops = 0u64;
    let mut first_pass = PassTotals::default();
    let mut sim_ns: BTreeMap<String, Samples> = BTreeMap::new();
    let mut passes = 0;
    let start = Instant::now();
    while passes == 0 || start.elapsed() < seconds {
        let mut totals = PassTotals::default();
        for p in &s.points {
            let t = Instant::now();
            let reference = run_point(p, &s.sim, s.fidelity);
            untraced_ns += t.elapsed().as_nanos() as f64;

            let ((report, events, bases), ns) = tracer.span("point", |tr| {
                let hist = match p.strategy {
                    Strategy::Oracle => Some(
                        tr.span("profiler.profile", |_| profile_workload(&p.spec, &s.sim).0)
                            .0,
                    ),
                    Strategy::Policy(_) => None,
                };
                let (prep, _) = tr.span("mempolicy.prepare", |tr| {
                    prepare(p, &s.sim, hist.as_ref(), tr)
                });
                let Prepared {
                    mm,
                    translator,
                    program,
                    bases,
                } = prep;
                let ((report, events), sim_span) = match s.fidelity {
                    Fidelity::Sampled(sc) => tr.span("sampled.run", |_| {
                        let (r, _, st) = run_sampled(
                            s.sim.clone(),
                            translator,
                            program,
                            sc,
                            NullObserver,
                            gpusim::NullMigrator,
                            false,
                        );
                        (r, st.events_processed)
                    }),
                    Fidelity::Full => tr.span("gpusim.run", |_| {
                        let sim = Simulator::new(s.sim.clone(), translator, program);
                        let migrate = match &p.strategy {
                            Strategy::Policy(pol) => pol.migrate_spec().copied(),
                            Strategy::Oracle => None,
                        };
                        let (r, _, st) = match migrate {
                            Some(ms) => sim
                                .with_migrator(OnlineMigrator::new(Rc::clone(&mm), ms, &s.sim))
                                .run_instrumented(),
                            None => sim.run_instrumented(),
                        };
                        (r, st.events_processed)
                    }),
                };
                sim_ns.entry(p.label.clone()).or_default().push(sim_span);
                (report, events, bases)
            });
            traced_ns += ns;

            let (ops, _) = match kind {
                Kind::Full => tracer.span("workloads.gen", |_| drain(p, &s.sim, &bases, false)),
                Kind::Sampled => tracer.span("workloads.skip", |_| drain(p, &s.sim, &bases, true)),
            };
            drained_ops += ops;

            let mut errors = checker.check(&s, p, &reference.report, args.seed);
            if digest(&report) != digest(&reference.report) {
                errors.push(format!(
                    "{}: hand-assembled simulator digest differs from RunBuilder's",
                    p.label
                ));
            }
            out.op(errors.is_empty(), || errors.join("; "));
            totals.add(&report, events);
        }
        if passes == 0 {
            first_pass = totals;
        }
        passes += 1;
    }

    let ms = |name: &str| tracer.durations(name).median().unwrap_or(f64::NAN) / 1e6;
    let overhead_pct = (traced_ns - untraced_ns) / untraced_ns * 100.0;
    let t = &first_pass;
    match kind {
        Kind::Full => {
            let sim_total_ns = tracer.durations("gpusim.run").sum();
            // Every pass simulates the same events, so the first pass's
            // count scales to the run.
            let events_all = t.events as f64 * passes as f64;
            out.metric(
                "workloads.gen_ns_per_op",
                tracer.durations("workloads.gen").sum() / drained_ops as f64,
                "ns",
            );
            out.metric("mempolicy.prepare_ms", ms("mempolicy.prepare"), "ms");
            out.metric("gpusim.run_ms", ms("gpusim.run"), "ms");
            out.metric("gpusim.events", t.events as f64, "count");
            out.metric("gpusim.ns_per_event", sim_total_ns / events_all, "ns");
            out.metric(
                "gpusim.events_per_mem_op",
                t.events as f64 / t.mem_ops as f64,
                "ratio",
            );
            out.metric("gpusim.sim_cycles", t.cycles as f64, "cycles");
            out.metric("gpusim.l1_hit_rate", rate(t.l1), "ratio");
            out.metric("gpusim.l2_hit_rate", rate(t.l2), "ratio");
            out.metric(
                "gpusim.row_hit_rate",
                t.row_hits_weighted / t.dram_bytes.max(1) as f64,
                "ratio",
            );
            out.metric("gpusim.mshr_stalls", t.mshr_stalls as f64, "count");
            out.metric("migrate.pages_moved", t.pages_moved as f64, "count");
            out.metric("migrate.epochs", t.epochs as f64, "count");
            let share: Vec<f64> = MIGRATE_ON
                .iter()
                .filter_map(|w| {
                    let mig = sim_ns.get(&format!("{w}/MIGRATE"))?.median()?;
                    let bwa = sim_ns.get(&format!("{w}/BW-AWARE"))?.median()?;
                    Some((mig - bwa) / mig)
                })
                .collect();
            out.metric(
                "migrate.overhead_share",
                share.iter().sum::<f64>() / share.len() as f64,
                "ratio",
            );
            out.metric("profiler.profile_ms", ms("profiler.profile"), "ms");
            out.metric("profiler.oracle_ms", ms("profiler.oracle"), "ms");
            out.metric("trace.sim_full_overhead_pct", overhead_pct, "%");
        }
        Kind::Sampled => {
            out.metric(
                "workloads.skip_ns_per_op",
                tracer.durations("workloads.skip").sum() / drained_ops as f64,
                "ns",
            );
            out.metric("sampled.run_ms", ms("sampled.run"), "ms");
            out.metric(
                "sampled.detail_ops_share",
                t.ops_simulated as f64 / t.ops_total as f64,
                "ratio",
            );
            out.metric("sampled.windows_detail", t.windows_detail as f64, "count");
            out.metric(
                "sampled.confidence",
                t.min_confidence.unwrap_or(f64::NAN),
                "ratio",
            );
            let largest = checker.accuracy(&mut out, &s, args.seed);
            out.metric("sampled.bw_error_pct", largest, "%");
            out.metric("trace.sim_sampled_overhead_pct", overhead_pct, "%");
        }
    }
    out.note(format!(
        "{} traced: {passes} passes, untraced {:.1} ms, traced {:.1} ms",
        kind.name(),
        untraced_ns / 1e6,
        traced_ns / 1e6
    ));
    Ok(out)
}
