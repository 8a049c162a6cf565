//! Experiment drivers regenerating every table and figure of the
//! paper's evaluation.
//!
//! Each `figN` function returns a [`Table`] (or richer data for the CDF
//! figures) whose rows/series mirror what the paper plots; the
//! `hetmem-bench` crate wraps each in a binary.
//! Absolute numbers differ from the paper (different substrate); the
//! *shapes* — who wins, by what factor, where crossovers fall — are the
//! reproduction targets recorded in `EXPERIMENTS.md`.

use std::path::PathBuf;
use std::sync::Arc;

use gpusim::{CacheConfig, EventTracer, Fidelity, SimConfig};
use hmtypes::{Bandwidth, Percent};
use mempolicy::{Mempolicy, PolicyMode, ZoneId};
use profiler::{Cdf, PageHistogram, RunProfile};
use workloads::{catalog, WorkloadSpec};

use crate::grid::{self, RunPoint, TelemetrySink};
use crate::runner::{
    check_fidelity, geomean, hints_from_profile, profile_workload, Capacity, Placement,
};
use crate::translate::topology_for;

/// Options shared by all experiment drivers.
#[derive(Debug, Clone)]
pub struct ExpOptions {
    /// The simulated machine (defaults to Table 1).
    pub sim: SimConfig,
    /// Scales every workload's `mem_ops` (1.0 = full scale; `--quick`
    /// uses less).
    pub ops_scale: f64,
    /// Restrict to these workloads (`None` = all 19).
    pub workloads: Option<Vec<String>>,
    /// Print per-run progress to stderr.
    pub verbose: bool,
    /// Worker threads for grid sweeps (`0` = one per available CPU).
    /// Results are identical at any thread count.
    pub threads: usize,
    /// When set, every sweep appends its run records to the sink's
    /// per-figure JSONL files.
    pub telemetry: Option<Arc<TelemetrySink>>,
    /// When set, figure sweeps run observed and emit one `interval`
    /// record per this-many-cycles window through the telemetry sink
    /// (requires `telemetry` for the records to land anywhere).
    pub sample_cycles: Option<u64>,
    /// When set, figure sweeps run observed and write one Chrome trace
    /// file per grid point into this directory.
    pub trace: Option<PathBuf>,
    /// Event budget per traced run (drops beyond it are counted and
    /// flagged with a `truncated` marker in the trace).
    pub trace_budget: usize,
    /// Simulation fidelity for every grid point (default
    /// [`Fidelity::Full`]; sampled runs carry `estimated` blocks and
    /// mode-tagged interval records).
    pub fidelity: Fidelity,
}

impl Default for ExpOptions {
    fn default() -> Self {
        ExpOptions {
            sim: SimConfig::paper_baseline(),
            ops_scale: 1.0,
            workloads: None,
            verbose: false,
            threads: 0,
            telemetry: None,
            sample_cycles: None,
            trace: None,
            trace_budget: EventTracer::DEFAULT_BUDGET,
            fidelity: Fidelity::Full,
        }
    }
}

impl ExpOptions {
    /// A scaled-down configuration for tests and smoke runs: 4 SMs,
    /// ~15% of the memory operations, three representative workloads.
    pub fn quick() -> Self {
        let mut sim = SimConfig::paper_baseline();
        sim.num_sms = 4;
        ExpOptions {
            sim,
            ops_scale: 0.15,
            workloads: Some(vec![
                "bfs".to_string(),
                "lbm".to_string(),
                "sgemm".to_string(),
            ]),
            verbose: false,
            threads: 0,
            telemetry: None,
            sample_cycles: None,
            trace: None,
            trace_budget: EventTracer::DEFAULT_BUDGET,
            fidelity: Fidelity::Full,
        }
    }

    /// The selected workload specs, ops-scaled.
    pub fn specs(&self) -> Vec<WorkloadSpec> {
        catalog::all()
            .into_iter()
            .filter(|w| {
                self.workloads
                    .as_ref()
                    .is_none_or(|names| names.iter().any(|n| n == w.name))
            })
            .map(|w| self.scale(w))
            .collect()
    }

    /// Applies the ops scale to one spec.
    pub fn scale(&self, mut spec: WorkloadSpec) -> WorkloadSpec {
        spec.mem_ops = ((spec.mem_ops as f64 * self.ops_scale) as u64).max(5_000);
        spec
    }
}

/// A labelled numeric table: one row per workload (plus summary rows),
/// one column per configuration — the shape every figure reduces to.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// Table caption (figure id and what it shows).
    pub title: String,
    /// Column headers (not counting the row-label column).
    pub columns: Vec<String>,
    /// `(row label, one value per column)`.
    pub rows: Vec<(String, Vec<f64>)>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: impl Into<String>, columns: Vec<String>) -> Self {
        Table {
            title: title.into(),
            columns,
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the value count differs from the column count.
    pub fn push_row(&mut self, label: impl Into<String>, values: Vec<f64>) {
        assert_eq!(values.len(), self.columns.len(), "row arity");
        self.rows.push((label.into(), values));
    }

    /// Appends a geometric-mean summary row over the current rows.
    pub fn push_geomean(&mut self) {
        let cols = self.columns.len();
        let values = (0..cols)
            .map(|c| geomean(&self.rows.iter().map(|(_, v)| v[c]).collect::<Vec<_>>()))
            .collect();
        self.rows.push(("geomean".to_string(), values));
    }

    /// The value at `(row_label, column_label)`, if present.
    pub fn value(&self, row: &str, column: &str) -> Option<f64> {
        let c = self.columns.iter().position(|x| x == column)?;
        let (_, vals) = self.rows.iter().find(|(l, _)| l == row)?;
        vals.get(c).copied()
    }
}

impl core::fmt::Display for Table {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let widths: Vec<usize> = self.columns.iter().map(|c| c.len().max(11) + 1).collect();
        writeln!(f, "{}", self.title)?;
        write!(f, "{:<22}", "")?;
        for (c, w) in self.columns.iter().zip(&widths) {
            write!(f, "{c:>w$}")?;
        }
        writeln!(f)?;
        for (label, values) in &self.rows {
            write!(f, "{label:<22}")?;
            for (v, w) in values.iter().zip(&widths) {
                write!(f, "{v:>w$.3}")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// Fig. 1: BW-Ratio of bandwidth- vs capacity-optimized memory for
/// likely HPC, desktop, and mobile systems.
pub fn fig1() -> Table {
    let mut t = Table::new(
        "Fig. 1 — BW-Ratio of BO vs CO memory pools per system class",
        vec![
            "BO GB/s".to_string(),
            "CO GB/s".to_string(),
            "BW-Ratio".to_string(),
        ],
    );
    // (class, BO tech & aggregate bandwidth, CO tech & bandwidth).
    let systems = [
        ("HPC (4xHBM+DDR4)", 800.0, 100.0),
        ("Desktop (GDDR5+DDR4)", 200.0, 80.0),
        ("Mobile (WIO2+LPDDR4)", 51.2, 25.6),
    ];
    for (name, bo, co) in systems {
        t.push_row(name, vec![bo, co, bo / co]);
    }
    t
}

/// Table 1: the simulated system configuration, formatted.
pub fn table1(sim: &SimConfig) -> String {
    let mut s = String::new();
    use core::fmt::Write;
    let _ = writeln!(s, "Table 1 — Simulation environment");
    let _ = writeln!(
        s,
        "  GPU Cores        {} SMs @ {:.1} GHz",
        sim.num_sms, sim.sm_clock_ghz
    );
    let _ = writeln!(
        s,
        "  L1 Caches        {} kB/SM, {} ways",
        sim.l1.capacity_bytes / 1024,
        sim.l1.ways
    );
    let _ = writeln!(
        s,
        "  L2 Caches        memory side, {} kB/DRAM channel, {} ways",
        sim.l2.capacity_bytes / 1024,
        sim.l2.ways
    );
    let _ = writeln!(s, "  L2 MSHRs         {} entries/L2 slice", sim.l2_mshrs);
    for p in &sim.pools {
        let _ = writeln!(
            s,
            "  {:<16} {} channels, {} aggregate, +{} cycles",
            p.name, p.channels, p.bandwidth, p.extra_latency
        );
    }
    let t = sim.pools[0].timing;
    let _ = writeln!(
        s,
        "  DRAM timings     RCD={} RP={} RC={} CL=WR={} (SM cycles)",
        t.rcd, t.rp, t.rc, t.cl
    );
    s
}

/// Fig. 2a: performance sensitivity to memory bandwidth. Each value is
/// speedup relative to the 1.0× column under `LOCAL` placement.
pub fn fig2a(opts: &ExpOptions) -> Table {
    let factors = [0.5, 0.75, 1.0, 1.5, 2.0];
    let mut t = Table::new(
        "Fig. 2a — GPU performance sensitivity to bandwidth scaling (vs 1.0x)",
        factors.iter().map(|f| format!("{f:.2}x")).collect(),
    );
    let specs = opts.specs();
    let points: Vec<RunPoint> = specs
        .iter()
        .flat_map(|spec| {
            factors.iter().map(move |&f| RunPoint {
                spec: spec.clone(),
                config: format!("{f:.2}x"),
                sim: opts.sim.clone().with_bo_bandwidth_scaled(f),
                capacity: Capacity::Unconstrained,
                placement: Placement::Policy(Mempolicy::local()),
            })
        })
        .collect();
    let runs = grid::run_point_sweep("fig2a", opts, &points);
    for (spec, chunk) in specs.iter().zip(runs.chunks(factors.len())) {
        let base = chunk[2].report.cycles as f64;
        t.push_row(
            spec.name,
            chunk
                .iter()
                .map(|r| base / r.report.cycles as f64)
                .collect(),
        );
    }
    t.push_geomean();
    t
}

/// Fig. 2b: performance sensitivity to added memory latency. Values are
/// speedup relative to the +0 column (≤ 1.0 means slowdown).
pub fn fig2b(opts: &ExpOptions) -> Table {
    let extra = [0u64, 100, 200, 400];
    let mut t = Table::new(
        "Fig. 2b — GPU performance sensitivity to added latency (vs +0)",
        extra.iter().map(|e| format!("+{e}cyc")).collect(),
    );
    let specs = opts.specs();
    let points: Vec<RunPoint> = specs
        .iter()
        .flat_map(|spec| {
            extra.iter().map(move |&e| RunPoint {
                spec: spec.clone(),
                config: format!("+{e}cyc"),
                sim: opts.sim.clone().with_extra_latency(e),
                capacity: Capacity::Unconstrained,
                placement: Placement::Policy(Mempolicy::local()),
            })
        })
        .collect();
    let runs = grid::run_point_sweep("fig2b", opts, &points);
    for (spec, chunk) in specs.iter().zip(runs.chunks(extra.len())) {
        let base = chunk[0].report.cycles as f64;
        t.push_row(
            spec.name,
            chunk
                .iter()
                .map(|r| base / r.report.cycles as f64)
                .collect(),
        );
    }
    t.push_geomean();
    t
}

/// Fig. 3: performance across `xC-yB` placement ratios plus the Linux
/// `LOCAL` and `INTERLEAVE` policies, unconstrained capacity, normalized
/// to `LOCAL`.
pub fn fig3(opts: &ExpOptions) -> Table {
    let ratios: [u8; 7] = [0, 10, 20, 30, 50, 70, 90];
    let mut columns = vec!["LOCAL".to_string(), "INTERLEAVE".to_string()];
    columns.extend(ratios.iter().map(|r| format!("{}C-{}B", r, 100 - r)));
    let mut t = Table::new(
        "Fig. 3 — placement-ratio sweep, unconstrained capacity (perf vs LOCAL)",
        columns,
    );
    let topo = topology_for(&opts.sim, &[1, 1]);
    let mut policies: Vec<(String, Mempolicy)> = vec![
        ("LOCAL".to_string(), Mempolicy::local()),
        ("INTERLEAVE".to_string(), Mempolicy::interleave_all(&topo)),
    ];
    policies.extend(ratios.iter().map(|&r| {
        (
            format!("{}C-{}B", r, 100 - r),
            Mempolicy::ratio_co(Percent::new(r)),
        )
    }));
    let specs = opts.specs();
    let points: Vec<RunPoint> = specs
        .iter()
        .flat_map(|spec| {
            policies.iter().map(move |(config, policy)| RunPoint {
                spec: spec.clone(),
                config: config.clone(),
                sim: opts.sim.clone(),
                capacity: Capacity::Unconstrained,
                placement: Placement::Policy(policy.clone()),
            })
        })
        .collect();
    let runs = grid::run_point_sweep("fig3", opts, &points);
    for (spec, chunk) in specs.iter().zip(runs.chunks(policies.len())) {
        let local = &chunk[0];
        t.push_row(
            spec.name,
            chunk.iter().map(|r| r.speedup_over(local)).collect(),
        );
    }
    t.push_geomean();
    t
}

/// Fig. 4: BW-AWARE performance as BO capacity shrinks relative to the
/// footprint, normalized to the 100% point per workload.
pub fn fig4(opts: &ExpOptions) -> Table {
    let fractions = [1.0, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1];
    let mut t = Table::new(
        "Fig. 4 — BW-AWARE performance vs BO capacity (fraction of footprint)",
        fractions
            .iter()
            .map(|f| format!("{:.0}%", f * 100.0))
            .collect(),
    );
    let topo = topology_for(&opts.sim, &[1, 1]);
    let specs = opts.specs();
    let points: Vec<RunPoint> = specs
        .iter()
        .flat_map(|spec| {
            let topo = &topo;
            fractions.iter().map(move |&f| RunPoint {
                spec: spec.clone(),
                config: format!("{:.0}%", f * 100.0),
                sim: opts.sim.clone(),
                capacity: Capacity::FractionOfFootprint(f),
                placement: Placement::Policy(Mempolicy::bw_aware_for(topo)),
            })
        })
        .collect();
    let runs = grid::run_point_sweep("fig4", opts, &points);
    for (spec, chunk) in specs.iter().zip(runs.chunks(fractions.len())) {
        let base = chunk[0].report.cycles as f64;
        t.push_row(
            spec.name,
            chunk
                .iter()
                .map(|r| base / r.report.cycles as f64)
                .collect(),
        );
    }
    t.push_geomean();
    t
}

/// Fig. 5: policy comparison as CO bandwidth varies, geomean speedup
/// over `LOCAL` at the paper's 80 GB/s baseline.
pub fn fig5(opts: &ExpOptions) -> Table {
    let co_gbps = [10.0, 40.0, 80.0, 120.0, 160.0, 200.0];
    let mut t = Table::new(
        "Fig. 5 — policies vs CO-pool bandwidth (geomean speedup over LOCAL@80)",
        co_gbps.iter().map(|b| format!("{b:.0}GB/s")).collect(),
    );
    let specs = opts.specs();
    // Per-workload LOCAL baseline at 80 GB/s CO (the Table 1 machine).
    let base_points: Vec<RunPoint> = specs
        .iter()
        .map(|spec| RunPoint {
            spec: spec.clone(),
            config: "LOCAL@80".to_string(),
            sim: opts.sim.clone(),
            capacity: Capacity::Unconstrained,
            placement: Placement::Policy(Mempolicy::local()),
        })
        .collect();
    let baselines: Vec<f64> = grid::run_point_sweep("fig5", opts, &base_points)
        .iter()
        .map(|r| r.report.cycles as f64)
        .collect();

    /// A named policy constructor over a topology.
    type NamedPolicy = (&'static str, fn(&mempolicy::NumaTopology) -> Mempolicy);
    let policies: [NamedPolicy; 3] = [
        ("LOCAL", |_| Mempolicy::local()),
        ("INTERLEAVE", Mempolicy::interleave_all),
        ("BW-AWARE", Mempolicy::bw_aware_for),
    ];
    let mut points = Vec::new();
    for (name, make_policy) in policies {
        for &bw in &co_gbps {
            let sim = opts.sim.clone().with_co_bandwidth(Bandwidth::from_gbps(bw));
            let topo = topology_for(&sim, &[1, 1]);
            let policy = make_policy(&topo);
            for spec in &specs {
                points.push(RunPoint {
                    spec: spec.clone(),
                    config: format!("{name}@{bw:.0}"),
                    sim: sim.clone(),
                    capacity: Capacity::Unconstrained,
                    placement: Placement::Policy(policy.clone()),
                });
            }
        }
    }
    let runs = grid::run_point_sweep("fig5", opts, &points);
    for (pi, (name, _)) in policies.iter().enumerate() {
        let values: Vec<f64> = (0..co_gbps.len())
            .map(|bi| {
                let chunk = &runs[(pi * co_gbps.len() + bi) * specs.len()..][..specs.len()];
                let speedups: Vec<f64> = chunk
                    .iter()
                    .zip(&baselines)
                    .map(|(r, &base)| base / r.report.cycles as f64)
                    .collect();
                geomean(&speedups)
            })
            .collect();
        t.push_row(*name, values);
    }
    t
}

/// Fig. 6: the per-workload bandwidth CDFs, plus a summary table of
/// traffic concentration (share of DRAM traffic from the hottest 10%
/// and 30% of pages).
pub fn fig6(opts: &ExpOptions) -> (Vec<(String, Cdf)>, Table) {
    let mut cdfs = Vec::new();
    let mut t = Table::new(
        "Fig. 6 — page access CDF summary (traffic share of hottest pages)",
        vec![
            "top10%".to_string(),
            "top30%".to_string(),
            "pages".to_string(),
        ],
    );
    let specs = opts.specs();
    let hists = grid::sweep(
        "fig6",
        opts,
        &specs,
        |s| format!("{}/profile", s.name),
        |s| profile_workload(s, &opts.sim).0,
    );
    for (spec, hist) in specs.iter().zip(&hists) {
        let cdf = hist.cdf();
        t.push_row(
            spec.name,
            vec![
                cdf.traffic_in_top(0.10),
                cdf.traffic_in_top(0.30),
                hist.touched_pages() as f64,
            ],
        );
        cdfs.push((spec.name.to_string(), cdf));
    }
    (cdfs, t)
}

/// Fig. 7 result for one workload: the per-structure attribution that
/// the CDF-vs-address scatter is colored by.
#[derive(Debug, Clone)]
pub struct Fig7Workload {
    /// Workload name.
    pub name: String,
    /// Per structure: (name, footprint share, traffic share, hotness/byte).
    pub structures: Vec<(String, f64, f64, f64)>,
    /// Traffic share of the hottest 10% of pages.
    pub top10: f64,
    /// Fraction of allocated pages never touched.
    pub untouched_frac: f64,
}

/// Fig. 7: CDF vs virtual-address layout for `bfs`, `mummergpu`, and
/// `needle` (the paper's three contrasting examples).
pub fn fig7(opts: &ExpOptions) -> Vec<Fig7Workload> {
    let specs: Vec<WorkloadSpec> = ["bfs", "mummergpu", "needle"]
        .iter()
        .map(|name| opts.scale(catalog::by_name(name).expect("catalog workload")))
        .collect();
    let profiles = grid::sweep(
        "fig7",
        opts,
        &specs,
        |s| format!("{}/profile", s.name),
        |s| profile_workload(s, &opts.sim),
    );
    specs
        .iter()
        .zip(profiles)
        .map(|(spec, (hist, profile))| {
            let footprint: u64 = spec.structures.iter().map(|s| s.bytes).sum();
            let structures = profile
                .structures()
                .iter()
                .map(|s| {
                    (
                        s.range.name.clone(),
                        s.range.bytes() as f64 / footprint as f64,
                        s.traffic_share,
                        s.hotness,
                    )
                })
                .collect();
            let allocated_pages: u64 = spec.structures.iter().map(|s| s.pages()).sum();
            Fig7Workload {
                name: spec.name.to_string(),
                structures,
                top10: hist.cdf().traffic_in_top(0.10),
                untouched_frac: 1.0 - hist.touched_pages() as f64 / allocated_pages as f64,
            }
        })
        .collect()
}

/// Fig. 8: oracle vs BW-AWARE placement, unconstrained and at 10% BO
/// capacity, normalized to unconstrained BW-AWARE.
pub fn fig8(opts: &ExpOptions) -> Table {
    let mut t = Table::new(
        "Fig. 8 — oracle vs BW-AWARE, unconstrained & 10% capacity (vs BW-AWARE@100%)",
        vec![
            "BWA@100%".to_string(),
            "Oracle@100%".to_string(),
            "BWA@10%".to_string(),
            "Oracle@10%".to_string(),
        ],
    );
    let topo = topology_for(&opts.sim, &[1, 1]);
    let specs = opts.specs();
    let hists: Vec<PageHistogram> = grid::sweep(
        "fig8",
        opts,
        &specs,
        |s| format!("{}/profile", s.name),
        |s| profile_workload(s, &opts.sim).0,
    );
    let mut points = Vec::new();
    for (spec, hist) in specs.iter().zip(&hists) {
        let bwa = Placement::Policy(Mempolicy::bw_aware_for(&topo));
        let oracle = Placement::Oracle(hist.clone());
        let configs = [
            ("BWA@100%", Capacity::Unconstrained, bwa.clone()),
            ("Oracle@100%", Capacity::Unconstrained, oracle.clone()),
            ("BWA@10%", Capacity::FractionOfFootprint(0.10), bwa),
            ("Oracle@10%", Capacity::FractionOfFootprint(0.10), oracle),
        ];
        for (config, capacity, placement) in configs {
            points.push(RunPoint {
                spec: spec.clone(),
                config: config.to_string(),
                sim: opts.sim.clone(),
                capacity,
                placement,
            });
        }
    }
    let runs = grid::run_point_sweep("fig8", opts, &points);
    for (spec, chunk) in specs.iter().zip(runs.chunks(4)) {
        let base = &chunk[0];
        t.push_row(
            spec.name,
            std::iter::once(1.0)
                .chain(chunk[1..].iter().map(|r| r.speedup_over(base)))
                .collect(),
        );
    }
    t.push_geomean();
    t
}

/// Fig. 10: annotation-hinted placement vs INTERLEAVE, BW-AWARE, and
/// oracle at 10% BO capacity, normalized to INTERLEAVE.
pub fn fig10(opts: &ExpOptions) -> Table {
    let mut t = Table::new(
        "Fig. 10 — profile-annotated placement at 10% capacity (vs INTERLEAVE)",
        vec![
            "INTERLEAVE".to_string(),
            "BW-AWARE".to_string(),
            "Annotated".to_string(),
            "Oracle".to_string(),
        ],
    );
    let cap = Capacity::FractionOfFootprint(0.10);
    let topo = topology_for(&opts.sim, &[1, 1]);
    let specs = opts.specs();
    let profiles = grid::sweep(
        "fig10",
        opts,
        &specs,
        |s| format!("{}/profile", s.name),
        |s| profile_workload(s, &opts.sim),
    );
    let mut points = Vec::new();
    for (spec, (hist, profile)) in specs.iter().zip(&profiles) {
        let hints = hints_from_profile(profile, spec, &opts.sim, cap);
        let configs = [
            (
                "INTERLEAVE",
                Placement::Policy(Mempolicy::interleave_all(&topo)),
            ),
            (
                "BW-AWARE",
                Placement::Policy(Mempolicy::bw_aware_for(&topo)),
            ),
            ("Annotated", Placement::Hinted(hints)),
            ("Oracle", Placement::Oracle(hist.clone())),
        ];
        for (config, placement) in configs {
            points.push(RunPoint {
                spec: spec.clone(),
                config: config.to_string(),
                sim: opts.sim.clone(),
                capacity: cap,
                placement,
            });
        }
    }
    let runs = grid::run_point_sweep("fig10", opts, &points);
    for (spec, chunk) in specs.iter().zip(runs.chunks(4)) {
        let inter = &chunk[0];
        t.push_row(
            spec.name,
            std::iter::once(1.0)
                .chain(chunk[1..].iter().map(|r| r.speedup_over(inter)))
                .collect(),
        );
    }
    t.push_geomean();
    t
}

/// Fig. 11: hint robustness across input datasets. Hints are computed
/// from dataset 0 (training); each row is one (workload, dataset) pair
/// with speedups over that dataset's INTERLEAVE run.
pub fn fig11(opts: &ExpOptions) -> Table {
    let mut t = Table::new(
        "Fig. 11 — annotated placement across datasets, trained on dataset 0 (vs INTERLEAVE)",
        vec![
            "INTERLEAVE".to_string(),
            "BW-AWARE".to_string(),
            "Annotated".to_string(),
            "Oracle".to_string(),
        ],
    );
    let cap = Capacity::FractionOfFootprint(0.10);
    let topo = topology_for(&opts.sim, &[1, 1]);
    let names = ["bfs", "xsbench", "minife", "mummergpu"];
    let families: Vec<(&str, Vec<WorkloadSpec>)> = names
        .iter()
        .map(|&name| {
            (
                name,
                catalog::datasets(name)
                    .into_iter()
                    .map(|s| opts.scale(s))
                    .collect(),
            )
        })
        .collect();
    // Train on each family's dataset 0.
    let train_specs: Vec<WorkloadSpec> = families.iter().map(|(_, sets)| sets[0].clone()).collect();
    let train_profiles: Vec<RunProfile> = grid::sweep(
        "fig11",
        opts,
        &train_specs,
        |s| format!("{}/train", s.name),
        |s| profile_workload(s, &opts.sim).1,
    );
    // Evaluate every other dataset: profile (for the oracle), then the
    // four placements.
    let evals: Vec<(usize, usize, WorkloadSpec)> = families
        .iter()
        .enumerate()
        .flat_map(|(fi, (_, sets))| {
            sets.iter()
                .enumerate()
                .skip(1)
                .map(move |(i, spec)| (fi, i, spec.clone()))
        })
        .collect();
    let eval_specs: Vec<WorkloadSpec> = evals.iter().map(|(_, _, s)| s.clone()).collect();
    let eval_hists: Vec<PageHistogram> = grid::sweep(
        "fig11",
        opts,
        &eval_specs,
        |s| format!("{}/profile", s.name),
        |s| profile_workload(s, &opts.sim).0,
    );
    let mut points = Vec::new();
    for ((fi, i, spec), hist) in evals.iter().zip(&eval_hists) {
        let hints = hints_from_profile(&train_profiles[*fi], spec, &opts.sim, cap);
        let configs = [
            (
                "INTERLEAVE",
                Placement::Policy(Mempolicy::interleave_all(&topo)),
            ),
            (
                "BW-AWARE",
                Placement::Policy(Mempolicy::bw_aware_for(&topo)),
            ),
            ("Annotated", Placement::Hinted(hints)),
            ("Oracle", Placement::Oracle(hist.clone())),
        ];
        for (config, placement) in configs {
            points.push(RunPoint {
                spec: spec.clone(),
                config: format!("{config}/ds{i}"),
                sim: opts.sim.clone(),
                capacity: cap,
                placement,
            });
        }
    }
    let runs = grid::run_point_sweep("fig11", opts, &points);
    for ((fi, i, _), chunk) in evals.iter().zip(runs.chunks(4)) {
        let inter = &chunk[0];
        t.push_row(
            format!("{}/ds{i}", families[*fi].0),
            std::iter::once(1.0)
                .chain(chunk[1..].iter().map(|r| r.speedup_over(inter)))
                .collect(),
        );
    }
    t.push_geomean();
    t
}

/// Extension: DRAM access energy per placement policy (the paper's §2.1
/// motivation — GDDR5 costs significantly more energy per access than
/// DDR4 — quantified for the placement policies). Energy in millijoules;
/// the last column is BW-AWARE's energy-delay product relative to LOCAL
/// (< 1 means BW-AWARE is better on both axes combined).
pub fn ext_energy(opts: &ExpOptions) -> Table {
    let mut t = Table::new(
        "Extension — DRAM access energy by placement policy (mJ; EDP vs LOCAL)",
        vec![
            "LOCAL".to_string(),
            "INTERLEAVE".to_string(),
            "BW-AWARE".to_string(),
            "BWA EDP/LOCAL".to_string(),
        ],
    );
    let topo = topology_for(&opts.sim, &[1, 1]);
    let ghz = opts.sim.sm_clock_ghz;
    let policies = [
        ("LOCAL", Mempolicy::local()),
        ("INTERLEAVE", Mempolicy::interleave_all(&topo)),
        ("BW-AWARE", Mempolicy::bw_aware_for(&topo)),
    ];
    let specs = opts.specs();
    let points: Vec<RunPoint> = specs
        .iter()
        .flat_map(|spec| {
            policies.iter().map(move |(config, policy)| RunPoint {
                spec: spec.clone(),
                config: config.to_string(),
                sim: opts.sim.clone(),
                capacity: Capacity::Unconstrained,
                placement: Placement::Policy(policy.clone()),
            })
        })
        .collect();
    let runs = grid::run_point_sweep("ext_energy", opts, &points);
    for (spec, chunk) in specs.iter().zip(runs.chunks(policies.len())) {
        let edp_rel =
            chunk[2].report.energy_delay_product(ghz) / chunk[0].report.energy_delay_product(ghz);
        t.push_row(
            spec.name,
            vec![
                chunk[0].report.dram_energy_joules() * 1e3,
                chunk[1].report.dram_energy_joules() * 1e3,
                chunk[2].report.dram_energy_joules() * 1e3,
                edp_rel,
            ],
        );
    }
    t.push_geomean();
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
    let hists = grid::sweep(
        "ext_reactive",
        opts,
        &specs,
        |s| format!("{}/profile", s.name),
        |s| profile_workload(s, &opts.sim).0,
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
            points.push(grid::RunPoint {
                spec: spec.clone(),
                config: config.to_string(),
                sim: opts.sim.clone(),
                capacity: cap,
                placement,
            });
        }
    }
    let runs = grid::run_point_sweep("ext_reactive", opts, &points);
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

/// The design-choice ablations of DESIGN §5, each on the workload that
/// shows it: L2 MSHRs per slice on lbm (§3.2.1: MSHRs hide the extra
/// interconnect hop), L2 slice capacity on xsbench, and BW-AWARE's
/// one-draw-per-page fast path against exact 3-in-10 striping of
/// 30C-70B on srad (§3.2.2). The sweeps are normalized to Table 1's
/// 128 MSHRs and 128 kB slices. `opts.workloads` is ignored.
pub fn ablations(opts: &ExpOptions) -> Vec<Table> {
    let point = |name, config: String, sim, policy| RunPoint {
        spec: opts.scale(catalog::by_name(name).expect("catalog workload")),
        config,
        sim,
        capacity: Capacity::Unconstrained,
        placement: Placement::Policy(policy),
    };
    const BASE_MSHRS: usize = 128;
    const BASE_KB: usize = 128;
    let mshrs = [8usize, 16, 32, 64, BASE_MSHRS, 256];
    let slice_kb = [32usize, 64, BASE_KB, 256, 512];
    let base_index = |sweep: &[usize], base| sweep.iter().position(|&x| x == base).unwrap();
    let mut points = Vec::new();
    for m in mshrs {
        let mut sim = opts.sim.clone();
        sim.l2_mshrs = m;
        points.push(point("lbm", m.to_string(), sim, Mempolicy::local()));
    }
    for kb in slice_kb {
        let mut sim = opts.sim.clone();
        sim.l2 = CacheConfig::new(kb * 1024, 8);
        points.push(point(
            "xsbench",
            format!("{kb} kB"),
            sim,
            Mempolicy::local(),
        ));
    }
    let stripe = (0..10).map(|i| ZoneId::new(usize::from(i < 3))).collect();
    for (config, policy) in [
        ("random", Mempolicy::ratio_co(Percent::new(30))),
        (
            "exact",
            Mempolicy::from_mode(PolicyMode::Interleave { nodes: stripe }),
        ),
    ] {
        points.push(point("srad", config.to_string(), opts.sim.clone(), policy));
    }
    let runs = grid::run_point_sweep("ablations", opts, &points);
    let labels =
        |range: std::ops::Range<usize>| points[range].iter().map(|p| p.config.clone()).collect();
    let (m, l) = (mshrs.len(), mshrs.len() + slice_kb.len());

    let mut mshr = Table::new(
        format!("Ablation — L2 MSHRs per slice (lbm, LOCAL; perf vs {BASE_MSHRS})"),
        labels(0..m),
    );
    let base = &runs[base_index(&mshrs, BASE_MSHRS)];
    mshr.push_row(
        "lbm",
        runs[..m].iter().map(|r| r.speedup_over(base)).collect(),
    );
    let stalls = runs[..m].iter().map(|r| r.report.mshr_stalls as f64);
    mshr.push_row("MSHR stalls", stalls.collect());

    let mut l2 = Table::new(
        format!("Ablation — L2 slice capacity (xsbench, LOCAL; perf vs {BASE_KB} kB)"),
        labels(m..l),
    );
    let base = &runs[m + base_index(&slice_kb, BASE_KB)];
    l2.push_row(
        "xsbench",
        runs[m..l].iter().map(|r| r.speedup_over(base)).collect(),
    );
    let hits = runs[m..l].iter().map(|r| r.report.l2_hit_rate());
    l2.push_row("L2 hit rate", hits.collect());

    let mut draw = Table::new(
        "Ablation — random-draw vs exact 30C-70B placement (srad)",
        vec!["CO traffic".to_string(), "perf vs random".to_string()],
    );
    for (p, r) in points[l..].iter().zip(&runs[l..]) {
        let co = r.report.pool_traffic_fraction(1);
        draw.push_row(p.config.clone(), vec![co, r.speedup_over(&runs[l])]);
    }
    vec![mshr, l2, draw]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ext_energy_bw_aware_wins_edp() {
        // Moving 30% of traffic to the lower-energy DDR4 pool reduces
        // DRAM energy while also being faster: EDP must clearly favor
        // BW-AWARE for a bandwidth-bound workload.
        let mut opts = ExpOptions::quick();
        opts.workloads = Some(vec!["lbm".to_string()]);
        let t = ext_energy(&opts);
        let local = t.value("lbm", "LOCAL").unwrap();
        let bwa = t.value("lbm", "BW-AWARE").unwrap();
        assert!(bwa < local, "BW-AWARE energy {bwa} vs LOCAL {local}");
        assert!(t.value("lbm", "BWA EDP/LOCAL").unwrap() < 0.9);
    }

    #[test]
    fn ext_reactive_migration_loses_to_static_bw_aware() {
        // Paper §5.5: initial placement matters more than moving pages
        // later. The engine must actually move pages, and its demand
        // bandwidth must still fall below static BW-AWARE's.
        let opts = ExpOptions::quick();
        let t = ext_reactive(&opts);
        for spec in opts.specs() {
            let moved = t.value(spec.name, "moved(pages)").unwrap();
            let mig = t.value(spec.name, "bw-eff(MIG)").unwrap();
            let bwa = t.value(spec.name, "bw-eff(BWA)").unwrap();
            assert!(moved > 0.0, "{}: MIGRATE moved no pages", spec.name);
            assert!(mig < bwa, "{}: MIGRATE {mig} vs BW-AWARE {bwa}", spec.name);
        }
    }

    #[test]
    fn ablations_cover_the_three_design_choices() {
        let t = ablations(&ExpOptions::quick());
        assert_eq!(t.len(), 3);
        // Too few MSHRs cannot hide DRAM latency (§3.2.1).
        assert!(t[0].value("lbm", "8").unwrap() < 0.9);
        assert!(
            t[1].value("L2 hit rate", "512 kB").unwrap()
                > t[1].value("L2 hit rate", "32 kB").unwrap()
        );
        // The random draw lands on the requested split, within a few
        // percent of exact striping's performance (§3.2.2).
        let co = t[2].value("random", "CO traffic").unwrap();
        assert!((co - 0.30).abs() < 0.02, "random CO traffic {co}");
        let exact = t[2].value("exact", "perf vs random").unwrap();
        assert!((exact - 1.0).abs() < 0.05, "exact vs random {exact}");
    }

    #[test]
    fn fig1_ratios_match_paper_classes() {
        let t = fig1();
        assert_eq!(t.rows.len(), 3);
        let hpc = t.value("HPC (4xHBM+DDR4)", "BW-Ratio").unwrap();
        let desktop = t.value("Desktop (GDDR5+DDR4)", "BW-Ratio").unwrap();
        let mobile = t.value("Mobile (WIO2+LPDDR4)", "BW-Ratio").unwrap();
        assert!(hpc >= 8.0);
        assert!((desktop - 2.5).abs() < 1e-12);
        assert!((mobile - 2.0).abs() < 1e-12);
    }

    #[test]
    fn table1_mentions_all_parts() {
        let s = table1(&SimConfig::paper_baseline());
        for needle in [
            "15 SMs",
            "16 kB/SM",
            "128 kB/DRAM channel",
            "GDDR5",
            "DDR4",
            "128 entries",
        ] {
            assert!(s.contains(needle), "missing {needle} in:\n{s}");
        }
    }

    #[test]
    fn table_push_and_lookup() {
        let mut t = Table::new("t", vec!["a".to_string(), "b".to_string()]);
        t.push_row("r1", vec![2.0, 8.0]);
        t.push_row("r2", vec![8.0, 2.0]);
        t.push_geomean();
        assert_eq!(t.value("geomean", "a"), Some(4.0));
        assert_eq!(t.value("r1", "b"), Some(8.0));
        assert_eq!(t.value("nope", "a"), None);
        let shown = t.to_string();
        assert!(shown.contains("geomean"));
    }

    #[test]
    fn quick_fig3_shape() {
        // The core claim at small scale: for a bandwidth-bound workload
        // the 30C-70B column beats LOCAL and INTERLEAVE.
        let mut opts = ExpOptions::quick();
        opts.workloads = Some(vec!["lbm".to_string()]);
        let t = fig3(&opts);
        let bwa = t.value("lbm", "30C-70B").unwrap();
        let inter = t.value("lbm", "INTERLEAVE").unwrap();
        assert!(bwa > 1.02, "BW-AWARE vs LOCAL: {bwa}");
        assert!(bwa > inter, "BW-AWARE {bwa} vs INTERLEAVE {inter}");
    }

    #[test]
    fn quick_fig2_sensitivity_classes() {
        let mut opts = ExpOptions::quick();
        opts.workloads = Some(vec![
            "lbm".to_string(),
            "sgemm".to_string(),
            "comd".to_string(),
        ]);
        let a = fig2a(&opts);
        // lbm scales with bandwidth; comd does not.
        assert!(a.value("lbm", "2.00x").unwrap() > 1.25);
        assert!(a.value("comd", "2.00x").unwrap() < 1.10);
        let b = fig2b(&opts);
        // sgemm suffers from latency; lbm tolerates it.
        assert!(b.value("sgemm", "+400cyc").unwrap() < 0.75);
        assert!(b.value("lbm", "+400cyc").unwrap() > 0.85);
    }
}
