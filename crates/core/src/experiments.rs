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
use hmtypes::Bandwidth;
use mempolicy::{Mempolicy, PolicyMode, ZoneId};
use profiler::Cdf;
use workloads::{catalog, WorkloadSpec};

use crate::error::HetmemError;
use crate::grid::{self, Column, RunPoint, Strategy, TelemetrySink};
use crate::runner::{check_fidelity, geomean, Capacity, WorkloadRun};
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
            ..ExpOptions::default()
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

/// The column `config`: `strategy` on `sim` with unconstrained BO
/// capacity.
fn column(config: impl Into<String>, sim: &SimConfig, strategy: Strategy) -> Column {
    Column {
        config: config.into(),
        sim: sim.clone(),
        capacity: Capacity::Unconstrained,
        strategy,
    }
}

/// The placement `simulate` calls `name`, on `sim`'s pools.
fn named(name: &str, sim: &SimConfig) -> Strategy {
    Strategy::parse(name, sim).expect("a known placement").0
}

/// A workload-major grid: one row per spec, running all of `columns`.
fn rows_of(specs: &[WorkloadSpec], columns: &[Column]) -> Vec<Vec<RunPoint>> {
    specs.iter().map(|s| grid::row(s, columns)).collect()
}

/// The config labels of `columns`, as table headers.
fn configs(columns: &[Column]) -> Vec<String> {
    columns.iter().map(|c| c.config.clone()).collect()
}

/// Appends to `t` one row per label: each run's speedup over its row's
/// `base` column. Then appends the geomean row.
fn speedup_table(
    mut t: Table,
    labels: impl IntoIterator<Item = impl Into<String>>,
    rows: &[Vec<WorkloadRun>],
    base: usize,
) -> Table {
    for (label, row) in labels.into_iter().zip(rows) {
        t.push_row(
            label,
            row.iter().map(|r| r.speedup_over(&row[base])).collect(),
        );
    }
    t.push_geomean();
    t
}

/// The table of a figure whose every workload runs all of `columns`:
/// one row per workload of speedups over column `base`, then the
/// geomean row.
fn speedup_figure(
    figure: &'static str,
    title: &str,
    opts: &ExpOptions,
    columns: Vec<Column>,
    base: usize,
) -> Table {
    let t = Table::new(title, configs(&columns));
    let specs = opts.specs();
    let rows = grid::run_rows(figure, opts, rows_of(&specs, &columns));
    speedup_table(t, specs.iter().map(|s| s.name), &rows, base)
}

/// The catalog workloads `names`, ops-scaled.
fn specs_named(opts: &ExpOptions, names: &[&str]) -> Vec<WorkloadSpec> {
    names
        .iter()
        .map(|name| opts.scale(catalog::by_name(name).expect("catalog workload")))
        .collect()
}

/// Fig. 2a: performance sensitivity to memory bandwidth. Each value is
/// speedup relative to the 1.0× column under `LOCAL` placement.
pub fn fig2a(opts: &ExpOptions) -> Table {
    let columns = [0.5, 0.75, 1.0, 1.5, 2.0]
        .iter()
        .map(|&f| {
            let sim = opts.sim.clone().with_bo_bandwidth_scaled(f);
            column(format!("{f:.2}x"), &sim, named("LOCAL", &sim))
        })
        .collect();
    let title = "Fig. 2a — GPU performance sensitivity to bandwidth scaling (vs 1.0x)";
    speedup_figure("fig2a", title, opts, columns, 2)
}

/// Fig. 2b: performance sensitivity to added memory latency. Values are
/// speedup relative to the +0 column (≤ 1.0 means slowdown).
pub fn fig2b(opts: &ExpOptions) -> Table {
    let columns = [0u64, 100, 200, 400]
        .iter()
        .map(|&e| {
            let sim = opts.sim.clone().with_extra_latency(e);
            column(format!("+{e}cyc"), &sim, named("LOCAL", &sim))
        })
        .collect();
    let title = "Fig. 2b — GPU performance sensitivity to added latency (vs +0)";
    speedup_figure("fig2b", title, opts, columns, 0)
}

/// Fig. 3: performance across `xC-yB` placement ratios plus the Linux
/// `LOCAL` and `INTERLEAVE` policies, unconstrained capacity, normalized
/// to `LOCAL`.
pub fn fig3(opts: &ExpOptions) -> Table {
    let ratios = [0, 10, 20, 30, 50, 70, 90].map(|r| format!("{r}C-{}B", 100 - r));
    let names = ["LOCAL", "INTERLEAVE"]
        .map(String::from)
        .into_iter()
        .chain(ratios);
    let columns = names
        .map(|name| column(&name, &opts.sim, named(&name, &opts.sim)))
        .collect();
    let title = "Fig. 3 — placement-ratio sweep, unconstrained capacity (perf vs LOCAL)";
    speedup_figure("fig3", title, opts, columns, 0)
}

/// Fig. 4: BW-AWARE performance as BO capacity shrinks relative to the
/// footprint, normalized to the 100% point per workload.
pub fn fig4(opts: &ExpOptions) -> Table {
    let bwa = named("BW-AWARE", &opts.sim);
    let columns = [1.0, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1]
        .iter()
        .map(|&f| Column {
            capacity: Capacity::FractionOfFootprint(f),
            ..column(format!("{:.0}%", f * 100.0), &opts.sim, bwa.clone())
        })
        .collect();
    let title = "Fig. 4 — BW-AWARE performance vs BO capacity (fraction of footprint)";
    speedup_figure("fig4", title, opts, columns, 0)
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
    // Per-workload LOCAL baseline at 80 GB/s CO (the Table 1 machine), a
    // sweep of its own: trace files are numbered per sweep.
    let base = column("LOCAL@80", &opts.sim, named("LOCAL", &opts.sim));
    let baselines = grid::run_rows("fig5", opts, rows_of(&specs, &[base]));
    // Policy-major, unlike the other figures: one row per (policy, CO
    // bandwidth) running every workload. This order fixes the JSONL
    // file and the summary table.
    let policies = ["LOCAL", "INTERLEAVE", "BW-AWARE"];
    let mut rows = Vec::new();
    for name in policies {
        for &bw in &co_gbps {
            let sim = opts.sim.clone().with_co_bandwidth(Bandwidth::from_gbps(bw));
            let col = column(format!("{name}@{bw:.0}"), &sim, named(name, &sim));
            rows.push(rows_of(&specs, &[col]).concat());
        }
    }
    let rows = grid::run_rows("fig5", opts, rows);
    for (name, per_bw) in policies.iter().zip(rows.chunks(co_gbps.len())) {
        let values = per_bw
            .iter()
            .map(|row| {
                let speedups: Vec<f64> = row
                    .iter()
                    .zip(&baselines)
                    .map(|(r, base)| r.speedup_over(&base[0]))
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
    let jobs: Vec<_> = specs.iter().map(|s| (s, &opts.sim)).collect();
    let profiles = grid::profile_sweep("fig6", opts, &jobs);
    for (spec, (hist, _)) in specs.iter().zip(&profiles) {
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
    let specs = specs_named(opts, &["bfs", "mummergpu", "needle"]);
    let jobs: Vec<_> = specs.iter().map(|s| (s, &opts.sim)).collect();
    let profiles = grid::profile_sweep("fig7", opts, &jobs);
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
    let columns = [
        ("BWA@100%", Capacity::Unconstrained, "BW-AWARE"),
        ("Oracle@100%", Capacity::Unconstrained, "ORACLE"),
        ("BWA@10%", CONSTRAINED, "BW-AWARE"),
        ("Oracle@10%", CONSTRAINED, "ORACLE"),
    ]
    .map(|(config, capacity, name)| Column {
        capacity,
        ..column(config, &opts.sim, named(name, &opts.sim))
    })
    .to_vec();
    let title = "Fig. 8 — oracle vs BW-AWARE, unconstrained & 10% capacity (vs BW-AWARE@100%)";
    speedup_figure("fig8", title, opts, columns, 0)
}

/// The constrained BO capacity of the paper's §4/§5 experiments: 10% of
/// the footprint.
const CONSTRAINED: Capacity = Capacity::FractionOfFootprint(0.10);

/// The placements Figs. 10 and 11 compare, in column order.
const ANNOTATED_CONFIGS: [&str; 4] = ["INTERLEAVE", "BW-AWARE", "Annotated", "Oracle"];

/// The [`ANNOTATED_CONFIGS`] columns of one Fig. 10/11 row: the two OS
/// policies, hints trained on `train` (the row's own workload when
/// `None`) and the oracle, each at [`CONSTRAINED`] capacity and
/// labelled with `suffix` appended.
fn annotated_columns(opts: &ExpOptions, train: Option<WorkloadSpec>, suffix: &str) -> Vec<Column> {
    let strategies = [
        named("INTERLEAVE", &opts.sim),
        named("BW-AWARE", &opts.sim),
        Strategy::Hinted { train },
        Strategy::Oracle,
    ];
    let configs = ANNOTATED_CONFIGS.map(|config| format!("{config}{suffix}"));
    let columns = configs.into_iter().zip(strategies);
    columns
        .map(|(config, strategy)| Column {
            capacity: CONSTRAINED,
            ..column(config, &opts.sim, strategy)
        })
        .collect()
}

/// Fig. 10: annotation-hinted placement vs INTERLEAVE, BW-AWARE, and
/// oracle at 10% BO capacity, normalized to INTERLEAVE.
pub fn fig10(opts: &ExpOptions) -> Table {
    let title = "Fig. 10 — profile-annotated placement at 10% capacity (vs INTERLEAVE)";
    speedup_figure("fig10", title, opts, annotated_columns(opts, None, ""), 0)
}

/// Fig. 11: hint robustness across input datasets. Hints are computed
/// from dataset 0 (training); each row is one (workload, dataset) pair
/// with speedups over that dataset's INTERLEAVE run.
pub fn fig11(opts: &ExpOptions) -> Table {
    let t = Table::new(
        "Fig. 11 — annotated placement across datasets, trained on dataset 0 (vs INTERLEAVE)",
        ANNOTATED_CONFIGS.map(String::from).to_vec(),
    );
    let mut labels = Vec::new();
    let mut rows = Vec::new();
    for name in ["bfs", "xsbench", "minife", "mummergpu"] {
        let sets: Vec<WorkloadSpec> = catalog::datasets(name)
            .into_iter()
            .map(|s| opts.scale(s))
            .collect();
        // Every other dataset runs under hints trained on dataset 0.
        for (i, spec) in sets.iter().enumerate().skip(1) {
            let columns = annotated_columns(opts, Some(sets[0].clone()), &format!("/ds{i}"));
            labels.push(format!("{name}/ds{i}"));
            rows.push(grid::row(spec, &columns));
        }
    }
    speedup_table(t, labels, &grid::run_rows("fig11", opts, rows), 0)
}

/// Extension: DRAM access energy per placement policy (the paper's §2.1
/// motivation — GDDR5 costs significantly more energy per access than
/// DDR4 — quantified for the placement policies). Energy in millijoules;
/// the last column is BW-AWARE's energy-delay product relative to LOCAL
/// (< 1 means BW-AWARE is better on both axes combined).
pub fn ext_energy(opts: &ExpOptions) -> Table {
    let columns = ["LOCAL", "INTERLEAVE", "BW-AWARE"]
        .map(|name| column(name, &opts.sim, named(name, &opts.sim)));
    let mut headers = configs(&columns);
    headers.push("BWA EDP/LOCAL".to_string());
    let mut t = Table::new(
        "Extension — DRAM access energy by placement policy (mJ; EDP vs LOCAL)",
        headers,
    );
    let ghz = opts.sim.sm_clock_ghz;
    let specs = opts.specs();
    let rows = grid::run_rows("ext_energy", opts, rows_of(&specs, &columns));
    for (spec, row) in specs.iter().zip(&rows) {
        let edp = |r: &WorkloadRun| r.report.energy_delay_product(ghz);
        let mut values: Vec<f64> = row
            .iter()
            .map(|r| r.report.dram_energy_joules() * 1e3)
            .collect();
        values.push(edp(&row[2]) / edp(&row[0]));
        t.push_row(spec.name, values);
    }
    t.push_geomean();
    t
}

/// [`ext_reactive`]'s `MIGRATE` policy on `opts`' machine.
///
/// # Errors
///
/// The `unsupported-fidelity` error if `opts.fidelity` is sampled.
pub fn ext_reactive_policy(opts: &ExpOptions) -> Result<Mempolicy, HetmemError> {
    // Scaled to the catalog's run lengths: epochs short enough to act
    // several times per run, a hot threshold low enough to catch the
    // skewed pages.
    let topo = topology_for(&opts.sim, &[1, 1]);
    let migrate = Mempolicy::parse("MIGRATE:epoch=25000,hot=4", &topo).expect("valid spec");
    check_fidelity(opts.fidelity, &migrate)?;
    Ok(migrate)
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
/// # Errors
///
/// Returns the `unsupported-fidelity` error before any run if
/// `opts.fidelity` is sampled (see [`check_fidelity`]).
pub fn ext_reactive(opts: &ExpOptions) -> Result<Table, HetmemError> {
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
    let columns = [
        ("BW-AWARE", named("BW-AWARE", &opts.sim)),
        ("MIGRATE", Strategy::Policy(ext_reactive_policy(opts)?)),
        ("Oracle", Strategy::Oracle),
    ]
    .map(|(config, strategy)| Column {
        capacity: CONSTRAINED,
        ..column(config, &opts.sim, strategy)
    });
    let specs = opts.specs();
    let rows = grid::run_rows("ext_reactive", opts, rows_of(&specs, &columns));
    for (spec, row) in specs.iter().zip(&rows) {
        let (bwa, mig, oracle) = (&row[0], &row[1], &row[2]);
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
    Ok(t)
}

/// The design-choice ablations of DESIGN §5, each on the workload that
/// shows it: L2 MSHRs per slice on lbm (§3.2.1: MSHRs hide the extra
/// interconnect hop), L2 slice capacity on xsbench, and BW-AWARE's
/// one-draw-per-page fast path against exact 3-in-10 striping of
/// 30C-70B on srad (§3.2.2). The sweeps are normalized to Table 1's
/// 128 MSHRs and 128 kB slices. `opts.workloads` is ignored.
pub fn ablations(opts: &ExpOptions) -> Vec<Table> {
    const BASE_MSHRS: usize = 128;
    const BASE_KB: usize = 128;
    let mshrs = [8usize, 16, 32, 64, BASE_MSHRS, 256];
    let slice_kb = [32usize, 64, BASE_KB, 256, 512];
    let base_index = |sweep: &[usize], base| sweep.iter().position(|&x| x == base).unwrap();
    let local = |config, sim| column(config, &sim, named("LOCAL", &sim));
    let stripe = (0..10).map(|i| ZoneId::new(usize::from(i < 3))).collect();
    let exact = Mempolicy::from_mode(PolicyMode::Interleave { nodes: stripe });
    let columns = [
        mshrs
            .iter()
            .map(|&m| {
                let mut sim = opts.sim.clone();
                sim.l2_mshrs = m;
                local(m.to_string(), sim)
            })
            .collect(),
        slice_kb
            .iter()
            .map(|&kb| {
                let mut sim = opts.sim.clone();
                sim.l2 = CacheConfig::new(kb * 1024, 8);
                local(format!("{kb} kB"), sim)
            })
            .collect(),
        vec![
            column("random", &opts.sim, named("30C-70B", &opts.sim)),
            column("exact", &opts.sim, Strategy::Policy(exact)),
        ],
    ];
    let specs = specs_named(opts, &["lbm", "xsbench", "srad"]);
    let rows = specs
        .iter()
        .zip(&columns)
        .map(|(s, c)| grid::row(s, c))
        .collect();
    let rows = grid::run_rows("ablations", opts, rows);
    let [lbm, xsbench, srad] = [&rows[0], &rows[1], &rows[2]];

    let mut mshr = Table::new(
        format!("Ablation — L2 MSHRs per slice (lbm, LOCAL; perf vs {BASE_MSHRS})"),
        configs(&columns[0]),
    );
    let base = &lbm[base_index(&mshrs, BASE_MSHRS)];
    mshr.push_row("lbm", lbm.iter().map(|r| r.speedup_over(base)).collect());
    let stalls = lbm.iter().map(|r| r.report.mshr_stalls as f64);
    mshr.push_row("MSHR stalls", stalls.collect());

    let mut l2 = Table::new(
        format!("Ablation — L2 slice capacity (xsbench, LOCAL; perf vs {BASE_KB} kB)"),
        configs(&columns[1]),
    );
    let base = &xsbench[base_index(&slice_kb, BASE_KB)];
    l2.push_row(
        "xsbench",
        xsbench.iter().map(|r| r.speedup_over(base)).collect(),
    );
    let hits = xsbench.iter().map(|r| r.report.l2_hit_rate());
    l2.push_row("L2 hit rate", hits.collect());

    let mut draw = Table::new(
        "Ablation — random-draw vs exact 30C-70B placement (srad)",
        vec!["CO traffic".to_string(), "perf vs random".to_string()],
    );
    for (c, r) in columns[2].iter().zip(srad) {
        let co = r.report.pool_traffic_fraction(1);
        draw.push_row(c.config.clone(), vec![co, r.speedup_over(&srad[0])]);
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
        let t = ext_reactive(&opts).unwrap();
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
