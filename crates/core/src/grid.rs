//! The core ↔ harness glue: every figure's grid runs through the
//! `hetmem-harness` sweep engine, optionally streaming JSONL telemetry.
//!
//! The experiment drivers in [`experiments`](crate::experiments) hand
//! each figure's workloads and per-workload configurations to
//! `run_rows`, which flattens them into one workload-major point list
//! for `sweep`; the engine executes it on a worker pool with results in
//! stable grid order, so tables and telemetry files are byte-identical
//! at any thread count. When
//! [`ExpOptions::telemetry`](crate::experiments::ExpOptions) carries a
//! [`TelemetrySink`], each sweep appends one `"run"` line per simulated
//! run to `<dir>/<figure>.jsonl`.
//!
//! Every line is rendered straight from what the simulator reported,
//! with no intermediate record type: a run's `gpusim::SimReport` becomes
//! its `"run"` line ([`record_for`]), observed sweeps' per-point
//! `gpusim::IntervalReport`s become `"interval"` lines in the same file
//! ([`interval_records_for`]), and each point's `gpusim::EventTracer`
//! becomes one Chrome trace file ([`chrome_trace_for`]).

use std::fs::{self, File};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use gpusim::{
    EventTracer, Fidelity, IntervalPoolReport, IntervalReport, IntervalSampler, SimConfig,
    SimReport, TraceEventKind,
};
use hetmem_harness::json::{array, JsonObject};
use hetmem_harness::sweep::{run_grid, SweepOptions};
use hetmem_harness::telemetry::{fnv1a, hit_rate};
use hetmem_harness::trace::{ChromeTrace, TraceEvent};
use mempolicy::{MemError, Mempolicy, PlacementEvent, PlacementEventKind};
use profiler::{PageHistogram, RunProfile};
use workloads::WorkloadSpec;

use crate::error::HetmemError;
use crate::experiments::ExpOptions;
use crate::migrate::MigrationEpochEvent;
use crate::runner::{
    hints_from_profile, profile_workload, Capacity, ObservedRun, Placement, RunBuilder, WorkloadRun,
};
use crate::translate::topology_for;

/// Collects per-run telemetry across sweeps and streams it to one JSONL
/// file per figure.
///
/// Lines are appended in grid order and carry no timing fields, so a
/// sweep's file is byte-identical across runs and thread counts. For
/// the end-of-run [`TelemetrySink::summary`] the sink keeps only a
/// per-`sweep/config` tally of the runs it recorded.
#[derive(Debug)]
pub struct TelemetrySink {
    dir: PathBuf,
    files: Mutex<Vec<(String, File)>>,
    /// `(sweep/config, runs, total cycles, summed GB/s)` in order of
    /// first appearance.
    totals: Mutex<Vec<(String, u64, u64, f64)>>,
    /// Fsync each file after every append, so records survive a
    /// machine crash, not just a process crash.
    fsync: bool,
}

impl TelemetrySink {
    /// Creates the sink, creating `dir` (and parents) if needed.
    /// Existing `<figure>.jsonl` files are truncated the first time the
    /// figure records into this sink.
    pub fn create(dir: impl AsRef<Path>) -> io::Result<Self> {
        TelemetrySink::create_with_fsync(dir, false)
    }

    /// [`create`](TelemetrySink::create) with durability control: when
    /// `fsync` is true every append is followed by `File::sync_all`, so
    /// each record is on disk before the next grid point runs. Slower;
    /// meant for crash-safe sweeps that will be resumed.
    pub fn create_with_fsync(dir: impl AsRef<Path>, fsync: bool) -> io::Result<Self> {
        fs::create_dir_all(dir.as_ref())?;
        Ok(TelemetrySink {
            dir: dir.as_ref().to_path_buf(),
            files: Mutex::new(Vec::new()),
            totals: Mutex::new(Vec::new()),
            fsync,
        })
    }

    /// The directory JSONL files land in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Appends the `run` lines of `runs` to `<dir>/<figure>.jsonl`
    /// (created on first use) and counts them into the summary.
    pub fn record(&self, figure: &str, runs: &[RunLine<'_>]) -> io::Result<()> {
        let lines: Vec<String> = runs.iter().map(|r| r.jsonl(false)).collect();
        self.record_lines(figure, &lines)?;
        let mut totals = self.totals.lock().unwrap_or_else(|e| e.into_inner());
        for r in runs {
            let key = format!("{}/{}", r.figure, r.config);
            let gbps = r.report.achieved_bandwidth(r.sim.sm_clock_ghz).gbps();
            match totals.iter_mut().find(|t| t.0 == key) {
                Some((_, n, cycles, sum)) => {
                    *n += 1;
                    *cycles += r.report.cycles;
                    *sum += gbps;
                }
                None => totals.push((key, 1, r.report.cycles, gbps)),
            }
        }
        Ok(())
    }

    /// Appends pre-serialized JSONL lines (e.g. `interval` records) to
    /// `<dir>/<figure>.jsonl`, sharing the file with [`record`].
    ///
    /// [`record`]: TelemetrySink::record
    pub fn record_lines(&self, figure: &str, lines: &[String]) -> io::Result<()> {
        if lines.is_empty() {
            return Ok(());
        }
        let mut files = self.files.lock().unwrap_or_else(|e| e.into_inner());
        if !files.iter().any(|(name, _)| name == figure) {
            let file = File::create(self.dir.join(format!("{figure}.jsonl")))?;
            files.push((figure.to_string(), file));
        }
        let (_, file) = files
            .iter_mut()
            .find(|(name, _)| name == figure)
            .expect("just ensured");
        let mut buf = String::new();
        for line in lines {
            buf.push_str(line);
            buf.push('\n');
        }
        file.write_all(buf.as_bytes())?;
        file.flush()?;
        if self.fsync {
            file.sync_all()?;
        }
        Ok(())
    }

    /// The end-of-run summary table: per-`sweep/config` run counts,
    /// cycle totals and mean achieved bandwidth, plus a grand total line.
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;

        let totals = self.totals.lock().unwrap_or_else(|e| e.into_inner());
        if totals.is_empty() {
            return "sweep summary: no runs recorded\n".to_string();
        }
        let mut out = format!(
            "{:<34}{:>6}{:>16}{:>14}\n",
            "sweep/config", "runs", "total kcycles", "mean GB/s"
        );
        for (key, n, cycles, gbps) in totals.iter() {
            let _ = writeln!(
                out,
                "{:<34}{:>6}{:>16.1}{:>14.2}",
                key,
                n,
                *cycles as f64 / 1e3,
                gbps / *n as f64
            );
        }
        let runs: u64 = totals.iter().map(|t| t.1).sum();
        let cycles: u64 = totals.iter().map(|t| t.2).sum();
        let _ = writeln!(
            out,
            "total: {runs} runs, {:.1} Mcycles simulated",
            cycles as f64 / 1e6
        );
        out
    }
}

/// One simulated run's `"run"` JSONL line, rendered from the run's
/// [`SimReport`] when asked: it borrows the run and copies nothing.
#[derive(Debug, Clone, Copy)]
pub struct RunLine<'a> {
    figure: &'a str,
    workload: &'a str,
    config: &'a str,
    sim: &'a SimConfig,
    report: &'a SimReport,
}

/// The `run` line of one simulated run (see [`RunLine::jsonl`]).
pub fn record_for<'a>(
    figure: &'a str,
    workload: &'a str,
    config: &'a str,
    sim: &'a SimConfig,
    run: &'a WorkloadRun,
) -> RunLine<'a> {
    RunLine {
        figure,
        workload,
        config,
        sim,
        report: &run.report,
    }
}

impl RunLine<'_> {
    /// Renders the line (no trailing newline): sweep, workload, config,
    /// the stable [`config_hash`], cycles, completion, memory operations,
    /// aggregate achieved GB/s at the SM clock, L1/L2 hit rates, MSHR
    /// stalls, DRAM energy and per-pool traffic with each pool's achieved
    /// GB/s; then a `migration` block for `MIGRATE` runs and an
    /// `estimated` block for sampled runs, each only when present.
    ///
    /// The argument selects nothing (run lines carry no wall-clock
    /// field); it is kept only for the benchmark's
    /// `record_for(..).jsonl(false)` call.
    pub fn jsonl(&self, _timing: bool) -> String {
        let report = self.report;
        let ghz = self.sim.sm_clock_ghz;
        let seconds = report.cycles as f64 / (ghz * 1e9);
        let pools = array(report.pools.iter().map(|p| {
            let gbps = if seconds > 0.0 {
                p.bytes_total() as f64 / seconds / 1e9
            } else {
                0.0
            };
            JsonObject::new()
                .str("name", &p.name)
                .u64("bytes_read", p.bytes_read)
                .u64("bytes_written", p.bytes_written)
                .f64("achieved_gbps", gbps)
                .f64("row_hit_rate", p.row_hit_rate)
                .finish()
        }));
        let hash = config_hash(self.figure, self.workload, self.config, self.sim);
        let mut obj = JsonObject::new()
            .str("record", "run")
            .str("sweep", self.figure)
            .str("workload", self.workload)
            .str("config", self.config)
            .str("config_hash", &format!("{hash:016x}"))
            .u64("cycles", report.cycles)
            .bool("completed", report.completed)
            .u64("mem_ops", report.mem_ops)
            .f64("achieved_gbps", report.achieved_bandwidth(ghz).gbps())
            .f64("l1_hit_rate", report.l1_hit_rate())
            .f64("l2_hit_rate", report.l2_hit_rate())
            .u64("mshr_stalls", report.mshr_stalls)
            .f64("energy_joules", report.dram_energy_joules())
            .raw("pools", &pools);
        if let Some(m) = &report.migration {
            let mig = JsonObject::new()
                .u64("pages_migrated", m.pages_migrated())
                .u64("pages_promoted", m.pages_promoted)
                .u64("pages_demoted", m.pages_demoted)
                .u64("pages_evicted", m.pages_evicted)
                .u64("epochs", m.epochs)
                .u64("copy_bytes", m.copy_bytes)
                .u64("remap_stall_cycles", m.remap_stall_cycles)
                .finish();
            obj = obj.raw("migration", &mig);
        }
        if let Some(e) = &report.estimated {
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
}

/// The stable config hash shared by a point's `run` record and all its
/// `interval` records: FNV-1a over a canonical machine + configuration
/// description, so two records with equal hashes ran the same machine
/// and placement.
pub fn config_hash(figure: &str, workload: &str, config: &str, sim: &SimConfig) -> u64 {
    let mut canon = format!(
        "{figure}|{workload}|{config}|sms={}|clk={}|mshrs={}",
        sim.num_sms, sim.sm_clock_ghz, sim.l2_mshrs
    );
    for p in &sim.pools {
        use core::fmt::Write as _;
        let _ = write!(
            canon,
            "|{}:{}ch:{}gbps:+{}cyc",
            p.name,
            p.channels,
            p.bandwidth.gbps(),
            p.extra_latency
        );
    }
    fnv1a(canon.as_bytes())
}

/// Renders a run's sampled [`IntervalReport`] series as `"interval"`
/// JSONL lines carrying the same config hash as the run's `run` line:
/// the window's counters with derived L1/L2 hit rates, and per pool the
/// achieved GB/s over the window, the bus utilization normalized by the
/// pool's channel count and the zone occupancy.
///
/// The sampler's last window ends at its nominal edge, past the run's
/// end, so each written `end_cycle` is clamped to the end of the
/// timeline the window measured, and both rates are taken over
/// `end_cycle − start_cycle`: consecutive windows tile. For a sampled
/// fast-forward run (`report.estimated` is set) the measured windows
/// are tagged `mode: "detail"` and end where the detail timeline ends
/// (`cycles_measured`); one more window, tagged `mode: "extrapolated"`,
/// covers the extrapolated tail from there to the report's last cycle —
/// the report's totals minus what the windows counted — so a trace file
/// never silently mixes fidelities.
pub fn interval_records_for(
    figure: &str,
    workload: &str,
    config: &str,
    sim: &SimConfig,
    intervals: &[IntervalReport],
    report: &SimReport,
) -> Vec<String> {
    let head = interval_head(figure, workload, config, sim);
    let Some(estimated) = &report.estimated else {
        return intervals
            .iter()
            .map(|iv| interval_line(&head, sim, iv, report.cycles, None))
            .collect();
    };
    let measured = estimated.cycles_measured;
    let tail = extrapolated_tail(intervals, report, measured);
    intervals
        .iter()
        .map(|iv| interval_line(&head, sim, iv, measured, Some("detail")))
        .chain(
            tail.iter()
                .map(|iv| interval_line(&head, sim, iv, report.cycles, Some("extrapolated"))),
        )
        .collect()
}

/// The fields every `interval` line of one run starts with.
fn interval_head(figure: &str, workload: &str, config: &str, sim: &SimConfig) -> JsonObject {
    let hash = config_hash(figure, workload, config, sim);
    JsonObject::new()
        .str("record", "interval")
        .str("sweep", figure)
        .str("workload", workload)
        .str("config", config)
        .str("config_hash", &format!("{hash:016x}"))
}

/// One `interval` line (fields as [`interval_records_for`] lists them)
/// after `head`, ending no later than `measured_end`, with rates over
/// that span (0 for a window that covered no cycles); `mode` tags
/// sampled runs' lines (full-fidelity lines carry none).
fn interval_line(
    head: &JsonObject,
    sim: &SimConfig,
    iv: &IntervalReport,
    measured_end: u64,
    mode: Option<&str>,
) -> String {
    let end_cycle = iv.end_cycle.min(measured_end).max(iv.start_cycle);
    let span = (end_cycle - iv.start_cycle) as f64;
    let pools = array(iv.pools.iter().zip(&sim.pools).map(|(p, cfg)| {
        let (gbps, bus_util) = if span > 0.0 {
            (
                // bytes / (span / (ghz GHz)) in GB/s.
                (p.bytes_read + p.bytes_written) as f64 * sim.sm_clock_ghz / span,
                (p.busy_cycles / (span * f64::from(cfg.channels))).min(1.0),
            )
        } else {
            (0.0, 0.0)
        };
        JsonObject::new()
            .str("name", &cfg.name)
            .u64("bytes_read", p.bytes_read)
            .u64("bytes_written", p.bytes_written)
            .f64("achieved_gbps", gbps)
            .f64("bus_util", bus_util)
            .u64("zone_pages", p.zone_pages)
            .finish()
    }));
    let mut obj = head
        .clone()
        .u64("index", iv.index)
        .u64("start_cycle", iv.start_cycle)
        .u64("end_cycle", end_cycle)
        .u64("mem_ops", iv.mem_ops)
        .u64("l1_hits", iv.l1_hits)
        .u64("l1_misses", iv.l1_misses)
        .f64("l1_hit_rate", hit_rate(iv.l1_hits, iv.l1_misses))
        .u64("l2_hits", iv.l2_hits)
        .u64("l2_misses", iv.l2_misses)
        .f64("l2_hit_rate", hit_rate(iv.l2_hits, iv.l2_misses))
        .u64("mshr_stalls", iv.mshr_stalls)
        .u64("mshr_peak", iv.mshr_peak)
        .u64("warps_retired", iv.warps_retired)
        .raw("pools", &pools);
    if let Some(mode) = mode {
        obj = obj.str("mode", mode);
    }
    obj.finish()
}

/// The stretch of a sampled run its detail windows did not measure, as
/// one more window from the measured end `start` to the report's last
/// cycle: the report's totals minus what the windows counted (bus busy
/// cycles floored at zero), the last window's zone occupancy, and no
/// MSHR peak or burst count. `None` when nothing was extrapolated.
fn extrapolated_tail(
    intervals: &[IntervalReport],
    report: &SimReport,
    start: u64,
) -> Option<IntervalReport> {
    if report.cycles <= start {
        return None;
    }
    let residual = |total: u64, per: fn(&IntervalReport) -> u64| {
        total.saturating_sub(intervals.iter().map(per).sum())
    };
    let pools = report
        .pools
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let measured = |f: fn(&IntervalPoolReport) -> u64| -> u64 {
                intervals.iter().map(|iv| f(&iv.pools[i])).sum()
            };
            let busy: f64 = intervals.iter().map(|iv| iv.pools[i].busy_cycles).sum();
            IntervalPoolReport {
                bytes_read: p.bytes_read.saturating_sub(measured(|q| q.bytes_read)),
                bytes_written: p
                    .bytes_written
                    .saturating_sub(measured(|q| q.bytes_written)),
                services: 0,
                busy_cycles: (p.bus_busy_cycles - busy).max(0.0),
                zone_pages: intervals.last().map_or(0, |iv| iv.pools[i].zone_pages),
            }
        })
        .collect();
    Some(IntervalReport {
        index: intervals.iter().map(|iv| iv.index + 1).max().unwrap_or(0),
        start_cycle: start,
        end_cycle: report.cycles,
        mem_ops: residual(report.mem_ops, |iv| iv.mem_ops),
        l1_hits: residual(report.l1.0, |iv| iv.l1_hits),
        l1_misses: residual(report.l1.1, |iv| iv.l1_misses),
        l2_hits: residual(report.l2.0, |iv| iv.l2_hits),
        l2_misses: residual(report.l2.1, |iv| iv.l2_misses),
        mshr_stalls: residual(report.mshr_stalls, |iv| iv.mshr_stalls),
        mshr_peak: 0,
        warps_retired: residual(u64::from(report.retired_warps), |iv| iv.warps_retired),
        pools,
    })
}

/// Converts one traced run into a Chrome `trace_event` document with
/// five process tracks: SM request spans (pid 0, tid = SM), DRAM channel
/// bursts and MSHR NACKs (pid 1, tid = global channel), simulator-time
/// page faults (pid 2), the OS mempolicy decision log (pid 3, where
/// `ts` is the decision sequence number, not simulated time), and the
/// online-migration epoch log (pid 4: one `epoch` instant per closed
/// epoch carrying its movement deltas, plus `promote`/`demote`/`evict`
/// instants on their own rows when that epoch moved pages). Timestamps
/// are microseconds at the SM clock. When the tracer's budget dropped
/// events (or capped the decision log), a `truncated` instant carries
/// the drop count.
pub fn chrome_trace_for(
    sim: &SimConfig,
    trace: &EventTracer,
    placements: &[PlacementEvent],
    migration_epochs: &[MigrationEpochEvent],
) -> ChromeTrace {
    let us = |cycles: u64| cycles as f64 / (sim.sm_clock_ghz * 1e3);
    let mut ct = ChromeTrace::new();
    ct.name_process(0, "SM read requests");
    ct.name_process(1, "DRAM channels");
    ct.name_process(2, "page faults (sim time)");
    ct.name_process(3, "mempolicy decisions (seq order)");
    if !migration_epochs.is_empty() {
        ct.name_process(4, "migration epochs (sim time)");
    }
    for ev in trace.events() {
        match ev.kind {
            TraceEventKind::Request { sm, vline, .. } => {
                ct.push(
                    TraceEvent::complete(
                        "mem_req",
                        "request",
                        us(ev.start),
                        us(ev.dur),
                        0,
                        sm.into(),
                    )
                    .arg("vline", vline.to_string()),
                );
            }
            TraceEventKind::DramService { slice, pool, read } => {
                let name = if read { "dram_rd" } else { "dram_wr" };
                ct.push(
                    TraceEvent::complete(name, "dram", us(ev.start), us(ev.dur), 1, slice.into())
                        .arg("pool", pool.to_string()),
                );
            }
            TraceEventKind::MshrNack { slice, pool } => {
                ct.push(
                    TraceEvent::instant("mshr_nack", "stall", us(ev.start), 1, slice.into())
                        .arg("pool", pool.to_string()),
                );
            }
            TraceEventKind::PagePlaced { pool } => {
                ct.push(TraceEvent::instant(
                    "page_fault",
                    "placement",
                    us(ev.start),
                    2,
                    pool as u64,
                ));
            }
        }
    }
    // The OS decision log has no simulator timestamps (decisions made
    // while pre-placing happen before cycle 0); plot it as its own
    // sequence-ordered track, capped by the same budget.
    let kept = placements.len().min(trace.budget());
    for pe in &placements[..kept] {
        let (name, detail) = match pe.kind {
            PlacementEventKind::Fault { fallback_depth } => ("fault", fallback_depth as u64),
            PlacementEventKind::Explicit { fallback_depth } => ("explicit", fallback_depth as u64),
            PlacementEventKind::Migrate { from } => ("migrate", from.index() as u64),
        };
        ct.push(
            TraceEvent::instant(name, "mempolicy", pe.seq as f64, 3, pe.zone.index() as u64)
                .arg("page", pe.page.index().to_string())
                .arg("detail", detail.to_string()),
        );
    }
    // Migration epochs are already bounded (one event per epoch), so
    // they are not budget-capped. tid 0 holds the per-epoch summary;
    // tids 1-3 put promotions, demotions, and evictions on their own
    // rows so the movement kinds read as separate lanes.
    for me in migration_epochs {
        let ts = us(me.cycle);
        ct.push(
            TraceEvent::instant("epoch", "migration", ts, 4, 0)
                .arg("index", me.index.to_string())
                .arg("promoted", me.promoted.to_string())
                .arg("demoted", me.demoted.to_string())
                .arg("evicted", me.evicted.to_string())
                .arg("copy_pages", me.copy_pages.to_string()),
        );
        for (name, tid, pages) in [
            ("promote", 1, me.promoted),
            ("demote", 2, me.demoted),
            ("evict", 3, me.evicted),
        ] {
            if pages > 0 {
                ct.push(
                    TraceEvent::instant(name, "migration", ts, 4, tid)
                        .arg("pages", pages.to_string()),
                );
            }
        }
    }
    let dropped = trace.dropped() + (placements.len() - kept) as u64;
    if dropped > 0 {
        ct.push(
            TraceEvent::instant("truncated", "meta", 0.0, 1, 0)
                .arg("dropped", dropped.to_string())
                .arg("budget", trace.budget().to_string()),
        );
    }
    ct
}

/// A placement as a figure column or a `simulate` request names it: the
/// oracle (§4.2) and `GetAllocation` hints (§5) need a profiling pass
/// first, which [`resolve`] runs.
#[derive(Debug, Clone)]
pub enum Strategy {
    /// Fault pages in under an OS policy.
    Policy(Mempolicy),
    /// The oracle over the point's own page histogram.
    Oracle,
    /// Hints from the profile of `train`, or of the point's own workload
    /// when `None`, at the point's BO capacity.
    Hinted { train: Option<WorkloadSpec> },
}

impl Strategy {
    /// Parses a `simulate` policy name for `sim`'s pools: `ORACLE`,
    /// `HINTED` (or `ANNOTATED`), or a [`Mempolicy::parse`] spelling.
    /// Returns it with its canonical label.
    ///
    /// # Errors
    ///
    /// A malformed `MIGRATE:` spec keeps its `invalid-policy-spec` code;
    /// any other unknown name is an `invalid-request`.
    pub fn parse(name: &str, sim: &SimConfig) -> Result<(Strategy, String), HetmemError> {
        match name.trim().to_ascii_uppercase().as_str() {
            "ORACLE" => Ok((Strategy::Oracle, "ORACLE".to_string())),
            "HINTED" | "ANNOTATED" => Ok((Strategy::Hinted { train: None }, "HINTED".to_string())),
            _ => {
                let topo = topology_for(sim, &vec![1; sim.pools.len()]);
                let policy = Mempolicy::parse(name, &topo).map_err(|e| match e {
                    e @ MemError::InvalidPolicySpec { .. } => HetmemError::Mem(e),
                    _ => HetmemError::invalid(format!(
                        "unknown policy '{name}' \
                         (want LOCAL, INTERLEAVE, BW-AWARE, xC-yB, MIGRATE[:k=v...], ORACLE, or HINTED)"
                    )),
                })?;
                let label = policy.name();
                Ok((Strategy::Policy(policy), label))
            }
        }
    }
}

/// One configuration a workload runs under: its label, machine, BO
/// capacity and placement.
#[derive(Debug, Clone)]
pub struct Column {
    /// The label run lines and tables carry.
    pub config: String,
    /// The simulated machine.
    pub sim: SimConfig,
    /// The BO capacity regime.
    pub capacity: Capacity,
    /// The placement, as named.
    pub strategy: Strategy,
}

/// One `(workload, configuration)` point: a cell of a figure grid, a
/// `simulate` request or a `hetmem-sweep` point.
#[derive(Debug, Clone)]
pub struct RunPoint {
    /// The workload.
    pub spec: WorkloadSpec,
    /// The configuration it runs under.
    pub column: Column,
}

impl RunPoint {
    /// `workload/config`, the name progress lines and errors use.
    pub fn label(&self) -> String {
        format!("{}/{}", self.spec.name, self.column.config)
    }

    /// Runs this one point at `fidelity`, after its profiling pass
    /// ([`resolve`]) when its strategy needs one.
    pub fn run(&self, fidelity: Fidelity) -> WorkloadRun {
        let placements = resolve(std::slice::from_ref(self), |jobs| {
            jobs.iter()
                .map(|&(s, sim)| profile_workload(s, sim))
                .collect()
        });
        self.builder(&placements[0]).fidelity(fidelity).run()
    }

    /// The profiling pass this point's strategy needs, if any.
    fn profile_job(&self) -> Option<ProfileJob<'_>> {
        let spec = match &self.column.strategy {
            Strategy::Policy(_) => return None,
            Strategy::Oracle => &self.spec,
            Strategy::Hinted { train } => train.as_ref().unwrap_or(&self.spec),
        };
        Some((spec, &self.column.sim))
    }

    fn builder<'a>(&'a self, placement: &'a Placement) -> RunBuilder<'a> {
        RunBuilder::new(&self.spec, &self.column.sim)
            .capacity(self.column.capacity)
            .placement(placement)
    }
}

/// One row of a workload-major grid: `spec` under each of `columns`.
pub(crate) fn row(spec: &WorkloadSpec, columns: &[Column]) -> Vec<RunPoint> {
    let point = |column: &Column| RunPoint {
        spec: spec.clone(),
        column: column.clone(),
    };
    columns.iter().map(point).collect()
}

/// One profiling pass: a workload on a machine.
pub type ProfileJob<'a> = (&'a WorkloadSpec, &'a SimConfig);

/// What a profiling pass returns ([`profile_workload`]).
pub type Profile = (PageHistogram, RunProfile);

/// The one resolver from strategies to runnable placements. `profile`
/// runs the profiling pass ([`profile_workload`]) of each distinct job
/// the oracle and hinted points need, returning the profiles in job
/// order: serially for one point, as a sweep for a figure grid. An
/// oracle point takes its own page histogram, a hinted point
/// [`hints_from_profile`] of its training profile at its capacity.
pub fn resolve(
    points: &[RunPoint],
    profile: impl FnOnce(&[ProfileJob<'_>]) -> Vec<Profile>,
) -> Vec<Placement> {
    let mut jobs: Vec<ProfileJob<'_>> = Vec::new();
    for job in points.iter().filter_map(RunPoint::profile_job) {
        if !jobs.contains(&job) {
            jobs.push(job);
        }
    }
    let profiles = profile(&jobs);
    let profile = |p: &RunPoint| {
        let job = p.profile_job().expect("a profiled strategy");
        &profiles[jobs.iter().position(|j| *j == job).expect("job profiled")]
    };
    points
        .iter()
        .map(|p| match &p.column.strategy {
            Strategy::Policy(policy) => Placement::Policy(policy.clone()),
            Strategy::Oracle => Placement::Oracle(profile(p).0.clone()),
            Strategy::Hinted { .. } => Placement::Hinted(hints_from_profile(
                &profile(p).1,
                &p.spec,
                &p.column.sim,
                p.column.capacity,
            )),
        })
        .collect()
}

/// Runs a figure's grid through the harness sweep engine.
///
/// # Panics
///
/// Panics with the failing point's identity if any grid point panics.
pub(crate) fn sweep<P, R>(
    figure: &str,
    opts: &ExpOptions,
    points: &[P],
    label: impl Fn(&P) -> String + Sync,
    run: impl Fn(&P) -> R + Sync,
) -> Vec<R>
where
    P: Sync,
    R: Send,
{
    let sweep_opts = SweepOptions {
        threads: opts.threads,
        progress: opts.verbose,
        ..SweepOptions::default()
    };
    run_grid(points, &sweep_opts, &label, run).unwrap_or_else(|e| panic!("{figure}: {e}"))
}

/// [`sweep`] over profiling passes ([`profile_workload`]), labelled
/// `<workload>/profile`.
pub(crate) fn profile_sweep(
    figure: &str,
    opts: &ExpOptions,
    jobs: &[ProfileJob<'_>],
) -> Vec<Profile> {
    let label = |(spec, _): &ProfileJob<'_>| format!("{}/profile", spec.name);
    sweep(figure, opts, jobs, label, |&(s, sim)| {
        profile_workload(s, sim)
    })
}

/// [`sweep`] specialized to [`RunPoint`] grids: after one sweep over the
/// profiling passes the points need ([`resolve`]), runs every point's
/// workload and, when the options carry a sink, records one `run` line
/// per run. When the options ask for observation (interval sampling
/// and/or tracing), every point runs through the observed simulator
/// instead; interval records append to the figure's JSONL after its run
/// lines, and one Chrome trace file per point lands in the trace
/// directory — all in grid order, so output stays byte-identical at any
/// thread count.
///
/// # Panics
///
/// Panics with the failing point's identity if any grid point panics,
/// or if the telemetry sink or a trace file cannot be written.
pub(crate) fn run_point_sweep(
    figure: &'static str,
    opts: &ExpOptions,
    points: &[RunPoint],
) -> Vec<WorkloadRun> {
    let placements = resolve(points, |jobs| profile_sweep(figure, opts, jobs));
    let cells: Vec<(&RunPoint, &Placement)> = points.iter().zip(&placements).collect();
    let label = |(p, _): &(&RunPoint, &Placement)| p.label();
    if opts.sample_cycles.is_none() && opts.trace.is_none() {
        let runs = sweep(figure, opts, &cells, label, |(p, placement)| {
            p.builder(placement).fidelity(opts.fidelity).run()
        });
        record_runs(figure, opts, points, &runs);
        return runs;
    }
    let results: Vec<ObservedRun> = sweep(figure, opts, &cells, label, |(p, placement)| {
        p.builder(placement)
            .observe((
                opts.sample_cycles
                    .map(|n| IntervalSampler::new(n, p.column.sim.pools.len())),
                opts.trace
                    .as_ref()
                    .map(|_| EventTracer::new(opts.trace_budget)),
            ))
            .fidelity(opts.fidelity)
            .run_observed()
    });
    record_runs(figure, opts, points, results.iter().map(|r| &r.run));
    if let (Some(sink), Some(_)) = (&opts.telemetry, opts.sample_cycles) {
        let lines: Vec<String> = points
            .iter()
            .zip(&results)
            .flat_map(|(p, r)| {
                interval_records_for(
                    figure,
                    p.spec.name,
                    &p.column.config,
                    &p.column.sim,
                    &r.intervals,
                    &r.run.report,
                )
            })
            .collect();
        sink.record_lines(figure, &lines)
            .unwrap_or_else(|e| panic!("{figure}: interval telemetry write failed: {e}"));
    }
    if let Some(dir) = &opts.trace {
        fs::create_dir_all(dir).unwrap_or_else(|e| panic!("{figure}: trace dir: {e}"));
        for (i, (p, r)) in points.iter().zip(&results).enumerate() {
            let Some(tr) = &r.trace else { continue };
            let ct = chrome_trace_for(&p.column.sim, tr, &r.placements, &r.migration_epochs);
            let name = format!(
                "{figure}-{i:03}-{}-{}.json",
                p.spec.name,
                sanitize_label(&p.column.config)
            );
            fs::write(dir.join(name), ct.render())
                .unwrap_or_else(|e| panic!("{figure}: trace write failed: {e}"));
        }
    }
    results.into_iter().map(|r| r.run).collect()
}

/// [`run_point_sweep`] over a grid of rows, in row order; returns one
/// row of runs per row of points. Rows may differ in width.
pub(crate) fn run_rows(
    figure: &'static str,
    opts: &ExpOptions,
    rows: Vec<Vec<RunPoint>>,
) -> Vec<Vec<WorkloadRun>> {
    let widths: Vec<usize> = rows.iter().map(Vec::len).collect();
    let mut runs = run_point_sweep(figure, opts, &rows.concat()).into_iter();
    widths
        .into_iter()
        .map(|n| runs.by_ref().take(n).collect())
        .collect()
}

/// Appends one `run` line per point to the figure's JSONL when the
/// options carry a sink.
fn record_runs<'a>(
    figure: &str,
    opts: &ExpOptions,
    points: &'a [RunPoint],
    runs: impl IntoIterator<Item = &'a WorkloadRun>,
) {
    let Some(sink) = &opts.telemetry else { return };
    let lines: Vec<RunLine<'_>> = points
        .iter()
        .zip(runs)
        .map(|(p, r)| record_for(figure, p.spec.name, &p.column.config, &p.column.sim, r))
        .collect();
    sink.record(figure, &lines)
        .unwrap_or_else(|e| panic!("{figure}: telemetry write failed: {e}"));
}

/// Makes a config label filesystem-safe (`30C-70B` stays as-is; spaces,
/// slashes and other punctuation become `-`).
fn sanitize_label(label: &str) -> String {
    label
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mempolicy::Mempolicy;
    use workloads::catalog;

    fn quick_run() -> (SimConfig, WorkloadRun) {
        let mut sim = SimConfig::paper_baseline();
        sim.num_sms = 2;
        let mut spec = catalog::by_name("hotspot").unwrap();
        spec.mem_ops = 5_000;
        let run = RunBuilder::new(&spec, &sim)
            .placement(&Placement::Policy(Mempolicy::local()))
            .run();
        (sim, run)
    }

    #[test]
    fn record_matches_report() {
        use hetmem_harness::JsonValue;

        let (sim, run) = quick_run();
        let line = record_for("fig3", "hotspot", "LOCAL", &sim, &run).jsonl(false);
        let rec = JsonValue::parse(&line).unwrap();
        let u = |v: &JsonValue, key: &str| v.get(key).and_then(JsonValue::as_u64).unwrap();
        let f = |v: &JsonValue, key: &str| v.get(key).and_then(JsonValue::as_f64).unwrap();
        assert_eq!(u(&rec, "cycles"), run.report.cycles);
        assert_eq!(u(&rec, "mem_ops"), run.report.mem_ops);
        let pools = rec.get("pools").and_then(JsonValue::as_array).unwrap();
        assert_eq!(pools.len(), run.report.pools.len());
        let total: u64 = pools
            .iter()
            .map(|p| u(p, "bytes_read") + u(p, "bytes_written"))
            .sum();
        assert_eq!(total, run.report.dram_bytes());
        // Pool bandwidths sum to the aggregate (same cycle base).
        let pool_sum: f64 = pools.iter().map(|p| f(p, "achieved_gbps")).sum();
        assert!((pool_sum - f(&rec, "achieved_gbps")).abs() < 1e-9);
        // The hash covers the config label.
        let other = record_for("fig3", "hotspot", "INTERLEAVE", &sim, &run).jsonl(false);
        let hash = |line: &str| {
            let v = JsonValue::parse(line).unwrap();
            v.get("config_hash").unwrap().as_str().unwrap().to_string()
        };
        assert_ne!(hash(&line), hash(&other));
    }

    #[test]
    fn sink_streams_one_file_per_figure() {
        let dir = std::env::temp_dir().join(format!("hetmem-sink-{}", std::process::id()));
        let sink = TelemetrySink::create(&dir).unwrap();
        let (sim, run) = quick_run();
        let rec = || record_for("figX", "hotspot", "LOCAL", &sim, &run);
        sink.record("figX", &[rec()]).unwrap();
        sink.record("figX", &[rec()]).unwrap();
        sink.record("figY", &[rec()]).unwrap();
        // Empty batches create no file.
        sink.record("figZ", &[]).unwrap();

        let x = fs::read_to_string(dir.join("figX.jsonl")).unwrap();
        assert_eq!(x.lines().count(), 2, "appended across batches");
        assert_eq!(x.lines().next().unwrap(), rec().jsonl(false));
        assert!(dir.join("figY.jsonl").exists());
        assert!(!dir.join("figZ.jsonl").exists());
        assert!(sink.summary().contains("total: 3 runs"));
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A hand-built 14 000-cycle run (10 us at the paper machine's
    /// 1.4 GHz) over GDDR5 + DDR4.
    fn hand_built_run(
        migration: Option<gpusim::MigrationReport>,
        estimated: Option<gpusim::EstimateReport>,
    ) -> WorkloadRun {
        let pool = |name: &str, bytes_read, bytes_written, row_hit_rate, energy_joules| {
            gpusim::PoolReport {
                name: name.to_string(),
                kind: hmtypes::MemKind::BandwidthOptimized,
                bytes_read,
                bytes_written,
                row_hit_rate,
                bus_busy_cycles: 0.0,
                energy_joules,
            }
        };
        WorkloadRun {
            report: SimReport {
                cycles: 14_000,
                completed: true,
                mem_ops: 2_500,
                l1: (300, 100),
                l2: (60, 40),
                mshr_stalls: 7,
                retired_warps: 16,
                pools: vec![
                    pool("GDDR5", 81_920, 20_480, 0.75, 2.5e-6),
                    pool("DDR4", 30_720, 0, 0.5, 1.25e-6),
                ],
                page_accesses: None,
                migration,
                estimated,
            },
            placement: Vec::new(),
            footprint_pages: 0,
            bo_pages: 0,
            ranges: Vec::new(),
        }
    }

    /// `run` as its `run` line in sweep `fig3` on the paper machine.
    fn run_line(workload: &str, config: &str, run: &WorkloadRun) -> String {
        let sim = SimConfig::paper_baseline();
        record_for("fig3", workload, config, &sim, run).jsonl(false)
    }

    /// Everything [`hand_built_run`]'s line holds before any optional
    /// block.
    const PINNED_RUN_HEAD: &str = concat!(
        r#"{"record":"run","sweep":"fig3","workload":"lbm","config":"LOCAL","#,
        r#""config_hash":"79eeb2e8887c616e","cycles":14000,"completed":true,"mem_ops":2500,"#,
        r#""achieved_gbps":13.311999999999998,"l1_hit_rate":0.75,"l2_hit_rate":0.6,"#,
        r#""mshr_stalls":7,"energy_joules":0.0000037500000000000005,"pools":[{"name":"GDDR5","#,
        r#""bytes_read":81920,"bytes_written":20480,"achieved_gbps":10.24,"row_hit_rate":0.75},"#,
        r#"{"name":"DDR4","bytes_read":30720,"bytes_written":0,"#,
        r#""achieved_gbps":3.0719999999999996,"row_hit_rate":0.5}]"#,
    );

    #[test]
    fn plain_run_line_is_pinned() {
        let run = hand_built_run(None, None);
        let line = run_line("lbm", "LOCAL", &run);
        assert_eq!(line, format!("{PINNED_RUN_HEAD}}}"));
        // Rendering again gives the same bytes.
        assert_eq!(line, run_line("lbm", "LOCAL", &run));
        assert!(!line.contains("migration"));
        assert!(!line.contains("estimated"));
    }

    #[test]
    fn migrate_run_line_is_pinned() {
        let run = hand_built_run(
            Some(gpusim::MigrationReport {
                pages_promoted: 4,
                pages_demoted: 1,
                pages_evicted: 1,
                epochs: 3,
                copy_bytes: 49_152,
                copy_cycles: 1_234.5,
                remap_stall_cycles: 8_400,
            }),
            None,
        );
        let line = run_line("lbm", "LOCAL", &run);
        let pinned = concat!(
            r#","migration":{"pages_migrated":6,"pages_promoted":4,"pages_demoted":1,"#,
            r#""pages_evicted":1,"epochs":3,"copy_bytes":49152,"remap_stall_cycles":8400}}"#,
        );
        assert_eq!(line, format!("{PINNED_RUN_HEAD}{pinned}"));
        assert!(line.find("pools").unwrap() < line.find("migration").unwrap());
        assert!(!line.contains("estimated"));
    }

    #[test]
    fn sampled_run_line_is_pinned() {
        let run = hand_built_run(
            None,
            Some(gpusim::EstimateReport {
                windows_detail: 14,
                windows_extrapolated: 378,
                ops_simulated: 14_336,
                ops_extrapolated: 387_072,
                cycles_measured: 9_000,
                cycles_extrapolated: 5_000,
                confidence: 0.93,
            }),
        );
        let line = run_line("lbm", "LOCAL", &run);
        let pinned = concat!(
            r#","estimated":{"windows_detail":14,"windows_extrapolated":378,"#,
            r#""ops_simulated":14336,"ops_extrapolated":387072,"cycles_measured":9000,"#,
            r#""cycles_extrapolated":5000,"confidence":0.93}}"#,
        );
        assert_eq!(line, format!("{PINNED_RUN_HEAD}{pinned}"));
        assert!(line.find("pools").unwrap() < line.find("estimated").unwrap());
        assert!(!line.contains("migration"));
    }

    #[test]
    fn sink_summary_groups_runs_by_sweep_and_config() {
        let dir = std::env::temp_dir().join(format!("hetmem-summary-{}", std::process::id()));
        let sink = TelemetrySink::create(&dir).unwrap();
        assert_eq!(sink.summary(), "sweep summary: no runs recorded\n");
        let sim = SimConfig::paper_baseline();
        let fast = hand_built_run(None, None);
        let slow = WorkloadRun {
            report: SimReport {
                cycles: 28_000,
                ..fast.report.clone()
            },
            ..hand_built_run(None, None)
        };
        let rec = |figure, workload, config, run| record_for(figure, workload, config, &sim, run);
        sink.record(
            "fig3",
            &[
                rec("fig3", "lbm", "LOCAL", &fast),
                rec("fig3", "lbm", "30C-70B", &slow),
                rec("fig3", "bfs", "LOCAL", &slow),
            ],
        )
        .unwrap();
        sink.record("fig4", &[rec("fig4", "lbm", "LOCAL", &fast)])
            .unwrap();
        let pinned = concat!(
            "sweep/config                        runs   total kcycles     mean GB/s\n",
            "fig3/LOCAL                             2            42.0          9.98\n",
            "fig3/30C-70B                           1            28.0          6.66\n",
            "fig4/LOCAL                             1            14.0         13.31\n",
            "total: 4 runs, 0.1 Mcycles simulated\n",
        );
        assert_eq!(sink.summary(), pinned);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// The two windows of [`pinned_intervals`] as full-fidelity lines of
    /// a run that ends at cycle 1 600, inside the second window, which
    /// is written ending there.
    const PINNED_LINES: [&str; 2] = [
        concat!(
            r#"{"record":"interval","sweep":"fig3","workload":"lbm","config":"LOCAL","#,
            r#""config_hash":"79eeb2e8887c616e","index":0,"start_cycle":0,"end_cycle":1000,"#,
            r#""mem_ops":64,"l1_hits":30,"l1_misses":10,"l1_hit_rate":0.75,"l2_hits":6,"#,
            r#""l2_misses":4,"l2_hit_rate":0.6,"mshr_stalls":1,"mshr_peak":12,"#,
            r#""warps_retired":0,"pools":[{"name":"GDDR5","bytes_read":2048,"#,
            r#""bytes_written":512,"achieved_gbps":3.584,"bus_util":0.0375625,"#,
            r#""zone_pages":3},{"name":"DDR4","bytes_read":1024,"bytes_written":0,"#,
            r#""achieved_gbps":1.4336,"bus_util":0.03,"zone_pages":1}]}"#,
        ),
        concat!(
            r#"{"record":"interval","sweep":"fig3","workload":"lbm","config":"LOCAL","#,
            r#""config_hash":"79eeb2e8887c616e","index":1,"start_cycle":1000,"#,
            r#""end_cycle":1600,"mem_ops":32,"l1_hits":0,"l1_misses":0,"l1_hit_rate":0,"#,
            r#""l2_hits":3,"l2_misses":1,"l2_hit_rate":0.75,"mshr_stalls":0,"mshr_peak":5,"#,
            r#""warps_retired":2,"pools":[{"name":"GDDR5","bytes_read":4096,"#,
            r#""bytes_written":0,"achieved_gbps":9.557333333333332,"bus_util":1,"zone_pages":5},"#,
            r#"{"name":"DDR4","bytes_read":0,"bytes_written":128,"#,
            r#""achieved_gbps":0.29866666666666664,"bus_util":0.004270833333333333,"#,
            r#""zone_pages":2}]}"#,
        ),
    ];

    /// The extrapolated tail [`pinned_intervals`] leave of a 5 000-cycle
    /// sampled report that measured 1 600 cycles in detail.
    const PINNED_TAIL: &str = concat!(
        r#"{"record":"interval","sweep":"fig3","workload":"lbm","config":"LOCAL","#,
        r#""config_hash":"79eeb2e8887c616e","index":2,"start_cycle":1600,"#,
        r#""end_cycle":5000,"mem_ops":304,"l1_hits":70,"l1_misses":50,"#,
        r#""l1_hit_rate":0.5833333333333334,"l2_hits":31,"l2_misses":15,"#,
        r#""l2_hit_rate":0.6739130434782609,"mshr_stalls":2,"mshr_peak":0,"#,
        r#""warps_retired":6,"pools":[{"name":"GDDR5","bytes_read":14336,"#,
        r#""bytes_written":3584,"achieved_gbps":7.378823529411765,"#,
        r#""bus_util":0.09924632352941176,"zone_pages":5},{"name":"DDR4","#,
        r#""bytes_read":2048,"bytes_written":896,"achieved_gbps":1.2122352941176469,"#,
        r#""bus_util":0,"zone_pages":2}],"mode":"extrapolated"}"#,
    );

    /// Two hand-built windows on the paper machine (GDDR5 + DDR4).
    fn pinned_intervals() -> Vec<IntervalReport> {
        let pool =
            |bytes_read, bytes_written, busy_cycles, zone_pages| gpusim::IntervalPoolReport {
                bytes_read,
                bytes_written,
                services: 0,
                busy_cycles,
                zone_pages,
            };
        vec![
            IntervalReport {
                index: 0,
                start_cycle: 0,
                end_cycle: 1_000,
                mem_ops: 64,
                l1_hits: 30,
                l1_misses: 10,
                l2_hits: 6,
                l2_misses: 4,
                mshr_stalls: 1,
                mshr_peak: 12,
                warps_retired: 0,
                pools: vec![pool(2_048, 512, 300.5, 3), pool(1_024, 0, 120.0, 1)],
            },
            IntervalReport {
                index: 1,
                start_cycle: 1_000,
                end_cycle: 2_000,
                mem_ops: 32,
                l1_hits: 0,
                l1_misses: 0,
                l2_hits: 3,
                l2_misses: 1,
                mshr_stalls: 0,
                mshr_peak: 5,
                warps_retired: 2,
                pools: vec![pool(4_096, 0, 9_000.0, 5), pool(0, 128, 10.25, 2)],
            },
        ]
    }

    /// A report on the paper machine (GDDR5 + DDR4) that ends at
    /// `cycles`, with the totals [`pinned_intervals`] leave a tail of.
    fn pinned_report(cycles: u64, estimated: Option<gpusim::EstimateReport>) -> SimReport {
        let pool = |name: &str, bytes_read, bytes_written, bus_busy_cycles| gpusim::PoolReport {
            name: name.to_string(),
            kind: hmtypes::MemKind::BandwidthOptimized,
            bytes_read,
            bytes_written,
            row_hit_rate: 0.5,
            bus_busy_cycles,
            energy_joules: 0.0,
        };
        SimReport {
            cycles,
            completed: true,
            mem_ops: 400,
            l1: (100, 60),
            l2: (40, 20),
            mshr_stalls: 3,
            retired_warps: 8,
            // DDR4's busy total sits below what the windows measured, so
            // the tail's busy share clamps at zero.
            pools: vec![
                pool("GDDR5", 20_480, 4_096, 12_000.0),
                pool("DDR4", 3_072, 1_024, 100.0),
            ],
            page_accesses: None,
            migration: None,
            estimated,
        }
    }

    /// What a sampled run measured in detail up to `cycles_measured`.
    fn estimate(cycles_measured: u64, cycles_extrapolated: u64) -> gpusim::EstimateReport {
        gpusim::EstimateReport {
            windows_detail: 2,
            windows_extrapolated: 3,
            ops_simulated: 96,
            ops_extrapolated: 304,
            cycles_measured,
            cycles_extrapolated,
            confidence: 0.9,
        }
    }

    #[test]
    fn interval_lines_are_pinned() {
        let sim = SimConfig::paper_baseline();
        let report = pinned_report(1_600, None);
        let lines =
            interval_records_for("fig3", "lbm", "LOCAL", &sim, &pinned_intervals(), &report);
        assert_eq!(lines, PINNED_LINES);
    }

    #[test]
    fn last_window_rates_cover_only_the_measured_cycles() {
        use hetmem_harness::JsonValue;

        let sim = SimConfig::paper_baseline();
        let pools_of = |line: &String| {
            let v = JsonValue::parse(line).unwrap();
            let pools = v.get("pools").and_then(JsonValue::as_array).unwrap();
            let f = |p: &JsonValue, key: &str| p.get(key).and_then(JsonValue::as_f64).unwrap();
            pools
                .iter()
                .map(|p| (f(p, "achieved_gbps"), f(p, "bus_util")))
                .collect::<Vec<_>>()
        };
        // The run ends 600 cycles into the 1 000-cycle second window.
        let report = pinned_report(1_600, None);
        let lines =
            interval_records_for("fig3", "lbm", "LOCAL", &sim, &pinned_intervals(), &report);
        assert_eq!(lines[0], PINNED_LINES[0], "full windows are unchanged");
        let ddr4_busy = 10.25 / (600.0 * 4.0);
        assert_eq!(
            pools_of(&lines[1]),
            [
                (4_096.0 * 1.4 / 600.0, 1.0),
                (128.0 * 1.4 / 600.0, ddr4_busy)
            ]
        );
        // A run ending on the edge leaves an empty window: rates are 0.
        let report = pinned_report(1_000, None);
        let lines =
            interval_records_for("fig3", "lbm", "LOCAL", &sim, &pinned_intervals(), &report);
        assert_eq!(pools_of(&lines[1]), [(0.0, 0.0), (0.0, 0.0)]);
        // Sampled: detail windows end at the measured end and the tail
        // starts there, even when the last nominal edge lies past the
        // extrapolated end.
        let report = pinned_report(1_900, Some(estimate(1_600, 300)));
        let lines =
            interval_records_for("fig3", "lbm", "LOCAL", &sim, &pinned_intervals(), &report);
        assert_eq!(lines.len(), 3);
        assert_eq!(pools_of(&lines[1])[0], (4_096.0 * 1.4 / 600.0, 1.0));
        assert!(lines[2].contains(r#""start_cycle":1600,"end_cycle":1900"#));
        assert!(lines[2].ends_with(r#""mode":"extrapolated"}"#));
    }

    #[test]
    fn consecutive_windows_tile() {
        use hetmem_harness::JsonValue;

        let sim = SimConfig::paper_baseline();
        let span = |line: &String| {
            let v = JsonValue::parse(line).unwrap();
            let cycle = |key| v.get(key).and_then(JsonValue::as_u64).unwrap();
            (cycle("start_cycle"), cycle("end_cycle"))
        };
        let cases = [
            ("full run ending mid-window", pinned_report(1_600, None)),
            (
                "sampled run",
                pinned_report(5_000, Some(estimate(1_600, 3_400))),
            ),
            ("run ending on an edge", pinned_report(1_000, None)),
        ];
        for (case, report) in cases {
            let lines =
                interval_records_for("fig3", "lbm", "LOCAL", &sim, &pinned_intervals(), &report);
            let spans: Vec<(u64, u64)> = lines.iter().map(span).collect();
            assert_eq!(spans[0].0, 0, "{case}: starts at cycle 0");
            for pair in spans.windows(2) {
                assert_eq!(pair[0].1, pair[1].0, "{case}: windows {spans:?} overlap");
            }
            assert!(spans.iter().all(|(s, e)| s <= e), "{case}: {spans:?}");
            assert_eq!(
                spans.last().unwrap().1,
                report.cycles,
                "{case}: ends with the run"
            );
        }
    }

    #[test]
    fn sampled_interval_lines_and_extrapolated_tail_are_pinned() {
        let sim = SimConfig::paper_baseline();
        let report = pinned_report(5_000, Some(estimate(1_600, 3_400)));
        let lines =
            interval_records_for("fig3", "lbm", "LOCAL", &sim, &pinned_intervals(), &report);
        // Detail windows are the full-fidelity lines tagged with a mode.
        let detail: Vec<String> = PINNED_LINES
            .iter()
            .map(|l| format!(r#"{},"mode":"detail"}}"#, &l[..l.len() - 1]))
            .collect();
        assert_eq!(lines[..2], detail);
        assert_eq!(lines[2], PINNED_TAIL);
        assert_eq!(lines.len(), 3);
        // A report that extrapolated nothing adds no tail.
        let short = pinned_report(1_600, Some(estimate(1_600, 0)));
        let lines = interval_records_for("fig3", "lbm", "LOCAL", &sim, &pinned_intervals(), &short);
        assert_eq!(lines.len(), 2);
    }

    #[test]
    fn chrome_trace_from_a_hand_built_tracer_is_pinned() {
        use gpusim::Observer;
        use hmtypes::PageNum;
        use mempolicy::ZoneId;

        let sim = SimConfig::paper_baseline();
        // A budget of 3 keeps the request span, the burst and the NACK
        // and drops the page placement.
        let mut tracer = EventTracer::new(3);
        tracer.request_depart(100, 1, 77, 0);
        tracer.request_retire(1_300, 1, 77);
        tracer.dram_service(1_000, 5, 0, true, 1_200, 7.5);
        tracer.mshr_nack(1_250, 9, 1);
        tracer.page_placed(1_400, 1);
        let placements: Vec<PlacementEvent> = (0..4)
            .map(|seq| PlacementEvent {
                seq,
                page: PageNum::new(40 + seq),
                zone: ZoneId::new((seq % 2) as usize),
                kind: match seq {
                    0 => PlacementEventKind::Fault { fallback_depth: 0 },
                    1 => PlacementEventKind::Explicit { fallback_depth: 1 },
                    _ => PlacementEventKind::Migrate {
                        from: ZoneId::new(0),
                    },
                },
            })
            .collect();
        let epochs = [MigrationEpochEvent {
            cycle: 2_800,
            index: 1,
            promoted: 2,
            demoted: 0,
            evicted: 1,
            copy_pages: 3,
        }];
        let doc = chrome_trace_for(&sim, &tracer, &placements, &epochs).render();
        let pinned = concat!(
            r#"{"traceEvents":[{"name":"process_name","cat":"__metadata","ph":"M","ts":0,"#,
            r#""pid":0,"tid":0,"args":{"name":"SM read requests"}},{"name":"process_name","#,
            r#""cat":"__metadata","ph":"M","ts":0,"pid":1,"tid":0,"#,
            r#""args":{"name":"DRAM channels"}},{"name":"process_name","cat":"__metadata","#,
            r#""ph":"M","ts":0,"pid":2,"tid":0,"args":{"name":"page faults (sim time)"}},"#,
            r#"{"name":"process_name","cat":"__metadata","ph":"M","ts":0,"pid":3,"tid":0,"#,
            r#""args":{"name":"mempolicy decisions (seq order)"}},{"name":"process_name","#,
            r#""cat":"__metadata","ph":"M","ts":0,"pid":4,"tid":0,"#,
            r#""args":{"name":"migration epochs (sim time)"}},{"name":"mem_req","#,
            r#""cat":"request","ph":"X","ts":0.07142857142857142,"dur":0.8571428571428571,"#,
            r#""pid":0,"tid":1,"args":{"vline":77}},{"name":"dram_rd","cat":"dram","#,
            r#""ph":"X","ts":0.8514285714285714,"dur":0.005714285714285714,"pid":1,"tid":5,"#,
            r#""args":{"pool":0}},{"name":"mshr_nack","cat":"stall","ph":"i","#,
            r#""ts":0.8928571428571429,"pid":1,"tid":9,"s":"t","args":{"pool":1}},"#,
            r#"{"name":"fault","cat":"mempolicy","ph":"i","ts":0,"pid":3,"tid":0,"s":"t","#,
            r#""args":{"page":40,"detail":0}},{"name":"explicit","cat":"mempolicy","#,
            r#""ph":"i","ts":1,"pid":3,"tid":1,"s":"t","args":{"page":41,"detail":1}},"#,
            r#"{"name":"migrate","cat":"mempolicy","ph":"i","ts":2,"pid":3,"tid":0,"s":"t","#,
            r#""args":{"page":42,"detail":0}},{"name":"epoch","cat":"migration","ph":"i","#,
            r#""ts":2,"pid":4,"tid":0,"s":"t","args":{"index":1,"promoted":2,"demoted":0,"#,
            r#""evicted":1,"copy_pages":3}},{"name":"promote","cat":"migration","ph":"i","#,
            r#""ts":2,"pid":4,"tid":1,"s":"t","args":{"pages":2}},{"name":"evict","#,
            r#""cat":"migration","ph":"i","ts":2,"pid":4,"tid":3,"s":"t","#,
            r#""args":{"pages":1}},{"name":"truncated","cat":"meta","ph":"i","ts":0,"#,
            r#""pid":1,"tid":0,"s":"t","args":{"dropped":2,"budget":3}}],"#,
            r#""displayTimeUnit":"ns"}"#,
        );
        assert_eq!(doc, pinned);
    }

    #[test]
    fn chrome_trace_renders_migration_epoch_track() {
        let sim = SimConfig::paper_baseline();
        let trace = EventTracer::new(100);
        let epochs = [
            MigrationEpochEvent {
                cycle: 2_000,
                index: 1,
                promoted: 2,
                demoted: 1,
                evicted: 1,
                copy_pages: 4,
            },
            MigrationEpochEvent {
                cycle: 4_000,
                index: 2,
                ..MigrationEpochEvent::default()
            },
        ];
        let doc = chrome_trace_for(&sim, &trace, &[], &epochs).render();
        assert!(doc.contains("migration epochs (sim time)"));
        assert!(doc.contains(r#""name":"epoch""#));
        for kind in ["promote", "demote", "evict"] {
            assert!(
                doc.contains(&format!(r#""name":"{kind}""#)),
                "missing {kind}"
            );
        }
        assert!(doc.contains(r#""copy_pages":4"#));
        // A quiet epoch contributes only its summary instant; epoch 2
        // must not add movement instants.
        assert_eq!(doc.matches(r#""name":"promote""#).count(), 1);
        // Without epochs the track (and its process name) is absent.
        let bare = chrome_trace_for(&sim, &trace, &[], &[]).render();
        assert!(!bare.contains("migration epochs"));
    }

    #[test]
    fn run_rows_splits_the_flat_sweep_by_row_width() {
        let mut sim = SimConfig::paper_baseline();
        sim.num_sms = 2;
        let specs: Vec<WorkloadSpec> = ["hotspot", "lbm"]
            .iter()
            .map(|name| WorkloadSpec {
                mem_ops: 5_000,
                ..catalog::by_name(name).unwrap()
            })
            .collect();
        let column = |config: &str| Column {
            config: config.to_string(),
            sim: sim.clone(),
            capacity: Capacity::Unconstrained,
            strategy: Strategy::Policy(match config {
                "LOCAL" => Mempolicy::local(),
                _ => Mempolicy::ratio_co(hmtypes::Percent::new(30)),
            }),
        };
        // Rows of widths [2, 1].
        let configs = [&["LOCAL", "30C-70B"][..], &["LOCAL"]];
        let rows = || {
            configs
                .iter()
                .zip(&specs)
                .map(|(cs, spec)| row(spec, &cs.iter().map(|c| column(c)).collect::<Vec<_>>()))
                .collect()
        };
        let opts = |threads| ExpOptions {
            threads,
            ..ExpOptions::quick()
        };
        let reports = |threads| -> Vec<Vec<SimReport>> {
            run_rows("t", &opts(threads), rows())
                .into_iter()
                .map(|row| row.into_iter().map(|r| r.report).collect())
                .collect()
        };
        let rows = reports(1);
        assert_eq!(rows.iter().map(Vec::len).collect::<Vec<_>>(), [2, 1]);
        let points = [(0, "LOCAL"), (0, "30C-70B"), (1, "LOCAL")].map(|(i, config)| RunPoint {
            spec: specs[i].clone(),
            column: column(config),
        });
        let flat: Vec<SimReport> = run_point_sweep("t", &opts(1), &points)
            .into_iter()
            .map(|r| r.report)
            .collect();
        assert_eq!(rows.concat(), flat);
        assert_ne!(flat[0], flat[1], "the two columns run different placements");
        assert_eq!(reports(4), rows);
    }
}
