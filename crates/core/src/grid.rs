//! The core ↔ harness glue: every figure's grid runs through the
//! `hetmem-harness` sweep engine, optionally streaming JSONL telemetry.
//!
//! The experiment drivers in [`experiments`](crate::experiments) build
//! flat point lists (workload × configuration) and hand them to
//! `sweep`; the engine executes them on a worker pool with results in
//! stable grid order, so tables and telemetry files are byte-identical
//! at any thread count. When
//! [`ExpOptions::telemetry`](crate::experiments::ExpOptions) carries a
//! [`TelemetrySink`], each sweep appends one [`RunRecord`] per simulated
//! run to `<dir>/<figure>.jsonl`.

use std::fs::{self, File};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use gpusim::{IntervalReport, SimConfig, SimReport, TraceEventKind};
use hetmem_harness::sweep::{run_grid, SweepOptions};
use hetmem_harness::telemetry::{
    fnv1a, summary, EstimateTelemetry, IntervalPoolTelemetry, IntervalRecord, MigrationTelemetry,
    PoolTelemetry, RunRecord,
};
use hetmem_harness::trace::{ChromeTrace, TraceEvent};
use mempolicy::{PlacementEvent, PlacementEventKind};
use workloads::WorkloadSpec;

use crate::experiments::ExpOptions;
use crate::migrate::MigrationEpochEvent;
use crate::runner::{Capacity, ObservedRun, Placement, RunBuilder, SimTrace, WorkloadRun};

/// Collects per-run telemetry across sweeps and streams it to one JSONL
/// file per figure.
///
/// Records are appended in grid order and without timing fields, so a
/// sweep's file is byte-identical across runs and thread counts. The
/// sink also keeps every record in memory for the end-of-run
/// [`TelemetrySink::summary`].
#[derive(Debug)]
pub struct TelemetrySink {
    dir: PathBuf,
    files: Mutex<Vec<(String, File)>>,
    records: Mutex<Vec<RunRecord>>,
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
            records: Mutex::new(Vec::new()),
            fsync,
        })
    }

    /// The directory JSONL files land in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Appends `records` to `<dir>/<figure>.jsonl` (created on first
    /// use) and to the in-memory record list.
    pub fn record(&self, figure: &str, records: &[RunRecord]) -> io::Result<()> {
        let lines: Vec<String> = records.iter().map(|r| r.jsonl(false)).collect();
        self.record_lines(figure, &lines)?;
        self.records
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .extend_from_slice(records);
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

    /// Every record written so far, in write order.
    pub fn records(&self) -> Vec<RunRecord> {
        self.records
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// The end-of-run summary table over everything recorded.
    pub fn summary(&self) -> String {
        summary(&self.records())
    }
}

/// Builds the canonical [`RunRecord`] for one simulated run: stable
/// config hash over the machine + configuration, aggregate and per-pool
/// achieved bandwidth derived from cycles at the SM clock.
pub fn record_for(
    figure: &str,
    workload: &str,
    config: &str,
    sim: &SimConfig,
    run: &WorkloadRun,
) -> RunRecord {
    let ghz = sim.sm_clock_ghz;
    let seconds = run.report.cycles as f64 / (ghz * 1e9);
    let pools = run
        .report
        .pools
        .iter()
        .map(|p| PoolTelemetry {
            name: p.name.clone(),
            bytes_read: p.bytes_read,
            bytes_written: p.bytes_written,
            achieved_gbps: if seconds > 0.0 {
                p.bytes_total() as f64 / seconds / 1e9
            } else {
                0.0
            },
            row_hit_rate: p.row_hit_rate,
        })
        .collect();
    RunRecord {
        sweep: figure.to_string(),
        workload: workload.to_string(),
        config: config.to_string(),
        config_hash: config_hash(figure, workload, config, sim),
        cycles: run.report.cycles,
        completed: run.report.completed,
        mem_ops: run.report.mem_ops,
        achieved_gbps: run.report.achieved_bandwidth(ghz).gbps(),
        l1_hit_rate: run.report.l1_hit_rate(),
        l2_hit_rate: run.report.l2_hit_rate(),
        mshr_stalls: run.report.mshr_stalls,
        energy_joules: run.report.dram_energy_joules(),
        pools,
        migration: run.report.migration.map(|m| MigrationTelemetry {
            pages_migrated: m.pages_migrated(),
            pages_promoted: m.pages_promoted,
            pages_demoted: m.pages_demoted,
            pages_evicted: m.pages_evicted,
            epochs: m.epochs,
            copy_bytes: m.copy_bytes,
            remap_stall_cycles: m.remap_stall_cycles,
        }),
        estimated: run.report.estimated.map(|e| EstimateTelemetry {
            windows_detail: e.windows_detail,
            windows_extrapolated: e.windows_extrapolated,
            ops_simulated: e.ops_simulated,
            ops_extrapolated: e.ops_extrapolated,
            cycles_measured: e.cycles_measured,
            cycles_extrapolated: e.cycles_extrapolated,
            confidence: e.confidence,
        }),
        wall_ms: None,
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

/// Converts a run's sampled [`IntervalReport`] series into serializable
/// [`IntervalRecord`]s: per-pool achieved GB/s over the window, bus
/// utilization normalized by the pool's channel count, and the same
/// config hash as the run's [`RunRecord`].
pub fn interval_records_for(
    figure: &str,
    workload: &str,
    config: &str,
    sim: &SimConfig,
    intervals: &[IntervalReport],
) -> Vec<IntervalRecord> {
    let hash = config_hash(figure, workload, config, sim);
    let ghz = sim.sm_clock_ghz;
    intervals
        .iter()
        .map(|iv| {
            let window = (iv.end_cycle - iv.start_cycle) as f64;
            let pools = iv
                .pools
                .iter()
                .zip(&sim.pools)
                .map(|(p, cfg)| IntervalPoolTelemetry {
                    name: cfg.name.clone(),
                    bytes_read: p.bytes_read,
                    bytes_written: p.bytes_written,
                    // bytes / (window / (ghz GHz)) in GB/s.
                    achieved_gbps: (p.bytes_read + p.bytes_written) as f64 * ghz / window,
                    bus_util: (p.busy_cycles / (window * f64::from(cfg.channels))).min(1.0),
                    zone_pages: p.zone_pages,
                })
                .collect();
            IntervalRecord {
                sweep: figure.to_string(),
                workload: workload.to_string(),
                config: config.to_string(),
                config_hash: hash,
                index: iv.index,
                start_cycle: iv.start_cycle,
                end_cycle: iv.end_cycle,
                mem_ops: iv.mem_ops,
                l1_hits: iv.l1_hits,
                l1_misses: iv.l1_misses,
                l2_hits: iv.l2_hits,
                l2_misses: iv.l2_misses,
                mshr_stalls: iv.mshr_stalls,
                mshr_peak: iv.mshr_peak,
                warps_retired: iv.warps_retired,
                pools,
                mode: None,
            }
        })
        .collect()
}

/// [`interval_records_for`] for a sampled fast-forward run: the
/// measured windows are tagged `mode: "detail"` and one synthesized
/// `mode: "extrapolated"` record covers the extrapolated tail (the
/// report's totals minus what the detail windows measured), so a
/// trace file never silently mixes fidelities.
pub fn sampled_interval_records_for(
    figure: &str,
    workload: &str,
    config: &str,
    sim: &SimConfig,
    intervals: &[IntervalReport],
    report: &SimReport,
) -> Vec<IntervalRecord> {
    let mut recs = interval_records_for(figure, workload, config, sim, intervals);
    for r in &mut recs {
        r.mode = Some("detail");
    }
    let start = intervals.iter().map(|iv| iv.end_cycle).max().unwrap_or(0);
    if report.cycles <= start {
        return recs;
    }
    let window = (report.cycles - start) as f64;
    let ghz = sim.sm_clock_ghz;
    let residual = |total: u64, per: fn(&IntervalReport) -> u64| {
        total.saturating_sub(intervals.iter().map(per).sum())
    };
    let pools = report
        .pools
        .iter()
        .enumerate()
        .zip(&sim.pools)
        .map(|((i, p), cfg)| {
            let measured = |f: fn(&gpusim::IntervalPoolReport) -> u64| -> u64 {
                intervals.iter().map(|iv| f(&iv.pools[i])).sum()
            };
            let bytes_read = p.bytes_read.saturating_sub(measured(|q| q.bytes_read));
            let bytes_written = p
                .bytes_written
                .saturating_sub(measured(|q| q.bytes_written));
            let busy: f64 = intervals.iter().map(|iv| iv.pools[i].busy_cycles).sum();
            IntervalPoolTelemetry {
                name: cfg.name.clone(),
                bytes_read,
                bytes_written,
                achieved_gbps: (bytes_read + bytes_written) as f64 * ghz / window,
                bus_util: ((p.bus_busy_cycles - busy).max(0.0)
                    / (window * f64::from(cfg.channels)))
                .min(1.0),
                zone_pages: intervals
                    .iter()
                    .last()
                    .map_or(0, |iv| iv.pools[i].zone_pages),
            }
        })
        .collect();
    recs.push(IntervalRecord {
        sweep: figure.to_string(),
        workload: workload.to_string(),
        config: config.to_string(),
        config_hash: config_hash(figure, workload, config, sim),
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
        mode: Some("extrapolated"),
    });
    recs
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
    trace: &SimTrace,
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
    for ev in &trace.events {
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
    let kept = placements.len().min(trace.budget);
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
    let dropped = trace.dropped + (placements.len() - kept) as u64;
    if dropped > 0 {
        ct.push(
            TraceEvent::instant("truncated", "meta", 0.0, 1, 0)
                .arg("dropped", dropped.to_string())
                .arg("budget", trace.budget.to_string()),
        );
    }
    ct
}

/// One `(workload, configuration)` grid point of a figure sweep.
#[derive(Debug, Clone)]
pub(crate) struct RunPoint {
    pub spec: WorkloadSpec,
    pub config: String,
    pub sim: SimConfig,
    pub capacity: Capacity,
    pub placement: Placement,
}

impl RunPoint {
    fn label(&self) -> String {
        format!("{}/{}", self.spec.name, self.config)
    }
}

/// Runs a figure's grid through the harness sweep engine. `records`
/// turns each `(point, result)` into telemetry records (empty for
/// profiling passes); they are written only when the options carry a
/// sink.
///
/// # Panics
///
/// Panics with the failing point's identity if any grid point panics,
/// or if the telemetry sink cannot be written.
pub(crate) fn sweep<P, R>(
    figure: &str,
    opts: &ExpOptions,
    points: &[P],
    label: impl Fn(&P) -> String + Sync,
    run: impl Fn(&P) -> R + Sync,
    records: impl Fn(&P, &R) -> Vec<RunRecord>,
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
    let results =
        run_grid(points, &sweep_opts, &label, run).unwrap_or_else(|e| panic!("{figure}: {e}"));
    if let Some(sink) = &opts.telemetry {
        let recs: Vec<RunRecord> = points
            .iter()
            .zip(&results)
            .flat_map(|(p, r)| records(p, r))
            .collect();
        sink.record(figure, &recs)
            .unwrap_or_else(|e| panic!("{figure}: telemetry write failed: {e}"));
    }
    results
}

/// [`sweep`] specialized to [`RunPoint`] grids: runs every point's
/// workload and records one [`RunRecord`] per run. When the options ask
/// for observation (interval sampling and/or tracing), every point runs
/// through the observed simulator instead; interval records append to
/// the figure's JSONL after its run records, and one Chrome trace file
/// per point lands in the trace directory — all in grid order, so
/// output stays byte-identical at any thread count.
pub(crate) fn run_point_sweep(
    figure: &'static str,
    opts: &ExpOptions,
    points: &[RunPoint],
) -> Vec<WorkloadRun> {
    let Some(ocfg) = opts.observe_config() else {
        return sweep(
            figure,
            opts,
            points,
            RunPoint::label,
            |p| {
                RunBuilder::new(&p.spec, &p.sim)
                    .capacity(p.capacity)
                    .placement(&p.placement)
                    .fidelity(opts.fidelity)
                    .run()
            },
            |p, r| vec![record_for(figure, p.spec.name, &p.config, &p.sim, r)],
        );
    };
    let results: Vec<ObservedRun> = sweep(
        figure,
        opts,
        points,
        RunPoint::label,
        |p| {
            RunBuilder::new(&p.spec, &p.sim)
                .capacity(p.capacity)
                .placement(&p.placement)
                .observe(ocfg.clone())
                .fidelity(opts.fidelity)
                .run_observed()
        },
        |p, r| vec![record_for(figure, p.spec.name, &p.config, &p.sim, &r.run)],
    );
    if let (Some(sink), Some(_)) = (&opts.telemetry, opts.sample_cycles) {
        let lines: Vec<String> = points
            .iter()
            .zip(&results)
            .flat_map(|(p, r)| {
                if r.run.report.estimated.is_some() {
                    sampled_interval_records_for(
                        figure,
                        p.spec.name,
                        &p.config,
                        &p.sim,
                        &r.intervals,
                        &r.run.report,
                    )
                } else {
                    interval_records_for(figure, p.spec.name, &p.config, &p.sim, &r.intervals)
                }
            })
            .map(|rec| rec.jsonl())
            .collect();
        sink.record_lines(figure, &lines)
            .unwrap_or_else(|e| panic!("{figure}: interval telemetry write failed: {e}"));
    }
    if let Some(dir) = &opts.trace {
        fs::create_dir_all(dir).unwrap_or_else(|e| panic!("{figure}: trace dir: {e}"));
        for (i, (p, r)) in points.iter().zip(&results).enumerate() {
            let Some(tr) = &r.trace else { continue };
            let ct = chrome_trace_for(&p.sim, tr, &r.placements, &r.migration_epochs);
            let name = format!(
                "{figure}-{i:03}-{}-{}.json",
                p.spec.name,
                sanitize_label(&p.config)
            );
            fs::write(dir.join(name), ct.render())
                .unwrap_or_else(|e| panic!("{figure}: trace write failed: {e}"));
        }
    }
    results.into_iter().map(|r| r.run).collect()
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
        let (sim, run) = quick_run();
        let rec = record_for("fig3", "hotspot", "LOCAL", &sim, &run);
        assert_eq!(rec.cycles, run.report.cycles);
        assert_eq!(rec.mem_ops, run.report.mem_ops);
        assert_eq!(rec.pools.len(), run.report.pools.len());
        let total: u64 = rec
            .pools
            .iter()
            .map(|p| p.bytes_read + p.bytes_written)
            .sum();
        assert_eq!(total, run.report.dram_bytes());
        // Pool bandwidths sum to the aggregate (same cycle base).
        let pool_sum: f64 = rec.pools.iter().map(|p| p.achieved_gbps).sum();
        assert!((pool_sum - rec.achieved_gbps).abs() < 1e-9);
        // The hash covers the config label.
        let other = record_for("fig3", "hotspot", "INTERLEAVE", &sim, &run);
        assert_ne!(rec.config_hash, other.config_hash);
    }

    #[test]
    fn sink_streams_one_file_per_figure() {
        let dir = std::env::temp_dir().join(format!("hetmem-sink-{}", std::process::id()));
        let sink = TelemetrySink::create(&dir).unwrap();
        let (sim, run) = quick_run();
        let rec = record_for("figX", "hotspot", "LOCAL", &sim, &run);
        sink.record("figX", std::slice::from_ref(&rec)).unwrap();
        sink.record("figX", std::slice::from_ref(&rec)).unwrap();
        sink.record("figY", std::slice::from_ref(&rec)).unwrap();
        // Empty batches create no file.
        sink.record("figZ", &[]).unwrap();

        let x = fs::read_to_string(dir.join("figX.jsonl")).unwrap();
        assert_eq!(x.lines().count(), 2, "appended across batches");
        assert_eq!(x.lines().next().unwrap(), rec.jsonl(false));
        assert!(dir.join("figY.jsonl").exists());
        assert!(!dir.join("figZ.jsonl").exists());
        assert_eq!(sink.records().len(), 3);
        assert!(sink.summary().contains("total: 3 runs"));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn chrome_trace_renders_migration_epoch_track() {
        let sim = SimConfig::paper_baseline();
        let trace = SimTrace {
            events: Vec::new(),
            dropped: 0,
            budget: 100,
        };
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
    fn run_point_sweep_is_thread_count_invariant() {
        let mut sim = SimConfig::paper_baseline();
        sim.num_sms = 2;
        let mut spec = catalog::by_name("hotspot").unwrap();
        spec.mem_ops = 5_000;
        let points: Vec<RunPoint> = ["LOCAL", "INTERLEAVE"]
            .iter()
            .map(|&config| RunPoint {
                spec: spec.clone(),
                config: config.to_string(),
                sim: sim.clone(),
                capacity: Capacity::Unconstrained,
                placement: Placement::Policy(Mempolicy::local()),
            })
            .collect();
        let cycles = |threads: usize| {
            let opts = ExpOptions {
                threads,
                ..ExpOptions::quick()
            };
            run_point_sweep("t", &opts, &points)
                .iter()
                .map(|r| r.report.cycles)
                .collect::<Vec<_>>()
        };
        assert_eq!(cycles(1), cycles(2));
    }
}
