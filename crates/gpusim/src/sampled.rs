//! Sampled fast-forward simulation (SMARTS-style).
//!
//! Full-fidelity simulation pays a few hundred ns per memory operation
//! (about 4.6 calendar events at 100-odd ns each on a 2.1 GHz Xeon);
//! draining an operation through [`WarpProgram::skip_ops`] costs a few
//! ns, and less than a tenth of one on a workload the generator skips
//! in bulk. This module exploits that gap: it alternates **detail windows**
//! (simulated at full fidelity, cycle by cycle) with **fast-forward
//! windows** whose operations are drained from the program generator
//! without entering the event calendar, then extrapolates the skipped
//! work from a bandwidth/latency model fitted over the detail windows.
//!
//! Windows are defined in *operation space*, not simulated time: every
//! [`SampleConfig::window_ops`] operations across all warps make one
//! window. Each warp tracks the schedule through its own scaled
//! position (`ops_issued x total_warps`), so a warp drains exactly its
//! proportional share of every fast-forward window — draining globally
//! would let one warp burn a whole window and skew per-warp progress,
//! which starves parallelism in the tail and biases the fit. The
//! schedule itself is deterministic and seeded: the first
//! [`SampleConfig::warmup_windows`] windows are always detail (they
//! charge cold caches and first-touch page faults to the measured
//! timeline), and afterwards exactly one window out of every
//! [`SampleConfig::period`] is simulated, its slot chosen by a
//! SplitMix64 hash of the group index so periodic program behavior
//! cannot alias against a fixed stride. Everything here runs
//! single-threaded inside one simulator, so sampled runs are
//! byte-identical across sweep thread counts like every other run mode.
//!
//! Because drained windows never enter the calendar, the simulated
//! timeline is the pure concatenation of the detail windows. The
//! extrapolation step then stretches the report back to the full run:
//! cycles grow by `skipped_ops x fitted cycles-per-op`, memory-derived
//! counters (cache hits/misses, MSHR stalls, per-pool traffic) scale by
//! the skipped-to-simulated memory-op ratio, row-hit rates stay
//! measured, and DRAM energy is recomputed from the scaled byte totals.
//!
//! The cycles-per-op fit is the slope of the cumulative delivery curve
//! — `(detail ops delivered, sim time)` sampled once per delivered
//! window — over its interquartile region (25%–75% of deliveries).
//! Cutting both tails makes the fit robust against the two systematic
//! edge distortions of a sampled run: the warm-up ramp at the start
//! (caches and MSHRs still filling, issues running ahead of service)
//! and the straggler collapse at the end (warps that finish their last
//! detail share retire, so the final ops issue with almost no
//! parallelism left to hide latency). Per-window span attribution was
//! tried first and fails exactly there: whichever warp runs ahead drags
//! the attribution epoch forward, so nearly all measured time lands on
//! the final window. The model reports a confidence score (`1 - CV` of
//! per-segment cycles-per-op across the fit region) in the attached
//! [`EstimateReport`].

use std::cell::Cell;
use std::rc::Rc;

use hmtypes::SplitMix64;

use crate::config::SimConfig;
use crate::engine::EngineStats;
use crate::migrate::PageMigrator;
use crate::observe::Observer;
use crate::request::{AddressTranslator, WarpId, WarpOp, WarpProgram};
use crate::sim::Simulator;
use crate::stats::SimReport;

/// How faithfully to simulate a run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub enum Fidelity {
    /// Simulate every operation at cycle granularity (the default; the
    /// only mode that produces exact, golden-pinned reports).
    #[default]
    Full,
    /// Alternate full-fidelity detail windows with drained fast-forward
    /// windows and extrapolate the skipped work.
    Sampled(SampleConfig),
}

/// Window schedule knobs for [`Fidelity::Sampled`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampleConfig {
    /// Global warp operations per window (delivered + drained).
    pub window_ops: u64,
    /// Leading windows always simulated in detail, absorbing cold-cache
    /// and first-touch transients before the model fits anything.
    pub warmup_windows: u64,
    /// After warm-up, one window in every `period` is simulated; the
    /// rest fast-forward. `1` degenerates to all-detail (useful for
    /// equivalence testing).
    pub period: u64,
    /// Seed for the per-group detail-slot choice.
    pub seed: u64,
}

impl Default for SampleConfig {
    /// The production schedule, tuned on the perf-matrix workloads at
    /// millions of operations: 64k-op windows keep each warp's share of
    /// a detail window long enough to preserve row-buffer locality
    /// (small windows shred it and overestimate bandwidth), and a
    /// 1-in-32 detail period bounds the error while fast-forwarding
    /// ~97% of the run. Short runs degrade gracefully: with few windows
    /// most of the run is warm-up/detail, trading speedup for accuracy.
    fn default() -> Self {
        SampleConfig {
            window_ops: 65_536,
            warmup_windows: 1,
            period: 32,
            seed: 0,
        }
    }
}

impl SampleConfig {
    /// Validates the schedule knobs.
    ///
    /// # Panics
    ///
    /// Panics if `window_ops` or `period` is zero.
    pub fn validate(&self) {
        assert!(self.window_ops > 0, "window_ops must be positive");
        assert!(self.period > 0, "period must be positive");
    }

    /// Whether window `k` is simulated in detail.
    pub fn is_detail(&self, k: u64) -> bool {
        if k < self.warmup_windows || self.period == 1 {
            return true;
        }
        let group = (k - self.warmup_windows) / self.period;
        let pos = (k - self.warmup_windows) % self.period;
        pos == SplitMix64::new(self.seed ^ group).peek(0) % self.period
    }
}

/// What a sampled run extrapolated, attached to its
/// [`SimReport::estimated`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EstimateReport {
    /// Windows simulated at full fidelity (including warm-up).
    pub windows_detail: u64,
    /// Windows drained and extrapolated.
    pub windows_extrapolated: u64,
    /// Warp operations simulated in detail.
    pub ops_simulated: u64,
    /// Warp operations drained and extrapolated.
    pub ops_extrapolated: u64,
    /// Cycles actually simulated (the concatenated detail timeline).
    pub cycles_measured: u64,
    /// Cycles added by the extrapolation model.
    pub cycles_extrapolated: u64,
    /// Model self-confidence in `[0, 1]`: `1 - CV` of per-segment
    /// cycles-per-op across the fit region (0.5 when fewer than two
    /// segments constrain the fit).
    pub confidence: f64,
}

/// State shared between the program wrapper (which drives the window
/// schedule) and the model observer (which samples the cumulative
/// delivery curve). Single-threaded by construction.
#[derive(Debug, Default)]
struct SampleShared {
    delivered_ops: Cell<u64>,
    skipped_ops: Cell<u64>,
    skipped_mem: Cell<u64>,
}

/// Wraps a [`WarpProgram`], delivering detail-window operations to the
/// simulator and draining fast-forward windows inline. Sim time does
/// not advance during a drain, so the measured timeline is the
/// concatenation of the detail windows.
///
/// Each warp walks the shared window schedule through its own scaled
/// position (`ops_issued x total_warps`): warps in lockstep see the
/// same window at the same point of their streams, and each drains
/// only its `1/total_warps` share of a fast-forward window. Draining
/// in raw global-op order instead would let whichever warp polls first
/// burn an entire window of its own stream, skewing per-warp progress
/// and collapsing parallelism in the run's tail.
struct SampledProgram<P> {
    inner: P,
    cfg: SampleConfig,
    shared: Rc<SampleShared>,
    /// Active warps in the run (`num_sms x clamped warps_per_sm`).
    total_warps: u64,
    /// Operations consumed from the inner program, per warp.
    consumed: Vec<u64>,
    /// Consumed-count bound where the warp's current window ends —
    /// caches the window math so the per-op hot path is one compare.
    win_until: Vec<u64>,
    /// Whether the warp's current window is simulated in detail.
    win_detail: Vec<bool>,
}

impl<P: WarpProgram> WarpProgram for SampledProgram<P> {
    fn warps_per_sm(&self) -> u32 {
        self.inner.warps_per_sm()
    }

    fn mem_level_parallelism(&self) -> u32 {
        self.inner.mem_level_parallelism()
    }

    fn next_op(&mut self, warp: WarpId) -> Option<WarpOp> {
        let idx = warp.index();
        loop {
            let c = self.consumed[idx];
            if c >= self.win_until[idx] {
                // Entered a new window: recompute its detail flag and
                // the consumed bound where the next one starts. Window
                // `k` covers `c` while `c * total_warps / window_ops`
                // stays `k`, i.e. up to (exclusive)
                // `ceil((k + 1) * window_ops / total_warps)`.
                let k = c * self.total_warps / self.cfg.window_ops;
                self.win_detail[idx] = self.cfg.is_detail(k);
                self.win_until[idx] = ((k + 1) * self.cfg.window_ops).div_ceil(self.total_warps);
            }
            if self.win_detail[idx] {
                let op = self.inner.next_op(warp)?;
                self.consumed[idx] = c + 1;
                let s = &*self.shared;
                s.delivered_ops.set(s.delivered_ops.get() + 1);
                return Some(op);
            }
            // Fast-forward: drain the warp's whole share of this skip
            // window in one bulk call, letting the generator shortcut
            // address math while keeping its state bit-identical.
            let run = self.win_until[idx] - c;
            let (ops, mem) = self.inner.skip_ops(warp, run);
            self.consumed[idx] = c + ops;
            let s = &*self.shared;
            s.skipped_ops.set(s.skipped_ops.get() + ops);
            s.skipped_mem.set(s.skipped_mem.get() + mem);
            if ops < run {
                // The warp retired inside the skip window.
                return None;
            }
        }
    }
}

/// One sample of the cumulative delivery curve: by the time `delivered`
/// detail operations had been handed to the simulator, sim time stood
/// at `now`.
#[derive(Debug, Clone, Copy)]
struct CurvePoint {
    delivered: u64,
    now: u64,
}

/// Delivery-curve resolution: one point per this many delivered ops.
/// Independent of the window size so large windows still give the fit
/// plenty of points.
const CURVE_RES_OPS: u64 = 1024;

/// The model observer: samples the cumulative delivery curve once per
/// [`CURVE_RES_OPS`] delivered operations, at memory-issue events.
/// Warps progress through their streams at different rates, so detail
/// windows overlap arbitrarily in sim time — the global delivery rate
/// is the only well-defined throughput measure, and its mid-run slope
/// is exactly the steady-state cycles-per-op the extrapolation needs.
/// [`run_sampled`] attaches it as the first half of a pair with the
/// caller's observer.
struct FfModel {
    shared: Rc<SampleShared>,
    /// Next `delivered` count that triggers a sample (1 initially, so
    /// the first issue anchors the curve).
    next_mark: u64,
    curve: Vec<CurvePoint>,
}

impl Observer for FfModel {
    fn mem_issue(&mut self, now: u64, _write: bool) {
        let delivered = self.shared.delivered_ops.get();
        if delivered >= self.next_mark {
            self.curve.push(CurvePoint { delivered, now });
            self.next_mark = delivered + CURVE_RES_OPS;
        }
    }
}

/// Runs `program` under the sampled fast-forward schedule and returns
/// the extrapolated report (its [`SimReport::estimated`] block is
/// always present), the caller's observer, and engine stats.
///
/// # Panics
///
/// Panics on an invalid [`SampleConfig`] (see
/// [`SampleConfig::validate`]).
pub fn run_sampled<T, P, O, M>(
    cfg: SimConfig,
    translator: T,
    program: P,
    sample: SampleConfig,
    obs: O,
    mig: M,
    profile_pages: bool,
) -> (SimReport, O, EngineStats)
where
    T: AddressTranslator,
    P: WarpProgram,
    O: Observer,
    M: PageMigrator,
{
    sample.validate();
    let shared = Rc::new(SampleShared::default());
    let warps_per_sm = program.warps_per_sm().min(cfg.max_warps_per_sm);
    let total_warps = u64::from(cfg.num_sms) * u64::from(warps_per_sm.max(1));
    let wrapped = SampledProgram {
        inner: program,
        cfg: sample,
        shared: Rc::clone(&shared),
        total_warps,
        consumed: vec![0; total_warps as usize],
        win_until: vec![0; total_warps as usize],
        win_detail: vec![false; total_warps as usize],
    };
    let model = FfModel {
        shared: Rc::clone(&shared),
        next_mark: 1,
        curve: Vec::new(),
    };
    let sim = Simulator::new(cfg.clone(), translator, wrapped)
        .with_observer((model, obs))
        .with_migrator(mig);
    let sim = if profile_pages {
        sim.with_page_profiling()
    } else {
        sim
    };
    let (mut report, (model, obs), stats) = sim.run_instrumented();
    let estimate = extrapolate(&mut report, &cfg, &sample, &shared, &model.curve);
    report.estimated = Some(estimate);
    (report, obs, stats)
}

/// Stretches the measured (detail-only) report over the drained
/// operations and computes the [`EstimateReport`].
fn extrapolate(
    report: &mut SimReport,
    cfg: &SimConfig,
    sample: &SampleConfig,
    shared: &SampleShared,
    curve: &[CurvePoint],
) -> EstimateReport {
    let delivered = shared.delivered_ops.get();
    let skipped = shared.skipped_ops.get();
    let skipped_mem = shared.skipped_mem.get();
    let cycles_measured = report.cycles;

    // The schedule is a pure function of the op stream, so window
    // counts follow from the totals.
    let total_windows = (delivered + skipped).div_ceil(sample.window_ops);
    let windows_detail = (0..total_windows).filter(|&k| sample.is_detail(k)).count() as u64;

    // Fit cycles-per-op as the slope of the cumulative delivery curve
    // over its interquartile region. Cutting the first and last
    // quarter of deliveries removes the two systematic edge
    // distortions — the warm-up ramp (issues run ahead of service
    // while caches and MSHRs fill) and the end-of-run straggler
    // collapse (retired warps no longer hide latency for the rest).
    // Fall back to the whole curve, then to the global average, when
    // the run is too short to cut.
    let lo = delivered / 4;
    let hi = delivered - delivered / 4;
    let mid: Vec<CurvePoint> = curve
        .iter()
        .copied()
        .filter(|p| p.delivered >= lo && p.delivered <= hi)
        .collect();
    let fit: &[CurvePoint] = if mid.len() >= 2 { &mid } else { curve };
    let (span, fit_ops) = match (fit.first(), fit.last()) {
        (Some(a), Some(b)) if b.delivered > a.delivered => {
            (b.now - a.now, b.delivered - a.delivered)
        }
        _ => (cycles_measured, delivered),
    };
    let cycles_per_op = if fit_ops == 0 {
        0.0
    } else {
        span as f64 / fit_ops as f64
    };
    let cycles_extra = (skipped as f64 * cycles_per_op).round() as u64;

    // Confidence: 1 - CV of per-segment cycles-per-op across the fit
    // region.
    let slopes: Vec<f64> = fit
        .windows(2)
        .filter(|w| w[1].delivered > w[0].delivered)
        .map(|w| (w[1].now - w[0].now) as f64 / (w[1].delivered - w[0].delivered) as f64)
        .collect();
    let confidence = if slopes.len() < 2 {
        0.5
    } else {
        let mean = slopes.iter().sum::<f64>() / slopes.len() as f64;
        if mean <= 0.0 {
            0.0
        } else {
            let var =
                slopes.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / slopes.len() as f64;
            (1.0 - var.sqrt() / mean).clamp(0.0, 1.0)
        }
    };

    // Scale memory-derived counters by the skipped-to-simulated memory
    // operation ratio; row-hit rates stay measured, energy follows the
    // scaled byte totals.
    if report.mem_ops > 0 && skipped_mem > 0 {
        let f = skipped_mem as f64 / report.mem_ops as f64;
        let scale = |x: u64| x + (x as f64 * f).round() as u64;
        report.l1 = (scale(report.l1.0), scale(report.l1.1));
        report.l2 = (scale(report.l2.0), scale(report.l2.1));
        report.mshr_stalls = scale(report.mshr_stalls);
        for (p, pool_cfg) in report.pools.iter_mut().zip(&cfg.pools) {
            p.bytes_read = scale(p.bytes_read);
            p.bytes_written = scale(p.bytes_written);
            p.bus_busy_cycles *= 1.0 + f;
            p.energy_joules =
                (p.bytes_read + p.bytes_written) as f64 * 8.0 * pool_cfg.pj_per_bit * 1e-12;
        }
    }
    report.cycles += cycles_extra;
    report.mem_ops += skipped_mem;

    EstimateReport {
        windows_detail,
        windows_extrapolated: total_windows - windows_detail,
        ops_simulated: delivered,
        ops_extrapolated: skipped,
        cycles_measured,
        cycles_extrapolated: cycles_extra,
        confidence,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::StreamKernel;
    use crate::migrate::NullMigrator;
    use crate::observe::NullObserver;
    use crate::request::FixedPoolTranslator;

    fn small_cfg() -> SimConfig {
        let mut cfg = SimConfig::paper_baseline();
        cfg.num_sms = 4;
        cfg
    }

    #[test]
    fn schedule_is_deterministic_and_warmup_is_detail() {
        let s = SampleConfig {
            window_ops: 64,
            warmup_windows: 3,
            period: 8,
            seed: 42,
        };
        for k in 0..3 {
            assert!(s.is_detail(k), "warm-up window {k} must be detail");
        }
        let a: Vec<bool> = (0..256).map(|k| s.is_detail(k)).collect();
        let b: Vec<bool> = (0..256).map(|k| s.is_detail(k)).collect();
        assert_eq!(a, b);
        // Exactly one detail window per period group after warm-up.
        for g in 0..10u64 {
            let detail = (0..8).filter(|p| s.is_detail(3 + g * 8 + p)).count();
            assert_eq!(detail, 1, "group {g}");
        }
        // Different seeds pick different slots somewhere in 32 groups.
        let other = SampleConfig { seed: 7, ..s };
        assert!(
            (0..256).any(|k| s.is_detail(k) != other.is_detail(k)),
            "seed must move the detail slot"
        );
    }

    #[test]
    fn period_one_matches_full_fidelity_exactly() {
        let cfg = small_cfg();
        let bytes = 1 << 20;
        let full = Simulator::new(
            cfg.clone(),
            FixedPoolTranslator::new(0),
            StreamKernel::new(&cfg, 8, bytes),
        )
        .run();
        let sample = SampleConfig {
            period: 1,
            ..SampleConfig::default()
        };
        let (sampled, (), _) = {
            let (r, _o, s) = run_sampled(
                cfg.clone(),
                FixedPoolTranslator::new(0),
                StreamKernel::new(&cfg, 8, bytes),
                sample,
                NullObserver,
                NullMigrator,
                false,
            );
            (r, (), s)
        };
        let est = sampled.estimated.expect("sampled reports carry estimates");
        assert_eq!(est.windows_extrapolated, 0);
        assert_eq!(est.ops_extrapolated, 0);
        assert_eq!(est.cycles_extrapolated, 0);
        let mut stripped = sampled.clone();
        stripped.estimated = None;
        assert_eq!(stripped, full, "all-detail sampling must be exact");
    }

    /// A schedule scaled down for the small in-module kernels (the
    /// production default's 64k windows would cover these runs whole).
    fn small_sample() -> SampleConfig {
        SampleConfig {
            window_ops: 1024,
            warmup_windows: 2,
            period: 32,
            seed: 0,
        }
    }

    #[test]
    fn sampled_stream_tracks_full_bandwidth() {
        let cfg = small_cfg();
        let bytes = 8 << 20;
        let mk = || StreamKernel::new(&cfg, 32, bytes).with_mlp(4);
        let full = Simulator::new(cfg.clone(), FixedPoolTranslator::new(0), mk()).run();
        let (sampled, (), _) = {
            let (r, _o, s) = run_sampled(
                cfg.clone(),
                FixedPoolTranslator::new(0),
                mk(),
                small_sample(),
                NullObserver,
                NullMigrator,
                false,
            );
            (r, (), s)
        };
        let est = sampled.estimated.unwrap();
        assert!(est.windows_extrapolated > 0, "must fast-forward something");
        assert!(est.ops_simulated + est.ops_extrapolated == full.mem_ops);
        // Every inner op is consumed exactly once, so the extrapolated
        // mem-op count is exact.
        assert_eq!(sampled.mem_ops, full.mem_ops);
        let fb = full.achieved_bandwidth(cfg.sm_clock_ghz).gbps();
        let sb = sampled.achieved_bandwidth(cfg.sm_clock_ghz).gbps();
        let err = (sb - fb).abs() / fb;
        assert!(
            err < 0.05,
            "steady stream error {err:.3} (full {fb:.1} sampled {sb:.1})"
        );
        assert!((0.0..=1.0).contains(&est.confidence));
    }

    #[test]
    fn detail_window_intervals_match_full_run_byte_for_byte() {
        // Property: a window simulated in detail carries exactly the
        // full run's counters and events. Pinned across schedules in
        // the all-detail regime (period 1 and warmup-covers-run,
        // several window sizes and seeds), where the sampled run's
        // interval series and event trace must equal the full run's
        // byte for byte. Both runs attach the same sampler-and-tracer
        // pair, which the sampled engine nests behind its own model.
        let cfg = small_cfg();
        let bytes = 2 << 20;
        let probe = || {
            (
                crate::IntervalSampler::new(500, cfg.pools.len()),
                crate::EventTracer::new(crate::EventTracer::DEFAULT_BUDGET),
            )
        };
        let (full_report, (full_sampler, full_tracer), _) = Simulator::new(
            cfg.clone(),
            FixedPoolTranslator::new(0),
            StreamKernel::new(&cfg, 16, bytes),
        )
        .with_observer(probe())
        .run_instrumented();
        assert!(
            !full_tracer.events().is_empty() && full_tracer.dropped() == 0,
            "the whole trace must fit the budget"
        );
        let schedules = [
            SampleConfig {
                window_ops: 256,
                warmup_windows: 0,
                period: 1,
                seed: 0,
            },
            SampleConfig {
                window_ops: 4096,
                warmup_windows: 1,
                period: 1,
                seed: 7,
            },
            SampleConfig {
                window_ops: 1024,
                warmup_windows: u64::MAX,
                period: 32,
                seed: 42,
            },
        ];
        for sample in schedules {
            let (mut report, (sampler, tracer), _) = run_sampled(
                cfg.clone(),
                FixedPoolTranslator::new(0),
                StreamKernel::new(&cfg, 16, bytes),
                sample,
                probe(),
                NullMigrator,
                false,
            );
            assert_eq!(
                sampler.reports(),
                full_sampler.reports(),
                "interval series must match for {sample:?}"
            );
            assert_eq!(
                tracer.events(),
                full_tracer.events(),
                "trace events must match for {sample:?}"
            );
            assert_eq!(tracer.dropped(), 0, "{sample:?}");
            report.estimated = None;
            assert_eq!(report, full_report, "report must match for {sample:?}");
        }
    }

    #[test]
    fn sampled_runs_are_repeatable() {
        let cfg = small_cfg();
        let run = || {
            run_sampled(
                cfg.clone(),
                FixedPoolTranslator::new(0),
                StreamKernel::new(&cfg, 16, 2 << 20),
                small_sample(),
                NullObserver,
                NullMigrator,
                false,
            )
            .0
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "window_ops must be positive")]
    fn zero_window_rejected() {
        let _ = run_sampled(
            small_cfg(),
            FixedPoolTranslator::new(0),
            StreamKernel::new(&small_cfg(), 1, 4096),
            SampleConfig {
                window_ops: 0,
                ..SampleConfig::default()
            },
            NullObserver,
            NullMigrator,
            false,
        );
    }
}
