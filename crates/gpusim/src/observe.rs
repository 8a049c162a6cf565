//! The observability probe layer: zero-cost hooks inside the simulator.
//!
//! [`Observer`] is a trait the simulator is generic over, with a no-op
//! default implementation for every hook. The default observer,
//! [`NullObserver`], implements nothing — after monomorphization the
//! hook calls are empty inlined bodies and the fast path compiles away
//! entirely ([`NullObserver::ENABLED`] is `false`, so even argument
//! preparation is skipped where it would cost anything).
//!
//! Two concrete observers ship with the crate:
//!
//! * [`IntervalSampler`] — accumulates counters per fixed cycle window
//!   and produces a deterministic per-interval time-series
//!   ([`IntervalReport`]) whose counters partition the end-of-run
//!   [`SimReport`](crate::SimReport) aggregates exactly.
//! * [`EventTracer`] — records individual request lifetimes, DRAM
//!   services, MSHR NACKs and page-placement decisions as
//!   [`SimTraceEvent`]s, capped by an event budget (dropped events are
//!   counted, never silently lost).
//!
//! Observers compose as values: a pair `(A, B)` observes with both
//! halves, first then second, and an `Option<O>` with `O` when it is
//! `Some`. These two generic impls are the only code that forwards
//! hooks, so a new probe attaches as one more tuple half.
//! [`ProbeObserver`] is the pair of an optional sampler and an optional
//! tracer, so callers monomorphize a single observed simulator
//! variant. The observers are
//! also what leaves the run: `hetmem::RunBuilder::run_observed` hands
//! back the sampler's reports and the tracer itself, and `hetmem::grid`
//! renders them to JSONL lines and Chrome traces with no copy in
//! between.
//!
//! Hooks fire in non-decreasing event time (the calendar pops events in
//! time order), which is what lets the sampler close intervals with a
//! simple roll-forward and keeps every observer deterministic: one
//! simulator runs single-threaded, and sweeps run one simulator per
//! grid point.

use std::collections::HashMap;

/// Simulator probe points. All methods default to no-ops; implement the
/// ones you need. `now` is always the current event time in cycles.
pub trait Observer {
    /// `false` lets the simulator skip hook-argument preparation
    /// entirely (the [`NullObserver`] fast path).
    const ENABLED: bool = true;

    /// A warp issued a memory operation (`write` distinguishes stores).
    fn mem_issue(&mut self, now: u64, write: bool) {
        let _ = (now, write);
    }

    /// An L1 lookup (read access or write probe) hit or missed.
    fn l1_access(&mut self, now: u64, hit: bool) {
        let _ = (now, hit);
    }

    /// A read request left an SM toward an L2 slice (one per unique
    /// in-flight line per SM; coalesced readers merge before this).
    fn request_depart(&mut self, now: u64, sm: u16, vline: u64, pool: usize) {
        let _ = (now, sm, vline, pool);
    }

    /// An L2 slice lookup hit or missed.
    fn l2_access(&mut self, now: u64, slice: u32, pool: usize, hit: bool) {
        let _ = (now, slice, pool, hit);
    }

    /// A read was held at the slice because all MSHRs were busy.
    fn mshr_nack(&mut self, now: u64, slice: u32, pool: usize) {
        let _ = (now, slice, pool);
    }

    /// MSHR occupancy of one slice right after an entry was allocated.
    fn mshr_occupancy(&mut self, now: u64, occupancy: usize) {
        let _ = (now, occupancy);
    }

    /// Bytes entered a pool's DRAM (counted at enqueue, mirroring the
    /// [`SimReport`](crate::SimReport) traffic counters).
    fn dram_traffic(&mut self, now: u64, pool: usize, bytes: u64, read: bool) {
        let _ = (now, pool, bytes, read);
    }

    /// A DRAM channel served one burst (`done` = data completion cycle,
    /// `burst_cycles` = bus occupancy of the transfer).
    fn dram_service(
        &mut self,
        now: u64,
        slice: u32,
        pool: usize,
        read: bool,
        done: u64,
        burst_cycles: f64,
    ) {
        let _ = (now, slice, pool, read, done, burst_cycles);
    }

    /// A read's data arrived back at the issuing SM.
    fn request_retire(&mut self, now: u64, sm: u16, vline: u64) {
        let _ = (now, sm, vline);
    }

    /// The translator faulted a page in (first touch) into `pool`.
    fn page_placed(&mut self, now: u64, pool: usize) {
        let _ = (now, pool);
    }

    /// A warp ran to retirement.
    fn warp_retired(&mut self, now: u64) {
        let _ = now;
    }

    /// The run ended at `cycles` (close any open interval).
    fn run_finished(&mut self, cycles: u64) {
        let _ = cycles;
    }
}

/// The default observer: every hook is a no-op and `ENABLED` is `false`,
/// so an unobserved simulator carries no probe cost at all.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullObserver;

impl Observer for NullObserver {
    const ENABLED: bool = false;
}

/// Per-pool counters of one sampling interval.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IntervalPoolReport {
    /// Bytes read from this pool's DRAM during the interval.
    pub bytes_read: u64,
    /// Bytes written to this pool's DRAM during the interval.
    pub bytes_written: u64,
    /// DRAM bursts served by the pool's channels during the interval.
    pub services: u64,
    /// Data-bus busy cycles accumulated during the interval.
    pub busy_cycles: f64,
    /// Pages faulted into this pool since run start (cumulative zone
    /// occupancy as seen by the simulator's fault path).
    pub zone_pages: u64,
}

/// One sampling window of an observed run. Counter fields partition the
/// run totals: summed over all intervals they equal the corresponding
/// [`SimReport`](crate::SimReport) aggregates (cumulative fields —
/// `zone_pages`, `mshr_peak` — excepted).
#[derive(Debug, Clone, PartialEq)]
pub struct IntervalReport {
    /// Interval index (`start_cycle / sample_cycles`).
    pub index: u64,
    /// First cycle of the window.
    pub start_cycle: u64,
    /// One past the last cycle of the window.
    pub end_cycle: u64,
    /// Warp memory operations issued.
    pub mem_ops: u64,
    /// L1 hits.
    pub l1_hits: u64,
    /// L1 misses.
    pub l1_misses: u64,
    /// L2 hits.
    pub l2_hits: u64,
    /// L2 misses.
    pub l2_misses: u64,
    /// Reads held on MSHR exhaustion.
    pub mshr_stalls: u64,
    /// Peak single-slice MSHR occupancy observed in the window.
    pub mshr_peak: u64,
    /// Warps retired.
    pub warps_retired: u64,
    /// Per-pool traffic, indexed like `SimConfig::pools`.
    pub pools: Vec<IntervalPoolReport>,
}

impl IntervalReport {
    fn empty(index: u64, sample_cycles: u64, num_pools: usize) -> Self {
        IntervalReport {
            index,
            start_cycle: index * sample_cycles,
            end_cycle: (index + 1) * sample_cycles,
            mem_ops: 0,
            l1_hits: 0,
            l1_misses: 0,
            l2_hits: 0,
            l2_misses: 0,
            mshr_stalls: 0,
            mshr_peak: 0,
            warps_retired: 0,
            pools: vec![IntervalPoolReport::default(); num_pools],
        }
    }
}

/// Accumulates per-interval counters into a deterministic time-series.
///
/// Construct with the window length and pool count, attach via
/// [`Simulator::with_observer`](crate::Simulator::with_observer) (inside
/// a [`ProbeObserver`] or alone), run, and read
/// [`IntervalSampler::reports`]. The emitted series is contiguous from
/// interval 0 through the interval containing the final cycle.
#[derive(Debug, Clone)]
pub struct IntervalSampler {
    sample_cycles: u64,
    num_pools: usize,
    cur: IntervalReport,
    zone_pages: Vec<u64>,
    done: Vec<IntervalReport>,
    finished: bool,
}

impl IntervalSampler {
    /// Creates a sampler with `sample_cycles`-wide windows.
    ///
    /// # Panics
    ///
    /// Panics if `sample_cycles` is zero.
    pub fn new(sample_cycles: u64, num_pools: usize) -> Self {
        assert!(sample_cycles > 0, "sampling interval must be positive");
        IntervalSampler {
            sample_cycles,
            num_pools,
            cur: IntervalReport::empty(0, sample_cycles, num_pools),
            zone_pages: vec![0; num_pools],
            done: Vec::new(),
            finished: false,
        }
    }

    /// The window length in cycles.
    pub fn sample_cycles(&self) -> u64 {
        self.sample_cycles
    }

    /// The completed series (call after the run; the simulator closes
    /// the final interval through [`Observer::run_finished`]).
    pub fn reports(&self) -> &[IntervalReport] {
        &self.done
    }

    /// Consumes the sampler, returning the series.
    pub fn into_reports(self) -> Vec<IntervalReport> {
        self.done
    }

    /// Closes intervals up to (not including) the one containing `now`.
    fn roll(&mut self, now: u64) {
        let target = now / self.sample_cycles;
        while self.cur.index < target {
            self.flush_one();
        }
    }

    fn flush_one(&mut self) {
        let next = IntervalReport::empty(self.cur.index + 1, self.sample_cycles, self.num_pools);
        let mut closed = std::mem::replace(&mut self.cur, next);
        for (p, &pages) in closed.pools.iter_mut().zip(&self.zone_pages) {
            p.zone_pages = pages;
        }
        self.done.push(closed);
    }
}

impl Observer for IntervalSampler {
    fn mem_issue(&mut self, now: u64, _write: bool) {
        self.roll(now);
        self.cur.mem_ops += 1;
    }

    fn l1_access(&mut self, now: u64, hit: bool) {
        self.roll(now);
        if hit {
            self.cur.l1_hits += 1;
        } else {
            self.cur.l1_misses += 1;
        }
    }

    fn l2_access(&mut self, now: u64, _slice: u32, _pool: usize, hit: bool) {
        self.roll(now);
        if hit {
            self.cur.l2_hits += 1;
        } else {
            self.cur.l2_misses += 1;
        }
    }

    fn mshr_nack(&mut self, now: u64, _slice: u32, _pool: usize) {
        self.roll(now);
        self.cur.mshr_stalls += 1;
    }

    fn mshr_occupancy(&mut self, now: u64, occupancy: usize) {
        self.roll(now);
        self.cur.mshr_peak = self.cur.mshr_peak.max(occupancy as u64);
    }

    fn dram_traffic(&mut self, now: u64, pool: usize, bytes: u64, read: bool) {
        self.roll(now);
        let p = &mut self.cur.pools[pool];
        if read {
            p.bytes_read += bytes;
        } else {
            p.bytes_written += bytes;
        }
    }

    fn dram_service(
        &mut self,
        now: u64,
        _slice: u32,
        pool: usize,
        _read: bool,
        _done: u64,
        burst_cycles: f64,
    ) {
        self.roll(now);
        let p = &mut self.cur.pools[pool];
        p.services += 1;
        p.busy_cycles += burst_cycles;
    }

    fn page_placed(&mut self, now: u64, pool: usize) {
        self.roll(now);
        self.zone_pages[pool] += 1;
    }

    fn warp_retired(&mut self, now: u64) {
        self.roll(now);
        self.cur.warps_retired += 1;
    }

    fn run_finished(&mut self, cycles: u64) {
        if self.finished {
            return;
        }
        self.finished = true;
        // Close everything through the interval containing the last cycle
        // so the series is contiguous and sums to the run totals.
        self.roll(cycles);
        self.flush_one();
    }
}

/// What a [`SimTraceEvent`] describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEventKind {
    /// A read request's SM-to-SM round trip (`tid` = SM).
    Request {
        /// Issuing SM.
        sm: u16,
        /// Virtual line requested.
        vline: u64,
        /// Pool that served it.
        pool: usize,
    },
    /// One DRAM burst on a channel.
    DramService {
        /// Global slice/channel index.
        slice: u32,
        /// Owning pool.
        pool: usize,
        /// Read or write burst.
        read: bool,
    },
    /// A read held at a slice on MSHR exhaustion.
    MshrNack {
        /// Global slice/channel index.
        slice: u32,
        /// Owning pool.
        pool: usize,
    },
    /// A first-touch page placement decided during the run.
    PagePlaced {
        /// Pool the page landed in.
        pool: usize,
    },
}

/// One traced event: a kind plus a `[start, start + dur)` cycle span
/// (instant events have `dur == 0`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimTraceEvent {
    /// What happened.
    pub kind: TraceEventKind,
    /// Start cycle.
    pub start: u64,
    /// Duration in cycles (0 for instants).
    pub dur: u64,
}

/// Records individual events up to a budget; excess events are counted
/// in [`EventTracer::dropped`] instead of silently vanishing.
#[derive(Debug, Clone)]
pub struct EventTracer {
    budget: usize,
    events: Vec<SimTraceEvent>,
    dropped: u64,
    /// In-flight read issue times by `(sm, vline)`.
    inflight: HashMap<(u16, u64), u64>,
}

impl EventTracer {
    /// The default event budget: plenty for a quick run, bounded for a
    /// full one (~20 MB of Chrome-trace JSON worst case).
    pub const DEFAULT_BUDGET: usize = 100_000;

    /// Creates a tracer that keeps at most `budget` events.
    pub fn new(budget: usize) -> Self {
        EventTracer {
            budget,
            events: Vec::new(),
            dropped: 0,
            inflight: HashMap::new(),
        }
    }

    /// The configured event budget.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Events recorded, in completion order.
    pub fn events(&self) -> &[SimTraceEvent] {
        &self.events
    }

    /// Events discarded after the budget filled.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    fn push(&mut self, ev: SimTraceEvent) {
        if self.events.len() < self.budget {
            self.events.push(ev);
        } else {
            self.dropped += 1;
        }
    }
}

impl Observer for EventTracer {
    fn request_depart(&mut self, now: u64, sm: u16, vline: u64, _pool: usize) {
        self.inflight.insert((sm, vline), now);
    }

    fn request_retire(&mut self, now: u64, sm: u16, vline: u64) {
        if let Some(start) = self.inflight.remove(&(sm, vline)) {
            self.push(SimTraceEvent {
                // The serving pool is not known at retire time; readers
                // group request spans by SM, so record the span only.
                kind: TraceEventKind::Request { sm, vline, pool: 0 },
                start,
                dur: now.saturating_sub(start),
            });
        }
    }

    fn mshr_nack(&mut self, now: u64, slice: u32, pool: usize) {
        self.push(SimTraceEvent {
            kind: TraceEventKind::MshrNack { slice, pool },
            start: now,
            dur: 0,
        });
    }

    fn dram_service(
        &mut self,
        _now: u64,
        slice: u32,
        pool: usize,
        read: bool,
        done: u64,
        burst_cycles: f64,
    ) {
        let dur = burst_cycles.ceil() as u64;
        self.push(SimTraceEvent {
            kind: TraceEventKind::DramService { slice, pool, read },
            start: done.saturating_sub(dur),
            dur,
        });
    }

    fn page_placed(&mut self, now: u64, pool: usize) {
        self.push(SimTraceEvent {
            kind: TraceEventKind::PagePlaced { pool },
            start: now,
            dur: 0,
        });
    }
}

/// The production observer: an optional [`IntervalSampler`] plus an
/// optional [`EventTracer`] in one type, so the runner needs exactly
/// one observed simulator instantiation.
pub type ProbeObserver = (Option<IntervalSampler>, Option<EventTracer>);

/// Writes the two composite observers from one list of hook
/// signatures; they are the only code that forwards hooks.
macro_rules! composite_observers {
    ($(fn $hook:ident(&mut self $(, $arg:ident: $ty:ty)*);)*) => {
        /// A pair observes with both halves: each hook goes to each
        /// enabled half, first then second.
        impl<A: Observer, B: Observer> Observer for (A, B) {
            const ENABLED: bool = A::ENABLED || B::ENABLED;
            $(
                fn $hook(&mut self $(, $arg: $ty)*) {
                    if A::ENABLED {
                        self.0.$hook($($arg),*);
                    }
                    if B::ENABLED {
                        self.1.$hook($($arg),*);
                    }
                }
            )*
        }

        /// An optional observer: each hook goes to the inner observer
        /// when it is `Some`.
        impl<O: Observer> Observer for Option<O> {
            const ENABLED: bool = O::ENABLED;
            $(
                fn $hook(&mut self $(, $arg: $ty)*) {
                    if let Some(o) = self {
                        o.$hook($($arg),*);
                    }
                }
            )*
        }
    };
}

composite_observers! {
    fn mem_issue(&mut self, now: u64, write: bool);
    fn l1_access(&mut self, now: u64, hit: bool);
    fn request_depart(&mut self, now: u64, sm: u16, vline: u64, pool: usize);
    fn l2_access(&mut self, now: u64, slice: u32, pool: usize, hit: bool);
    fn mshr_nack(&mut self, now: u64, slice: u32, pool: usize);
    fn mshr_occupancy(&mut self, now: u64, occupancy: usize);
    fn dram_traffic(&mut self, now: u64, pool: usize, bytes: u64, read: bool);
    fn dram_service(
        &mut self, now: u64, slice: u32, pool: usize, read: bool, done: u64, burst_cycles: f64
    );
    fn request_retire(&mut self, now: u64, sm: u16, vline: u64);
    fn page_placed(&mut self, now: u64, pool: usize);
    fn warp_retired(&mut self, now: u64);
    fn run_finished(&mut self, cycles: u64);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampler_rolls_and_partitions_counters() {
        let mut s = IntervalSampler::new(100, 2);
        s.mem_issue(5, false);
        s.l1_access(5, false);
        s.dram_traffic(50, 0, 128, true);
        s.dram_traffic(150, 1, 128, false);
        s.mshr_occupancy(170, 7);
        s.page_placed(250, 0);
        s.run_finished(260);

        let r = s.reports();
        assert_eq!(r.len(), 3, "cycles 0..=260 span three 100-cycle windows");
        assert_eq!(r[0].index, 0);
        assert_eq!(r[0].start_cycle, 0);
        assert_eq!(r[0].end_cycle, 100);
        assert_eq!(r[0].mem_ops, 1);
        assert_eq!(r[0].l1_misses, 1);
        assert_eq!(r[0].pools[0].bytes_read, 128);
        assert_eq!(r[1].pools[1].bytes_written, 128);
        assert_eq!(r[1].mshr_peak, 7);
        // Zone pages are cumulative snapshots at interval end.
        assert_eq!(r[0].pools[0].zone_pages, 0);
        assert_eq!(r[2].pools[0].zone_pages, 1);
        let total_bytes: u64 = r
            .iter()
            .flat_map(|i| &i.pools)
            .map(|p| p.bytes_read + p.bytes_written)
            .sum();
        assert_eq!(total_bytes, 256);
    }

    #[test]
    fn sampler_run_ending_on_boundary_emits_empty_final_window() {
        // A run whose last cycle lands exactly on a window boundary
        // closes with a zero-length (all-zero) trailing window: the
        // series stays contiguous and still sums to the run totals.
        let mut s = IntervalSampler::new(100, 1);
        s.mem_issue(150, false);
        s.run_finished(200);
        let r = s.reports();
        assert_eq!(r.len(), 3);
        assert_eq!(r[2].start_cycle, 200);
        assert_eq!(r[2], IntervalReport::empty(2, 100, 1));
        let total: u64 = r.iter().map(|i| i.mem_ops).sum();
        assert_eq!(total, 1);
    }

    #[test]
    fn sampler_window_larger_than_run_yields_one_window() {
        // The window length is nominal: a run shorter than one window
        // emits a single interval holding every counter, its end_cycle
        // still reporting the nominal window edge.
        let mut s = IntervalSampler::new(10_000, 2);
        s.mem_issue(3, false);
        s.dram_traffic(40, 1, 128, true);
        s.run_finished(50);
        let r = s.reports();
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].index, 0);
        assert_eq!(r[0].end_cycle, 10_000);
        assert_eq!(r[0].mem_ops, 1);
        assert_eq!(r[0].pools[1].bytes_read, 128);
    }

    #[test]
    fn sampler_emits_contiguous_series_across_idle_gaps() {
        let mut s = IntervalSampler::new(10, 1);
        s.mem_issue(1, false);
        s.mem_issue(45, false);
        s.run_finished(45);
        let idx: Vec<u64> = s.reports().iter().map(|i| i.index).collect();
        assert_eq!(idx, vec![0, 1, 2, 3, 4]);
        assert_eq!(s.reports()[2].mem_ops, 0, "idle window is explicit");
    }

    #[test]
    fn tracer_budget_counts_drops() {
        let mut t = EventTracer::new(2);
        for i in 0..5 {
            t.mshr_nack(i, 0, 0);
        }
        assert_eq!(t.events().len(), 2);
        assert_eq!(t.dropped(), 3);
    }

    #[test]
    fn tracer_pairs_request_depart_and_retire() {
        let mut t = EventTracer::new(16);
        t.request_depart(10, 1, 77, 0);
        t.request_retire(250, 1, 77);
        // Unmatched retires are ignored.
        t.request_retire(300, 1, 78);
        assert_eq!(t.events().len(), 1);
        let ev = t.events()[0];
        assert_eq!(ev.start, 10);
        assert_eq!(ev.dur, 240);
        assert!(matches!(
            ev.kind,
            TraceEventKind::Request {
                sm: 1,
                vline: 77,
                ..
            }
        ));
    }

    #[test]
    fn null_observer_is_disabled() {
        const { assert!(!NullObserver::ENABLED) };
        const { assert!(IntervalSampler::ENABLED) };
    }

    use std::cell::RefCell;
    use std::rc::Rc;

    type Log = Rc<RefCell<Vec<String>>>;

    /// Logs every hook it sees, with its arguments, as `tag.hook(args)`.
    struct Recorder {
        tag: &'static str,
        log: Log,
    }

    impl Recorder {
        fn record(&self, hook: &str, args: std::fmt::Arguments) {
            let line = format!("{}.{hook}({args})", self.tag);
            self.log.borrow_mut().push(line);
        }
    }

    impl Observer for Recorder {
        fn mem_issue(&mut self, now: u64, write: bool) {
            self.record("mem_issue", format_args!("{now},{write}"));
        }
        fn l1_access(&mut self, now: u64, hit: bool) {
            self.record("l1_access", format_args!("{now},{hit}"));
        }
        fn request_depart(&mut self, now: u64, sm: u16, vline: u64, pool: usize) {
            self.record("request_depart", format_args!("{now},{sm},{vline},{pool}"));
        }
        fn l2_access(&mut self, now: u64, slice: u32, pool: usize, hit: bool) {
            self.record("l2_access", format_args!("{now},{slice},{pool},{hit}"));
        }
        fn mshr_nack(&mut self, now: u64, slice: u32, pool: usize) {
            self.record("mshr_nack", format_args!("{now},{slice},{pool}"));
        }
        fn mshr_occupancy(&mut self, now: u64, occupancy: usize) {
            self.record("mshr_occupancy", format_args!("{now},{occupancy}"));
        }
        fn dram_traffic(&mut self, now: u64, pool: usize, bytes: u64, read: bool) {
            self.record("dram_traffic", format_args!("{now},{pool},{bytes},{read}"));
        }
        fn dram_service(
            &mut self,
            now: u64,
            slice: u32,
            pool: usize,
            read: bool,
            done: u64,
            burst_cycles: f64,
        ) {
            let args = format_args!("{now},{slice},{pool},{read},{done},{burst_cycles}");
            self.record("dram_service", args);
        }
        fn request_retire(&mut self, now: u64, sm: u16, vline: u64) {
            self.record("request_retire", format_args!("{now},{sm},{vline}"));
        }
        fn page_placed(&mut self, now: u64, pool: usize) {
            self.record("page_placed", format_args!("{now},{pool}"));
        }
        fn warp_retired(&mut self, now: u64) {
            self.record("warp_retired", format_args!("{now}"));
        }
        fn run_finished(&mut self, cycles: u64) {
            self.record("run_finished", format_args!("{cycles}"));
        }
    }

    /// Calls every hook once, each with its own arguments.
    fn drive(o: &mut impl Observer) {
        o.mem_issue(1, true);
        o.l1_access(2, false);
        o.request_depart(3, 4, 5, 1);
        o.l2_access(6, 7, 1, true);
        o.mshr_nack(8, 9, 0);
        o.mshr_occupancy(10, 11);
        o.dram_traffic(12, 1, 128, false);
        o.dram_service(13, 14, 0, true, 20, 2.5);
        o.request_retire(21, 4, 5);
        o.page_placed(22, 1);
        o.warp_retired(23);
        o.run_finished(24);
    }

    /// What one recorder tagged `tag` logs for [`drive`].
    fn driven(tag: &'static str) -> Vec<String> {
        let log = Log::default();
        drive(&mut Recorder {
            tag,
            log: Rc::clone(&log),
        });
        log.take()
    }

    #[test]
    fn pair_forwards_every_hook_to_both_halves_in_order() {
        let log = Log::default();
        let rec = |tag| Recorder {
            tag,
            log: Rc::clone(&log),
        };
        drive(&mut (rec("a"), rec("b")));
        let expected: Vec<String> = driven("a")
            .into_iter()
            .zip(driven("b"))
            .flat_map(|(a, b)| [a, b])
            .collect();
        assert_eq!(expected.len(), 24, "twelve hooks, two halves");
        assert_eq!(*log.borrow(), expected);

        // A disabled half drops out of the pair's `ENABLED`.
        const { assert!(!<(NullObserver, NullObserver)>::ENABLED) };
        const { assert!(<(NullObserver, IntervalSampler)>::ENABLED) };
        const { assert!(<(EventTracer, NullObserver)>::ENABLED) };
    }

    #[test]
    fn option_forwards_only_when_some() {
        const { assert!(!<Option<NullObserver>>::ENABLED) };
        const { assert!(<Option<EventTracer>>::ENABLED) };
        let log = Log::default();
        drive(&mut None::<Recorder>);
        drive(&mut (None::<Recorder>, None::<Recorder>));
        assert!(log.borrow().is_empty());
        drive(&mut Some(Recorder {
            tag: "a",
            log: Rc::clone(&log),
        }));
        assert_eq!(*log.borrow(), driven("a"));
    }
}
