//! The event-driven GPU memory-system simulator.
//!
//! One [`Simulator`] run executes a [`WarpProgram`] on the configured GPU:
//! warps issue compute and memory operations; loads traverse per-SM L1s,
//! the interconnect (with per-pool extra latency), memory-side L2 slices
//! with finite MSHRs, and banked FR-FCFS DRAM channels. Stores are
//! write-through / no-allocate at L1 and do not block the issuing warp.
//!
//! Model notes (kept deliberately narrow — see `DESIGN.md`):
//!
//! * Warp instruction semantics are not modeled; the program supplies a
//!   per-warp stream of `Compute(cycles)` / `Mem` operations.
//! * A warp may have up to [`WarpProgram::mem_level_parallelism`] loads
//!   outstanding before it stalls — this is what makes most GPU workloads
//!   latency-tolerant (paper Fig. 2b) while MSHR or bandwidth exhaustion
//!   still bites.
//! * L2 slices are memory-side (one per DRAM channel, as in Table 1), so
//!   placement decides which slice and channel serve a page. L2 lines are
//!   allocated when their DRAM fill completes, never at probe time.
//!
//! Engine note: a channel serving a read with more requests queued ticks
//! again the instant the read's data lands, so the fill and the next
//! tick are one `FillTick` event that runs both in order. As two events
//! they would be consecutive inserts at one timestamp, which the
//! calendar pops back to back, so merging them changes no event order
//! and saves about 0.6 of 5.2 events per memory op (DESIGN §9.3).

use hmtypes::{AccessKind, VirtAddr, LINE_SIZE, PAGE_SIZE};

use crate::cache::SetAssocCache;
use crate::config::SimConfig;
use crate::dram::{Divisor, DramChannel, LINES_PER_ROW};
use crate::engine::Calendar;
use crate::flat::{PageMap, WaiterMap};
use crate::migrate::{NullMigrator, PageMigrator};
use crate::observe::{NullObserver, Observer};
use crate::request::{AddressTranslator, WarpId, WarpOp, WarpProgram};
use crate::stats::{MigrationReport, PoolReport, SimReport};

/// Virtual-line index → virtual page (32 lines per 4 kB page).
const LINES_PER_PAGE: u64 = (PAGE_SIZE / LINE_SIZE) as u64;

/// Slice indices are `u16` so [`Event`] stays within 24 bytes; the
/// calendar moves millions of these per run. `Simulator::new` asserts
/// the config fits.
#[derive(Debug, Clone, Copy)]
enum Event {
    WarpReady(WarpId),
    L2Arrive {
        vline: u64,
        pline: u64,
        slice: u16,
        sm: u16,
        read: bool,
    },
    DramTick {
        slice: u16,
    },
    L2Fill {
        pline: u64,
        slice: u16,
    },
    /// A read fill whose channel ticks again at the same instant: runs
    /// `l2_fill`, then `dram_tick`. As two events they would be
    /// consecutive inserts at one timestamp, which the calendar pops
    /// back to back, so one event keeps the order (DESIGN §9.3).
    FillTick {
        pline: u64,
        slice: u16,
    },
    SmReceive {
        vline: u64,
        sm: u16,
    },
    /// An online-migration epoch boundary (only scheduled when a real
    /// [`PageMigrator`] is attached).
    MigrationEpoch,
}

const _: () = assert!(std::mem::size_of::<Event>() <= 24, "Event grew");

#[derive(Debug, Clone, Copy, Default)]
struct WarpState {
    outstanding: u32,
    waiting: bool,
    retired: bool,
}

#[derive(Debug)]
struct SmState {
    l1: SetAssocCache,
    /// Outstanding L1 misses by virtual line → warp slots to wake.
    pending: WaiterMap<u32>,
}

#[derive(Debug)]
struct L2Slice {
    cache: SetAssocCache,
    /// Outstanding DRAM fills by physical line → (sm, vline) waiters.
    mshr: WaiterMap<(u16, u64)>,
    /// Reads blocked on MSHR exhaustion, drained as fills free entries
    /// (credit-based flow control rather than NACK-and-retry polling).
    waitq: std::collections::VecDeque<(u64, u64, u16)>,
    pool: usize,
}

/// The simulator; construct with [`Simulator::new`], then call
/// [`Simulator::run`].
///
/// The third type parameter is the attached [`Observer`]; it defaults to
/// [`NullObserver`], whose hooks are empty `ENABLED = false` no-ops, so
/// an unobserved simulator pays nothing for the probe layer. Attach a
/// real observer with [`Simulator::with_observer`] and retrieve it with
/// [`Simulator::run_instrumented`].
///
/// The fourth type parameter is the attached
/// [`crate::migrate::PageMigrator`], defaulting to the
/// equally free [`NullMigrator`]; attach a real engine with
/// [`Simulator::with_migrator`] to run epoch-based online page
/// migration whose copies occupy real DRAM channel bandwidth.
///
/// # Examples
///
/// ```
/// use gpusim::{FixedPoolTranslator, SimConfig, Simulator, StreamKernel};
///
/// let cfg = SimConfig::paper_baseline();
/// // A tiny streaming kernel entirely in the BO pool.
/// let program = StreamKernel::new(&cfg, 64, 1 << 20);
/// let report = Simulator::new(cfg, FixedPoolTranslator::new(0), program).run();
/// assert!(report.completed);
/// assert!(report.cycles > 0);
/// ```
///
/// Sampling a time-series from the same run:
///
/// ```
/// use gpusim::{FixedPoolTranslator, IntervalSampler, SimConfig, Simulator, StreamKernel};
///
/// let cfg = SimConfig::paper_baseline();
/// let pools = cfg.pools.len();
/// let program = StreamKernel::new(&cfg, 64, 1 << 20);
/// let (report, sampler, _) = Simulator::new(cfg, FixedPoolTranslator::new(0), program)
///     .with_observer(IntervalSampler::new(1000, pools))
///     .run_instrumented();
/// let sampled: u64 = sampler.reports().iter().map(|i| i.mem_ops).sum();
/// assert_eq!(sampled, report.mem_ops);
/// ```
#[derive(Debug)]
pub struct Simulator<T, P, O = NullObserver, M = NullMigrator> {
    cfg: SimConfig,
    translator: T,
    program: P,
    warps_per_sm: u32,
    /// `warps_per_sm`, for the warp → (SM, slot) split.
    warp_div: Divisor,
    mlp: u32,

    cal: Calendar<Event>,
    sms: Vec<SmState>,
    warps: Vec<WarpState>,
    slices: Vec<L2Slice>,
    chans: Vec<DramChannel>,
    /// First slice/channel index of each pool.
    pool_offset: Vec<usize>,
    /// Channel count of each pool, for row-stripe routing.
    pool_channels: Vec<Divisor>,

    mem_ops: u64,
    l2_hits: u64,
    l2_misses: u64,
    mshr_stalls: u64,
    retired: u32,
    bytes_read: Vec<u64>,
    bytes_written: Vec<u64>,
    page_accesses: Option<PageMap<u64>>,
    obs: O,
    mig: M,
    /// Copy traffic charged for migrations (bytes on the DRAM buses).
    copy_bytes: u64,
    /// DRAM data-bus cycles occupied by migration copy bursts.
    copy_cycles: f64,
    /// Cycles accesses stalled on freshly rewritten mappings.
    remap_stall_cycles: u64,
}

impl<T: AddressTranslator, P: WarpProgram> Simulator<T, P> {
    /// Creates a simulator for one program run.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`SimConfig::validate`] or the program asks
    /// for zero warps.
    pub fn new(cfg: SimConfig, translator: T, program: P) -> Self {
        cfg.validate();
        let warps_per_sm = program.warps_per_sm().min(cfg.max_warps_per_sm);
        assert!(
            warps_per_sm > 0,
            "program must use at least one warp per SM"
        );
        let mlp = program.mem_level_parallelism().max(1);

        // Worst-case distinct pending lines per SM: every warp slot at
        // its full memory-level parallelism.
        let pending_keys = (warps_per_sm * mlp) as usize;
        let sms = (0..cfg.num_sms)
            .map(|_| SmState {
                l1: SetAssocCache::new(cfg.l1),
                pending: WaiterMap::with_key_capacity(pending_keys),
            })
            .collect();

        let mut slices = Vec::new();
        let mut chans = Vec::new();
        let mut pool_offset = Vec::new();
        for (p, pool) in cfg.pools.iter().enumerate() {
            pool_offset.push(slices.len());
            for _ in 0..pool.channels {
                slices.push(L2Slice {
                    cache: SetAssocCache::new(cfg.l2),
                    // MSHR occupancy is capped at l2_mshrs keys.
                    mshr: WaiterMap::with_key_capacity(cfg.l2_mshrs),
                    waitq: std::collections::VecDeque::new(),
                    pool: p,
                });
                chans.push(DramChannel::new(pool, cfg.sm_clock_ghz));
            }
        }
        assert!(
            slices.len() <= usize::from(u16::MAX),
            "slice indices are u16 in Event"
        );

        let pool_channels = cfg
            .pools
            .iter()
            .map(|p| Divisor::new(u64::from(p.channels)))
            .collect();
        let total_warps = (cfg.num_sms * warps_per_sm) as usize;
        let num_pools = cfg.pools.len();
        Simulator {
            cfg,
            translator,
            program,
            warps_per_sm,
            warp_div: Divisor::new(u64::from(warps_per_sm)),
            mlp,
            cal: Calendar::new(),
            sms,
            warps: vec![WarpState::default(); total_warps],
            slices,
            chans,
            pool_offset,
            pool_channels,
            mem_ops: 0,
            l2_hits: 0,
            l2_misses: 0,
            mshr_stalls: 0,
            retired: 0,
            bytes_read: vec![0; num_pools],
            bytes_written: vec![0; num_pools],
            page_accesses: None,
            obs: NullObserver,
            mig: NullMigrator,
            copy_bytes: 0,
            copy_cycles: 0.0,
            remap_stall_cycles: 0,
        }
    }
}

impl<T: AddressTranslator, P: WarpProgram, O: Observer, M: PageMigrator> Simulator<T, P, O, M> {
    /// Enables per-virtual-page DRAM access counting (paper Fig. 6/7
    /// profiling: accesses counted after cache filtering).
    pub fn with_page_profiling(mut self) -> Self {
        self.page_accesses = Some(PageMap::new());
        self
    }

    /// Attaches `obs`, replacing the current observer. The typical flow
    /// is `Simulator::new(..).with_observer(probe).run_instrumented()`.
    pub fn with_observer<O2: Observer>(self, obs: O2) -> Simulator<T, P, O2, M> {
        self.reattach(|_, mig| (obs, mig))
    }

    /// Attaches `mig`, replacing the current migrator — this is how the
    /// `MIGRATE` policy plugs its engine into the run.
    pub fn with_migrator<M2: PageMigrator>(self, mig: M2) -> Simulator<T, P, O, M2> {
        self.reattach(|obs, _| (obs, mig))
    }

    /// Rebuilds the simulator around the observer and migrator that
    /// `swap` makes of the current ones; every other field moves over.
    fn reattach<O2, M2>(self, swap: impl FnOnce(O, M) -> (O2, M2)) -> Simulator<T, P, O2, M2> {
        let (obs, mig) = swap(self.obs, self.mig);
        Simulator {
            cfg: self.cfg,
            translator: self.translator,
            program: self.program,
            warps_per_sm: self.warps_per_sm,
            warp_div: self.warp_div,
            mlp: self.mlp,
            cal: self.cal,
            sms: self.sms,
            warps: self.warps,
            slices: self.slices,
            chans: self.chans,
            pool_offset: self.pool_offset,
            pool_channels: self.pool_channels,
            mem_ops: self.mem_ops,
            l2_hits: self.l2_hits,
            l2_misses: self.l2_misses,
            mshr_stalls: self.mshr_stalls,
            retired: self.retired,
            bytes_read: self.bytes_read,
            bytes_written: self.bytes_written,
            page_accesses: self.page_accesses,
            obs,
            mig,
            copy_bytes: self.copy_bytes,
            copy_cycles: self.copy_cycles,
            remap_stall_cycles: self.remap_stall_cycles,
        }
    }

    /// Runs the program to completion (or the cycle limit) and reports.
    pub fn run(self) -> SimReport {
        self.run_instrumented().0
    }

    /// Like [`Simulator::run`], but also hands back the observer (its
    /// interval series, trace events) and the engine's throughput
    /// counters ([`crate::EngineStats`]). The `SimReport` is identical
    /// to [`Simulator::run`]'s.
    pub fn run_instrumented(mut self) -> (SimReport, O, crate::EngineStats) {
        for w in 0..self.warps.len() {
            self.cal.schedule(0, Event::WarpReady(WarpId(w as u32)));
        }
        if M::ENABLED {
            self.cal
                .schedule(self.mig.next_epoch(), Event::MigrationEpoch);
        }

        let mut completed = true;
        // Run end time: the last *demand* event's timestamp. Epoch
        // boundary events are bookkeeping, not work — a trailing epoch
        // that decides nothing must not inflate the cycle count (and
        // with the null migrator this is exactly the calendar's clock).
        let mut end = 0;
        while let Some((now, event)) = self.cal.pop() {
            if now > self.cfg.max_cycles {
                completed = false;
                end = now;
                break;
            }
            match event {
                Event::WarpReady(w) => self.warp_ready(now, w),
                Event::L2Arrive {
                    slice,
                    vline,
                    pline,
                    sm,
                    read,
                } => self.l2_arrive(now, slice, vline, pline, sm, read),
                Event::DramTick { slice } => self.dram_tick(now, slice),
                Event::L2Fill { slice, pline } => self.l2_fill(now, slice, pline),
                Event::FillTick { slice, pline } => {
                    self.l2_fill(now, slice, pline);
                    self.dram_tick(now, slice);
                }
                Event::SmReceive { sm, vline } => self.sm_receive(now, sm, vline),
                Event::MigrationEpoch => {
                    self.migration_epoch(now);
                    continue;
                }
            }
            end = now;
        }

        let cycles = end;
        let mut l1 = (0, 0);
        for sm in &self.sms {
            let (h, m) = sm.l1.stats();
            l1.0 += h;
            l1.1 += m;
        }
        let mut pools = Vec::with_capacity(self.cfg.pools.len());
        for (p, pool) in self.cfg.pools.iter().enumerate() {
            let start = self.pool_offset[p];
            let end = start + pool.channels as usize;
            let mut hits = 0;
            let mut misses = 0;
            let mut busy = 0.0;
            for chan in &self.chans[start..end] {
                let s = chan.stats();
                hits += s.row_hits;
                misses += s.row_misses;
                busy += s.busy_cycles;
            }
            let total = hits + misses;
            let bytes_total = self.bytes_read[p] + self.bytes_written[p];
            pools.push(PoolReport {
                name: pool.name.clone(),
                kind: pool.kind,
                bytes_read: self.bytes_read[p],
                bytes_written: self.bytes_written[p],
                row_hit_rate: if total == 0 {
                    0.0
                } else {
                    hits as f64 / total as f64
                },
                bus_busy_cycles: busy,
                energy_joules: bytes_total as f64 * 8.0 * pool.pj_per_bit * 1e-12,
            });
        }

        if O::ENABLED {
            self.obs.run_finished(cycles);
        }
        let migration = if M::ENABLED {
            let c = self.mig.counters();
            Some(MigrationReport {
                pages_promoted: c.promoted,
                pages_demoted: c.demoted,
                pages_evicted: c.evicted,
                epochs: c.epochs,
                copy_bytes: self.copy_bytes,
                copy_cycles: self.copy_cycles,
                remap_stall_cycles: self.remap_stall_cycles,
            })
        } else {
            None
        };
        let report = SimReport {
            cycles,
            completed,
            mem_ops: self.mem_ops,
            l1,
            l2: (self.l2_hits, self.l2_misses),
            mshr_stalls: self.mshr_stalls,
            retired_warps: self.retired,
            pools,
            page_accesses: self.page_accesses.map(PageMap::into_counts),
            migration,
            estimated: None,
        };
        let stats = crate::EngineStats {
            events_processed: self.cal.pops(),
        };
        (report, self.obs, stats)
    }

    fn split(&self, w: WarpId) -> (u16, u32) {
        let sm = self.warp_div.div(u64::from(w.0));
        let slot = self.warp_div.rem(u64::from(w.0));
        (sm as u16, slot as u32)
    }

    fn warp_ready(&mut self, now: u64, w: WarpId) {
        if self.warps[w.index()].retired {
            return;
        }
        match self.program.next_op(w) {
            None => {
                self.warps[w.index()].retired = true;
                self.retired += 1;
                if O::ENABLED {
                    self.obs.warp_retired(now);
                }
            }
            Some(WarpOp::Compute(c)) => {
                self.cal
                    .schedule(now + u64::from(c.max(1)), Event::WarpReady(w));
            }
            Some(WarpOp::Mem { addr, kind }) => {
                self.mem_ops += 1;
                if O::ENABLED {
                    self.obs.mem_issue(now, kind == AccessKind::Write);
                }
                match kind {
                    AccessKind::Write => self.issue_write(now, w, addr),
                    AccessKind::Read => self.issue_read(now, w, addr),
                }
            }
        }
    }

    /// Routes a physical line to its (slice, channel-local line) pair.
    ///
    /// Channels interleave at DRAM-row granularity (16 lines = 2 kB), not
    /// per line: this keeps a streaming warp's consecutive lines in one
    /// row of one channel (row-buffer locality) while still spreading
    /// pages across all channels — the address mapping GPUs use.
    fn route(&self, pool: usize, pline: u64) -> (u16, u64) {
        let channels = self.pool_channels[pool];
        let stripe = pline / LINES_PER_ROW;
        let chan = channels.rem(stripe);
        let local_line = channels.div(stripe) * LINES_PER_ROW + pline % LINES_PER_ROW;
        ((self.pool_offset[pool] as u64 + chan) as u16, local_line)
    }

    /// Channel-local line back to the physical line (inverse of `route`).
    fn unroute(&self, slice: usize, local_line: u64) -> u64 {
        let pool = self.slices[slice].pool;
        let channels = u64::from(self.cfg.pools[pool].channels);
        let chan = (slice - self.pool_offset[pool]) as u64;
        let stripe_local = local_line / LINES_PER_ROW;
        let off = local_line % LINES_PER_ROW;
        (stripe_local * channels + chan) * LINES_PER_ROW + off
    }

    /// Request-path latency from SM to an L2 slice of `pool`.
    fn request_latency(&self, pool: usize) -> u64 {
        self.cfg.l1_latency + self.cfg.base_mem_latency / 2 + self.cfg.pools[pool].extra_latency
    }

    /// Response-path latency from an L2 slice back to the SM.
    fn response_latency(&self) -> u64 {
        self.cfg.base_mem_latency / 2
    }

    fn issue_write(&mut self, now: u64, w: WarpId, addr: VirtAddr) {
        let (sm, _) = self.split(w);
        let vline = addr.line_index();
        // Write-through, no-allocate L1: update the line if present.
        let l1_hit = self.sms[sm as usize].l1.probe(vline);
        if O::ENABLED {
            self.obs.l1_access(now, l1_hit);
        }
        let placement = self.translator.translate(addr);
        if O::ENABLED && placement.faulted {
            self.obs.page_placed(now, placement.pool);
        }
        let pline = placement.phys.line_index();
        let (slice, _) = self.route(placement.pool, pline);
        let mut latency = self.request_latency(placement.pool);
        if M::ENABLED {
            let stall = self.mig.remap_stall(now, vline / LINES_PER_PAGE);
            self.remap_stall_cycles += stall;
            latency += stall;
        }
        self.cal.schedule_in(
            latency,
            Event::L2Arrive {
                vline,
                pline,
                slice,
                sm,
                read: false,
            },
        );
        // Stores are posted: the warp continues immediately.
        self.cal.schedule_in(1, Event::WarpReady(w));
    }

    fn issue_read(&mut self, now: u64, w: WarpId, addr: VirtAddr) {
        let (sm, slot) = self.split(w);
        let vline = addr.line_index();
        let l1_hit = self.sms[sm as usize].l1.access(vline).is_hit();
        if O::ENABLED {
            self.obs.l1_access(now, l1_hit);
        }
        if l1_hit {
            self.cal
                .schedule_in(self.cfg.l1_latency, Event::WarpReady(w));
            return;
        }
        let warp = &mut self.warps[w.index()];
        warp.outstanding += 1;
        let continue_issuing = warp.outstanding < self.mlp;
        if !continue_issuing {
            warp.waiting = true;
        }

        let first_for_line = self.sms[sm as usize].pending.push(vline, slot);
        if first_for_line {
            let placement = self.translator.translate(addr);
            if O::ENABLED {
                if placement.faulted {
                    self.obs.page_placed(now, placement.pool);
                }
                self.obs.request_depart(now, sm, vline, placement.pool);
            }
            let pline = placement.phys.line_index();
            let (slice, _) = self.route(placement.pool, pline);
            let mut latency = self.request_latency(placement.pool);
            if M::ENABLED {
                let stall = self.mig.remap_stall(now, vline / LINES_PER_PAGE);
                self.remap_stall_cycles += stall;
                latency += stall;
            }
            self.cal.schedule_in(
                latency,
                Event::L2Arrive {
                    vline,
                    pline,
                    slice,
                    sm,
                    read: true,
                },
            );
        }
        if continue_issuing {
            self.cal.schedule_in(1, Event::WarpReady(w));
        }
    }

    /// Counts one post-cache DRAM access against its virtual page, for
    /// both the profiler and the migration engine's hotness tracker
    /// (the engine sees exactly the stream the profiler counts).
    fn profile_page(&mut self, now: u64, vline: u64) {
        if let Some(counter) = self.page_accesses.as_mut() {
            *counter.get_mut(vline / LINES_PER_PAGE) += 1;
        }
        if M::ENABLED {
            self.mig.record_access(now, vline / LINES_PER_PAGE);
        }
    }

    /// One epoch boundary: ask the engine for its decisions and charge
    /// every page copy as line bursts on the source and destination
    /// DRAM channels — migration bandwidth is demand bandwidth.
    fn migration_epoch(&mut self, now: u64) {
        let copies = self.mig.epoch(now);
        for c in &copies {
            for i in 0..LINES_PER_PAGE {
                let (src_slice, src_local) = self.route(c.src_pool, c.src_line + i);
                self.dram_enqueue(now, src_slice, src_local, false);
                self.bytes_read[c.src_pool] += LINE_SIZE as u64;
                self.copy_cycles += self.chans[usize::from(src_slice)].burst_cycles();
                if O::ENABLED {
                    self.obs
                        .dram_traffic(now, c.src_pool, LINE_SIZE as u64, true);
                }
                let (dst_slice, dst_local) = self.route(c.dst_pool, c.dst_line + i);
                self.dram_enqueue(now, dst_slice, dst_local, false);
                self.bytes_written[c.dst_pool] += LINE_SIZE as u64;
                self.copy_cycles += self.chans[usize::from(dst_slice)].burst_cycles();
                if O::ENABLED {
                    self.obs
                        .dram_traffic(now, c.dst_pool, LINE_SIZE as u64, false);
                }
            }
            self.copy_bytes += 2 * PAGE_SIZE as u64;
        }
        // Keep ticking epochs only while warps are still running; once
        // the last warp retires there is nothing left to migrate for.
        if self.retired < self.warps.len() as u32 {
            self.cal
                .schedule(self.mig.next_epoch(), Event::MigrationEpoch);
        }
    }

    /// Enqueues a DRAM access on `slice`'s channel, kicking it if idle.
    fn dram_enqueue(&mut self, now: u64, slice: u16, local_line: u64, read: bool) {
        if let Some(tick_at) = self.chans[usize::from(slice)].enqueue(now, local_line, read) {
            self.cal.schedule(tick_at, Event::DramTick { slice });
        }
    }

    fn l2_arrive(&mut self, now: u64, slice: u16, vline: u64, pline: u64, sm: u16, read: bool) {
        let s = usize::from(slice);
        let pool = self.slices[s].pool;
        let (_, local_line) = self.route(pool, pline);

        if !read {
            // Memory-side L2 write-allocate; a miss also writes DRAM.
            let hit = self.slices[s].cache.access(pline).is_hit();
            if O::ENABLED {
                self.obs.l2_access(now, u32::from(slice), pool, hit);
            }
            if hit {
                self.l2_hits += 1;
            } else {
                self.l2_misses += 1;
                self.dram_enqueue(now + self.cfg.l2_latency, slice, local_line, false);
                self.bytes_written[pool] += LINE_SIZE as u64;
                if O::ENABLED {
                    self.obs.dram_traffic(now, pool, LINE_SIZE as u64, false);
                }
                self.profile_page(now, vline);
            }
            return;
        }

        // Merge with an in-flight fill before probing the tag array: the
        // data is still in DRAM even though the fill is scheduled. The
        // one MSHR probe also yields the slot a new entry goes into.
        let vacant = match self.slices[s].mshr.lookup(pline) {
            Ok(found) => {
                self.slices[s].mshr.merge(found, (sm, vline));
                self.l2_misses += 1;
                if O::ENABLED {
                    self.obs.l2_access(now, u32::from(slice), pool, false);
                }
                return;
            }
            Err(vacant) => vacant,
        };
        if self.slices[s].cache.probe(pline) {
            self.l2_hits += 1;
            if O::ENABLED {
                self.obs.l2_access(now, u32::from(slice), pool, true);
            }
            let at = now + self.cfg.l2_latency + self.response_latency();
            self.cal.schedule(at, Event::SmReceive { vline, sm });
            return;
        }
        self.l2_misses += 1;
        if O::ENABLED {
            self.obs.l2_access(now, u32::from(slice), pool, false);
        }
        if self.slices[s].mshr.len() >= self.cfg.l2_mshrs {
            // All MSHRs busy: hold the request at the slice and drain it
            // when a fill frees an entry (models the back-pressure the
            // paper's §3.2.1 MSHR discussion is about).
            self.mshr_stalls += 1;
            if O::ENABLED {
                self.obs.mshr_nack(now, u32::from(slice), pool);
            }
            self.slices[s].waitq.push_back((vline, pline, sm));
            return;
        }
        self.slices[s].mshr.insert(vacant, pline, (sm, vline));
        if O::ENABLED {
            let occupancy = self.slices[s].mshr.len();
            self.obs.mshr_occupancy(now, occupancy);
        }
        self.dram_enqueue(now + self.cfg.l2_latency, slice, local_line, true);
        self.bytes_read[pool] += LINE_SIZE as u64;
        if O::ENABLED {
            self.obs.dram_traffic(now, pool, LINE_SIZE as u64, true);
        }
        self.profile_page(now, vline);
    }

    fn dram_tick(&mut self, now: u64, slice: u16) {
        let s = usize::from(slice);
        let Some(served) = self.chans[s].tick() else {
            return;
        };
        if O::ENABLED {
            let pool = self.slices[s].pool;
            let burst = self.chans[s].burst_cycles();
            self.obs
                .dram_service(now, u32::from(slice), pool, served.read, served.done, burst);
        }
        if served.read {
            let pline = self.unroute(s, served.line);
            if served.next_tick == Some(served.done) {
                // Fill and tick at one instant, in this order, with
                // nothing between them: one event does both.
                self.cal
                    .schedule(served.done, Event::FillTick { pline, slice });
                return;
            }
            self.cal
                .schedule(served.done, Event::L2Fill { pline, slice });
        }
        if let Some(next) = served.next_tick {
            self.cal.schedule(next, Event::DramTick { slice });
        }
    }

    fn l2_fill(&mut self, now: u64, slice: u16, pline: u64) {
        let s = usize::from(slice);
        // Install the line now that its data arrived.
        let _ = self.slices[s].cache.access(pline);
        let at = now + self.response_latency();
        let cal = &mut self.cal;
        let found = self.slices[s].mshr.remove_with(pline, |(sm, vline)| {
            cal.schedule(at, Event::SmReceive { vline, sm });
        });
        assert!(found, "fill without mshr entry");
        // A fill freed an MSHR: admit held requests while entries last.
        // Re-running the arrival path re-checks merge and tag state,
        // which may have changed while the request was held.
        while self.slices[s].mshr.len() < self.cfg.l2_mshrs {
            let Some((vline, pline, sm)) = self.slices[s].waitq.pop_front() else {
                break;
            };
            self.l2_arrive(now, slice, vline, pline, sm, true);
        }
    }

    fn sm_receive(&mut self, now: u64, sm: u16, vline: u64) {
        if O::ENABLED {
            self.obs.request_retire(now, sm, vline);
        }
        let base = u32::from(sm) * self.warps_per_sm;
        let (warps, cal) = (&mut self.warps, &mut self.cal);
        self.sms[sm as usize].pending.remove_with(vline, |slot| {
            let w = WarpId(base + slot);
            let warp = &mut warps[w.index()];
            warp.outstanding -= 1;
            if warp.waiting {
                warp.waiting = false;
                cal.schedule_in(1, Event::WarpReady(w));
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::StreamKernel;
    use crate::request::FixedPoolTranslator;
    use hmtypes::Bandwidth;

    fn small_cfg() -> SimConfig {
        let mut cfg = SimConfig::paper_baseline();
        cfg.num_sms = 4;
        cfg
    }

    #[test]
    fn empty_program_finishes_instantly() {
        struct Nothing;
        impl WarpProgram for Nothing {
            fn warps_per_sm(&self) -> u32 {
                1
            }
            fn next_op(&mut self, _: WarpId) -> Option<WarpOp> {
                None
            }
        }
        let r = Simulator::new(small_cfg(), FixedPoolTranslator::new(0), Nothing).run();
        assert!(r.completed);
        assert_eq!(r.cycles, 0);
        assert_eq!(r.retired_warps, 4);
        assert_eq!(r.mem_ops, 0);
    }

    #[test]
    fn stream_kernel_moves_expected_bytes() {
        let cfg = small_cfg();
        let bytes = 1 << 20;
        let program = StreamKernel::new(&cfg, 8, bytes);
        let r = Simulator::new(cfg, FixedPoolTranslator::new(0), program).run();
        assert!(r.completed);
        // Streaming reads each line once; no reuse -> dram reads == footprint.
        assert_eq!(r.pools[0].bytes_read, bytes);
        assert_eq!(r.pools[1].bytes_total(), 0);
        assert_eq!(r.mem_ops, bytes / LINE_SIZE as u64);
    }

    #[test]
    fn bandwidth_bound_stream_approaches_pool_bandwidth() {
        let cfg = small_cfg();
        let ghz = cfg.sm_clock_ghz;
        let program = StreamKernel::new(&cfg, 48, 8 << 20).with_mlp(8);
        let r = Simulator::new(cfg, FixedPoolTranslator::new(0), program).run();
        let achieved = r.achieved_bandwidth(ghz).gbps();
        assert!(
            achieved > 140.0,
            "a saturating stream should approach 200 GB/s, got {achieved:.1}"
        );
        assert!(
            achieved <= 205.0,
            "cannot exceed pool bandwidth, got {achieved:.1}"
        );
    }

    #[test]
    fn remote_pool_is_slower_for_latency_bound_work() {
        // One warp per SM, MLP 1: pure latency sensitivity.
        let mk = |pool| {
            let program = StreamKernel::new(&small_cfg(), 1, 64 * 1024).with_mlp(1);
            Simulator::new(small_cfg(), FixedPoolTranslator::new(pool), program).run()
        };
        let local = mk(0);
        let remote = mk(1);
        assert!(
            remote.cycles > local.cycles + 1000,
            "remote {} vs local {}",
            remote.cycles,
            local.cycles
        );
    }

    #[test]
    fn split_traffic_uses_both_pools() {
        let cfg = small_cfg();
        let program = StreamKernel::new(&cfg, 16, 4 << 20);
        let r = Simulator::new(cfg, crate::request::RatioTranslator { co_pct: 30 }, program).run();
        let co_frac = r.pool_traffic_fraction(1);
        assert!((co_frac - 0.30).abs() < 0.05, "got {co_frac}");
    }

    #[test]
    fn page_profiling_counts_dram_accesses() {
        let cfg = small_cfg();
        let bytes = 256 * 1024u64;
        let program = StreamKernel::new(&cfg, 8, bytes);
        let r = Simulator::new(cfg, FixedPoolTranslator::new(0), program)
            .with_page_profiling()
            .run();
        let pages = r.page_accesses.as_ref().unwrap();
        assert_eq!(pages.len() as u64, bytes / PAGE_SIZE as u64);
        let total: u64 = pages.values().sum();
        assert_eq!(total, bytes / LINE_SIZE as u64);
    }

    #[test]
    fn l1_reuse_hits_do_not_touch_dram() {
        // A kernel that re-reads one tiny buffer: after cold misses,
        // everything hits in L1.
        struct HotLoop {
            remaining: Vec<u32>,
        }
        impl WarpProgram for HotLoop {
            fn warps_per_sm(&self) -> u32 {
                1
            }
            fn next_op(&mut self, w: WarpId) -> Option<WarpOp> {
                let r = &mut self.remaining[w.index()];
                if *r == 0 {
                    return None;
                }
                *r -= 1;
                Some(WarpOp::Mem {
                    addr: VirtAddr::new(u64::from(*r % 4) * 128),
                    kind: AccessKind::Read,
                })
            }
        }
        let cfg = small_cfg();
        let program = HotLoop {
            remaining: vec![1000; cfg.num_sms as usize],
        };
        let r = Simulator::new(cfg, FixedPoolTranslator::new(0), program).run();
        assert!(r.l1_hit_rate() > 0.95, "got {}", r.l1_hit_rate());
        // 4 SMs x 4 cold lines = at most 16 DRAM reads.
        assert!(r.pools[0].bytes_read <= 16 * 128);
    }

    #[test]
    fn writes_reach_dram_and_do_not_block() {
        struct Writer {
            remaining: Vec<u64>,
        }
        impl WarpProgram for Writer {
            fn warps_per_sm(&self) -> u32 {
                1
            }
            fn next_op(&mut self, w: WarpId) -> Option<WarpOp> {
                let r = &mut self.remaining[w.index()];
                if *r == 0 {
                    return None;
                }
                *r -= 1;
                Some(WarpOp::Mem {
                    addr: VirtAddr::new((w.index() as u64 * 1024 + *r) * 128),
                    kind: AccessKind::Write,
                })
            }
        }
        let cfg = small_cfg();
        let n = 512u64;
        let program = Writer {
            remaining: vec![n; cfg.num_sms as usize],
        };
        let r = Simulator::new(cfg.clone(), FixedPoolTranslator::new(0), program).run();
        assert!(r.completed);
        assert_eq!(
            r.pools[0].bytes_written,
            n * u64::from(cfg.num_sms) * LINE_SIZE as u64
        );
        // Posted writes: runtime far below n * memory latency.
        assert!(r.cycles < n * 100);
    }

    #[test]
    fn zero_co_bandwidth_pool_rejected_if_used() {
        // A pool with zero bandwidth cannot construct channels.
        let mut cfg = small_cfg();
        cfg.pools[1].bandwidth = Bandwidth::ZERO;
        let program = StreamKernel::new(&cfg, 1, 4096);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            Simulator::new(cfg, FixedPoolTranslator::new(0), program)
        }));
        assert!(result.is_err(), "zero-bandwidth channel must be rejected");
    }

    #[test]
    fn mshr_pressure_counts_stalls_but_completes() {
        let mut cfg = small_cfg();
        cfg.l2_mshrs = 2;
        let program = StreamKernel::new(&cfg, 32, 4 << 20);
        let r = Simulator::new(cfg, FixedPoolTranslator::new(0), program).run();
        assert!(r.completed);
        assert!(r.mshr_stalls > 0, "2 MSHRs must backpressure a stream");
        assert_eq!(r.pools[0].bytes_read, 4 << 20);
    }

    #[test]
    fn more_warps_never_slow_down_a_stream() {
        let run = |warps| {
            let cfg = small_cfg();
            let program = StreamKernel::new(&cfg, warps, 2 << 20);
            Simulator::new(cfg, FixedPoolTranslator::new(0), program)
                .run()
                .cycles
        };
        let few = run(2);
        let many = run(32);
        assert!(many <= few, "32 warps ({many}) vs 2 warps ({few})");
    }
}
