//! Banked DRAM channel with FR-FCFS scheduling.
//!
//! Each channel has per-bank request queues, bank row-buffer state with
//! activate/precharge timing from [`DramTiming`], and a
//! shared data bus that serializes 128 B bursts — which is what enforces
//! the channel's peak bandwidth.
//!
//! The scheduler is **FR-FCFS** (first-ready, first-come-first-served):
//! when the bus frees, it serves the request that can deliver data
//! earliest, preferring row-buffer hits over older row misses. This is
//! what GPU memory controllers do, and without it the interleaved streams
//! of a many-warp GPU thrash every row buffer and the model loses half
//! the bandwidth the paper's system sustains.
//!
//! The channel is driven by the simulator's event loop: [`DramChannel::enqueue`]
//! returns a tick time when the idle channel needs a kick, and each
//! [`DramChannel::tick`] serves one request and reports when to tick next.
//!
//! Scheduling runs on integers. Enqueue times and [`DramTiming`] are
//! whole cycles, so every request's data-ready time is too; only the
//! data-bus cursor is fractional (a burst lasts a non-integral number of
//! SM cycles). Each bank caches its FR-FCFS winner as a `(data_ready,
//! seq)` key, a bitmask marks the banks whose cached winner a serve has
//! invalidated, and a tick rescans only those before taking the
//! channel-wide minimum key.
//!
//! A queued request is 24 bytes: its line with the read flag packed
//! into bit 63, its sequence number and its enqueue time. The row is
//! not stored; the scheduler derives it from the line with the bank
//! `Divisor` when it rates the request. Bus instants round up with an
//! exact integer ceiling rather than `f64::ceil`.

use std::collections::VecDeque;

use hmtypes::LINE_SIZE;

use crate::config::{DramTiming, PoolConfig};

/// Lines per DRAM row buffer (2 kB row / 128 B line).
pub const LINES_PER_ROW: u64 = 16;

/// How many queued requests per bank the FR-FCFS scheduler examines.
/// Real controllers schedule over a finite window; an unbounded scan
/// would also make simulation quadratic when posted writes back up.
const SCHED_WINDOW: usize = 16;

/// Most banks a channel may have: one bit each in the stale-bank mask.
pub const MAX_BANKS: u32 = u64::BITS;

/// Division by a divisor fixed at construction: a shift and a mask when
/// it is a power of two (every catalog geometry), hardware division
/// otherwise. Results are identical either way.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Divisor {
    d: u64,
    shift: u32,
    pow2: bool,
}

impl Divisor {
    /// A divisor of `d`.
    ///
    /// # Panics
    ///
    /// Panics if `d` is zero.
    pub(crate) fn new(d: u64) -> Self {
        assert!(d > 0, "division by zero");
        Divisor {
            d,
            shift: d.trailing_zeros(),
            pow2: d.is_power_of_two(),
        }
    }

    /// `n / d`.
    #[inline]
    pub(crate) fn div(self, n: u64) -> u64 {
        if self.pow2 {
            n >> self.shift
        } else {
            n / self.d
        }
    }

    /// `n % d`.
    #[inline]
    pub(crate) fn rem(self, n: u64) -> u64 {
        if self.pow2 {
            n & (self.d - 1)
        } else {
            n % self.d
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Bank {
    open_row: Option<u64>,
    /// Earliest time the next activate may issue (tRC after the last).
    next_activate: u64,
    /// Time the currently open row finished opening.
    row_ready: u64,
}

/// Bit 63 of [`QueuedReq::line_read`]: set for a read. Channel-local
/// line indices stay far below it.
const READ_BIT: u64 = 1 << 63;

#[derive(Debug, Clone, Copy)]
struct QueuedReq {
    /// The channel-local line, with [`READ_BIT`] set for a read.
    line_read: u64,
    seq: u64,
    enq: u64,
}

const _: () = assert!(std::mem::size_of::<QueuedReq>() == 24, "QueuedReq grew");

impl QueuedReq {
    #[inline]
    fn line(&self) -> u64 {
        self.line_read & !READ_BIT
    }

    #[inline]
    fn read(&self) -> bool {
        self.line_read & READ_BIT != 0
    }
}

/// `x.ceil() as u64` for a finite, nonnegative `x`, without the libm
/// call: truncation is exact for such values, and one comparison decides
/// whether a fractional part was dropped.
#[inline]
fn ceil_u64(x: f64) -> u64 {
    debug_assert!(x >= 0.0 && x.is_finite(), "{x}");
    let t = x as u64;
    if (t as f64) < x {
        t + 1
    } else {
        t
    }
}

/// Cached FR-FCFS winner for one bank: what the scheduling scan of that
/// bank's queue would select. Only a serve from the bank invalidates it
/// (row state and queue positions change); an enqueue is folded in
/// incrementally — the scan's min over one more entry — so between
/// serves the cached value always equals what a fresh scan would return.
/// An empty bank's winner is [`BankCand::NONE`], whose key loses to
/// every real request.
#[derive(Debug, Clone, Copy)]
struct BankCand {
    data_ready: u64,
    seq: u64,
    pos: usize,
    hit: bool,
    /// Whether the scan's examined prefix is closed: it broke at a row
    /// hit or filled the scheduling window. Requests appended after a
    /// sealed prefix are invisible to a fresh scan, so folding them into
    /// the cached winner would *diverge* from the scan — they are
    /// ignored instead.
    sealed: bool,
}

impl BankCand {
    const NONE: BankCand = BankCand {
        data_ready: u64::MAX,
        seq: u64::MAX,
        pos: 0,
        hit: false,
        sealed: false,
    };

    /// FR-FCFS order as one integer: earliest data delivery first, then
    /// the oldest request. Seqs are unique, so keys of real requests
    /// never tie.
    #[inline]
    fn key(&self) -> u128 {
        (u128::from(self.data_ready) << 64) | u128::from(self.seq)
    }
}

/// Outcome of serving one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Served {
    /// The channel-local line index served.
    pub line: u64,
    /// Whether it was a read.
    pub read: bool,
    /// Cycle the data transfer completes.
    pub done: u64,
    /// When to tick again, or `None` if the channel went idle.
    pub next_tick: Option<u64>,
}

/// Aggregate statistics for one channel.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ChannelStats {
    /// Bytes transferred over the data bus.
    pub bytes: u64,
    /// Requests that hit an open row.
    pub row_hits: u64,
    /// Requests that required precharge + activate.
    pub row_misses: u64,
    /// Cycles the data bus was transferring.
    pub busy_cycles: f64,
}

impl ChannelStats {
    /// Row-buffer hit rate in `[0, 1]`.
    pub fn row_hit_rate(&self) -> f64 {
        let total = self.row_hits + self.row_misses;
        if total == 0 {
            0.0
        } else {
            self.row_hits as f64 / total as f64
        }
    }
}

/// One DRAM channel: FR-FCFS service over banked storage behind one bus.
///
/// # Examples
///
/// ```
/// use gpusim::{DramChannel, SimConfig};
///
/// let cfg = SimConfig::paper_baseline();
/// let mut chan = DramChannel::new(&cfg.pools[0], cfg.sm_clock_ghz);
/// let tick_at = chan.enqueue(0, 0, true).expect("idle channel needs a kick");
/// assert_eq!(tick_at, 0); // schedule the tick here…
/// let served = chan.tick().expect("one request is pending"); // …then serve
/// assert!(served.done > 0);
/// assert_eq!(served.next_tick, None); // queue drained
/// ```
#[derive(Debug, Clone)]
pub struct DramChannel {
    timing: DramTiming,
    burst: f64,
    /// Bank count, for the line → (bank, row) split.
    nbanks: Divisor,
    banks: Vec<Bank>,
    queues: Vec<VecDeque<QueuedReq>>,
    /// Per-bank cached scheduling winner; valid unless the bank's bit
    /// is set in `stale`.
    cand: Vec<BankCand>,
    /// Banks served from since their last scan.
    stale: u64,
    /// Total requests across all bank queues.
    queued: usize,
    bus_free_at: f64,
    ticking: bool,
    seq: u64,
    stats: ChannelStats,
}

impl DramChannel {
    /// Creates a channel for one of `pool`'s channels at the given SM clock.
    ///
    /// # Panics
    ///
    /// Panics if the pool's per-channel bandwidth is zero (an absent pool
    /// must not receive traffic) or it has more than [`MAX_BANKS`] banks.
    pub fn new(pool: &PoolConfig, sm_clock_ghz: f64) -> Self {
        let burst = pool.burst_cycles(sm_clock_ghz);
        assert!(
            burst.is_finite() && burst > 0.0,
            "channel bandwidth must be positive (pool {})",
            pool.name
        );
        assert!(
            pool.banks_per_channel <= MAX_BANKS,
            "pool {} has more than {MAX_BANKS} banks per channel",
            pool.name
        );
        let banks = pool.banks_per_channel as usize;
        DramChannel {
            timing: pool.timing,
            burst,
            nbanks: Divisor::new(banks as u64),
            banks: vec![Bank::default(); banks],
            queues: vec![VecDeque::new(); banks],
            cand: vec![BankCand::NONE; banks],
            stale: 0,
            queued: 0,
            bus_free_at: 0.0,
            ticking: false,
            seq: 0,
            stats: ChannelStats::default(),
        }
    }

    #[inline]
    fn bank_of(&self, line: u64) -> usize {
        self.nbanks.rem(line / LINES_PER_ROW) as usize
    }

    #[inline]
    fn row_of(&self, line: u64) -> u64 {
        self.nbanks.div(line / LINES_PER_ROW)
    }

    /// Enqueues an access to channel-local line `line` at time `now`.
    ///
    /// Returns `Some(tick_time)` when the channel was idle and the caller
    /// must schedule a [`DramChannel::tick`] at that time; `None` when a
    /// tick is already pending.
    #[inline]
    pub fn enqueue(&mut self, now: u64, line: u64, read: bool) -> Option<u64> {
        debug_assert_eq!(line & READ_BIT, 0, "line index collides with the read flag");
        let bank = self.bank_of(line);
        let old_len = self.queues[bank].len();
        let req = QueuedReq {
            line_read: if read { line | READ_BIT } else { line },
            seq: self.seq,
            enq: now,
        };
        self.queues[bank].push_back(req);
        self.seq += 1;
        self.queued += 1;
        // Fold the new request into the bank's cached winner where that
        // is exact. A stale bank is rescanned at the next tick anyway,
        // and a sealed prefix means a fresh scan would stop before
        // reaching the appended request: the winner is unchanged.
        let c = self.cand[bank];
        if self.stale & (1 << bank) == 0 && !c.sealed {
            // Every scanned entry was a miss (or the queue was empty) and
            // the window has room, so a fresh scan = min(cached winner,
            // the new entry).
            let new = self.rate(bank, &req, old_len);
            let mut merged = if new.key() < c.key() { new } else { c };
            merged.sealed = new.hit || old_len + 1 >= SCHED_WINDOW;
            self.cand[bank] = merged;
        }
        if self.ticking {
            None
        } else {
            self.ticking = true;
            Some(ceil_u64((now as f64).max(self.bus_free_at)))
        }
    }

    /// When `req` could deliver its data, given `b`'s current row state.
    /// Command issue is pipelined: a request's CAS/activate could have
    /// issued any time after it was enqueued, even while the data bus
    /// was busy, so readiness is computed from its enqueue time — only
    /// the data burst itself serializes on the bus.
    #[inline]
    fn rate(&self, b: usize, req: &QueuedReq, pos: usize) -> BankCand {
        let bank = &self.banks[b];
        let t = req.enq;
        let (ready, hit) = if bank.open_row == Some(self.row_of(req.line())) {
            (t.max(bank.row_ready), true)
        } else {
            let activate = t.max(bank.next_activate);
            (activate + self.timing.rp + self.timing.rcd, false)
        };
        let col = if req.read() {
            self.timing.cl
        } else {
            self.timing.wr
        };
        BankCand {
            data_ready: ready + col,
            seq: req.seq,
            pos,
            hit,
            sealed: false,
        }
    }

    /// The FR-FCFS scan of one bank's queue: earliest possible data
    /// delivery wins; ties go to the oldest request.
    fn scan_bank(&self, b: usize) -> BankCand {
        let mut best = BankCand::NONE;
        let mut hit_found = false;
        for (pos, req) in self.queues[b].iter().take(SCHED_WINDOW).enumerate() {
            let cand = self.rate(b, req, pos);
            if cand.key() < best.key() {
                best = cand;
            }
            if cand.hit {
                // Within a bank, the first row hit is the best row hit
                // (FCFS among equal rows); misses later in the queue
                // cannot beat it either. Stop scanning.
                hit_found = true;
                break;
            }
        }
        best.sealed = hit_found || self.queues[b].len() >= SCHED_WINDOW;
        best
    }

    /// Serves the best pending request (FR-FCFS: row hits naturally beat
    /// misses, ties go to the oldest request).
    ///
    /// The current time does not enter the timing math: the bus cursor
    /// (`bus_free_at`) and per-request enqueue times fully determine
    /// service times, and ticks are scheduled at bus-free instants by
    /// construction — which is why `tick` takes no time argument.
    ///
    /// Returns `None` if no request is pending (a stale tick).
    #[inline]
    pub fn tick(&mut self) -> Option<Served> {
        if self.queued == 0 {
            return None;
        }
        // Refresh the banks served from since their last scan, then pick
        // the channel-wide winner: the first minimum key.
        let mut stale = std::mem::take(&mut self.stale);
        while stale != 0 {
            let b = stale.trailing_zeros() as usize;
            self.cand[b] = self.scan_bank(b);
            stale &= stale - 1;
        }
        let mut bank_idx = 0;
        let mut best = self.cand[0].key();
        for (b, c) in self.cand.iter().enumerate().skip(1) {
            let key = c.key();
            if key < best {
                best = key;
                bank_idx = b;
            }
        }

        let BankCand {
            data_ready,
            pos,
            hit,
            ..
        } = self.cand[bank_idx];
        self.stale |= 1 << bank_idx;
        let req = self.queues[bank_idx].remove(pos).expect("position valid");
        self.queued -= 1;

        if hit {
            self.stats.row_hits += 1;
        } else {
            self.stats.row_misses += 1;
            let row = self.row_of(req.line());
            let bank = &mut self.banks[bank_idx];
            let activate = req.enq.max(bank.next_activate);
            bank.open_row = Some(row);
            bank.next_activate = activate + self.timing.rc;
            bank.row_ready = activate + self.timing.rp + self.timing.rcd;
        }

        // Integral cycle counts stay exact in f64 far beyond any run.
        let data_start = (data_ready as f64).max(self.bus_free_at);
        let data_end = data_start + self.burst;
        self.bus_free_at = data_end;
        self.stats.bytes += LINE_SIZE as u64;
        self.stats.busy_cycles += self.burst;

        let done = ceil_u64(data_end);
        let next_tick = if self.queued > 0 {
            Some(done)
        } else {
            self.ticking = false;
            None
        };
        Some(Served {
            line: req.line(),
            read: req.read(),
            done,
            next_tick,
        })
    }

    /// Statistics gathered so far.
    pub fn stats(&self) -> ChannelStats {
        self.stats
    }

    /// Cycles one burst occupies the data bus.
    pub fn burst_cycles(&self) -> f64 {
        self.burst
    }

    /// Number of queued requests.
    pub fn queue_depth(&self) -> usize {
        self.queued
    }
}

/// Drives a standalone channel to completion, returning the finish time —
/// a test/bench helper that plays the simulator's role.
pub fn drain_channel(chan: &mut DramChannel, accesses: &[(u64, u64, bool)]) -> u64 {
    // accesses: (enqueue_time, line, read), must be sorted by time.
    let mut last_done = 0;
    let mut pending_tick: Option<u64> = None;
    let mut i = 0;
    loop {
        // Process any tick that fires before the next enqueue.
        let next_enq = accesses.get(i).map(|a| a.0);
        match (pending_tick, next_enq) {
            (Some(tick), Some(enq)) if tick <= enq => {
                let served = chan.tick().expect("tick had work");
                last_done = last_done.max(served.done);
                pending_tick = served.next_tick;
            }
            (_, Some(_)) => {
                let (at, line, read) = accesses[i];
                i += 1;
                if let Some(t) = chan.enqueue(at, line, read) {
                    pending_tick = Some(t);
                }
            }
            (Some(_tick), None) => {
                let served = chan.tick().expect("tick had work");
                last_done = last_done.max(served.done);
                pending_tick = served.next_tick;
            }
            (None, None) => return last_done,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;

    fn gddr5_channel() -> DramChannel {
        let cfg = SimConfig::paper_baseline();
        DramChannel::new(&cfg.pools[0], cfg.sm_clock_ghz)
    }

    #[test]
    fn row_hit_is_faster_than_miss() {
        let mut chan = gddr5_channel();
        let accesses = vec![(0, 0, true)];
        let miss_done = drain_channel(&mut chan, &accesses);

        let mut chan = gddr5_channel();
        drain_channel(&mut chan, &[(0, 0, true)]);
        let hit_done = drain_channel(&mut chan, &[(10_000, 1, true)]) - 10_000;
        assert!(
            hit_done < miss_done,
            "row hit ({hit_done}) should beat cold miss ({miss_done})"
        );
        assert_eq!(chan.stats().row_hits, 1);
    }

    #[test]
    fn saturated_stream_hits_peak_bandwidth() {
        let mut chan = gddr5_channel();
        let n = 4096u64;
        let accesses: Vec<_> = (0..n).map(|l| (0, l, true)).collect();
        let last = drain_channel(&mut chan, &accesses);
        let achieved_bpc = (n * LINE_SIZE as u64) as f64 / last as f64;
        let peak_bpc = LINE_SIZE as f64 / chan.burst_cycles();
        assert!(
            achieved_bpc > 0.95 * peak_bpc,
            "achieved {achieved_bpc:.2} B/cyc vs peak {peak_bpc:.2}"
        );
        assert!(chan.stats().row_hit_rate() > 0.9);
    }

    #[test]
    fn interleaved_streams_recover_row_locality_via_fr_fcfs() {
        // Eight interleaved streams, all mapping to a handful of banks
        // with different rows — the pattern that breaks plain FCFS (it
        // ping-pongs activates and drops to ~12% of peak). FR-FCFS with
        // its finite scheduling window must stay above 70% of peak.
        let mut chan = gddr5_channel();
        let streams = 8u64;
        let per = 128u64;
        let mut accesses = Vec::new();
        for i in 0..per {
            for s in 0..streams {
                accesses.push((0, s * 4096 + i, true));
            }
        }
        let last = drain_channel(&mut chan, &accesses);
        let achieved_bpc = (streams * per * LINE_SIZE as u64) as f64 / last as f64;
        let peak_bpc = LINE_SIZE as f64 / chan.burst_cycles();
        assert!(
            achieved_bpc > 0.7 * peak_bpc,
            "achieved {achieved_bpc:.2} B/cyc vs peak {peak_bpc:.2} (row hit rate {:.2})",
            chan.stats().row_hit_rate()
        );
    }

    #[test]
    fn random_access_with_many_banks_stays_above_half_peak() {
        let mut chan = gddr5_channel();
        let mut rng = hmtypes::SplitMix64::new(3);
        let n = 4096u64;
        let accesses: Vec<_> = (0..n).map(|_| (0, rng.next_below(1 << 20), true)).collect();
        let last = drain_channel(&mut chan, &accesses);
        let achieved_bpc = (n * LINE_SIZE as u64) as f64 / last as f64;
        let peak_bpc = LINE_SIZE as f64 / chan.burst_cycles();
        assert!(
            achieved_bpc > 0.5 * peak_bpc,
            "achieved {achieved_bpc:.2} B/cyc vs peak {peak_bpc:.2}"
        );
    }

    #[test]
    fn single_bank_row_conflicts_pay_activate_gaps() {
        let mut chan = gddr5_channel();
        let banks = 16u64;
        let a = 0; // bank 0, row 0
        let b = LINES_PER_ROW * banks; // bank 0, row 1
        let t1 = drain_channel(&mut chan, &[(0, a, true)]);
        let t2 = drain_channel(&mut chan, &[(t1, b, true)]);
        assert!(t2 - t1 >= 100, "activate gap, got {}", t2 - t1);
        assert_eq!(chan.stats().row_misses, 2);
    }

    #[test]
    fn fr_fcfs_prefers_open_row_over_older_miss() {
        let mut chan = gddr5_channel();
        // Open row 0 of bank 0.
        let t1 = drain_channel(&mut chan, &[(0, 0, true)]);
        // Enqueue a row-1 (miss, older) and then a row-0 (hit, younger)
        // request; the hit must be served first.
        let miss_line = LINES_PER_ROW * 16; // bank 0, row 1
        let tick = chan.enqueue(t1, miss_line, true).unwrap();
        assert!(tick >= t1, "idle channel ticks at or after t1, got {tick}");
        assert_eq!(chan.enqueue(t1, 1, true), None);
        let first = chan.tick().unwrap();
        assert_eq!(first.line, 1, "row hit served first");
        let second = chan.tick().unwrap();
        assert_eq!(second.line, miss_line);
        assert_eq!(second.next_tick, None);
    }

    #[test]
    fn writes_complete_and_count_bytes() {
        let mut chan = gddr5_channel();
        let done = drain_channel(&mut chan, &[(0, 0, false)]);
        assert!(done > 0);
        assert_eq!(chan.stats().bytes, 128);
    }

    #[test]
    fn idle_gaps_do_not_accrue_busy_cycles() {
        let mut chan = gddr5_channel();
        drain_channel(&mut chan, &[(0, 0, true)]);
        drain_channel(&mut chan, &[(100_000, 1, true)]);
        let s = chan.stats();
        assert!(s.busy_cycles < 20.0);
        assert_eq!(s.bytes, 256);
    }

    #[test]
    fn ddr4_stream_is_slower_than_gddr5() {
        let cfg = SimConfig::paper_baseline();
        let n = 1024u64;
        let accesses: Vec<_> = (0..n).map(|l| (0, l, true)).collect();
        let mut g = DramChannel::new(&cfg.pools[0], cfg.sm_clock_ghz);
        let mut d = DramChannel::new(&cfg.pools[1], cfg.sm_clock_ghz);
        let lg = drain_channel(&mut g, &accesses);
        let ld = drain_channel(&mut d, &accesses);
        assert!(ld > lg, "DDR4 stream must take longer ({ld} vs {lg})");
    }

    #[test]
    fn divisor_matches_hardware_division() {
        let mut rng = hmtypes::SplitMix64::new(5);
        for d in [1u64, 2, 3, 7, 12, 16, 48, 64, 1 << 40, u64::MAX] {
            let div = Divisor::new(d);
            for n in (0..2000).map(|_| rng.next_u64() >> rng.next_below(64)) {
                assert_eq!(div.div(n), n / d, "{n} / {d}");
                assert_eq!(div.rem(n), n % d, "{n} % {d}");
            }
        }
    }

    #[test]
    fn stale_tick_returns_none() {
        let mut chan = gddr5_channel();
        assert!(chan.tick().is_none());
        assert_eq!(chan.queue_depth(), 0);
    }
}
