//! Property-based tests for the GPU memory-system simulator, on the
//! in-tree `hetmem_harness::props!` kit.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};

use gpusim::dram::Served;
use gpusim::engine::Calendar;
use gpusim::flat::WaiterMap;
use gpusim::{
    CacheConfig, CacheOutcome, DramChannel, DramTiming, EventTracer, FixedPoolTranslator,
    IntervalSampler, PoolConfig, RatioTranslator, SetAssocCache, SimConfig, Simulator,
    StreamKernel,
};
use hmtypes::{SplitMix64, LINE_SIZE};

hetmem_harness::props! {
    cases = 32;

    /// The calendar pops events in non-decreasing time order and FIFO
    /// within equal timestamps.
    fn calendar_orders_events(times in hetmem_harness::vec_of(0u64..1000, 1..200)) {
        let mut cal = Calendar::new();
        for (i, &t) in times.iter().enumerate() {
            cal.schedule(t, (t, i));
        }
        let mut last: Option<(u64, usize)> = None;
        while let Some((at, (t, i))) = cal.pop() {
            assert_eq!(at, t);
            if let Some((lt, li)) = last {
                assert!(t > lt || (t == lt && i > li), "ordering violated");
            }
            last = Some((t, i));
        }
    }

    /// Cache stats are consistent and an access immediately after an
    /// access to the same line always hits.
    fn cache_immediate_reaccess_hits(lines in hetmem_harness::vec_of(0u64..4096, 1..500)) {
        let mut c = SetAssocCache::new(CacheConfig::new(64 * 128, 4));
        let mut accesses = 0u64;
        for &l in &lines {
            c.access(l);
            accesses += 1;
            assert!(c.access(l).is_hit(), "immediate re-access of {l} missed");
            accesses += 1;
        }
        let (h, m) = c.stats();
        assert_eq!(h + m, accesses);
        assert!(h >= lines.len() as u64, "every second access hit");
    }

    /// A DRAM channel never exceeds its configured peak bandwidth, and
    /// moves exactly the bytes requested.
    fn dram_never_exceeds_peak(seed in 0u64..5000, n in 16u64..512) {
        let cfg = SimConfig::paper_baseline();
        let mut chan = DramChannel::new(&cfg.pools[0], cfg.sm_clock_ghz);
        let mut rng = hmtypes::SplitMix64::new(seed);
        let accesses: Vec<_> = (0..n)
            .map(|_| (0u64, rng.next_below(1 << 16), rng.next_below(2) == 0))
            .collect();
        let finish = gpusim::dram::drain_channel(&mut chan, &accesses);
        let stats = chan.stats();
        assert_eq!(stats.bytes, n * LINE_SIZE as u64);
        let peak_bpc = LINE_SIZE as f64 / chan.burst_cycles();
        let achieved = stats.bytes as f64 / finish as f64;
        assert!(
            achieved <= peak_bpc * 1.001,
            "achieved {achieved} B/cyc exceeds peak {peak_bpc}"
        );
        assert_eq!(stats.row_hits + stats.row_misses, n);
    }

    /// End-to-end: a streaming run reads exactly its footprint from DRAM,
    /// completes, and splits traffic per the translator's page ratio.
    fn sim_streaming_invariants(kb in 64u64..512, co_pct in 0u8..=100) {
        let mut cfg = SimConfig::paper_baseline();
        cfg.num_sms = 2;
        let bytes = kb * 1024;
        let program = StreamKernel::new(&cfg, 8, bytes);
        let r = Simulator::new(cfg, RatioTranslator { co_pct }, program).run();
        assert!(r.completed);
        assert_eq!(r.dram_bytes(), bytes / 128 * 128);
        let f0 = r.pool_traffic_fraction(0);
        let f1 = r.pool_traffic_fraction(1);
        assert!((f0 + f1 - 1.0).abs() < 1e-9);
        // The modulo translator's split is exactly computable: pages with
        // index % 100 < co_pct are CO, and a uniform stream touches every
        // page's lines equally often.
        let pages = bytes / 4096;
        let co_pages = (0..pages).filter(|p| p % 100 < u64::from(co_pct)).count();
        let expected = co_pages as f64 / pages as f64;
        assert!(
            (f1 - expected).abs() < 0.05,
            "co fraction {f1} vs expected {expected}"
        );
    }

    /// Determinism: identical configuration and program produce identical
    /// reports.
    fn sim_is_deterministic(kb in 64u64..256) {
        let run = || {
            let mut cfg = SimConfig::paper_baseline();
            cfg.num_sms = 2;
            let program = StreamKernel::new(&cfg, 4, kb * 1024);
            Simulator::new(cfg, FixedPoolTranslator::new(0), program).run()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
    }

    /// Performance is monotone in bandwidth: doubling BO pool bandwidth
    /// never makes a BO-resident stream slower.
    fn more_bandwidth_never_hurts(kb in 128u64..512) {
        let run = |scale: f64| {
            let mut cfg = SimConfig::paper_baseline().with_bo_bandwidth_scaled(scale);
            cfg.num_sms = 2;
            let program = StreamKernel::new(&cfg, 16, kb * 1024);
            Simulator::new(cfg, FixedPoolTranslator::new(0), program).run().cycles
        };
        assert!(run(2.0) <= run(1.0));
    }
}

hetmem_harness::props! {
    cases = 32;

    /// The interval sampler's counters partition the end-of-run report:
    /// summed over the (contiguous) series they equal every aggregate,
    /// integer counters exactly and bus-busy cycles to float tolerance
    /// (the sampler accumulates them in a different order).
    fn interval_counters_sum_to_report(
        kb in 64u64..512,
        sample in 500u64..5_000,
        co_pct in 0u8..=100
    ) {
        let mut cfg = SimConfig::paper_baseline();
        cfg.num_sms = 2;
        let program = StreamKernel::new(&cfg, 8, kb * 1024);
        let sampler = IntervalSampler::new(sample, cfg.pools.len());
        let (report, obs, _) = Simulator::new(cfg.clone(), RatioTranslator { co_pct }, program)
            .with_observer(sampler)
            .run_instrumented();
        let ivs = obs.into_reports();

        // The series is contiguous from interval 0 through the end.
        assert!(!ivs.is_empty());
        for (i, iv) in ivs.iter().enumerate() {
            assert_eq!(iv.index, i as u64);
            assert_eq!(iv.start_cycle, i as u64 * sample);
            assert_eq!(iv.end_cycle, (i as u64 + 1) * sample);
        }
        assert!(ivs.last().unwrap().end_cycle > report.cycles);

        let sum = |f: &dyn Fn(&gpusim::IntervalReport) -> u64| -> u64 {
            ivs.iter().map(f).sum()
        };
        assert_eq!(sum(&|i| i.mem_ops), report.mem_ops);
        assert_eq!(sum(&|i| i.l1_hits), report.l1.0);
        assert_eq!(sum(&|i| i.l1_misses), report.l1.1);
        assert_eq!(sum(&|i| i.l2_hits), report.l2.0);
        assert_eq!(sum(&|i| i.l2_misses), report.l2.1);
        assert_eq!(sum(&|i| i.mshr_stalls), report.mshr_stalls);
        assert_eq!(sum(&|i| i.warps_retired), u64::from(report.retired_warps));
        for (pool, pr) in report.pools.iter().enumerate() {
            let read: u64 = ivs.iter().map(|i| i.pools[pool].bytes_read).sum();
            let written: u64 = ivs.iter().map(|i| i.pools[pool].bytes_written).sum();
            assert_eq!(read, pr.bytes_read, "pool {pool} reads");
            assert_eq!(written, pr.bytes_written, "pool {pool} writes");
            let busy: f64 = ivs.iter().map(|i| i.pools[pool].busy_cycles).sum();
            let tol = pr.bus_busy_cycles.abs() * 1e-9 + 1e-6;
            assert!(
                (busy - pr.bus_busy_cycles).abs() <= tol,
                "pool {pool} busy cycles {busy} vs {}",
                pr.bus_busy_cycles
            );
        }
    }

    /// An observed run reports identically to an unobserved run of the
    /// same program — probes never perturb the simulation.
    fn observation_does_not_perturb(kb in 64u64..256, sample in 100u64..2_000) {
        let mut cfg = SimConfig::paper_baseline();
        cfg.num_sms = 2;
        let plain = Simulator::new(
            cfg.clone(),
            FixedPoolTranslator::new(0),
            StreamKernel::new(&cfg, 4, kb * 1024),
        )
        .run();
        let probe = (
            Some(IntervalSampler::new(sample, cfg.pools.len())),
            Some(EventTracer::new(10_000)),
        );
        let (observed, _, _) = Simulator::new(
            cfg.clone(),
            FixedPoolTranslator::new(0),
            StreamKernel::new(&cfg, 4, kb * 1024),
        )
        .with_observer(probe)
        .run_instrumented();
        assert_eq!(plain, observed);
    }
}

// ---------------------------------------------------------------------
// Differential tests: each packed hot-path structure against a plain
// reference model of the same contract, over random operation streams.
// ---------------------------------------------------------------------

/// The set-associative cache as an array of `{tag, valid, lru}` ways,
/// victim = first way with the smallest `lru` (invalid ways count as 0).
struct RefCache {
    ways: Vec<RefWay>,
    assoc: usize,
    set_mask: u64,
    tick: u64,
    hits: u64,
    misses: u64,
}

#[derive(Clone, Copy)]
struct RefWay {
    tag: u64,
    valid: bool,
    lru: u64,
}

impl RefCache {
    fn new(cfg: CacheConfig) -> Self {
        let sets = cfg.sets();
        RefCache {
            ways: vec![
                RefWay {
                    tag: 0,
                    valid: false,
                    lru: 0,
                };
                sets * cfg.ways
            ],
            assoc: cfg.ways,
            set_mask: sets as u64 - 1,
            tick: 0,
            hits: 0,
            misses: 0,
        }
    }

    fn set(&mut self, line: u64) -> (&mut [RefWay], u64, u64) {
        let set = line & self.set_mask;
        let tag = line >> self.set_mask.trailing_ones();
        let base = set as usize * self.assoc;
        (&mut self.ways[base..base + self.assoc], set, tag)
    }

    fn access(&mut self, line: u64) -> CacheOutcome {
        self.tick += 1;
        let (tick, shift) = (self.tick, self.set_mask.trailing_ones());
        let (ways, set, tag) = self.set(line);
        if let Some(w) = ways.iter_mut().find(|w| w.valid && w.tag == tag) {
            w.lru = tick;
            self.hits += 1;
            return CacheOutcome::Hit;
        }
        let victim = ways
            .iter_mut()
            .min_by_key(|w| if w.valid { w.lru } else { 0 })
            .unwrap();
        let evicted = victim.valid.then(|| (victim.tag << shift) | set);
        *victim = RefWay {
            tag,
            valid: true,
            lru: tick,
        };
        self.misses += 1;
        CacheOutcome::Miss { evicted }
    }

    fn probe(&mut self, line: u64) -> bool {
        self.tick += 1;
        let tick = self.tick;
        let (ways, _, tag) = self.set(line);
        let hit = match ways.iter_mut().find(|w| w.valid && w.tag == tag) {
            Some(w) => {
                w.lru = tick;
                true
            }
            None => false,
        };
        if hit {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        hit
    }

    fn invalidate(&mut self, line: u64) -> bool {
        let (ways, _, tag) = self.set(line);
        match ways.iter_mut().find(|w| w.valid && w.tag == tag) {
            Some(w) => {
                w.valid = false;
                true
            }
            None => false,
        }
    }
}

/// A queued reference request: `(line, row, read, seq, enqueue time)`.
type RefReq = (u64, u64, bool, u64, u64);

/// FR-FCFS with nothing cached: every tick rescans every bank's window
/// in floating point and takes the smallest `(data_ready, seq)`.
struct RefChannel {
    timing: DramTiming,
    burst: f64,
    banks: Vec<(Option<u64>, f64, f64)>, // (open row, next activate, row ready)
    queues: Vec<VecDeque<RefReq>>,
    bus_free_at: f64,
    ticking: bool,
    seq: u64,
    row_hits: u64,
    row_misses: u64,
}

impl RefChannel {
    const WINDOW: usize = 16;

    fn new(pool: &PoolConfig, ghz: f64) -> Self {
        let banks = pool.banks_per_channel as usize;
        RefChannel {
            timing: pool.timing,
            burst: pool.burst_cycles(ghz),
            banks: vec![(None, 0.0, 0.0); banks],
            queues: vec![VecDeque::new(); banks],
            bus_free_at: 0.0,
            ticking: false,
            seq: 0,
            row_hits: 0,
            row_misses: 0,
        }
    }

    fn enqueue(&mut self, now: u64, line: u64, read: bool) -> Option<u64> {
        let n = self.banks.len() as u64;
        let bank = ((line / 16) % n) as usize;
        let row = line / (16 * n);
        self.queues[bank].push_back((line, row, read, self.seq, now));
        self.seq += 1;
        if self.ticking {
            return None;
        }
        self.ticking = true;
        Some((now as f64).max(self.bus_free_at).ceil() as u64)
    }

    fn tick(&mut self) -> Option<Served> {
        let t = self.timing;
        let mut best: Option<(f64, u64, usize, usize, bool)> = None;
        for (b, queue) in self.queues.iter().enumerate() {
            let (open, next_act, row_ready) = self.banks[b];
            for (pos, &(_, row, read, seq, enq)) in queue.iter().take(Self::WINDOW).enumerate() {
                let hit = open == Some(row);
                let ready = if hit {
                    (enq as f64).max(row_ready)
                } else {
                    (enq as f64).max(next_act) + t.rp as f64 + t.rcd as f64
                };
                let ready = ready + if read { t.cl as f64 } else { t.wr as f64 };
                if best.is_none_or(|(r, s, ..)| (ready, seq) < (r, s)) {
                    best = Some((ready, seq, b, pos, hit));
                }
                if hit {
                    break;
                }
            }
        }
        let (ready, _, b, pos, hit) = best?;
        let (line, row, read, _, enq) = self.queues[b].remove(pos).unwrap();
        if hit {
            self.row_hits += 1;
        } else {
            self.row_misses += 1;
            let activate = (enq as f64).max(self.banks[b].1);
            self.banks[b] = (
                Some(row),
                activate + t.rc as f64,
                activate + t.rp as f64 + t.rcd as f64,
            );
        }
        let end = ready.max(self.bus_free_at) + self.burst;
        self.bus_free_at = end;
        let next_tick = if self.queues.iter().any(|q| !q.is_empty()) {
            Some(end.ceil() as u64)
        } else {
            self.ticking = false;
            None
        };
        Some(Served {
            line,
            read,
            done: end.ceil() as u64,
            next_tick,
        })
    }
}

hetmem_harness::props! {
    cases = 48;

    /// `WaiterMap` against `HashMap<u64, Vec<W>>`: same new-key answers,
    /// same waiter lists in insertion order, same length, across pushes,
    /// merges, conditional merges and removals. Starting from the
    /// smallest table forces repeated growth; a dense key space at up
    /// to 50% load builds the probe chains that backward-shift deletion
    /// must repair.
    fn waiter_map_matches_hashmap(seed in 0u64..1_000_000, keys in 1u64..300, steps in 1usize..4000) {
        let mut rng = SplitMix64::new(seed);
        let mut map: WaiterMap<(u16, u64)> = WaiterMap::with_key_capacity(1);
        let mut reference: HashMap<u64, Vec<(u16, u64)>> = HashMap::new();
        let mut out = Vec::new();
        for step in 0..steps {
            let key = rng.next_below(keys) * 128 + rng.next_below(2);
            let w = (step as u16, rng.next_u64() >> 8);
            match rng.next_below(5) {
                0 | 1 => {
                    assert_eq!(map.push(key, w), !reference.contains_key(&key), "step {step}");
                    reference.entry(key).or_default().push(w);
                }
                2 => {
                    let present = match map.lookup(key) {
                        Ok(found) => {
                            map.merge(found, w);
                            true
                        }
                        Err(_) => false,
                    };
                    assert_eq!(present, reference.contains_key(&key), "step {step}");
                    if let Some(list) = reference.get_mut(&key) {
                        list.push(w);
                    }
                }
                _ => {
                    out.clear();
                    let removed = map.remove_with(key, |w| out.push(w));
                    match reference.remove(&key) {
                        Some(want) => assert!(removed && out == want, "step {step} key {key}"),
                        None => assert!(!removed && out.is_empty(), "step {step} key {key}"),
                    }
                }
            }
            assert_eq!(map.len(), reference.len());
        }
        for (key, want) in reference {
            out.clear();
            assert!(map.remove_with(key, |w| out.push(w)));
            assert_eq!(out, want, "drain key {key}");
        }
        assert!(map.is_empty());
    }

    /// `SetAssocCache` against the `{tag, valid, lru}` way model: every
    /// `access` outcome (with the evicted line), `probe` answer,
    /// `invalidate` answer and the hit/miss counters agree.
    fn cache_matches_way_model(
        seed in 0u64..1_000_000,
        ways_log in 0u32..4,
        sets_log in 0u32..5,
        steps in 1usize..3000
    ) {
        let (ways, sets) = (1usize << ways_log, 1usize << sets_log);
        let cfg = CacheConfig::new(ways * sets * 128, ways);
        let mut cache = SetAssocCache::new(cfg);
        let mut reference = RefCache::new(cfg);
        let mut rng = SplitMix64::new(seed);
        // Four times the capacity: hits, conflict misses and evictions.
        let span = (ways * sets * 4) as u64;
        for step in 0..steps {
            let line = if rng.next_below(50) == 0 {
                rng.next_u64() >> 8 // a far tag now and then
            } else {
                rng.next_below(span)
            };
            match rng.next_below(8) {
                0 => assert_eq!(cache.probe(line), reference.probe(line), "step {step}"),
                1 => assert_eq!(
                    cache.invalidate(line),
                    reference.invalidate(line),
                    "step {step}"
                ),
                _ => assert_eq!(cache.access(line), reference.access(line), "step {step}"),
            }
        }
        assert_eq!(cache.stats(), (reference.hits, reference.misses));
    }

    /// `DramChannel`'s cached, integer-keyed FR-FCFS winner against a
    /// full floating-point rescan of every bank on every tick: the same
    /// kick times, the same served request, completion and next tick at
    /// every step, and the same row-buffer counters. Bank counts cover
    /// the whole stale-mask width.
    fn dram_matches_full_rescan(
        seed in 0u64..1_000_000,
        pool in 0usize..2,
        banks_log in 0u32..7,
        steps in 1usize..3000
    ) {
        let cfg = SimConfig::paper_baseline();
        let mut pool = cfg.pools[pool].clone();
        pool.banks_per_channel = 1 << banks_log;
        let mut rng = SplitMix64::new(seed);
        if rng.next_below(2) == 0 {
            // Unequal read and write latencies let a younger request
            // beat an older miss, which the scheduling window must stop.
            let mut draw = || 1 + rng.next_below(100);
            pool.timing = DramTiming {
                rcd: draw(),
                rp: draw(),
                cl: draw(),
                wr: draw(),
                rc: draw(),
            };
        }
        let mut chan = DramChannel::new(&pool, cfg.sm_clock_ghz);
        let mut reference = RefChannel::new(&pool, cfg.sm_clock_ghz);
        // A small row space per bank makes row hits, conflicts and
        // window overflow (> 16 queued in a bank) all common.
        let lines = 16 * u64::from(pool.banks_per_channel) * (1 + rng.next_below(8));
        let mut now = 0u64;
        for step in 0..steps {
            if rng.next_below(3) == 0 {
                assert_eq!(chan.tick(), reference.tick(), "step {step}");
            } else {
                now += rng.next_below(40);
                let line = rng.next_below(lines);
                let read = rng.next_below(4) != 0;
                assert_eq!(
                    chan.enqueue(now, line, read),
                    reference.enqueue(now, line, read),
                    "step {step}"
                );
            }
        }
        while let Some(served) = reference.tick() {
            assert_eq!(chan.tick(), Some(served));
        }
        assert_eq!(chan.tick(), None);
        assert_eq!(chan.queue_depth(), 0);
        let stats = chan.stats();
        assert_eq!((stats.row_hits, stats.row_misses), (reference.row_hits, reference.row_misses));
    }

    /// The calendar under heavy churn — bursts that fill it with
    /// thousands of events and drains back to empty, near (wheel) and
    /// far (overflow heap) horizons, many equal timestamps — pops in
    /// exactly the reference `(time, seq)` heap order, and its node slab
    /// never holds more nodes than the most events ever pending at once.
    fn calendar_slab_matches_reference_heap(seed in 0u64..1_000_000, rounds in 1usize..12) {
        let mut rng = SplitMix64::new(seed);
        let mut cal = Calendar::new();
        let mut reference: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
        let mut seq = 0u64;
        let mut peak = 0usize;
        for round in 0..rounds {
            let burst = 1 + rng.next_below(3000);
            let drain_to = rng.next_below(burst / 2 + 1) as usize;
            for _ in 0..burst {
                if rng.next_below(4) == 0 && !reference.is_empty() {
                    let Reverse((at, id)) = reference.pop().unwrap();
                    assert_eq!(cal.pop(), Some((at, id)), "round {round}");
                }
                let delta = match rng.next_below(20) {
                    0 => 4096 + rng.next_below(50_000),
                    1..=5 => 0,
                    _ => rng.next_below(700),
                };
                let at = cal.now() + delta;
                cal.schedule(at, seq);
                reference.push(Reverse((at, seq)));
                seq += 1;
                peak = peak.max(reference.len());
            }
            while reference.len() > drain_to {
                let Reverse((at, id)) = reference.pop().unwrap();
                assert_eq!(cal.pop(), Some((at, id)), "round {round}");
            }
            assert_eq!(cal.len(), reference.len());
            assert!(cal.slab_len() <= peak, "slab {} > peak {peak}", cal.slab_len());
        }
        while let Some(Reverse((at, id))) = reference.pop() {
            assert_eq!(cal.pop(), Some((at, id)));
        }
        assert_eq!(cal.pop(), None);
    }
}
