//! Differential property test of the online migration engine.
//!
//! [`OnlineMigrator`] keeps its per-page state in a dense page-indexed
//! table. `HashMigrator` below is the engine's earlier formulation —
//! per-page `HashMap`s for epoch counts, the tally, last-access epochs
//! and pending remaps, a per-epoch `zone_of` map and a victim list built
//! every epoch — kept here only as the reference. Both run the same
//! random sequences of accesses, remap-stall queries and epoch
//! boundaries over two identically built address spaces, including
//! pages at or above 2^22 that take the dense table's spill path, and
//! must agree on every copy, counter, stall and tally.

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::rc::Rc;

use gpusim::{MigrationCounters, PageCopy, PageMigrator, SimConfig};
use hetmem::{topology_for, OnlineMigrator};
use hmtypes::{PageNum, SplitMix64, DENSE_PAGE_CAP, PAGE_SIZE};
use mempolicy::{AddressSpace, MigrateSpec, ZoneId};

/// The reference: the `HashMap`-based engine, decision for decision.
struct HashMigrator {
    mm: Rc<RefCell<AddressSpace>>,
    spec: MigrateSpec,
    bo: ZoneId,
    co: ZoneId,
    remap_cycles: u64,
    next_epoch: u64,
    epoch_index: u64,
    counts: HashMap<u64, u64>,
    tally: HashMap<u64, u64>,
    last_access: HashMap<u64, u64>,
    pending: HashMap<u64, u64>,
    counters: MigrationCounters,
}

impl HashMigrator {
    fn new(mm: Rc<RefCell<AddressSpace>>, spec: MigrateSpec, remap_cycles: u64) -> Self {
        HashMigrator {
            mm,
            spec,
            bo: ZoneId::new(0),
            co: ZoneId::new(1),
            remap_cycles,
            next_epoch: spec.epoch_cycles.max(1),
            epoch_index: 1,
            counts: HashMap::new(),
            tally: HashMap::new(),
            last_access: HashMap::new(),
            pending: HashMap::new(),
            counters: MigrationCounters::default(),
        }
    }

    fn move_page(mm: &mut AddressSpace, page: u64, dst: ZoneId) -> Option<PageCopy> {
        let page = PageNum::new(page);
        let old = mm.frame_of(page)?;
        let src = mm.allocator().zone_of(old)?;
        let new = mm.migrate_page(page, dst).ok()?;
        Some(PageCopy {
            src_pool: src.index(),
            src_line: old.base().line_index(),
            dst_pool: dst.index(),
            dst_line: new.base().line_index(),
        })
    }
}

impl PageMigrator for HashMigrator {
    fn record_access(&mut self, _now: u64, page: u64) {
        *self.counts.entry(page).or_insert(0) += 1;
        *self.tally.entry(page).or_insert(0) += 1;
        self.last_access.insert(page, self.epoch_index);
    }

    fn remap_stall(&mut self, now: u64, page: u64) -> u64 {
        match self.pending.get(&page) {
            Some(&ready) => ready.saturating_sub(now),
            None => 0,
        }
    }

    fn next_epoch(&self) -> u64 {
        self.next_epoch
    }

    fn epoch(&mut self, now: u64) -> Vec<PageCopy> {
        self.counters.epochs += 1;
        self.epoch_index += 1;
        self.next_epoch = now + self.spec.epoch_cycles.max(1);
        self.pending.retain(|_, ready| *ready > now);

        let mut mm = self.mm.borrow_mut();
        let mut copies = Vec::new();
        let resident: Vec<(u64, ZoneId)> = mm
            .mappings()
            .filter_map(|(page, frame)| mm.allocator().zone_of(frame).map(|z| (page.index(), z)))
            .collect();
        let zone_of: HashMap<u64, ZoneId> = resident.iter().copied().collect();

        let mut demoted = HashSet::new();
        if self.spec.cold_threshold > 0 {
            for &(page, zone) in &resident {
                if zone != self.bo {
                    continue;
                }
                let count = self.counts.get(&page).copied().unwrap_or(0);
                if count >= self.spec.cold_threshold {
                    continue;
                }
                if let Some(copy) = Self::move_page(&mut mm, page, self.co) {
                    copies.push(copy);
                    self.counters.demoted += 1;
                    self.pending.insert(page, now + self.remap_cycles);
                    demoted.insert(page);
                }
            }
        }

        let mut hot: Vec<(u64, u64)> = self
            .counts
            .iter()
            .filter(|&(page, &count)| {
                count >= self.spec.hot_threshold && zone_of.get(page) == Some(&self.co)
            })
            .map(|(&page, &count)| (count, page))
            .collect();
        hot.sort_by_key(|&(count, page)| (std::cmp::Reverse(count), page));
        hot.truncate(self.spec.batch_pages as usize);

        let hot_set: HashSet<u64> = hot.iter().map(|&(_, page)| page).collect();
        let mut victims: Vec<u64> = resident
            .iter()
            .filter(|(page, zone)| {
                *zone == self.bo && !demoted.contains(page) && !hot_set.contains(page)
            })
            .map(|&(page, _)| page)
            .collect();
        victims.sort_by_key(|page| (self.last_access.get(page).copied().unwrap_or(0), *page));
        let mut victims = victims.into_iter();

        for (_, page) in hot {
            loop {
                if let Some(copy) = Self::move_page(&mut mm, page, self.bo) {
                    copies.push(copy);
                    self.counters.promoted += 1;
                    self.pending.insert(page, now + self.remap_cycles);
                    break;
                }
                let Some(victim) = victims.next() else { break };
                let Some(copy) = Self::move_page(&mut mm, victim, self.co) else {
                    break;
                };
                copies.push(copy);
                self.counters.evicted += 1;
                self.pending.insert(victim, now + self.remap_cycles);
            }
        }

        self.counts.clear();
        copies
    }

    fn counters(&self) -> MigrationCounters {
        self.counters
    }
}

/// One address space: `low` pages near page zero, a 2^22-page
/// reservation, then `high` pages above the dense range. Pages start in
/// BO or CO per `rng`, while BO has room. Built twice from equal seeds,
/// the two spaces are identical.
fn address_space(
    sim: &SimConfig,
    bo_pages: u64,
    low: u64,
    high: u64,
    seed: u64,
) -> (Rc<RefCell<AddressSpace>>, Vec<u64>) {
    let topo = topology_for(sim, &[bo_pages, low + high + 8]);
    let mut mm = AddressSpace::new(topo);
    let mut rng = SplitMix64::new(seed);
    let mut pages = Vec::new();
    let low_range = mm.mmap(low * PAGE_SIZE as u64).unwrap();
    mm.mmap(DENSE_PAGE_CAP * PAGE_SIZE as u64).unwrap();
    let high_range = mm.mmap(high * PAGE_SIZE as u64).unwrap();
    let mut bo_used = 0;
    for page in low_range.pages().chain(high_range.pages()) {
        let zone = if bo_used < bo_pages && rng.next_below(2) == 0 {
            bo_used += 1;
            ZoneId::new(0)
        } else {
            ZoneId::new(1)
        };
        mm.ensure_mapped_in(page, &[zone]).unwrap();
        pages.push(page.index());
    }
    (Rc::new(RefCell::new(mm)), pages)
}

hetmem_harness::props! {
    cases = 64;

    /// The dense engine against the `HashMap` reference over random
    /// access, stall and epoch sequences.
    fn dense_migrator_matches_hashmap_reference(
        seed in 0u64..1_000_000,
        bo_pages in 1u64..8,
        low in 1u64..40,
        steps in 1usize..3000
    ) {
        let sim = SimConfig::paper_baseline();
        let mut rng = SplitMix64::new(seed);
        let spec = MigrateSpec {
            epoch_cycles: 1 + rng.next_below(400),
            hot_threshold: 1 + rng.next_below(4),
            cold_threshold: rng.next_below(3),
            batch_pages: 1 + rng.next_below(6),
            remap_cycles: Some(rng.next_below(300)),
        };
        // Several mapped pages above the dense range: the page table
        // iterates its spill in page order, so both engines see the
        // same demotion and eviction order there too.
        let (mm_dense, pages) = address_space(&sim, bo_pages, low, 4, seed);
        let (mm_hash, _) = address_space(&sim, bo_pages, low, 4, seed);
        let mut dense = OnlineMigrator::new(Rc::clone(&mm_dense), spec, &sim);
        let mut reference = HashMigrator::new(
            Rc::clone(&mm_hash),
            spec,
            dense.remap_latency_cycles(),
        );
        let tally = dense.hotness_tally();

        let mut now = 0u64;
        for step in 0..steps {
            now += rng.next_below(20);
            // Mostly mapped pages; some unmapped ones on both sides of
            // the dense range.
            let page = match rng.next_below(10) {
                0 => DENSE_PAGE_CAP + rng.next_below(1 << 20),
                1 => rng.next_below(4096),
                _ => pages[rng.next_below(pages.len() as u64) as usize],
            };
            match rng.next_below(8) {
                0 | 1 => assert_eq!(
                    dense.remap_stall(now, page),
                    reference.remap_stall(now, page),
                    "step {step}: stall of page {page} at {now}"
                ),
                2 if now >= dense.next_epoch() => {
                    assert_eq!(dense.next_epoch(), reference.next_epoch());
                    assert_eq!(dense.epoch(now), reference.epoch(now), "step {step}: copies");
                    assert_eq!(dense.counters(), reference.counters(), "step {step}");
                }
                _ => {
                    dense.record_access(now, page);
                    reference.record_access(now, page);
                }
            }
            if step % 97 == 0 {
                // The tally is live: exact mid-epoch, not just at epochs.
                assert_eq!(tally.get(page), reference.tally.get(&page).copied());
            }
        }
        assert_eq!(dense.counters(), reference.counters());
        let counts: HashMap<u64, u64> = tally
            .counts()
            .iter()
            .map(|(page, count)| (page.index(), count))
            .collect();
        assert_eq!(counts, reference.tally);
        for &page in &pages {
            let page = PageNum::new(page);
            assert_eq!(
                mm_dense.borrow().frame_of(page),
                mm_hash.borrow().frame_of(page),
                "page {page:?} mapping"
            );
        }
    }
}
