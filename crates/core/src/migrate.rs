//! The cycle-level online page-migration engine behind the `MIGRATE`
//! policy.
//!
//! [`OnlineMigrator`] implements [`gpusim::PageMigrator`] on top of the
//! OS model's shared [`AddressSpace`] — the same handle the simulator's
//! translator faults pages through. The simulator calls it on every
//! DRAM-level access (the cache-filtered stream the paper's Figure 6
//! profiles); at self-scheduled epoch boundaries the engine ranks the
//! epoch's hot pages, rewrites the page table (`migrate_page`, the
//! `migrate_pages(2)` analog), and returns the physical copies for the
//! simulator to charge as real DRAM channel traffic. A freshly moved
//! page additionally stalls its next accesses for the remap latency —
//! the paper's "several microseconds" from invalidation to first
//! re-use.
//!
//! The decision scheme is deliberately AutoNUMA-flavoured:
//!
//! * pages with at least `hot` DRAM accesses in the epoch are promoted
//!   into the bandwidth-optimized zone, hottest first, capped at
//!   `batch` per epoch;
//! * when the BO zone is full, the least-recently-touched BO page is
//!   evicted to capacity-optimized memory to make room;
//! * pages colder than `cold` are demoted eagerly (off by default).
//!
//! Every ranking ties on the page number, so a run is deterministic —
//! byte-identical reports at any sweep thread count.
//!
//! Nothing on the per-access path hashes. All per-page state — this
//! epoch's count, the cumulative tally, the last epoch touched and the
//! cycle a remap settles — sits in one `PageState` per page in the
//! workspace's per-page table, [`PageMap`], so
//! [`PageMigrator::record_access`] is one indexed update. A list of the
//! pages touched this epoch lets an epoch rank and reset only those
//! pages, and the full residency scan (over the page table, in page
//! order) runs only when a cold-demotion pass or an LRU eviction needs
//! it.

use std::cell::RefCell;
use std::rc::Rc;

use gpusim::{MigrationCounters, PageCopy, PageMigrator, SimConfig};
use hmtypes::{MemKind, PageMap, PageNum};
use mempolicy::{AddressSpace, MigrateSpec, ZoneId};

/// Time from a page's invalidation to its first re-use, in
/// microseconds (paper §5.5: "several microseconds" on Linux 3.16).
const REMAP_LATENCY_US: f64 = 3.0;

/// SM cycles from invalidation to first re-use of one remapped page at
/// `sm_clock_ghz` — the per-page stall the engine charges unless the
/// policy sets `remap`. The copy itself is not included: the simulator
/// charges it as DRAM channel occupancy instead.
fn remap_cycles(sm_clock_ghz: f64) -> u64 {
    (REMAP_LATENCY_US * 1e-6 * sm_clock_ghz * 1e9).ceil() as u64
}

/// One epoch boundary's page-movement summary: the per-epoch deltas
/// behind the run-level [`MigrationCounters`] aggregate. Collected by
/// [`OnlineMigrator`] into a shared log (see
/// [`OnlineMigrator::epoch_log`]) so observed runs can render epochs as
/// their own Chrome-trace track.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MigrationEpochEvent {
    /// SM cycle at which the epoch closed.
    pub cycle: u64,
    /// 1-based index of the epoch that just closed.
    pub index: u64,
    /// Pages promoted into bandwidth-optimized memory this epoch.
    pub promoted: u64,
    /// Cold pages demoted to capacity-optimized memory this epoch.
    pub demoted: u64,
    /// LRU victims evicted to make room for promotions this epoch.
    pub evicted: u64,
    /// Physical page copies issued (promoted + demoted + evicted).
    pub copy_pages: u64,
}

/// Everything the engine tracks for one virtual page.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct PageState {
    /// DRAM accesses within the current epoch (0 = untouched).
    count: u64,
    /// Cumulative DRAM accesses across all epochs.
    tally: u64,
    /// Last epoch the page was touched in (0 = never), the LRU order.
    last_epoch: u64,
    /// Cycle the page's latest remap settles (0 = never remapped).
    ready: u64,
}

/// Shared read handle on an [`OnlineMigrator`]'s cumulative per-page
/// access tally, from [`OnlineMigrator::hotness_tally`]. It reads the
/// engine's live state, so it is exact at any point of a run, including
/// mid-epoch.
#[derive(Debug, Clone)]
pub struct HotnessTally(Rc<RefCell<PageMap<PageState>>>);

impl HotnessTally {
    /// Accesses counted against `page` so far, or `None` if it was never
    /// accessed.
    pub fn get(&self, page: u64) -> Option<u64> {
        Some(self.0.borrow().get(PageNum::new(page)).tally).filter(|&t| t > 0)
    }

    /// Every accessed page and its count, in the shape of the
    /// simulator's profiled `SimReport::page_accesses`.
    pub fn counts(&self) -> PageMap<u64> {
        self.0
            .borrow()
            .iter()
            .map(|(page, s)| (page, s.tally))
            .collect()
    }
}

/// The `MIGRATE` policy's engine: epoch-based hotness tracking over the
/// shared address space, with promotion, LRU eviction, and demotion.
///
/// Constructed by the run paths in [`crate::runner`] whenever the
/// effective [`mempolicy::Mempolicy`] carries a [`MigrateSpec`]; the
/// base placement faults pages in as usual and this engine rewrites the
/// page table mid-run.
#[derive(Debug)]
pub struct OnlineMigrator {
    mm: Rc<RefCell<AddressSpace>>,
    spec: MigrateSpec,
    bo: ZoneId,
    co: ZoneId,
    remap_cycles: u64,
    next_epoch: u64,
    /// 1-based index of the epoch currently being accumulated.
    epoch_index: u64,
    /// Per-page state (shared out via [`OnlineMigrator::hotness_tally`]
    /// so tests can reconcile the tally against the profiler's
    /// histogram).
    pages: Rc<RefCell<PageMap<PageState>>>,
    /// Pages with a nonzero count this epoch, in first-touch order.
    touched: Vec<PageNum>,
    /// Latest remap-ready cycle of any page: at or after it no access
    /// can stall, and the stall check skips the page lookup.
    max_ready: u64,
    counters: MigrationCounters,
    /// Per-epoch movement log (shared out via
    /// [`OnlineMigrator::epoch_log`], same pattern as the tally).
    epochs: Rc<RefCell<Vec<MigrationEpochEvent>>>,
}

impl OnlineMigrator {
    /// Builds the engine over the run's shared address space. The remap
    /// latency comes from `spec` when given, else it is the paper's
    /// 3 µs at the machine's SM clock.
    pub fn new(mm: Rc<RefCell<AddressSpace>>, spec: MigrateSpec, sim: &SimConfig) -> Self {
        let (bo, co) = {
            let mm_ref = mm.borrow();
            let topo = mm_ref.topology();
            (
                topo.zone_of_kind(MemKind::BandwidthOptimized)
                    .unwrap_or(ZoneId::new(0)),
                topo.zone_of_kind(MemKind::CapacityOptimized)
                    .unwrap_or(ZoneId::new(0)),
            )
        };
        let remap_cycles = spec
            .remap_cycles
            .unwrap_or_else(|| remap_cycles(sim.sm_clock_ghz));
        OnlineMigrator {
            mm,
            spec,
            bo,
            co,
            remap_cycles,
            next_epoch: spec.epoch_cycles.max(1),
            epoch_index: 1,
            pages: Rc::new(RefCell::new(PageMap::new())),
            touched: Vec::new(),
            max_ready: 0,
            counters: MigrationCounters::default(),
            epochs: Rc::new(RefCell::new(Vec::new())),
        }
    }

    /// Shared handle to the cumulative per-page access tally. Clone it
    /// before handing the migrator to the simulator; after the run it
    /// holds exactly the accesses every epoch counted.
    pub fn hotness_tally(&self) -> HotnessTally {
        HotnessTally(Rc::clone(&self.pages))
    }

    /// Shared handle to the per-epoch movement log. Clone it before
    /// handing the migrator to the simulator; after the run it holds
    /// one [`MigrationEpochEvent`] per closed epoch, in cycle order.
    pub fn epoch_log(&self) -> Rc<RefCell<Vec<MigrationEpochEvent>>> {
        Rc::clone(&self.epochs)
    }

    /// The per-page remap stall this engine charges, in cycles.
    pub fn remap_latency_cycles(&self) -> u64 {
        self.remap_cycles
    }

    /// Pages currently resident in `zone`, in page-table order.
    fn resident_in(mm: &AddressSpace, zone: ZoneId) -> Vec<PageNum> {
        mm.mappings()
            .filter(|&(_, frame)| mm.allocator().zone_of(frame) == Some(zone))
            .map(|(page, _)| page)
            .collect()
    }

    /// Moves `page` to `dst`, returning the physical copy to charge, or
    /// `None` when the zone is full (the caller then evicts).
    fn move_page(mm: &mut AddressSpace, page: PageNum, dst: ZoneId) -> Option<PageCopy> {
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

    /// Marks `page` as remapped at `now`: its accesses stall until the
    /// remap latency has passed.
    fn remapped(&mut self, pages: &mut PageMap<PageState>, page: PageNum, now: u64) {
        let ready = now + self.remap_cycles;
        pages.get_mut(page).ready = ready;
        self.max_ready = self.max_ready.max(ready);
    }
}

impl PageMigrator for OnlineMigrator {
    #[inline]
    fn record_access(&mut self, _now: u64, page: u64) {
        let page = PageNum::new(page);
        let mut pages = self.pages.borrow_mut();
        let state = pages.get_mut(page);
        if state.count == 0 {
            self.touched.push(page);
        }
        state.count += 1;
        state.tally += 1;
        state.last_epoch = self.epoch_index;
    }

    #[inline]
    fn remap_stall(&mut self, now: u64, page: u64) -> u64 {
        // Most requests land after every remap has settled.
        if now >= self.max_ready {
            return 0;
        }
        self.pages
            .borrow()
            .get(PageNum::new(page))
            .ready
            .saturating_sub(now)
    }

    fn next_epoch(&self) -> u64 {
        self.next_epoch
    }

    fn epoch(&mut self, now: u64) -> Vec<PageCopy> {
        let before = self.counters;
        let closed_index = self.epoch_index;
        self.counters.epochs += 1;
        self.epoch_index += 1;
        self.next_epoch = now + self.spec.epoch_cycles.max(1);

        let mm_rc = Rc::clone(&self.mm);
        let mut mm = mm_rc.borrow_mut();
        let pages_rc = Rc::clone(&self.pages);
        let mut pages = pages_rc.borrow_mut();
        let mut copies = Vec::new();

        // Promotion candidates: pages outside BO that crossed the hot
        // threshold this epoch, hottest first, capped at the batch.
        // Their zones are read before any demotion moves a page, so a
        // page demoted below is never a candidate.
        let mut hot: Vec<(u64, PageNum)> = self
            .touched
            .iter()
            .filter_map(|&page| {
                let count = pages.get(page).count;
                (count >= self.spec.hot_threshold && mm.zone_of_page(page) == Some(self.co))
                    .then_some((count, page))
            })
            .collect();
        hot.sort_unstable_by_key(|&(count, page)| (std::cmp::Reverse(count), page));
        hot.truncate(self.spec.batch_pages as usize);

        // Demote cold BO pages first so their frames are reusable; the
        // residency snapshot is in page order (the page table iterates
        // low to high, spill range included), keeping each epoch
        // deterministic.
        if self.spec.cold_threshold > 0 {
            let bo_resident = Self::resident_in(&mm, self.bo);
            for page in bo_resident {
                if pages.get(page).count >= self.spec.cold_threshold {
                    continue;
                }
                if let Some(copy) = Self::move_page(&mut mm, page, self.co) {
                    copies.push(copy);
                    self.counters.demoted += 1;
                    self.remapped(&mut pages, page, now);
                }
            }
        }

        // Eviction order, built on the first full-BO promotion: least-
        // recently-touched BO page first, the hot set excluded. Demoted
        // pages have left BO and promoted ones are hot, so the live BO
        // residency here equals the pre-demotion snapshot minus both.
        let mut hot_pages: Vec<PageNum> = hot.iter().map(|&(_, page)| page).collect();
        hot_pages.sort_unstable();
        let mut victims: Option<std::vec::IntoIter<PageNum>> = None;

        for &(_, page) in &hot {
            loop {
                if let Some(copy) = Self::move_page(&mut mm, page, self.bo) {
                    copies.push(copy);
                    self.counters.promoted += 1;
                    self.remapped(&mut pages, page, now);
                    break;
                }
                // BO full: evict the LRU victim, then retry the promote.
                let victims = victims.get_or_insert_with(|| {
                    let mut v = Self::resident_in(&mm, self.bo);
                    v.retain(|p| hot_pages.binary_search(p).is_err());
                    v.sort_by_key(|&p| (pages.get(p).last_epoch, p));
                    v.into_iter()
                });
                let Some(victim) = victims.next() else { break };
                let Some(copy) = Self::move_page(&mut mm, victim, self.co) else {
                    break;
                };
                copies.push(copy);
                self.counters.evicted += 1;
                self.remapped(&mut pages, victim, now);
            }
        }

        for page in self.touched.drain(..) {
            pages.get_mut(page).count = 0;
        }
        self.epochs.borrow_mut().push(MigrationEpochEvent {
            cycle: now,
            index: closed_index,
            promoted: self.counters.promoted - before.promoted,
            demoted: self.counters.demoted - before.demoted,
            evicted: self.counters.evicted - before.evicted,
            copy_pages: copies.len() as u64,
        });
        copies
    }

    fn counters(&self) -> MigrationCounters {
        self.counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::translate::topology_for;
    use hmtypes::PAGE_SIZE;

    fn setup(bo_pages: u64) -> (Rc<RefCell<AddressSpace>>, SimConfig) {
        let sim = SimConfig::paper_baseline();
        let topo = topology_for(&sim, &[bo_pages, 64]);
        let mm = AddressSpace::new(topo);
        (Rc::new(RefCell::new(mm)), sim)
    }

    fn map_pages(mm: &Rc<RefCell<AddressSpace>>, n: u64, zone: ZoneId) -> Vec<u64> {
        let mut m = mm.borrow_mut();
        let range = m.mmap(n * PAGE_SIZE as u64).unwrap();
        let mut pages = Vec::new();
        for page in range.pages() {
            m.ensure_mapped_in(page, &[zone]).unwrap();
            pages.push(page.index());
        }
        pages
    }

    #[test]
    fn remap_cycles_default_to_three_microseconds() {
        // 3 us at 1.4 GHz = 4200 cycles.
        assert_eq!(remap_cycles(1.4), 4200);
        let (mm, sim) = setup(4);
        let mig = OnlineMigrator::new(mm, MigrateSpec::default(), &sim);
        assert_eq!(mig.remap_latency_cycles(), 4200);
        let spec = MigrateSpec {
            remap_cycles: Some(77),
            ..MigrateSpec::default()
        };
        let (mm2, sim2) = setup(4);
        assert_eq!(
            OnlineMigrator::new(mm2, spec, &sim2).remap_latency_cycles(),
            77
        );
    }

    #[test]
    fn hot_page_promotes_and_stalls_until_remapped() {
        let (mm, sim) = setup(4);
        let co = ZoneId::new(1);
        let pages = map_pages(&mm, 2, co);
        let mut mig = OnlineMigrator::new(Rc::clone(&mm), MigrateSpec::default(), &sim);
        assert_eq!(mig.next_epoch(), 100_000);
        for _ in 0..10 {
            mig.record_access(50, pages[0]);
        }
        let copies = mig.epoch(100_000);
        assert_eq!(copies.len(), 1);
        assert_eq!(copies[0].src_pool, 1);
        assert_eq!(copies[0].dst_pool, 0);
        assert_eq!(mig.counters().promoted, 1);
        assert_eq!(mig.next_epoch(), 200_000);
        assert_eq!(
            mm.borrow().zone_of_page(PageNum::new(pages[0])),
            Some(ZoneId::new(0))
        );
        // The rewritten mapping stalls accesses until it settles.
        assert_eq!(mig.remap_stall(100_000, pages[0]), 4200);
        assert_eq!(mig.remap_stall(103_000, pages[0]), 1200);
        assert_eq!(mig.remap_stall(105_000, pages[0]), 0);
        assert_eq!(mig.remap_stall(100_000, pages[1]), 0);
        // Cold page stays put; counts reset between epochs.
        assert!(mig.epoch(200_000).is_empty());
        assert_eq!(mig.counters().epochs, 2);
    }

    #[test]
    fn full_bo_evicts_lru_victim_to_make_room() {
        let (mm, sim) = setup(1);
        let bo = ZoneId::new(0);
        let co = ZoneId::new(1);
        let cold = map_pages(&mm, 1, bo);
        let pages = map_pages(&mm, 2, co);
        let mut mig = OnlineMigrator::new(Rc::clone(&mm), MigrateSpec::default(), &sim);
        for _ in 0..10 {
            mig.record_access(10, pages[1]);
        }
        let copies = mig.epoch(100_000);
        // The untouched BO page was evicted, then the hot page promoted.
        assert_eq!(copies.len(), 2);
        assert_eq!(mig.counters().evicted, 1);
        assert_eq!(mig.counters().promoted, 1);
        assert_eq!(
            mm.borrow().zone_of_page(PageNum::new(cold[0])),
            Some(co),
            "LRU victim lands in CO"
        );
        assert_eq!(mm.borrow().zone_of_page(PageNum::new(pages[1])), Some(bo));
    }

    #[test]
    fn cold_threshold_demotes_idle_bo_pages() {
        let (mm, sim) = setup(4);
        let bo = ZoneId::new(0);
        let pages = map_pages(&mm, 2, bo);
        let spec = MigrateSpec {
            cold_threshold: 3,
            ..MigrateSpec::default()
        };
        let mut mig = OnlineMigrator::new(Rc::clone(&mm), spec, &sim);
        // pages[0] stays warm enough; pages[1] is cold.
        for _ in 0..5 {
            mig.record_access(1, pages[0]);
        }
        mig.record_access(1, pages[1]);
        let copies = mig.epoch(100_000);
        assert_eq!(copies.len(), 1);
        assert_eq!(mig.counters().demoted, 1);
        assert_eq!(
            mm.borrow().zone_of_page(PageNum::new(pages[1])),
            Some(ZoneId::new(1))
        );
        assert_eq!(mm.borrow().zone_of_page(PageNum::new(pages[0])), Some(bo));
    }

    #[test]
    fn epoch_log_records_per_epoch_deltas() {
        let (mm, sim) = setup(1);
        let bo = ZoneId::new(0);
        let co = ZoneId::new(1);
        map_pages(&mm, 1, bo);
        let pages = map_pages(&mm, 2, co);
        let mut mig = OnlineMigrator::new(Rc::clone(&mm), MigrateSpec::default(), &sim);
        let log = mig.epoch_log();
        for _ in 0..10 {
            mig.record_access(10, pages[1]);
        }
        mig.epoch(100_000); // evict + promote
        mig.epoch(200_000); // quiet epoch
        let events = log.borrow();
        assert_eq!(events.len(), 2);
        assert_eq!(
            events[0],
            MigrationEpochEvent {
                cycle: 100_000,
                index: 1,
                promoted: 1,
                demoted: 0,
                evicted: 1,
                copy_pages: 2,
            }
        );
        assert_eq!(events[1].cycle, 200_000);
        assert_eq!(events[1].index, 2);
        assert_eq!(events[1].copy_pages, 0);
        // Deltas reconcile with the run-level aggregate.
        let total: u64 = events
            .iter()
            .map(|e| e.promoted + e.demoted + e.evicted)
            .sum();
        let c = mig.counters();
        assert_eq!(total, c.promoted + c.demoted + c.evicted);
        assert_eq!(events.len() as u64, c.epochs);
    }

    #[test]
    fn tally_accumulates_across_epochs() {
        let (mm, sim) = setup(4);
        let pages = map_pages(&mm, 2, ZoneId::new(1));
        let mut mig = OnlineMigrator::new(mm, MigrateSpec::default(), &sim);
        let tally = mig.hotness_tally();
        for _ in 0..3 {
            mig.record_access(1, pages[0]);
        }
        mig.epoch(100_000);
        for _ in 0..2 {
            mig.record_access(150_000, pages[0]);
        }
        mig.record_access(150_000, pages[1]);
        assert_eq!(tally.get(pages[0]), Some(5));
        assert_eq!(tally.get(pages[1]), Some(1));
    }
}
