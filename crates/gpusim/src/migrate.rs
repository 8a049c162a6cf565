//! The online page-migration hook layer: zero-cost like the observer.
//!
//! [`PageMigrator`] is a trait the simulator is generic over (fourth
//! type parameter, defaulting to [`NullMigrator`]). A real migrator —
//! the policy engine lives above this crate, next to the OS model that
//! owns the page table — sees every DRAM-level page access and every
//! address translation, and at self-scheduled epoch boundaries hands
//! the simulator a batch of [`PageCopy`] descriptors. The simulator
//! charges each copy as real traffic on the source and destination
//! DRAM channels (the transfer occupies the same buses demand requests
//! use) and accounts the engine's decisions into
//! [`MigrationReport`](crate::stats::MigrationReport).
//!
//! Like [`NullObserver`](crate::observe::NullObserver), the default
//! migrator has `ENABLED = false`, so an unmigrated simulator pays
//! nothing: every hook call is guarded on the constant and
//! monomorphizes away.

use hmtypes::PAGE_SIZE;

/// Lines copied per migrated page (4 kB page / 128 B line).
pub const LINES_PER_PAGE: u64 = (PAGE_SIZE / hmtypes::LINE_SIZE) as u64;

/// One page's physical relocation, as the simulator charges it: 32
/// line reads from the source channel(s) plus 32 line writes to the
/// destination channel(s).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageCopy {
    /// Pool the page is leaving.
    pub src_pool: usize,
    /// First physical line of the old frame (frame base / 128).
    pub src_line: u64,
    /// Pool the page is moving to.
    pub dst_pool: usize,
    /// First physical line of the new frame.
    pub dst_line: u64,
}

/// Cumulative decision counters a migrator reports at run end.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MigrationCounters {
    /// Pages moved into the preferred (bandwidth-optimized) zone.
    pub promoted: u64,
    /// Pages moved out by the cold threshold.
    pub demoted: u64,
    /// Pages moved out to make room for a promotion (LRU victim).
    pub evicted: u64,
    /// Epoch boundaries processed.
    pub epochs: u64,
}

impl MigrationCounters {
    /// Total pages physically moved.
    pub fn pages_moved(&self) -> u64 {
        self.promoted + self.demoted + self.evicted
    }
}

/// Simulator migration hooks. `now` is always the current event time.
///
/// Contract: [`PageMigrator::next_epoch`] must be strictly greater
/// than the time of the epoch that just ran (the simulator schedules
/// the next epoch event there), and [`PageMigrator::epoch`] returns
/// the copies to charge for that boundary. `page` arguments are
/// *virtual* page indices (address / 4096).
pub trait PageMigrator {
    /// `false` compiles every hook out of the simulator hot path.
    const ENABLED: bool = true;

    /// A DRAM access (post-cache filtering) touched `page` — the same
    /// stream the per-page profiler counts.
    fn record_access(&mut self, now: u64, page: u64);

    /// Extra cycles the translation of an access to `page` stalls
    /// while a just-migrated mapping is rewritten (0 when settled).
    fn remap_stall(&mut self, now: u64, page: u64) -> u64;

    /// Absolute cycle of the next epoch boundary.
    fn next_epoch(&self) -> u64;

    /// Runs one epoch decision at `now`, returning the page copies to
    /// charge to the DRAM channels.
    fn epoch(&mut self, now: u64) -> Vec<PageCopy>;

    /// Decision counters so far.
    fn counters(&self) -> MigrationCounters;
}

/// The default migrator: no hooks, no epochs, no cost.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullMigrator;

impl PageMigrator for NullMigrator {
    const ENABLED: bool = false;

    fn record_access(&mut self, _now: u64, _page: u64) {}

    fn remap_stall(&mut self, _now: u64, _page: u64) -> u64 {
        0
    }

    fn next_epoch(&self) -> u64 {
        u64::MAX
    }

    fn epoch(&mut self, _now: u64) -> Vec<PageCopy> {
        Vec::new()
    }

    fn counters(&self) -> MigrationCounters {
        MigrationCounters::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_migrator_is_disabled_and_inert() {
        const { assert!(!NullMigrator::ENABLED) };
        let mut m = NullMigrator;
        m.record_access(0, 0);
        assert_eq!(m.remap_stall(0, 0), 0);
        assert_eq!(m.next_epoch(), u64::MAX);
        assert!(m.epoch(0).is_empty());
        assert_eq!(m.counters(), MigrationCounters::default());
    }

    #[test]
    fn counters_total_moved() {
        let c = MigrationCounters {
            promoted: 3,
            demoted: 2,
            evicted: 1,
            epochs: 9,
        };
        assert_eq!(c.pages_moved(), 6);
    }
}
