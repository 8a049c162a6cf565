//! Physical frame allocation within NUMA zones.
//!
//! Each zone owns a contiguous range of physical frame numbers. The
//! allocator is a bump pointer plus a free list — enough to model
//! first-touch allocation, capacity exhaustion, and page freeing, which is
//! all the paper's placement experiments exercise.

use crate::error::MemError;
use crate::topology::{NumaTopology, ZoneId};
use hmtypes::{FrameNum, PageNum};

#[derive(Debug, Clone)]
struct ZoneState {
    base: u64,
    capacity: u64,
    next_unused: u64,
    free_list: Vec<FrameNum>,
}

impl ZoneState {
    fn allocated(&self) -> u64 {
        (self.next_unused - self.base) - self.free_list.len() as u64
    }
}

/// Allocates physical frames from the zones of a [`NumaTopology`].
///
/// Frame numbers are globally unique: zone *i* owns the contiguous range
/// `[base_i, base_i + capacity_i)`, so any frame maps back to its zone via
/// [`FrameAllocator::zone_of`] — which is how the simulator routes a
/// physical address to a memory pool.
///
/// # Examples
///
/// ```
/// use mempolicy::{FrameAllocator, NumaTopology, ZoneId};
///
/// let topo = NumaTopology::paper_baseline(4, 4);
/// let mut alloc = FrameAllocator::new(&topo);
/// let f = alloc.allocate(ZoneId::new(0))?;
/// assert_eq!(alloc.zone_of(f), Some(ZoneId::new(0)));
/// assert_eq!(alloc.allocated(ZoneId::new(0)), 1);
/// # Ok::<(), mempolicy::MemError>(())
/// ```
#[derive(Debug, Clone)]
pub struct FrameAllocator {
    zones: Vec<ZoneState>,
}

impl FrameAllocator {
    /// Creates an allocator with every frame of every zone free.
    pub fn new(topology: &NumaTopology) -> Self {
        let mut zones = Vec::with_capacity(topology.num_zones());
        let mut base = 0u64;
        for spec in topology.zones() {
            zones.push(ZoneState {
                base,
                capacity: spec.capacity_pages,
                next_unused: base,
                free_list: Vec::new(),
            });
            base += spec.capacity_pages;
        }
        FrameAllocator { zones }
    }

    /// Allocates one frame from `zone`.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::NoSuchZone`] for an unknown zone and
    /// [`MemError::BindExhausted`] when the zone has no free frames.
    pub fn allocate(&mut self, zone: ZoneId) -> Result<FrameNum, MemError> {
        let state = self
            .zones
            .get_mut(zone.index())
            .ok_or(MemError::NoSuchZone { zone })?;
        if let Some(frame) = state.free_list.pop() {
            return Ok(frame);
        }
        if state.next_unused < state.base + state.capacity {
            let frame = FrameNum::new(state.next_unused);
            state.next_unused += 1;
            return Ok(frame);
        }
        Err(MemError::BindExhausted {
            allowed: vec![zone],
        })
    }

    /// Allocates from the first zone in `zonelist` with a free frame.
    ///
    /// This is the Linux zonelist-fallback walk: a policy picks a preferred
    /// zone, and exhaustion falls through to the next-nearest zones.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::OutOfMemory`] when every listed zone is full
    /// (reported against `for_page` for diagnosis).
    pub fn allocate_with_fallback(
        &mut self,
        zonelist: &[ZoneId],
        for_page: PageNum,
    ) -> Result<(FrameNum, ZoneId), MemError> {
        for &zone in zonelist {
            if let Ok(frame) = self.allocate(zone) {
                return Ok((frame, zone));
            }
        }
        Err(MemError::OutOfMemory { page: for_page })
    }

    /// Returns a frame to its zone's free list.
    ///
    /// # Panics
    ///
    /// Panics if `frame` does not belong to any zone or was never
    /// allocated (debug builds check the free list for double-frees).
    pub fn free(&mut self, frame: FrameNum) {
        let zone = self
            .zone_of(frame)
            .expect("freed frame must belong to a zone");
        let state = &mut self.zones[zone.index()];
        assert!(
            frame.index() < state.next_unused,
            "frame {frame} was never allocated"
        );
        debug_assert!(!state.free_list.contains(&frame), "double free of {frame}");
        state.free_list.push(frame);
    }

    /// The zone owning `frame`, or `None` for an out-of-range frame.
    #[inline]
    pub fn zone_of(&self, frame: FrameNum) -> Option<ZoneId> {
        let idx = self
            .zones
            .partition_point(|z| z.base + z.capacity <= frame.index());
        let z = self.zones.get(idx)?;
        (frame.index() >= z.base).then(|| ZoneId::new(idx))
    }

    /// Frames currently allocated from `zone` (0 for an unknown zone).
    pub fn allocated(&self, zone: ZoneId) -> u64 {
        self.zones.get(zone.index()).map_or(0, ZoneState::allocated)
    }

    /// Number of zones served by this allocator.
    pub fn num_zones(&self) -> usize {
        self.zones.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::NumaTopology;

    fn small_topo() -> NumaTopology {
        // 4-page BO zone, 8-page CO zone.
        NumaTopology::paper_baseline(4, 8)
    }

    #[test]
    fn allocates_until_capacity_then_fails() {
        let mut a = FrameAllocator::new(&small_topo());
        let bo = ZoneId::new(0);
        for _ in 0..4 {
            a.allocate(bo).unwrap();
        }
        assert!(matches!(
            a.allocate(bo),
            Err(MemError::BindExhausted { .. })
        ));
        assert_eq!(a.allocated(bo), 4);
    }

    #[test]
    fn frames_are_globally_unique_across_zones() {
        let mut a = FrameAllocator::new(&small_topo());
        let mut seen = std::collections::HashSet::new();
        for zone in [ZoneId::new(0), ZoneId::new(1)] {
            while let Ok(f) = a.allocate(zone) {
                assert!(seen.insert(f), "duplicate frame {f}");
            }
        }
        assert_eq!(seen.len(), 12);
    }

    #[test]
    fn zone_of_maps_frames_back() {
        let mut a = FrameAllocator::new(&small_topo());
        let f0 = a.allocate(ZoneId::new(0)).unwrap();
        let f1 = a.allocate(ZoneId::new(1)).unwrap();
        assert_eq!(a.zone_of(f0), Some(ZoneId::new(0)));
        assert_eq!(a.zone_of(f1), Some(ZoneId::new(1)));
        assert_eq!(a.zone_of(FrameNum::new(1_000_000)), None);
    }

    #[test]
    fn free_allows_reuse() {
        let mut a = FrameAllocator::new(&small_topo());
        let bo = ZoneId::new(0);
        let frames: Vec<_> = (0..4).map(|_| a.allocate(bo).unwrap()).collect();
        a.free(frames[2]);
        assert_eq!(a.allocated(bo), 3);
        let again = a.allocate(bo).unwrap();
        assert_eq!(again, frames[2]);
    }

    #[test]
    fn fallback_walks_zonelist_in_order() {
        let mut a = FrameAllocator::new(&small_topo());
        let list = [ZoneId::new(0), ZoneId::new(1)];
        // Exhaust BO; fallback should start handing out CO frames.
        for _ in 0..4 {
            let (_, z) = a.allocate_with_fallback(&list, PageNum::new(0)).unwrap();
            assert_eq!(z, ZoneId::new(0));
        }
        let (_, z) = a.allocate_with_fallback(&list, PageNum::new(0)).unwrap();
        assert_eq!(z, ZoneId::new(1));
    }

    #[test]
    fn fallback_oom_when_all_full() {
        let mut a = FrameAllocator::new(&small_topo());
        let list = [ZoneId::new(0), ZoneId::new(1)];
        for _ in 0..12 {
            a.allocate_with_fallback(&list, PageNum::new(0)).unwrap();
        }
        assert!(matches!(
            a.allocate_with_fallback(&list, PageNum::new(7)),
            Err(MemError::OutOfMemory { page }) if page == PageNum::new(7)
        ));
    }

    #[test]
    fn unknown_zone_is_reported() {
        let mut a = FrameAllocator::new(&small_topo());
        assert!(matches!(
            a.allocate(ZoneId::new(5)),
            Err(MemError::NoSuchZone { .. })
        ));
    }

    #[test]
    fn allocated_counts_per_zone() {
        let mut a = FrameAllocator::new(&small_topo());
        let (bo, co) = (ZoneId::new(0), ZoneId::new(1));
        assert_eq!(a.allocated(bo), 0);
        a.allocate(bo).unwrap();
        let f = a.allocate(bo).unwrap();
        a.allocate(co).unwrap();
        assert_eq!((a.allocated(bo), a.allocated(co)), (2, 1));
        a.free(f);
        assert_eq!((a.allocated(bo), a.allocated(co)), (1, 1));
        assert_eq!(a.allocated(ZoneId::new(5)), 0);
    }
}
