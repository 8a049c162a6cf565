//! The `mm_struct` analog: VMAs, per-VMA policies, first-touch faults,
//! and the page table.
//!
//! An [`AddressSpace`] is one GPU process's view of memory. Allocation is
//! *first-touch*: `mmap` only reserves virtual space, and a physical frame
//! is chosen — by the effective memory policy — the first time each page
//! is touched. `mbind` attaches a policy to an address range, splitting
//! VMAs exactly as Linux does.

use std::collections::HashMap;

use crate::error::MemError;
use crate::policy::Mempolicy;
use crate::topology::{NumaTopology, ZoneId};
use crate::zone::{FrameAllocator, ZoneStats};
use hmtypes::{FrameNum, PageNum, PhysAddr, VirtAddr, PAGE_SIZE};

/// Identifies a VMA within one address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VmaId(u64);

impl VmaId {
    /// The raw id value.
    pub const fn raw(self) -> u64 {
        self.0
    }
}

impl core::fmt::Display for VmaId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "vma{}", self.0)
    }
}

/// A half-open virtual address range `[start, start + len)`.
///
/// # Examples
///
/// ```
/// use hmtypes::VirtAddr;
/// use mempolicy::VmaRange;
///
/// let r = VmaRange::new(VirtAddr::new(0x1000), 0x2000);
/// assert_eq!(r.pages().count(), 2);
/// assert!(r.contains(VirtAddr::new(0x2fff)));
/// assert!(!r.contains(VirtAddr::new(0x3000)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VmaRange {
    /// First byte of the range (page-aligned).
    pub start: VirtAddr,
    /// Length in bytes (multiple of the page size).
    pub len: u64,
}

impl VmaRange {
    /// Creates a range.
    ///
    /// # Panics
    ///
    /// Panics unless `start` is page-aligned and `len` a positive multiple
    /// of the page size.
    pub fn new(start: VirtAddr, len: u64) -> Self {
        assert_eq!(start.page_offset(), 0, "range start must be page-aligned");
        assert!(
            len > 0 && len.is_multiple_of(PAGE_SIZE as u64),
            "range length must be a positive page multiple"
        );
        VmaRange { start, len }
    }

    /// One past the last byte.
    pub fn end(&self) -> VirtAddr {
        self.start.offset(self.len)
    }

    /// Whether `addr` lies in the range.
    pub fn contains(&self, addr: VirtAddr) -> bool {
        addr >= self.start && addr.raw() < self.end().raw()
    }

    /// The pages the range covers, in order.
    pub fn pages(&self) -> impl Iterator<Item = PageNum> {
        let first = self.start.page().index();
        let count = self.len / PAGE_SIZE as u64;
        (first..first + count).map(PageNum::new)
    }

    /// Number of pages covered.
    pub fn num_pages(&self) -> u64 {
        self.len / PAGE_SIZE as u64
    }
}

/// A virtual memory area: a contiguous mapped range with an optional
/// bound policy (from `mbind`) and an optional debug name (the data
/// structure allocated here, used by the profiler).
#[derive(Debug, Clone)]
pub struct Vma {
    /// Stable id (survives splits; the tail of a split gets a fresh id).
    pub id: VmaId,
    /// The covered range.
    pub range: VmaRange,
    /// Policy bound with `mbind`, overriding the task policy.
    pub policy: Option<Mempolicy>,
    /// Debug/profiling name of the allocation.
    pub name: Option<String>,
}

/// What kind of placement decision a [`PlacementEvent`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementEventKind {
    /// A first-touch fault placed the page under the effective policy.
    /// `fallback_depth` is the page's position in the policy's zonelist:
    /// 0 means the preferred zone took it, higher values mean the
    /// preferred zone(s) were full and the allocation fell through.
    Fault {
        /// Zonelist index of the zone that actually served the fault.
        fallback_depth: usize,
    },
    /// An explicit placement ([`AddressSpace::ensure_mapped_in`] — hints
    /// and oracle pre-placement), with the same fallback semantics.
    Explicit {
        /// Zonelist index of the zone that actually served the request.
        fallback_depth: usize,
    },
    /// A page migration away from `from`.
    Migrate {
        /// The zone the page left.
        from: ZoneId,
    },
}

/// One recorded placement/fallback/migration decision. Events are
/// numbered in decision order (`seq`), which is the only timeline the OS
/// model has — the simulator separately time-stamps the faults it
/// triggers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlacementEvent {
    /// Decision order, starting at 0.
    pub seq: u64,
    /// The virtual page concerned.
    pub page: PageNum,
    /// The zone the page ended up in.
    pub zone: ZoneId,
    /// What happened.
    pub kind: PlacementEventKind,
}

/// A process address space over a NUMA topology: VMAs, page table, and
/// frame allocator, with Linux-style policy resolution (VMA policy if
/// bound, else task policy).
///
/// # Examples
///
/// ```
/// use mempolicy::{AddressSpace, Mempolicy, NumaTopology};
///
/// let mut mm = AddressSpace::new(NumaTopology::paper_baseline(64, 64));
/// let vma = mm.mmap_named(8 * 4096, "d_graph")?;
/// mm.set_mempolicy(Mempolicy::bw_aware_for(mm.topology()));
/// for page in vma.pages() {
///     mm.ensure_mapped(page)?;
/// }
/// assert_eq!(mm.mapped_pages(), 8);
/// # Ok::<(), mempolicy::MemError>(())
/// ```
#[derive(Debug, Clone)]
pub struct AddressSpace {
    topo: NumaTopology,
    allocator: FrameAllocator,
    task_policy: Mempolicy,
    vmas: Vec<Vma>,
    page_table: PageTable,
    next_vma_id: u64,
    next_mmap_page: u64,
    /// Placement decisions recorded since [`AddressSpace::enable_placement_log`];
    /// `None` keeps logging (and its allocations) entirely off.
    placement_log: Option<Vec<PlacementEvent>>,
}

impl AddressSpace {
    /// Virtual page index where `mmap` allocations begin (leaves a null
    /// guard region, mirroring a real process layout).
    const MMAP_BASE_PAGE: u64 = 16;

    /// Creates an address space with the Linux-default `LOCAL` policy.
    pub fn new(topo: NumaTopology) -> Self {
        let allocator = FrameAllocator::new(&topo);
        AddressSpace {
            topo,
            allocator,
            task_policy: Mempolicy::local(),
            vmas: Vec::new(),
            page_table: PageTable::new(),
            next_vma_id: 0,
            next_mmap_page: Self::MMAP_BASE_PAGE,
            placement_log: None,
        }
    }

    /// Starts recording placement/fallback/migration decisions (clears
    /// any previously collected events).
    pub fn enable_placement_log(&mut self) {
        self.placement_log = Some(Vec::new());
    }

    /// Takes the recorded events, leaving logging enabled with an empty
    /// log. Returns an empty vector when logging was never enabled.
    pub fn take_placement_log(&mut self) -> Vec<PlacementEvent> {
        match self.placement_log.as_mut() {
            Some(log) => std::mem::take(log),
            None => Vec::new(),
        }
    }

    fn log_placement(&mut self, page: PageNum, zone: ZoneId, kind: PlacementEventKind) {
        if let Some(log) = self.placement_log.as_mut() {
            let seq = log.len() as u64;
            log.push(PlacementEvent {
                seq,
                page,
                zone,
                kind,
            });
        }
    }

    /// The topology this address space allocates from.
    pub fn topology(&self) -> &NumaTopology {
        &self.topo
    }

    /// Replaces the task-wide policy (the `set_mempolicy(2)` analog).
    /// Existing mappings are unaffected; only future faults see it.
    pub fn set_mempolicy(&mut self, policy: Mempolicy) {
        self.task_policy = policy;
    }

    /// The current task-wide policy.
    pub fn mempolicy(&self) -> &Mempolicy {
        &self.task_policy
    }

    /// Reserves `len` bytes of anonymous virtual memory (rounded up to
    /// whole pages). No physical memory is allocated until first touch.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::BadRange`] if `len` is zero.
    pub fn mmap(&mut self, len: u64) -> Result<VmaRange, MemError> {
        self.mmap_internal(len, None)
    }

    /// Like [`AddressSpace::mmap`], tagging the VMA with a data-structure
    /// name for the profiler (the `cudaMalloc` call-site association of
    /// paper §5.1).
    pub fn mmap_named(&mut self, len: u64, name: impl Into<String>) -> Result<VmaRange, MemError> {
        self.mmap_internal(len, Some(name.into()))
    }

    fn mmap_internal(&mut self, len: u64, name: Option<String>) -> Result<VmaRange, MemError> {
        if len == 0 {
            return Err(MemError::BadRange {
                start: VirtAddr::new(self.next_mmap_page * PAGE_SIZE as u64),
                len,
            });
        }
        let pages = len.div_ceil(PAGE_SIZE as u64);
        let start_page = self.next_mmap_page;
        // One-page guard gap between VMAs keeps ranges visually distinct
        // in profiles and catches off-by-one strides in workloads.
        self.next_mmap_page += pages + 1;
        let range = VmaRange::new(
            VirtAddr::new(start_page * PAGE_SIZE as u64),
            pages * PAGE_SIZE as u64,
        );
        let id = VmaId(self.next_vma_id);
        self.next_vma_id += 1;
        self.vmas.push(Vma {
            id,
            range,
            policy: None,
            name,
        });
        Ok(range)
    }

    /// Maps `range` at its exact address (the `MAP_FIXED` analog),
    /// without moving the dynamic mmap cursor below it.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::BadRange`] if the range overlaps an existing
    /// VMA.
    pub fn mmap_fixed(&mut self, range: VmaRange) -> Result<(), MemError> {
        let overlaps = self.vmas.iter().any(|v| {
            range.start.raw() < v.range.end().raw() && v.range.start.raw() < range.end().raw()
        });
        if overlaps {
            return Err(MemError::BadRange {
                start: range.start,
                len: range.len,
            });
        }
        let id = VmaId(self.next_vma_id);
        self.next_vma_id += 1;
        self.vmas.push(Vma {
            id,
            range,
            policy: None,
            name: None,
        });
        // Keep future dynamic mappings clear of the fixed range.
        self.next_mmap_page = self
            .next_mmap_page
            .max(range.end().raw().div_ceil(PAGE_SIZE as u64) + 1);
        Ok(())
    }

    /// Binds `policy` to `range` (the `mbind(2)` analog), splitting
    /// covering VMAs so the policy applies to exactly `range`.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::BadRange`] unless `range` lies entirely within
    /// one mapped VMA.
    pub fn mbind(&mut self, range: VmaRange, policy: Mempolicy) -> Result<(), MemError> {
        let idx = self
            .vmas
            .iter()
            .position(|v| v.range.start <= range.start && range.end().raw() <= v.range.end().raw())
            .ok_or(MemError::BadRange {
                start: range.start,
                len: range.len,
            })?;

        let original = self.vmas[idx].clone();
        let mut replacement = Vec::with_capacity(3);
        // Left remainder keeps the original id and policy.
        if original.range.start < range.start {
            replacement.push(Vma {
                range: VmaRange::new(
                    original.range.start,
                    range.start.raw() - original.range.start.raw(),
                ),
                ..original.clone()
            });
        }
        // The bound middle piece.
        replacement.push(Vma {
            id: VmaId(self.next_vma_id),
            range,
            policy: Some(policy),
            name: original.name.clone(),
        });
        self.next_vma_id += 1;
        // Right remainder.
        if range.end().raw() < original.range.end().raw() {
            replacement.push(Vma {
                id: VmaId(self.next_vma_id),
                range: VmaRange::new(range.end(), original.range.end().raw() - range.end().raw()),
                policy: original.policy.clone(),
                name: original.name,
            });
            self.next_vma_id += 1;
        }
        self.vmas.splice(idx..=idx, replacement);
        Ok(())
    }

    /// The VMA covering `addr`, if any.
    pub fn vma_at(&self, addr: VirtAddr) -> Option<&Vma> {
        self.vmas.iter().find(|v| v.range.contains(addr))
    }

    /// All VMAs, in creation/address order.
    pub fn vmas(&self) -> &[Vma] {
        &self.vmas
    }

    /// Ensures `page` has a physical frame, faulting it in under the
    /// effective policy if needed. Returns the frame either way.
    ///
    /// # Errors
    ///
    /// * [`MemError::UnmappedAddress`] if no VMA covers the page.
    /// * [`MemError::OutOfMemory`] / [`MemError::BindExhausted`] when the
    ///   policy's zones are full.
    pub fn ensure_mapped(&mut self, page: PageNum) -> Result<FrameNum, MemError> {
        if let Some(frame) = self.page_table.get(page) {
            return Ok(frame);
        }
        let addr = page.base();
        let vma_idx = self
            .vmas
            .iter()
            .position(|v| v.range.contains(addr))
            .ok_or(MemError::UnmappedAddress { addr })?;
        // Effective policy: VMA-bound policy wins over the task policy.
        let zonelist = match &mut self.vmas[vma_idx].policy {
            Some(p) => p.zonelist(&self.topo)?,
            None => self.task_policy.zonelist(&self.topo)?,
        };
        let allows_fallback = self.vmas[vma_idx]
            .policy
            .as_ref()
            .unwrap_or(&self.task_policy)
            .allows_fallback();
        let result = self.allocator.allocate_with_fallback(&zonelist, page);
        let (frame, zone) = match result {
            Ok(ok) => ok,
            Err(MemError::OutOfMemory { .. }) if !allows_fallback => {
                return Err(MemError::BindExhausted { allowed: zonelist })
            }
            Err(e) => return Err(e),
        };
        self.page_table.insert(page, frame);
        if self.placement_log.is_some() {
            let depth = zonelist.iter().position(|&z| z == zone).unwrap_or(0);
            self.log_placement(
                page,
                zone,
                PlacementEventKind::Fault {
                    fallback_depth: depth,
                },
            );
        }
        Ok(frame)
    }

    /// Maps `page` preferring the zones in `zonelist` (in order), ignoring
    /// policies. This is the hook the paper's runtime uses for explicit
    /// BO/CO placement hints and for oracle placement.
    ///
    /// # Errors
    ///
    /// Same conditions as [`AddressSpace::ensure_mapped`].
    pub fn ensure_mapped_in(
        &mut self,
        page: PageNum,
        zonelist: &[ZoneId],
    ) -> Result<FrameNum, MemError> {
        if let Some(frame) = self.page_table.get(page) {
            return Ok(frame);
        }
        let addr = page.base();
        if self.vma_at(addr).is_none() {
            return Err(MemError::UnmappedAddress { addr });
        }
        let (frame, zone) = self.allocator.allocate_with_fallback(zonelist, page)?;
        self.page_table.insert(page, frame);
        if self.placement_log.is_some() {
            let depth = zonelist.iter().position(|&z| z == zone).unwrap_or(0);
            self.log_placement(
                page,
                zone,
                PlacementEventKind::Explicit {
                    fallback_depth: depth,
                },
            );
        }
        Ok(frame)
    }

    /// Pre-faults every page of `range` (a `MAP_POPULATE` analog).
    ///
    /// # Errors
    ///
    /// Propagates the first fault error.
    pub fn populate(&mut self, range: VmaRange) -> Result<(), MemError> {
        for page in range.pages() {
            self.ensure_mapped(page)?;
        }
        Ok(())
    }

    /// Translates a virtual address to its physical address, or `None` if
    /// the page is not (yet) mapped.
    pub fn translate(&self, addr: VirtAddr) -> Option<PhysAddr> {
        self.page_table
            .get(addr.page())
            .map(|f| f.base().offset(addr.page_offset()))
    }

    /// The frame backing `page`, if mapped.
    #[inline]
    pub fn frame_of(&self, page: PageNum) -> Option<FrameNum> {
        self.page_table.get(page)
    }

    /// The zone holding `page`'s frame, if mapped.
    pub fn zone_of_page(&self, page: PageNum) -> Option<ZoneId> {
        self.frame_of(page).and_then(|f| self.allocator.zone_of(f))
    }

    /// Migrates a mapped page to `target` zone, freeing its old frame.
    ///
    /// Returns the new frame. This is the mechanism behind
    /// `migrate_pages(2)`/AutoNUMA-style movement; its *cost* (copy time,
    /// TLB shootdown) is modeled by the caller — the paper (§5.5)
    /// measures several microseconds per invalidation-to-reuse on Linux
    /// 3.16 and argues initial placement should come first.
    ///
    /// # Errors
    ///
    /// * [`MemError::UnmappedAddress`] if the page has no frame yet.
    /// * [`MemError::NoSuchZone`] for an unknown target.
    /// * [`MemError::BindExhausted`] when the target zone is full.
    pub fn migrate_page(&mut self, page: PageNum, target: ZoneId) -> Result<FrameNum, MemError> {
        let old = self
            .frame_of(page)
            .ok_or(MemError::UnmappedAddress { addr: page.base() })?;
        if self.allocator.zone_of(old) == Some(target) {
            return Ok(old);
        }
        let from = self
            .allocator
            .zone_of(old)
            .expect("mapped frame has a zone");
        let new = self.allocator.allocate(target)?;
        self.page_table.insert(page, new);
        self.allocator.free(old);
        self.log_placement(page, target, PlacementEventKind::Migrate { from });
        Ok(new)
    }

    /// Number of pages with physical frames.
    pub fn mapped_pages(&self) -> u64 {
        self.page_table.len()
    }

    /// Count of mapped pages per zone, index-aligned with zone ids —
    /// the observable placement distribution.
    pub fn placement_histogram(&self) -> Vec<u64> {
        let mut hist = vec![0u64; self.topo.num_zones()];
        for (_, frame) in self.page_table.iter() {
            if let Some(zone) = self.allocator.zone_of(frame) {
                hist[zone.index()] += 1;
            }
        }
        hist
    }

    /// Occupancy of `zone`.
    pub fn zone_stats(&self, zone: ZoneId) -> Option<ZoneStats> {
        self.allocator.stats(zone)
    }

    /// The underlying frame allocator (read-only).
    pub fn allocator(&self) -> &FrameAllocator {
        &self.allocator
    }

    /// Iterates over all (page, frame) mappings; dense-range pages come
    /// first in page order, spill pages follow in unspecified order.
    pub fn mappings(&self) -> impl Iterator<Item = (PageNum, FrameNum)> + '_ {
        self.page_table.iter()
    }
}

/// The process page table: page → frame as a flat vector indexed by
/// page number, with a hash-map spill for pages beyond the dense range.
/// Address spaces here start near page zero and stay compact, so in
/// practice every lookup is one bounds-checked array load instead of a
/// SipHash probe — [`AddressSpace::translate`]/[`AddressSpace::frame_of`]
/// sit on the simulator's per-access hot path.
#[derive(Debug, Clone, Default)]
struct PageTable {
    /// Frame index per page; [`PageTable::UNMAPPED`] marks absent slots.
    dense: Vec<u64>,
    spill: HashMap<PageNum, FrameNum>,
    len: u64,
}

impl PageTable {
    /// Pages covered by the dense array (2^22 pages = 16 GiB of 4 kB
    /// page address space — beyond any catalog footprint).
    const DENSE_CAP: u64 = 1 << 22;
    /// Sentinel for an unmapped dense slot; frame numbers are bounded by
    /// zone capacities and cannot reach it.
    const UNMAPPED: u64 = u64::MAX;

    fn new() -> Self {
        PageTable::default()
    }

    #[inline]
    fn get(&self, page: PageNum) -> Option<FrameNum> {
        let idx = page.index();
        if idx < Self::DENSE_CAP {
            match self.dense.get(idx as usize) {
                Some(&f) if f != Self::UNMAPPED => Some(FrameNum::new(f)),
                _ => None,
            }
        } else {
            self.spill.get(&page).copied()
        }
    }

    /// Maps `page` to `frame`, replacing any existing mapping.
    fn insert(&mut self, page: PageNum, frame: FrameNum) {
        debug_assert_ne!(frame.index(), Self::UNMAPPED);
        let idx = page.index();
        if idx < Self::DENSE_CAP {
            let i = idx as usize;
            if i >= self.dense.len() {
                self.dense
                    .resize((i + 1).next_power_of_two(), Self::UNMAPPED);
            }
            if self.dense[i] == Self::UNMAPPED {
                self.len += 1;
            }
            self.dense[i] = frame.index();
        } else if self.spill.insert(page, frame).is_none() {
            self.len += 1;
        }
    }

    /// Number of mapped pages.
    fn len(&self) -> u64 {
        self.len
    }

    /// All mappings: dense range in page order, then spill entries.
    fn iter(&self) -> impl Iterator<Item = (PageNum, FrameNum)> + '_ {
        self.dense
            .iter()
            .enumerate()
            .filter(|(_, &f)| f != Self::UNMAPPED)
            .map(|(i, &f)| (PageNum::new(i as u64), FrameNum::new(f)))
            .chain(self.spill.iter().map(|(&p, &f)| (p, f)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmtypes::Percent;

    fn mm(bo_pages: u64, co_pages: u64) -> AddressSpace {
        AddressSpace::new(NumaTopology::paper_baseline(bo_pages, co_pages))
    }

    #[test]
    fn mmap_reserves_but_does_not_allocate() {
        let mut mm = mm(16, 16);
        let r = mm.mmap(3 * PAGE_SIZE as u64).unwrap();
        assert_eq!(r.num_pages(), 3);
        assert_eq!(mm.mapped_pages(), 0);
        assert!(mm.translate(r.start).is_none());
    }

    #[test]
    fn mmap_rounds_len_up_to_pages() {
        let mut mm = mm(16, 16);
        let r = mm.mmap(1).unwrap();
        assert_eq!(r.num_pages(), 1);
        let r2 = mm.mmap(PAGE_SIZE as u64 + 1).unwrap();
        assert_eq!(r2.num_pages(), 2);
    }

    #[test]
    fn vmas_do_not_overlap() {
        let mut mm = mm(16, 16);
        let a = mm.mmap(PAGE_SIZE as u64 * 2).unwrap();
        let b = mm.mmap(PAGE_SIZE as u64 * 2).unwrap();
        assert!(a.end().raw() <= b.start.raw());
    }

    #[test]
    fn first_touch_local_goes_to_bo() {
        let mut mm = mm(16, 16);
        let r = mm.mmap(PAGE_SIZE as u64).unwrap();
        mm.ensure_mapped(r.start.page()).unwrap();
        assert_eq!(mm.zone_of_page(r.start.page()), Some(ZoneId::new(0)));
    }

    #[test]
    fn local_spills_to_co_when_bo_full() {
        let mut mm = mm(2, 16);
        let r = mm.mmap(4 * PAGE_SIZE as u64).unwrap();
        mm.populate(r).unwrap();
        let hist = mm.placement_histogram();
        assert_eq!(hist, vec![2, 2]);
    }

    #[test]
    fn fault_twice_returns_same_frame() {
        let mut mm = mm(16, 16);
        let r = mm.mmap(PAGE_SIZE as u64).unwrap();
        let f1 = mm.ensure_mapped(r.start.page()).unwrap();
        let f2 = mm.ensure_mapped(r.start.page()).unwrap();
        assert_eq!(f1, f2);
        assert_eq!(mm.mapped_pages(), 1);
    }

    #[test]
    fn untouched_address_faults() {
        let mut mm = mm(16, 16);
        assert!(matches!(
            mm.ensure_mapped(PageNum::new(1_000)),
            Err(MemError::UnmappedAddress { .. })
        ));
    }

    #[test]
    fn interleave_places_round_robin() {
        let mut mm = mm(16, 16);
        let topo = mm.topology().clone();
        mm.set_mempolicy(Mempolicy::interleave_all(&topo));
        let r = mm.mmap(8 * PAGE_SIZE as u64).unwrap();
        mm.populate(r).unwrap();
        assert_eq!(mm.placement_histogram(), vec![4, 4]);
    }

    #[test]
    fn bw_aware_places_roughly_30_70() {
        let mut mm = mm(4096, 4096);
        mm.set_mempolicy(Mempolicy::ratio_co(Percent::new(30)));
        let r = mm.mmap(2048 * PAGE_SIZE as u64).unwrap();
        mm.populate(r).unwrap();
        let hist = mm.placement_histogram();
        let co_frac = hist[1] as f64 / 2048.0;
        assert!((co_frac - 0.30).abs() < 0.05, "got {co_frac}");
    }

    #[test]
    fn mbind_overrides_task_policy() {
        let mut mm = mm(16, 16);
        let topo = mm.topology().clone();
        let r = mm.mmap(4 * PAGE_SIZE as u64).unwrap();
        mm.mbind(
            r,
            Mempolicy::bind(vec![topo
                .zone_of_kind(hmtypes::MemKind::CapacityOptimized)
                .unwrap()])
            .unwrap(),
        )
        .unwrap();
        mm.populate(r).unwrap();
        assert_eq!(mm.placement_histogram(), vec![0, 4]);
    }

    #[test]
    fn mbind_splits_vma() {
        let mut mm = mm(16, 16);
        let r = mm.mmap(6 * PAGE_SIZE as u64).unwrap();
        let middle = VmaRange::new(r.start.offset(2 * PAGE_SIZE as u64), 2 * PAGE_SIZE as u64);
        mm.mbind(middle, Mempolicy::preferred(ZoneId::new(1)))
            .unwrap();
        assert_eq!(mm.vmas().len(), 3);
        let bound = mm.vma_at(middle.start).unwrap();
        assert!(bound.policy.is_some());
        assert_eq!(bound.range, middle);
        // Outer pieces keep no policy.
        assert!(mm.vma_at(r.start).unwrap().policy.is_none());
        assert!(mm
            .vma_at(r.start.offset(5 * PAGE_SIZE as u64))
            .unwrap()
            .policy
            .is_none());
    }

    #[test]
    fn mbind_outside_mapping_fails() {
        let mut mm = mm(16, 16);
        let bogus = VmaRange::new(VirtAddr::new(0), PAGE_SIZE as u64);
        assert!(matches!(
            mm.mbind(bogus, Mempolicy::local()),
            Err(MemError::BadRange { .. })
        ));
    }

    #[test]
    fn bind_without_capacity_errors_instead_of_spilling() {
        let mut mm = mm(2, 16);
        let topo = mm.topology().clone();
        mm.set_mempolicy(Mempolicy::bind(vec![topo.local_zone()]).unwrap());
        let r = mm.mmap(4 * PAGE_SIZE as u64).unwrap();
        let result = mm.populate(r);
        assert!(matches!(result, Err(MemError::BindExhausted { .. })));
        assert_eq!(mm.mapped_pages(), 2);
    }

    #[test]
    fn ensure_mapped_in_places_exactly() {
        let mut mm = mm(16, 16);
        let r = mm.mmap(2 * PAGE_SIZE as u64).unwrap();
        let co = ZoneId::new(1);
        mm.ensure_mapped_in(r.start.page(), &[co]).unwrap();
        assert_eq!(mm.zone_of_page(r.start.page()), Some(co));
    }

    #[test]
    fn migrate_moves_page_between_zones() {
        let mut mm = mm(16, 16);
        let r = mm.mmap(PAGE_SIZE as u64).unwrap();
        let page = r.start.page();
        mm.ensure_mapped(page).unwrap();
        assert_eq!(mm.zone_of_page(page), Some(ZoneId::new(0)));
        let old = mm.frame_of(page).unwrap();

        let new = mm.migrate_page(page, ZoneId::new(1)).unwrap();
        assert_ne!(old, new);
        assert_eq!(mm.zone_of_page(page), Some(ZoneId::new(1)));
        // The old frame is reusable.
        assert_eq!(mm.zone_stats(ZoneId::new(0)).unwrap().allocated, 0);
        // Migrating to the current zone is a no-op.
        assert_eq!(mm.migrate_page(page, ZoneId::new(1)).unwrap(), new);
    }

    #[test]
    fn migrate_unmapped_or_full_fails() {
        let mut mm = mm(16, 1);
        let r = mm.mmap(2 * PAGE_SIZE as u64).unwrap();
        assert!(matches!(
            mm.migrate_page(r.start.page(), ZoneId::new(1)),
            Err(MemError::UnmappedAddress { .. })
        ));
        mm.populate(r).unwrap();
        // CO zone holds 1 page; migrating two must exhaust it.
        let a = mm.migrate_page(r.start.page(), ZoneId::new(1));
        let b = mm.migrate_page(r.start.page().next(), ZoneId::new(1));
        assert!(a.is_ok());
        assert!(matches!(b, Err(MemError::BindExhausted { .. })));
    }

    #[test]
    fn placement_log_records_faults_fallbacks_and_migrations() {
        let mut mm = mm(2, 16);
        mm.enable_placement_log();
        let r = mm.mmap(3 * PAGE_SIZE as u64).unwrap();
        mm.populate(r).unwrap();
        // BO holds 2 pages; the third fault falls back to CO.
        let events = mm.take_placement_log();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].seq, 0);
        assert_eq!(
            events[0].kind,
            PlacementEventKind::Fault { fallback_depth: 0 }
        );
        assert_eq!(events[2].zone, ZoneId::new(1));
        assert_eq!(
            events[2].kind,
            PlacementEventKind::Fault { fallback_depth: 1 }
        );

        // take() left logging on with an empty log; a migration shows up.
        mm.migrate_page(r.start.page(), ZoneId::new(1)).unwrap();
        let events = mm.take_placement_log();
        assert_eq!(events.len(), 1);
        assert_eq!(
            events[0].kind,
            PlacementEventKind::Migrate {
                from: ZoneId::new(0)
            }
        );
        assert_eq!(events[0].zone, ZoneId::new(1));
    }

    #[test]
    fn placement_log_off_by_default() {
        let mut mm = mm(4, 4);
        let r = mm.mmap(PAGE_SIZE as u64).unwrap();
        mm.populate(r).unwrap();
        assert!(mm.take_placement_log().is_empty());
    }

    #[test]
    fn explicit_placement_is_logged_as_such() {
        let mut mm = mm(4, 4);
        mm.enable_placement_log();
        let r = mm.mmap(PAGE_SIZE as u64).unwrap();
        mm.ensure_mapped_in(r.start.page(), &[ZoneId::new(1)])
            .unwrap();
        let events = mm.take_placement_log();
        assert_eq!(events.len(), 1);
        assert_eq!(
            events[0].kind,
            PlacementEventKind::Explicit { fallback_depth: 0 }
        );
    }

    #[test]
    fn translate_preserves_offset() {
        let mut mm = mm(16, 16);
        let r = mm.mmap(PAGE_SIZE as u64).unwrap();
        mm.populate(r).unwrap();
        let va = r.start.offset(123);
        let pa = mm.translate(va).unwrap();
        assert_eq!(pa.page_offset(), 123);
    }

    #[test]
    fn named_vma_keeps_name_through_split() {
        let mut mm = mm(16, 16);
        let r = mm.mmap_named(4 * PAGE_SIZE as u64, "d_cost").unwrap();
        let tail = VmaRange::new(r.start.offset(2 * PAGE_SIZE as u64), 2 * PAGE_SIZE as u64);
        mm.mbind(tail, Mempolicy::local()).unwrap();
        for vma in mm.vmas() {
            assert_eq!(vma.name.as_deref(), Some("d_cost"));
        }
    }
}
