//! The GPU runtime: `cudaMalloc` with placement hints (paper §5.2).
//!
//! [`HmRuntime`] models the CUDA allocator the paper extends: allocations
//! carry an optional machine-abstract [`MemHint`] (BO / CO / BW-AWARE),
//! which the runtime translates to zone bindings through `mbind`, using
//! the SBIT to discover which zones are bandwidth- or capacity-optimized.
//! Hints are best-effort: a full pool falls back to the other, exactly
//! as the paper specifies ("memory hints are honored unless the memory
//! pool is filled to capacity").

use std::cell::RefCell;
use std::rc::Rc;

use hmtypes::MemKind;
use mempolicy::{AddressSpace, MemError, Mempolicy, NumaTopology, VmaRange};
use profiler::{AllocRange, MemHint};

/// One allocation the runtime performed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Allocation {
    /// The data-structure name given at allocation.
    pub name: String,
    /// The reserved virtual range.
    pub range: VmaRange,
    /// The hint it was allocated under, if any.
    pub hint: Option<MemHint>,
}

/// The `cudaMalloc`-with-hints runtime over the OS memory model.
///
/// # Examples
///
/// ```
/// use hetmem::{topology_for, HmRuntime};
/// use gpusim::SimConfig;
/// use profiler::MemHint;
///
/// let topo = topology_for(&SimConfig::paper_baseline(), &[256, 1024]);
/// let mut rt = HmRuntime::new(topo);
/// let d_graph = rt.malloc_with_hint("d_graph", 64 * 4096, MemHint::BO)?;
/// let d_cost = rt.malloc("d_cost", 16 * 4096)?; // falls back to task policy
/// assert!(d_graph.start < d_cost.start);
/// # Ok::<(), mempolicy::MemError>(())
/// ```
#[derive(Debug)]
pub struct HmRuntime {
    mm: Rc<RefCell<AddressSpace>>,
    allocations: Vec<Allocation>,
}

impl HmRuntime {
    /// Creates a runtime over a fresh address space; the default task
    /// policy is BW-AWARE derived from the topology's SBIT (the paper's
    /// proposed GPU default, §3.2.2).
    pub fn new(topo: NumaTopology) -> Self {
        let mut mm = AddressSpace::new(topo.clone());
        mm.set_mempolicy(Mempolicy::bw_aware_for(&topo));
        HmRuntime {
            mm: Rc::new(RefCell::new(mm)),
            allocations: Vec::new(),
        }
    }

    /// Replaces the task-wide policy used by unhinted allocations.
    pub fn set_policy(&mut self, policy: Mempolicy) {
        self.mm.borrow_mut().set_mempolicy(policy);
    }

    /// Allocates `bytes` with no hint: pages fault in under the task
    /// policy.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::BadRange`] for a zero-size allocation.
    pub fn malloc(&mut self, name: &str, bytes: u64) -> Result<VmaRange, MemError> {
        self.reserve(name, bytes, None)
    }

    /// Allocates `bytes` with a placement hint (the paper's extended
    /// `cudaMalloc(devPtr, size, hint)`). Hints are best-effort: a full
    /// preferred pool falls back to the other.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::BadRange`] for a zero-size allocation.
    pub fn malloc_with_hint(
        &mut self,
        name: &str,
        bytes: u64,
        hint: MemHint,
    ) -> Result<VmaRange, MemError> {
        self.reserve(name, bytes, Some(hint))
    }

    /// Reserves and names the range, binds it per `hint`, and records
    /// the allocation.
    fn reserve(
        &mut self,
        name: &str,
        bytes: u64,
        hint: Option<MemHint>,
    ) -> Result<VmaRange, MemError> {
        let mut mm = self.mm.borrow_mut();
        let range = mm.mmap_named(bytes, name)?;
        if let Some(hint) = hint {
            let policy = Self::policy_for_hint(hint, mm.topology());
            mm.mbind(range, policy)?;
        }
        drop(mm);
        self.allocations.push(Allocation {
            name: name.to_string(),
            range,
            hint,
        });
        Ok(range)
    }

    /// The `mbind` policy implementing a hint on this machine: abstract
    /// BO/CO hints resolve to concrete zones via the topology (the
    /// runtime's job per §5.2 — programs never name zones).
    fn policy_for_hint(hint: MemHint, topo: &NumaTopology) -> Mempolicy {
        match hint {
            MemHint::Preferred(kind) => match topo.zone_of_kind(kind) {
                Some(zone) => Mempolicy::preferred(zone),
                // Machine without that kind: hint degrades to BW-AWARE.
                None => Mempolicy::bw_aware_for(topo),
            },
            MemHint::BwAware => Mempolicy::bw_aware_for(topo),
        }
    }

    /// The shared address space (for wiring into the simulator).
    pub fn address_space(&self) -> Rc<RefCell<AddressSpace>> {
        Rc::clone(&self.mm)
    }

    /// Allocations in program order.
    pub fn allocations(&self) -> &[Allocation] {
        &self.allocations
    }

    /// The allocation registry as profiler ranges (the `cudaMalloc`
    /// call-site map of §5.1).
    pub fn alloc_ranges(&self) -> Vec<AllocRange> {
        self.allocations
            .iter()
            .map(|a| AllocRange::new(a.name.clone(), a.range.start, a.range.end()))
            .collect()
    }

    /// Count of mapped pages per zone (placement distribution so far).
    pub fn placement_histogram(&self) -> Vec<u64> {
        self.mm.borrow().placement_histogram()
    }
}

/// Convenience: does this machine's topology even have both pools?
pub fn is_heterogeneous(topo: &NumaTopology) -> bool {
    topo.zone_of_kind(MemKind::BandwidthOptimized).is_some()
        && topo.zone_of_kind(MemKind::CapacityOptimized).is_some()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::translate::topology_for;
    use gpusim::SimConfig;
    use hmtypes::PAGE_SIZE;

    fn runtime(bo_pages: u64, co_pages: u64) -> HmRuntime {
        HmRuntime::new(topology_for(
            &SimConfig::paper_baseline(),
            &[bo_pages, co_pages],
        ))
    }

    #[test]
    fn bo_hint_places_in_bo() {
        let mut rt = runtime(64, 64);
        let r = rt
            .malloc_with_hint("a", 8 * PAGE_SIZE as u64, MemHint::BO)
            .unwrap();
        rt.address_space().borrow_mut().populate(r).unwrap();
        assert_eq!(rt.placement_histogram(), vec![8, 0]);
    }

    #[test]
    fn co_hint_places_in_co() {
        let mut rt = runtime(64, 64);
        let r = rt
            .malloc_with_hint("a", 8 * PAGE_SIZE as u64, MemHint::CO)
            .unwrap();
        rt.address_space().borrow_mut().populate(r).unwrap();
        assert_eq!(rt.placement_histogram(), vec![0, 8]);
    }

    #[test]
    fn full_bo_hint_falls_back_to_co() {
        let mut rt = runtime(4, 64);
        let r = rt
            .malloc_with_hint("a", 8 * PAGE_SIZE as u64, MemHint::BO)
            .unwrap();
        rt.address_space().borrow_mut().populate(r).unwrap();
        assert_eq!(rt.placement_histogram(), vec![4, 4]);
    }

    #[test]
    fn unhinted_allocation_uses_bw_aware_default() {
        let mut rt = runtime(4096, 4096);
        let r = rt.malloc("a", 2000 * PAGE_SIZE as u64).unwrap();
        rt.address_space().borrow_mut().populate(r).unwrap();
        let hist = rt.placement_histogram();
        let bo_frac = hist[0] as f64 / 2000.0;
        assert!((bo_frac - 5.0 / 7.0).abs() < 0.05, "got {bo_frac}");
    }

    #[test]
    fn bw_hint_matches_bw_aware() {
        let mut rt = runtime(4096, 4096);
        let r = rt
            .malloc_with_hint("a", 2000 * PAGE_SIZE as u64, MemHint::BwAware)
            .unwrap();
        rt.address_space().borrow_mut().populate(r).unwrap();
        let hist = rt.placement_histogram();
        let bo_frac = hist[0] as f64 / 2000.0;
        assert!((bo_frac - 5.0 / 7.0).abs() < 0.05, "got {bo_frac}");
    }

    #[test]
    fn registry_tracks_allocations_in_order() {
        let mut rt = runtime(64, 64);
        rt.malloc_with_hint("first", PAGE_SIZE as u64, MemHint::BO)
            .unwrap();
        rt.malloc("second", PAGE_SIZE as u64).unwrap();
        let ranges = rt.alloc_ranges();
        assert_eq!(ranges.len(), 2);
        assert_eq!(ranges[0].name, "first");
        assert_eq!(ranges[1].name, "second");
        assert!(ranges[0].end.raw() <= ranges[1].start.raw());
        assert_eq!(rt.allocations()[0].hint, Some(MemHint::BO));
        assert_eq!(rt.allocations()[1].hint, None);
    }

    #[test]
    fn heterogeneity_check() {
        let topo = topology_for(&SimConfig::paper_baseline(), &[1, 1]);
        assert!(is_heterogeneous(&topo));
    }
}
