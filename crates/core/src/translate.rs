//! Bridging the OS model to the simulator.
//!
//! [`OsTranslator`] implements the simulator's
//! [`gpusim::AddressTranslator`] on top of a
//! [`mempolicy::AddressSpace`]: every first touch of a page runs the OS
//! fault path (policy → zonelist → frame allocation), and the resulting
//! zone index doubles as the simulator's memory-pool index.

use std::cell::RefCell;
use std::rc::Rc;

use gpusim::{AddressTranslator, Placement, SimConfig};
use hmtypes::VirtAddr;
use mempolicy::{AddressSpace, NumaTopology, ZoneSpec};

/// Builds the NUMA topology matching a simulator config: one zone per
/// pool, in pool order, with the given per-zone page capacities.
///
/// Keeping this derivation in one place guarantees the OS zone index and
/// the simulator pool index always agree.
///
/// # Panics
///
/// Panics if `capacities_pages` does not provide one entry per pool.
///
/// # Examples
///
/// ```
/// use gpusim::SimConfig;
/// use hetmem::topology_for;
///
/// let topo = topology_for(&SimConfig::paper_baseline(), &[1024, 4096]);
/// assert_eq!(topo.num_zones(), 2);
/// assert!((topo.bw_ratio() - 2.5).abs() < 1e-12);
/// ```
pub fn topology_for(sim: &SimConfig, capacities_pages: &[u64]) -> NumaTopology {
    assert_eq!(
        capacities_pages.len(),
        sim.pools.len(),
        "one capacity per memory pool"
    );
    let mut b = NumaTopology::builder();
    for (pool, &pages) in sim.pools.iter().zip(capacities_pages) {
        b = b.zone(ZoneSpec::new(
            pool.name.clone(),
            pool.kind,
            pages,
            pool.bandwidth,
            pool.extra_latency,
        ));
    }
    b.build()
}

/// An [`AddressTranslator`] that faults pages in through the OS model.
///
/// The address space is shared (`Rc<RefCell<_>>`) so experiment drivers
/// can inspect placement after — or set placement before — a simulation
/// run that consumed the translator.
#[derive(Debug, Clone)]
pub struct OsTranslator {
    mm: Rc<RefCell<AddressSpace>>,
}

impl OsTranslator {
    /// Wraps a shared address space.
    pub fn new(mm: Rc<RefCell<AddressSpace>>) -> Self {
        OsTranslator { mm }
    }

    /// The shared address space handle.
    pub fn address_space(&self) -> Rc<RefCell<AddressSpace>> {
        Rc::clone(&self.mm)
    }
}

impl AddressTranslator for OsTranslator {
    fn translate(&mut self, addr: VirtAddr) -> Placement {
        let mut mm = self.mm.borrow_mut();
        let page = addr.page();
        // One page-table lookup on the (common) mapped path.
        let (frame, faulted) = match mm.frame_of(page) {
            Some(frame) => (frame, false),
            None => {
                let frame = mm
                    .ensure_mapped(page)
                    .unwrap_or_else(|e| panic!("GPU fault on {addr} failed: {e}"));
                (frame, true)
            }
        };
        let zone = mm
            .allocator()
            .zone_of(frame)
            .expect("allocated frame belongs to a zone");
        Placement {
            phys: frame.base().offset(addr.page_offset()),
            pool: zone.index(),
            faulted,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpusim::SimConfig;
    use hmtypes::PAGE_SIZE;
    use mempolicy::Mempolicy;

    #[test]
    fn topology_mirrors_pools() {
        let sim = SimConfig::paper_baseline();
        let topo = topology_for(&sim, &[100, 200]);
        for (zone, pool) in topo.zones().iter().zip(&sim.pools) {
            assert_eq!(zone.name, pool.name);
            assert_eq!(zone.kind, pool.kind);
            assert_eq!(zone.bandwidth, pool.bandwidth);
            assert_eq!(zone.extra_latency_cycles, pool.extra_latency);
        }
        assert_eq!(
            topo.zone(mempolicy::ZoneId::new(0)).unwrap().capacity_pages,
            100
        );
    }

    #[test]
    #[should_panic(expected = "one capacity per memory pool")]
    fn capacity_arity_checked() {
        let _ = topology_for(&SimConfig::paper_baseline(), &[1]);
    }

    #[test]
    fn translator_faults_pages_under_policy() {
        let sim = SimConfig::paper_baseline();
        let topo = topology_for(&sim, &[64, 64]);
        let mut mm = AddressSpace::new(topo.clone());
        mm.set_mempolicy(Mempolicy::interleave_all(&topo));
        let range = mm.mmap(4 * PAGE_SIZE as u64).unwrap();
        let mm = Rc::new(RefCell::new(mm));
        let mut tr = OsTranslator::new(Rc::clone(&mm));

        let p0 = tr.translate(range.start);
        let p1 = tr.translate(range.start.offset(PAGE_SIZE as u64));
        assert_ne!(p0.pool, p1.pool, "interleave alternates pools");
        assert!(p0.faulted && p1.faulted, "first touches fault");
        // Same page again: same placement, no fault.
        let p0b = tr.translate(range.start.offset(64));
        assert_eq!(p0b.pool, p0.pool);
        assert!(!p0b.faulted);
        assert_eq!(p0b.phys.page_offset(), 64);
        assert_eq!(mm.borrow().mapped_pages(), 2);
    }

    #[test]
    #[should_panic(expected = "GPU fault")]
    fn unmapped_access_panics() {
        let sim = SimConfig::paper_baseline();
        let topo = topology_for(&sim, &[4, 4]);
        let mm = Rc::new(RefCell::new(AddressSpace::new(topo)));
        let mut tr = OsTranslator::new(mm);
        let _ = tr.translate(VirtAddr::new(0));
    }
}
