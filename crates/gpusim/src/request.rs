//! Requests, warp operations, and the traits the simulator is generic
//! over: where addresses live ([`AddressTranslator`]) and what the warps
//! execute ([`WarpProgram`]).

use hmtypes::{AccessKind, PhysAddr, VirtAddr};

/// One instruction as seen by a warp context.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WarpOp {
    /// Execute for the given number of SM cycles without touching memory
    /// (models arithmetic between loads, already divided by issue width).
    Compute(u32),
    /// A coalesced 128 B memory access by the whole warp.
    Mem {
        /// Virtual address accessed (the line containing it is fetched).
        addr: VirtAddr,
        /// Load or store.
        kind: AccessKind,
    },
}

/// Identifies a warp globally: `sm * warps_per_sm + slot`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct WarpId(pub u32);

impl WarpId {
    /// The global warp index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Where a virtual address resolved to: physical address plus the memory
/// pool that owns it.
///
/// Produced by an [`AddressTranslator`]; the pool index refers to
/// [`SimConfig::pools`](crate::SimConfig::pools).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    /// The translated physical address.
    pub phys: PhysAddr,
    /// Index of the owning memory pool.
    pub pool: usize,
    /// `true` when this translation faulted the page in (first touch),
    /// i.e. a placement decision was made right now. Observers use this
    /// to time-stamp placement events; static translators report `false`.
    pub faulted: bool,
}

impl Placement {
    /// A placement of an already-mapped page (no fault).
    pub fn mapped(phys: PhysAddr, pool: usize) -> Self {
        Placement {
            phys,
            pool,
            faulted: false,
        }
    }
}

/// Resolves virtual addresses to physical placements, allocating backing
/// frames on first touch (the OS fault path).
///
/// Implemented over `mempolicy::AddressSpace` by the `hetmem` crate;
/// the simulator itself only needs this narrow interface.
pub trait AddressTranslator {
    /// Translates `addr`, faulting in the page if needed.
    ///
    /// Translation failures (out of physical memory) must be resolved by
    /// the translator (e.g. by falling back to any zone with space) or
    /// surfaced by panicking — the GPU has no demand paging to disk.
    fn translate(&mut self, addr: VirtAddr) -> Placement;
}

/// Supplies each warp's instruction stream.
///
/// The simulator calls [`WarpProgram::next_op`] each time a warp is ready
/// for its next instruction; `None` retires the warp.
pub trait WarpProgram {
    /// Number of warps per SM this program wants (clamped to the config's
    /// hardware maximum).
    fn warps_per_sm(&self) -> u32;

    /// The next operation for `warp`, or `None` when the warp is done.
    fn next_op(&mut self, warp: WarpId) -> Option<WarpOp>;

    /// How many outstanding memory operations one warp may have before it
    /// stalls (memory-level parallelism). Defaults to 2.
    fn mem_level_parallelism(&self) -> u32 {
        2
    }

    /// Consumes up to `n` operations for `warp` without materializing
    /// them, returning `(ops, mem_ops)` actually consumed; fewer than
    /// `n` means the warp retired mid-skip.
    ///
    /// The default loops [`WarpProgram::next_op`] and discards the
    /// results. Implementations may shortcut expensive work (address
    /// math, distribution lookups) but MUST leave all generator state
    /// — RNG streams, cursors, quotas — bit-identical to `n` real
    /// `next_op` calls: the sampled fast-forward engine's byte-identity
    /// guarantee for detail windows rests on this.
    fn skip_ops(&mut self, warp: WarpId, n: u64) -> (u64, u64) {
        let mut ops = 0;
        let mut mem = 0;
        while ops < n {
            match self.next_op(warp) {
                Some(WarpOp::Mem { .. }) => {
                    ops += 1;
                    mem += 1;
                }
                Some(_) => ops += 1,
                None => break,
            }
        }
        (ops, mem)
    }
}

impl<P: WarpProgram> WarpProgram for &mut P {
    fn warps_per_sm(&self) -> u32 {
        (**self).warps_per_sm()
    }

    fn next_op(&mut self, warp: WarpId) -> Option<WarpOp> {
        (**self).next_op(warp)
    }

    fn mem_level_parallelism(&self) -> u32 {
        (**self).mem_level_parallelism()
    }

    fn skip_ops(&mut self, warp: WarpId, n: u64) -> (u64, u64) {
        (**self).skip_ops(warp, n)
    }
}

/// A translator that maps virtual addresses 1:1 to physical addresses in
/// a single pool — handy for tests and micro-benchmarks.
#[derive(Debug, Clone, Default)]
pub struct FixedPoolTranslator {
    /// The pool every address is placed in.
    pub pool: usize,
}

impl FixedPoolTranslator {
    /// Creates a translator placing everything in `pool`.
    pub fn new(pool: usize) -> Self {
        FixedPoolTranslator { pool }
    }
}

impl AddressTranslator for FixedPoolTranslator {
    fn translate(&mut self, addr: VirtAddr) -> Placement {
        Placement::mapped(PhysAddr::new(addr.raw()), self.pool)
    }
}

/// A translator that statically splits pages across two pools by page
/// index modulo 100: pages with `index % 100 < co_pct` go to pool 1.
/// Useful for testing placement-ratio effects without the OS stack.
#[derive(Debug, Clone)]
pub struct RatioTranslator {
    /// Percentage of pages placed in pool 1.
    pub co_pct: u8,
}

impl AddressTranslator for RatioTranslator {
    fn translate(&mut self, addr: VirtAddr) -> Placement {
        let pool = usize::from(addr.page().index() % 100 < u64::from(self.co_pct));
        Placement::mapped(PhysAddr::new(addr.raw()), pool)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmtypes::PAGE_SIZE;

    #[test]
    fn fixed_pool_translator_is_identity() {
        let mut t = FixedPoolTranslator::new(1);
        let p = t.translate(VirtAddr::new(0x1234));
        assert_eq!(p.phys.raw(), 0x1234);
        assert_eq!(p.pool, 1);
    }

    #[test]
    fn ratio_translator_splits_by_page() {
        let mut t = RatioTranslator { co_pct: 30 };
        let co_pages = (0..1000u64)
            .filter(|&i| t.translate(VirtAddr::new(i * PAGE_SIZE as u64)).pool == 1)
            .count();
        assert_eq!(co_pages, 300);
    }

    #[test]
    fn warp_id_index() {
        assert_eq!(WarpId(7).index(), 7);
    }
}
