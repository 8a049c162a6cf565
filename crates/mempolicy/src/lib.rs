//! # mempolicy — a userspace model of Linux NUMA page placement
//!
//! This crate reproduces, in library form, the slice of the Linux memory
//! manager that *Page Placement Strategies for GPUs within Heterogeneous
//! Memory Systems* (ASPLOS 2015) modifies: NUMA zones, first-touch page
//! allocation, per-task and per-VMA memory policies, and the ACPI tables
//! the OS learns its topology from.
//!
//! It provides:
//!
//! * [`NumaTopology`] — zones ([`ZoneSpec`]) with capacity, [`MemKind`],
//!   bandwidth and latency attributes. The zone list is both the ACPI
//!   SLIT (latency, hence the zonelist fallback order) and the paper's
//!   proposed **SBIT** (System Bandwidth Information Table, §3.1, hence
//!   the BW-AWARE placement weights).
//! * [`FrameAllocator`] — per-zone physical frame allocation with
//!   zonelist fallback; its per-zone allocated counts are the placement
//!   histogram.
//! * [`Mempolicy`] — `LOCAL`, `INTERLEAVE`, `BIND`, `PREFERRED`, and the
//!   paper's new `MPOL_BWAWARE` mode that places pages in the ratio of
//!   zone bandwidths.
//! * [`AddressSpace`] — an `mm_struct` analog: `mmap`-style VMA creation,
//!   `set_mempolicy`/`mbind` analogs, first-touch fault handling, and
//!   virtual→physical translation for the simulator.
//!
//! # Examples
//!
//! ```
//! use hmtypes::{MemKind, VirtAddr};
//! use mempolicy::{AddressSpace, Mempolicy, NumaTopology};
//!
//! // The paper's baseline: 200 GB/s GPU-local BO + 80 GB/s remote CO.
//! let topo = NumaTopology::paper_baseline(1 << 16, 1 << 18);
//! let mut mm = AddressSpace::new(topo);
//! mm.set_mempolicy(Mempolicy::bw_aware_for(mm.topology()));
//!
//! let vma = mm.mmap(1 << 20)?; // 1 MiB of anonymous memory
//! let pa = mm.ensure_mapped(vma.start.page())?; // first touch allocates
//! assert!(mm.translate(vma.start).is_some());
//! # Ok::<(), mempolicy::MemError>(())
//! ```

pub mod error;
pub mod mm;
pub mod policy;
pub mod topology;
pub mod zone;

pub use error::MemError;
pub use mm::{AddressSpace, PlacementEvent, PlacementEventKind, Vma, VmaId, VmaRange};
pub use policy::{Mempolicy, MigrateSpec, PolicyMode};
pub use topology::{NumaTopology, TopologyBuilder, ZoneId, ZoneSpec};
pub use zone::FrameAllocator;

// Re-exported so downstream crates can use the vocabulary without adding
// an explicit hmtypes dependency edge in simple cases.
pub use hmtypes::{FrameNum, MemKind, PageNum, PhysAddr, VirtAddr};
