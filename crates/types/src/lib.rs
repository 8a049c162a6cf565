//! # hmtypes — shared vocabulary for the `hetmem` workspace
//!
//! This crate defines the small, dependency-free types that every other
//! crate in the reproduction of *Page Placement Strategies for GPUs within
//! Heterogeneous Memory Systems* (ASPLOS 2015) speaks:
//!
//! * strongly-typed [virtual](VirtAddr) and [physical](PhysAddr) addresses
//!   and their [page](PageNum)/[frame](FrameNum) counterparts,
//! * [`Bandwidth`] and byte-size units,
//! * the two memory pool kinds of the paper ([`MemKind::BandwidthOptimized`]
//!   and [`MemKind::CapacityOptimized`]),
//! * memory [`AccessKind`]s,
//! * [`PageMap`], the one per-page table (page table, access counts,
//!   oracle set, migrator state), and
//! * a tiny deterministic RNG ([`SplitMix64`]) used on allocation fast paths
//!   where pulling in a full RNG crate would be disproportionate.
//!
//! # Examples
//!
//! ```
//! use hmtypes::{VirtAddr, PAGE_SIZE, MemKind, Bandwidth};
//!
//! let va = VirtAddr::new(3 * PAGE_SIZE as u64 + 17);
//! assert_eq!(va.page().index(), 3);
//! assert_eq!(va.page_offset(), 17);
//!
//! let bo = Bandwidth::from_gbps(200.0);
//! let co = Bandwidth::from_gbps(80.0);
//! assert!((bo.fraction_of_total(co) - 200.0 / 280.0).abs() < 1e-12);
//! assert_eq!(MemKind::BandwidthOptimized.short_name(), "BO");
//! ```

pub mod addr;
pub mod pagemap;
pub mod rng;
pub mod units;

pub use addr::{FrameNum, PageNum, PhysAddr, VirtAddr, LINE_SIZE, PAGE_SIZE};
pub use pagemap::{PageMap, DENSE_PAGE_CAP};
pub use rng::SplitMix64;
pub use units::{AccessKind, Bandwidth, MemKind, Percent, GB, KB, MB};
