//! # hetmem — page placement for GPUs on heterogeneous memory
//!
//! The core crate of the reproduction of *Page Placement Strategies for
//! GPUs within Heterogeneous Memory Systems* (ASPLOS 2015). It wires the
//! OS memory-policy model (`mempolicy`), the GPU memory-system simulator
//! (`gpusim`), the benchmark models (`workloads`), and the profiler
//! (`profiler`) into the paper's three placement systems:
//!
//! 1. **BW-AWARE placement** — `MPOL_BWAWARE` weighted by the SBIT
//!    (§3): see [`mempolicy::Mempolicy::bw_aware_for`] and the
//!    [`runner`] strategies.
//! 2. **Oracle placement** — two-phase perfect-knowledge page ranking
//!    (§4.2): [`runner::Placement::Oracle`].
//! 3. **Annotation-hinted placement** — profile → `GetAllocation` →
//!    hinted `cudaMalloc` (§5): [`HmRuntime::malloc_with_hint`] and
//!    [`runner::hints_from_profile`].
//!
//! The [`experiments`] module regenerates every table and figure of the
//! paper's evaluation; `cargo run -p hetmem-bench --bin figN` prints
//! them.
//!
//! # Examples
//!
//! ```
//! use gpusim::SimConfig;
//! use hetmem::runner::{Placement, RunBuilder};
//! use mempolicy::Mempolicy;
//! use workloads::catalog;
//!
//! let mut sim = SimConfig::paper_baseline();
//! sim.num_sms = 2; // scaled down for a doc example
//! let mut spec = catalog::by_name("hotspot").unwrap();
//! spec.mem_ops = 5_000;
//!
//! let run = RunBuilder::new(&spec, &sim)
//!     .placement(&Placement::Policy(Mempolicy::bw_aware_for(
//!         &hetmem::topology_for(&sim, &[1, 1]),
//!     )))
//!     .run();
//! assert!(run.report.completed);
//! ```

pub mod error;
pub mod experiments;
pub mod grid;
pub mod migrate;
pub mod runner;
pub mod runtime;
pub mod translate;

pub use error::HetmemError;
pub use grid::{
    chrome_trace_for, config_hash, interval_records_for, record_for, sampled_interval_records_for,
    TelemetrySink,
};
pub use migrate::{HotnessTally, MigrationEpochEvent, OnlineMigrator};
pub use runner::{
    bo_traffic_target, check_fidelity, geomean, hints_from_profile, profile_workload, Capacity,
    ObservedRun, Placement, RunBuilder, WorkloadRun,
};
pub use runtime::{is_heterogeneous, Allocation, HmRuntime};
pub use translate::{topology_for, OsTranslator};
