//! # workloads — synthetic models of the paper's 19 GPU benchmarks
//!
//! The evaluation of *Page Placement Strategies for GPUs within
//! Heterogeneous Memory Systems* (ASPLOS 2015) runs 19 benchmarks from
//! Rodinia, Parboil, and DOE HPC proxy apps on GPGPU-Sim. This crate
//! substitutes seeded synthetic models that preserve the two properties
//! every experiment in the paper consumes:
//!
//! 1. **the page-level access histogram** — which data structures are
//!    hot, how skewed the CDF is, whether hotness correlates with
//!    virtual-address order (paper Figs. 6 & 7), and
//! 2. **the timing shape of the access stream** — warp concurrency,
//!    memory-level parallelism, and compute-per-access, which determine
//!    bandwidth vs latency sensitivity (paper Fig. 2).
//!
//! [`catalog::all`] returns the 19 [`WorkloadSpec`]s; [`TraceProgram`]
//! turns one into a `gpusim` warp program over concrete base addresses;
//! [`catalog::datasets`] provides the multi-input variants used by the
//! paper's profile-robustness study (Fig. 11).
//!
//! # Examples
//!
//! ```
//! use gpusim::{FixedPoolTranslator, SimConfig, Simulator};
//! use mempolicy::{AddressSpace, NumaTopology};
//! use workloads::{catalog, TraceProgram};
//!
//! let mut cfg = SimConfig::paper_baseline();
//! cfg.num_sms = 2; // scale down for a doc example
//! let spec = catalog::by_name("kmeans").unwrap();
//! let mut mm = AddressSpace::new(NumaTopology::paper_baseline(1, 1));
//! let mut bases = Vec::new();
//! for s in &spec.structures {
//!     bases.push(mm.mmap_named(s.bytes, s.name)?.start);
//! }
//! let program = TraceProgram::new(&spec, &bases, cfg.num_sms);
//! let report = Simulator::new(cfg, FixedPoolTranslator::new(0), program).run();
//! assert!(report.completed);
//! # Ok::<(), mempolicy::MemError>(())
//! ```

pub mod catalog;
pub mod spec;
pub mod trace;

pub use spec::{DataStructureSpec, Pattern, Sensitivity, Suite, WorkloadSpec};
pub use trace::TraceProgram;
