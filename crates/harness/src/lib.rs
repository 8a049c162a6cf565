//! # hetmem-harness — the deterministic experiment engine
//!
//! The execution subsystem the whole hetmem workspace runs through,
//! built on **std only** (this crate has no third-party dependencies,
//! which is what lets `cargo build --release && cargo test -q` succeed
//! with no network and no crates-io index; its one in-tree dependency,
//! `hmtypes`, supplies SplitMix64). Four layers:
//!
//! 1. **[`sweep`]** — a scoped-thread worker pool executing
//!    `(workload × config)` grid points concurrently, with results in
//!    stable grid order: identical output at any thread count.
//! 2. **[`telemetry`] / [`json`]** — per-run records emitted as JSON
//!    Lines through a hand-rolled serializer (no serde), plus the
//!    end-of-sweep summary. Byte-identical across runs and thread
//!    counts.
//! 3. **The determinism/testing kit** — [`rng`] (SplitMix64 +
//!    xoshiro256**, replacing `rand`), and [`prop`] and the [`props!`]
//!    macro (seeded case generation with shrinking-lite, replacing
//!    `proptest`).
//! 4. **The serving kit** — [`protocol`] (the `hetmem-serve` JSONL
//!    request/response envelope), [`cache`] (a content-addressed LRU
//!    result cache whose hits are byte-identical to recomputation), and
//!    [`queue`] (bounded backpressure queues with close-and-drain
//!    shutdown), and [`metrics`] (a lock-cheap counter/gauge/histogram
//!    registry rendering JSON and Prometheus text exposition).
//!
//! # Examples
//!
//! A parallel sweep with stable output order:
//!
//! ```
//! use hetmem_harness::sweep::{run_grid, SweepOptions};
//!
//! let grid: Vec<(u64, u64)> =
//!     (0..4).flat_map(|w| (0..3).map(move |c| (w, c))).collect();
//! let opts = SweepOptions { threads: 8, ..SweepOptions::default() };
//! let results = run_grid(
//!     &grid,
//!     &opts,
//!     |(w, c)| format!("w{w}/c{c}"),
//!     |(w, c)| w * 100 + c, // deterministic work
//! )
//! .unwrap();
//! assert_eq!(results.len(), 12);
//! assert_eq!(results[7], 201); // grid order: (2, 1)
//! ```

pub mod backoff;
pub mod cache;
pub mod checkpoint;
pub mod fault;
pub mod health;
pub mod json;
pub mod metrics;
pub mod prop;
pub mod protocol;
pub mod queue;
pub mod ring;
pub mod rng;
pub mod sweep;
pub mod telemetry;
pub mod trace;

pub use backoff::Backoff;
pub use cache::{CacheStats, ResultCache};
pub use checkpoint::{read_checkpoint, run_grid_resumable, CheckpointEntry, CheckpointWriter};
pub use fault::{FaultCounts, FaultInjector, FaultPlan, INJECTED_PANIC_MARKER};
pub use health::{BreakerState, CircuitBreaker};
pub use json::{validate_jsonl, JsonError, JsonValue};
pub use metrics::{
    parse_prometheus, Counter, Gauge, Histogram, HistogramSnapshot, MetricsRegistry,
};
pub use prop::{any_u64, vec_of, Gen, Sample};
pub use protocol::{batch_request, ProtocolError, Request, Response, PROTO_V1, PROTO_V2};
pub use queue::{BoundedQueue, PushError};
pub use ring::{HashRing, DEFAULT_VNODES};
pub use rng::{SplitMix64, Xoshiro256StarStar};
pub use sweep::{run_grid, SweepError, SweepOptions};
pub use telemetry::{fnv1a, hit_rate, summary, MigrationTelemetry, PoolTelemetry, RunRecord};
pub use trace::{ChromeTrace, TraceEvent};
