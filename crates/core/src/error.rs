//! The workspace-level error type.
//!
//! Every fallible layer below has its own narrow error — [`MemError`]
//! from the OS memory model, [`SweepError`] from the parallel sweep
//! engine, [`JsonError`]/[`ProtocolError`] from the wire layer.
//! [`HetmemError`] wraps all of them into one enum with `Display`,
//! `source`, and a **stable machine-readable code**, so `hetmem-serve`
//! can map any failure anywhere in the stack to a structured JSON error
//! response (`{"code":"...","message":"..."}`) instead of a stringly
//! error.

use core::fmt;

use hetmem_harness::protocol::ProtocolError;
use hetmem_harness::sweep::SweepError;
use hetmem_harness::JsonError;
use mempolicy::MemError;

/// Any failure the hetmem stack can surface, with a stable code per
/// variant.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum HetmemError {
    /// An OS memory-model operation failed (allocation, mbind, fault).
    Mem(MemError),
    /// A grid point panicked inside the sweep engine.
    Sweep(SweepError),
    /// JSON that should have parsed did not.
    Json(JsonError),
    /// A request line failed protocol decoding.
    Protocol(ProtocolError),
    /// A request named a workload the catalog does not have.
    UnknownWorkload {
        /// The unknown name.
        name: String,
    },
    /// A request was well-formed JSON but semantically invalid.
    InvalidRequest {
        /// What was wrong.
        reason: String,
    },
    /// The request named an operation the server does not expose.
    UnknownOp {
        /// The unknown operation.
        op: String,
    },
    /// The service shed this request under load.
    Overloaded,
    /// The service is draining and accepts no new work.
    ShuttingDown,
    /// The request's deadline expired before the work completed.
    DeadlineExceeded,
    /// The shard worker handling this request died and was restarted;
    /// the request was not completed (retrying is safe and idempotent).
    WorkerRestarted,
    /// A `batch` request carried more sub-requests than the server
    /// accepts in one envelope.
    BatchTooLarge {
        /// How many sub-requests the envelope carried.
        got: usize,
        /// The server's per-envelope ceiling.
        max: usize,
    },
    /// The request envelope named a protocol major version this server
    /// does not speak.
    UnsupportedProtocol {
        /// The version the client asked for.
        proto: u64,
    },
    /// The fleet router could not reach any healthy backend owning this
    /// request's key (every candidate was down, circuit-open, or failed
    /// mid-request). Retrying is safe: the ring reroutes once a backend
    /// recovers.
    BackendUnavailable {
        /// How many backends were tried before giving up.
        tried: usize,
    },
    /// The fleet router is draining and accepts no new work; unlike
    /// `shutting-down` this names the whole fleet, so clients stop
    /// retrying against it.
    FleetDraining,
    /// A request's `fidelity` field named a mode the server does not
    /// have (only `full` and `sampled` exist).
    InvalidFidelity {
        /// The unrecognized mode.
        value: String,
    },
    /// A valid fidelity the requested policy cannot run under: sampled
    /// fidelity extrapolates from detail windows and cannot account for
    /// online migration, whose page moves depend on the full access
    /// stream (sampled `MIGRATE` runs were 13–33% off full-fidelity
    /// bandwidth).
    UnsupportedFidelity {
        /// The fidelity that was asked for.
        fidelity: String,
        /// The policy it cannot run.
        policy: String,
    },
}

impl HetmemError {
    /// Builds an [`HetmemError::InvalidRequest`].
    pub fn invalid(reason: impl Into<String>) -> Self {
        HetmemError::InvalidRequest {
            reason: reason.into(),
        }
    }

    /// The stable, machine-readable error code — what `hetmem-serve`
    /// puts in `error.code`. Codes are part of the wire contract; never
    /// reuse one for a different meaning.
    pub fn code(&self) -> &'static str {
        match self {
            HetmemError::Mem(MemError::OutOfMemory { .. }) => "out-of-memory",
            HetmemError::Mem(MemError::BindExhausted { .. }) => "bind-exhausted",
            HetmemError::Mem(MemError::InvalidPolicySpec { .. }) => "invalid-policy-spec",
            HetmemError::Mem(_) => "mem-error",
            HetmemError::Sweep(SweepError::DeadlineExceeded { .. }) => "deadline-exceeded",
            HetmemError::Sweep(_) => "sim-panic",
            HetmemError::Json(_) => "bad-json",
            HetmemError::Protocol(e) => e.code(),
            HetmemError::UnknownWorkload { .. } => "unknown-workload",
            HetmemError::InvalidRequest { .. } => "invalid-request",
            HetmemError::UnknownOp { .. } => "unknown-op",
            HetmemError::Overloaded => "overloaded",
            HetmemError::ShuttingDown => "shutting-down",
            HetmemError::DeadlineExceeded => "deadline-exceeded",
            HetmemError::WorkerRestarted => "worker-restarted",
            HetmemError::BatchTooLarge { .. } => "batch-too-large",
            HetmemError::UnsupportedProtocol { .. } => "unsupported-protocol",
            HetmemError::BackendUnavailable { .. } => "backend-unavailable",
            HetmemError::FleetDraining => "fleet-draining",
            HetmemError::InvalidFidelity { .. } => "invalid-fidelity",
            HetmemError::UnsupportedFidelity { .. } => "unsupported-fidelity",
        }
    }
}

impl fmt::Display for HetmemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HetmemError::Mem(e) => write!(f, "memory operation failed: {e}"),
            HetmemError::Sweep(e) => write!(f, "simulation failed: {e}"),
            HetmemError::Json(e) => write!(f, "malformed json: {e}"),
            HetmemError::Protocol(e) => write!(f, "{e}"),
            HetmemError::UnknownWorkload { name } => write!(f, "unknown workload '{name}'"),
            HetmemError::InvalidRequest { reason } => write!(f, "invalid request: {reason}"),
            HetmemError::UnknownOp { op } => write!(f, "unknown operation '{op}'"),
            HetmemError::Overloaded => write!(f, "request queue full, load shed"),
            HetmemError::ShuttingDown => write!(f, "service is draining"),
            HetmemError::DeadlineExceeded => write!(f, "deadline exceeded"),
            HetmemError::WorkerRestarted => {
                write!(f, "worker restarted before completing the request")
            }
            HetmemError::BatchTooLarge { got, max } => {
                write!(
                    f,
                    "batch carries {got} sub-requests, server accepts at most {max}"
                )
            }
            HetmemError::UnsupportedProtocol { proto } => {
                write!(
                    f,
                    "protocol version {proto} is not supported (this server speaks 1-2)"
                )
            }
            HetmemError::BackendUnavailable { tried } => {
                write!(f, "no healthy backend after trying {tried}")
            }
            HetmemError::FleetDraining => write!(f, "fleet is draining"),
            HetmemError::InvalidFidelity { value } => {
                write!(
                    f,
                    "unknown fidelity '{value}' (expected 'full' or 'sampled')"
                )
            }
            HetmemError::UnsupportedFidelity { fidelity, policy } => {
                write!(
                    f,
                    "fidelity '{fidelity}' does not support policy '{policy}' \
                     (online migration needs fidelity 'full')"
                )
            }
        }
    }
}

impl std::error::Error for HetmemError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            HetmemError::Mem(e) => Some(e),
            HetmemError::Sweep(e) => Some(e),
            HetmemError::Json(e) => Some(e),
            HetmemError::Protocol(e) => Some(e),
            _ => None,
        }
    }
}

impl From<MemError> for HetmemError {
    fn from(e: MemError) -> Self {
        HetmemError::Mem(e)
    }
}

impl From<SweepError> for HetmemError {
    fn from(e: SweepError) -> Self {
        match e {
            // A deadline-cut sweep is a deadline failure, not a panic:
            // surface the dedicated code so clients can retry with a
            // longer budget.
            SweepError::DeadlineExceeded { .. } => HetmemError::DeadlineExceeded,
            e => HetmemError::Sweep(e),
        }
    }
}

impl From<JsonError> for HetmemError {
    fn from(e: JsonError) -> Self {
        HetmemError::Json(e)
    }
}

impl From<ProtocolError> for HetmemError {
    fn from(e: ProtocolError) -> Self {
        HetmemError::Protocol(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmtypes::PageNum;

    fn samples() -> Vec<HetmemError> {
        vec![
            HetmemError::Mem(MemError::OutOfMemory {
                page: PageNum::new(1),
            }),
            HetmemError::Mem(MemError::EmptyNodeSet),
            HetmemError::Mem(MemError::InvalidPolicySpec {
                spec: "MIGRATE:hot=x".into(),
                reason: "hot wants an integer".into(),
            }),
            HetmemError::Sweep(SweepError::Panic {
                index: 2,
                label: "bfs/LOCAL".into(),
                message: "boom".into(),
            }),
            HetmemError::Json(JsonError {
                offset: 0,
                message: "expected a JSON value".into(),
            }),
            HetmemError::Protocol(ProtocolError::BadRequest("no id".into())),
            HetmemError::UnknownWorkload {
                name: "nope".into(),
            },
            HetmemError::invalid("capacity_pct out of range"),
            HetmemError::UnknownOp {
                op: "frobnicate".into(),
            },
            HetmemError::Overloaded,
            HetmemError::ShuttingDown,
            HetmemError::DeadlineExceeded,
            HetmemError::WorkerRestarted,
            HetmemError::BatchTooLarge { got: 128, max: 64 },
            HetmemError::UnsupportedProtocol { proto: 9 },
            HetmemError::BackendUnavailable { tried: 3 },
            HetmemError::FleetDraining,
            HetmemError::InvalidFidelity {
                value: "approximate".into(),
            },
            HetmemError::UnsupportedFidelity {
                fidelity: "sampled".into(),
                policy: "MIGRATE".into(),
            },
        ]
    }

    #[test]
    fn every_variant_has_code_display_and_distinct_meaning() {
        use std::collections::HashSet;
        let mut codes = HashSet::new();
        for e in samples() {
            assert!(!e.to_string().is_empty());
            let code = e.code();
            assert!(
                code.chars().all(|c| c.is_ascii_lowercase() || c == '-'),
                "code '{code}' must be kebab-case"
            );
            codes.insert(code);
        }
        // Every sampled failure mode maps to its own code.
        assert_eq!(codes.len(), samples().len());
    }

    #[test]
    fn sources_chain_for_wrapped_errors() {
        use std::error::Error;
        let e = HetmemError::from(MemError::EmptyNodeSet);
        assert!(e.source().is_some());
        assert_eq!(e.code(), "mem-error");
        let oom = HetmemError::from(MemError::OutOfMemory {
            page: PageNum::new(9),
        });
        assert_eq!(oom.code(), "out-of-memory");
        assert!(HetmemError::Overloaded.source().is_none());
    }

    #[test]
    fn conversions_from_layer_errors() {
        let _: HetmemError = MemError::EmptyNodeSet.into();
        let panic: HetmemError = SweepError::Panic {
            index: 0,
            label: String::new(),
            message: String::new(),
        }
        .into();
        assert_eq!(panic.code(), "sim-panic");
        // A deadline-cut sweep converts to the dedicated deadline
        // variant, not a wrapped panic.
        let cut: HetmemError = SweepError::DeadlineExceeded {
            completed: 3,
            total: 8,
        }
        .into();
        assert_eq!(cut, HetmemError::DeadlineExceeded);
        assert_eq!(cut.code(), "deadline-exceeded");
        let _: HetmemError = JsonError {
            offset: 3,
            message: "x".into(),
        }
        .into();
        let _: HetmemError = ProtocolError::BadRequest("y".into()).into();
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<HetmemError>();
    }
}
