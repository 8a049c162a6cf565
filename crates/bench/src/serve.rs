//! `hetmem-serve`: the online placement service.
//!
//! A std-only TCP server speaking the JSONL protocol of
//! [`hetmem_harness::protocol`] — one request object per line, one
//! response object back. Four query operations plus a control one:
//!
//! * **`place`** — turn allocation annotations (sizes + hotness, or a
//!   catalog workload's) into per-allocation placement hints via the
//!   paper's `GetAllocation` (§5.2). Cheap; answered inline.
//! * **`simulate`** — run one catalog workload under a named policy on
//!   a sharded worker pool and return its telemetry `run` line
//!   ([`hetmem::record_for`]) as JSON.
//!   Results are memoized in a content-addressed LRU cache: repeating a
//!   request returns byte-identical bytes without re-simulating.
//! * **`stats`** — server counters (requests, errors, load sheds) and
//!   cache statistics as JSON.
//! * **`metrics`** — the full [`hetmem_harness::metrics`] registry:
//!   per-op request-latency histograms, per-phase timings (read,
//!   decode, queue wait, cache lookup, execute, encode, write), cache
//!   and queue occupancy, and migration-engine aggregates. Serves JSON
//!   (`format=json`, the default) or Prometheus text exposition
//!   (`format=prometheus`, wrapped as `{"format":...,"text":...}`).
//! * **`shutdown`** — stop accepting work, drain in-flight requests,
//!   exit. Every request received before the drain still gets its
//!   response.
//! * **`batch`** (protocol v2, `"proto":2`) — an array of full request
//!   envelopes through one dispatch; the result is
//!   `{"responses":[...]}` in sub-request order, each element encoding
//!   to exactly the bytes the bare single-request response would.
//!   Oversized batches are refused with `batch-too-large`; unknown
//!   protocol major versions with `unsupported-protocol`.
//!
//! ## Front end
//!
//! The server runs on the crate's poll(2) reactor and in-flight table,
//! the same ones the `hetmem-fleet` router runs on: one thread does
//! nonblocking accept/read/write with per-connection read/write
//! buffers (`server/event.rs` holds serve's executor: the shard pool
//! and the chaos faults at delivery). Connections may **pipeline**:
//! many requests in flight,
//! responses written as their workers complete, order-independent by
//! `id`. A connection whose unread response backlog exceeds
//! [`ServeConfig::conn_buffer`] is shed with structured `overloaded`
//! errors instead of stalling the loop.
//!
//! The server ([`start`], [`ServerHandle`]) is unix-only, like the
//! fleet router; [`roundtrip`], [`simulate_cache_key`] and the
//! `simulate` resolver ([`parse_simulate`], [`run_point`]), which
//! `hetmem-sweep` runs its grid points through, are portable.
//!
//! ## Observability
//!
//! Every request phase is timed into the registry; recording is a few
//! relaxed atomics, and nothing observable changes when a sink or the
//! `metrics` op is unused — responses carry no timing, and cached
//! results stay byte-identical (tested by the no-perturbation test in
//! `tests/serve.rs`). The per-op duration histograms and the
//! `hm_requests_total` counter are both recorded *before* the response
//! bytes are written, so a scrape issued after a response is read
//! already counts that request — the conservation invariant
//! (`Σ per-op histogram counts == hm_requests_total`) that
//! `hetmem-top --check` and CI assert.
//!
//! Requests may carry a `request_id` (any non-empty string). It is
//! echoed on the response (success or error) and stamped on every
//! `serve.jsonl` telemetry line for the request, joining client retry
//! logs to server records; without one the server generates `srv-N`
//! for telemetry only, keeping responses to identical request lines
//! byte-identical. With `"trace":true` the request additionally emits
//! `serve-span` telemetry lines (one per phase, chained end-to-start)
//! that `hetmem-trace spans` renders onto a Chrome timeline.
//!
//! Jobs route to worker shards by the FNV-1a hash of their canonical
//! cache key, so identical concurrent requests serialize on one shard
//! and the followers become cache hits instead of duplicate
//! simulations. Each shard has a bounded queue; when it is full the
//! server sheds load with a structured `overloaded` error instead of
//! blocking the client.
//!
//! A shard worker runs each cache miss itself under `catch_unwind`, so
//! a panicking simulation surfaces as a structured `sim-panic` error
//! response (`grid point 0 (<label>) panicked: …`, worded like the
//! sweep engine's) rather than a dead worker.
//!
//! ## Robustness
//!
//! Shard workers run under a **supervisor**: a panicking worker (a
//! simulator bug, or chaos injection) is restarted in place, its
//! in-flight request answered with a structured `worker-restarted`
//! error, and the restart counted in `stats`. Requests may carry a
//! `deadline_ms`; expired work is refused with `deadline-exceeded`
//! instead of running to completion. Socket read/write timeouts are
//! configurable via [`ServeConfig`], and a deterministic
//! [`FaultPlan`] can inject worker panics, latency, torn response
//! writes, and cache corruption for chaos testing — the cache's
//! integrity checksums turn injected corruption into a counted miss
//! and recompute, never a wrong answer.

#[cfg(unix)]
mod server;

#[cfg(unix)]
pub use server::{start, ServerHandle};

use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use gpusim::{Fidelity, MigrationReport, SampleConfig, SimConfig};
use hetmem::{
    check_fidelity, hints_from_profile, profile_workload, record_for, topology_for, Capacity,
    HetmemError, Placement, RunBuilder, TelemetrySink,
};
use hetmem_harness::json::{JsonObject, JsonValue};
use hetmem_harness::{FaultPlan, Request, Response};
use mempolicy::Mempolicy;
use workloads::{catalog, WorkloadSpec};

/// Default client/server socket read timeout.
pub(crate) const DEFAULT_READ_TIMEOUT_MS: u64 = 120_000;

/// Server construction knobs. Every count and timeout must be
/// positive; `Default` holds the values the `hetmem-serve` flags
/// default to.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks an ephemeral port (read it back from
    /// [`ServerHandle::port`]). Default `127.0.0.1:0`.
    pub addr: String,
    /// Simulation worker shards (default 2).
    pub shards: usize,
    /// Bounded queue depth per shard (default 32); beyond it the
    /// server sheds load with `overloaded`.
    pub queue_depth: usize,
    /// Result cache capacity in entries (default 128).
    pub cache_capacity: usize,
    /// Optional per-request telemetry sink (`<dir>/serve.jsonl`).
    pub telemetry: Option<Arc<TelemetrySink>>,
    /// Read timeout on accepted connections in ms (default 120000).
    /// An idle connection past this is dropped.
    pub read_timeout_ms: u64,
    /// Write timeout on accepted connections in ms (default 30000).
    /// A connection whose client stops draining its socket is dropped.
    pub write_timeout_ms: u64,
    /// Deterministic chaos injection; `None` serves faithfully.
    pub faults: Option<FaultPlan>,
    /// `batch` sub-request ceiling per envelope (default 64); beyond
    /// it the envelope is refused with `batch-too-large`.
    pub max_batch: usize,
    /// Backpressure threshold in bytes (default 256 KiB): a connection
    /// holding this much unflushed response backlog has further
    /// requests shed with `overloaded` until it drains.
    pub conn_buffer: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            shards: 2,
            queue_depth: 32,
            cache_capacity: 128,
            telemetry: None,
            read_timeout_ms: DEFAULT_READ_TIMEOUT_MS,
            write_timeout_ms: 30_000,
            faults: None,
            max_batch: 64,
            conn_buffer: 256 * 1024,
        }
    }
}

/// Which placement strategy a `simulate` request asked for.
#[derive(Debug, Clone)]
enum PolicyChoice {
    /// An OS policy (`LOCAL`, `INTERLEAVE`, `BW-AWARE`, `xC-yB`).
    Os(Mempolicy),
    /// Two-phase oracle: profile first, then perfect-knowledge pages.
    Oracle,
    /// Annotation hints: profile, `GetAllocation`, hinted mallocs.
    Hinted,
}

/// One resolved simulation point — everything a worker or a
/// `hetmem-sweep` grid point needs. Built only by [`parse_simulate`] and
/// run by [`run_point`].
#[derive(Debug, Clone)]
pub struct SimPoint {
    spec: WorkloadSpec,
    sim: SimConfig,
    capacity: Capacity,
    policy: PolicyChoice,
    config_label: String,
    fidelity: Fidelity,
}

impl SimPoint {
    /// `workload/config`, the name progress lines and errors use.
    pub fn label(&self) -> String {
        format!("{}/{}", self.spec.name, self.config_label)
    }
}

/// One request/response round-trip on a fresh connection — the
/// convenience path for CI and tests.
///
/// # Errors
///
/// I/O failures, or `InvalidData` when the server's reply is not a
/// valid response line.
pub fn roundtrip(addr: &str, req: &Request) -> io::Result<Response> {
    roundtrip_timeout(addr, req, Duration::from_millis(DEFAULT_READ_TIMEOUT_MS))
}

/// [`roundtrip`] with an explicit read timeout, the building block of
/// the retrying client: a torn or stalled server reply surfaces as an
/// `io::Error` within `read_timeout` instead of hanging the caller.
///
/// # Errors
///
/// I/O failures (including timeout), or `InvalidData` when the
/// server's reply is not a valid response line.
pub fn roundtrip_timeout(
    addr: &str,
    req: &Request,
    read_timeout: Duration,
) -> io::Result<Response> {
    let stream = TcpStream::connect(addr)?;
    // Clamped to ≥1 ms: a zero `Duration` means "non-blocking" to the
    // OS, never what a blocking stream wants.
    stream.set_read_timeout(Some(read_timeout.max(Duration::from_millis(1))))?;
    let reply = exchange(&mut BufReader::new(stream), &req.encode())?;
    Response::decode(&reply).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
}

/// Writes `line` and its newline on an open connection and reads one
/// line back, newline stripped. EOF before a reply, or bytes without
/// the closing `\n` (the connection died mid-write), is a short read,
/// `UnexpectedEof`: retryable, not a protocol error.
///
/// # Errors
///
/// I/O failures, timeouts included.
pub(crate) fn exchange(conn: &mut BufReader<TcpStream>, line: &str) -> io::Result<String> {
    let mut msg = String::with_capacity(line.len() + 1);
    msg.push_str(line);
    msg.push('\n');
    conn.get_mut().write_all(msg.as_bytes())?;
    let mut reply = String::new();
    if conn.read_line(&mut reply)? == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "server closed the connection before responding",
        ));
    }
    if !reply.ends_with('\n') {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed mid-response (truncated line)",
        ));
    }
    reply.truncate(reply.trim_end().len());
    Ok(reply)
}

/// Resolves a `simulate` request into a concrete [`SimPoint`] and its
/// canonical cache key. Every knob is resolved (defaults applied)
/// before keying, so explicitly passing a default value still hits.
///
/// # Errors
///
/// The stable-coded refusal `simulate` answers an invalid request with.
pub fn parse_simulate(params: &JsonValue) -> Result<(SimPoint, String), HetmemError> {
    let name = params
        .get("workload")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| HetmemError::invalid("simulate needs a 'workload' (catalog name)"))?;
    let mut spec = catalog::by_name(name).ok_or_else(|| HetmemError::UnknownWorkload {
        name: name.to_string(),
    })?;
    if let Some(ops) = field_u64(params, "mem_ops")? {
        if ops == 0 {
            return Err(HetmemError::invalid("'mem_ops' must be positive"));
        }
        spec.mem_ops = ops;
    }
    if let Some(seed) = field_u64(params, "seed")? {
        spec.seed = seed;
    }
    let mut sim = SimConfig::paper_baseline();
    if let Some(sms) = field_u64(params, "sms")? {
        if sms == 0 || sms > 1024 {
            return Err(HetmemError::invalid("'sms' must be in 1..=1024"));
        }
        sim.num_sms = sms as u32;
    }
    let capacity_pct = field_u64(params, "capacity_pct")?;
    let capacity = match capacity_pct {
        Some(pct) if (1..=100).contains(&pct) => Capacity::FractionOfFootprint(pct as f64 / 100.0),
        Some(_) => return Err(HetmemError::invalid("'capacity_pct' must be in 1..=100")),
        None => Capacity::Unconstrained,
    };
    // A present-but-non-string policy is rejected, not defaulted: list
    // clients split comma values into arrays, which would otherwise
    // silently turn `MIGRATE:epoch=..,hot=..` into BW-AWARE.
    let policy_str = match params.get("policy") {
        None => "BW-AWARE",
        Some(v) => v.as_str().ok_or_else(|| {
            HetmemError::invalid(
                "'policy' must be a string (separate MIGRATE keys with '+', \
                 not ',', in clients that split comma lists)",
            )
        })?,
    };
    let (policy, config_label) = match policy_str.trim().to_ascii_uppercase().as_str() {
        "ORACLE" => (PolicyChoice::Oracle, "ORACLE".to_string()),
        "HINTED" | "ANNOTATED" => (PolicyChoice::Hinted, "HINTED".to_string()),
        _ => {
            let topo = topology_for(&sim, &vec![1; sim.pools.len()]);
            let policy = Mempolicy::parse(policy_str, &topo).map_err(|e| match e {
                // A recognized-but-malformed spec (e.g. a bad `MIGRATE:`
                // string) keeps its dedicated stable wire code.
                e @ mempolicy::MemError::InvalidPolicySpec { .. } => HetmemError::Mem(e),
                _ => HetmemError::invalid(format!(
                    "unknown policy '{policy_str}' \
                     (want LOCAL, INTERLEAVE, BW-AWARE, xC-yB, MIGRATE[:k=v...], ORACLE, or HINTED)"
                )),
            })?;
            let label = policy.name();
            (PolicyChoice::Os(policy), label)
        }
    };
    // Protocol-stable fidelity: absent (or "full") runs the exact
    // simulator; anything else but "sampled" gets the dedicated stable
    // wire code. Rejecting non-strings mirrors the 'policy' rule.
    let fidelity = match params.get("fidelity") {
        None => Fidelity::Full,
        Some(v) => {
            let s = v
                .as_str()
                .ok_or_else(|| HetmemError::invalid("'fidelity' must be a string"))?;
            match s.trim().to_ascii_lowercase().as_str() {
                "full" => Fidelity::Full,
                "sampled" => Fidelity::Sampled(SampleConfig::default()),
                _ => {
                    return Err(HetmemError::InvalidFidelity {
                        value: s.to_string(),
                    })
                }
            }
        }
    };
    // A valid fidelity the policy cannot run under (sampled MIGRATE)
    // gets its own stable code rather than an extrapolated wrong answer.
    if let PolicyChoice::Os(p) = &policy {
        check_fidelity(fidelity, p)?;
    }
    // Canonical key over the *resolved* request; 0 = unconstrained. The
    // fidelity field is appended only for sampled requests so every
    // full-fidelity key (the protocol's entire pre-sampling keyspace)
    // stays byte-identical.
    let mut key_obj = JsonObject::new()
        .str("workload", spec.name)
        .str("policy", &config_label)
        .u64("capacity_pct", capacity_pct.unwrap_or(0))
        .u64("mem_ops", spec.mem_ops)
        .u64("sms", u64::from(sim.num_sms))
        .u64("seed", spec.seed);
    if matches!(fidelity, Fidelity::Sampled(_)) {
        key_obj = key_obj.str("fidelity", "sampled");
    }
    let key = key_obj.finish();
    Ok((
        SimPoint {
            spec,
            sim,
            capacity,
            policy,
            config_label,
            fidelity,
        },
        key,
    ))
}

/// Runs one resolved point and renders its `run` line, tagged `tag`
/// (`serve` for the server, `sweep` for `hetmem-sweep`), plus the run's
/// migration report for the server's metrics.
pub fn run_point(p: &SimPoint, tag: &str) -> (String, Option<MigrationReport>) {
    let placement = match &p.policy {
        PolicyChoice::Os(policy) => Placement::Policy(policy.clone()),
        PolicyChoice::Oracle => {
            let (histogram, _) = profile_workload(&p.spec, &p.sim);
            Placement::Oracle(histogram)
        }
        PolicyChoice::Hinted => {
            let (_, profile) = profile_workload(&p.spec, &p.sim);
            Placement::Hinted(hints_from_profile(&profile, &p.spec, &p.sim, p.capacity))
        }
    };
    let run = RunBuilder::new(&p.spec, &p.sim)
        .capacity(p.capacity)
        .placement(&placement)
        .fidelity(p.fidelity)
        .run();
    let line = record_for(tag, p.spec.name, &p.config_label, &p.sim, &run).jsonl(false);
    (line, run.report.migration)
}

/// Reads an optional unsigned integer field; `Err` when present but
/// ill-typed.
fn field_u64(params: &JsonValue, key: &str) -> Result<Option<u64>, HetmemError> {
    match params.get(key) {
        None => Ok(None),
        Some(v) => v
            .as_u64()
            .map(Some)
            .ok_or_else(|| HetmemError::invalid(format!("'{key}' must be a non-negative integer"))),
    }
}

/// The canonical content key a `simulate` request is cached and
/// fleet-routed by — exposed for the `hetmem-fleet` router, which must
/// shard requests exactly like the result cache does so every cached
/// entry lives in exactly one backend process.
///
/// # Errors
///
/// The same validation failures `simulate` itself would refuse with.
pub fn simulate_cache_key(params: &JsonValue) -> Result<String, HetmemError> {
    parse_simulate(params).map(|(_, key)| key)
}
