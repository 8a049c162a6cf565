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
//! fleet router; [`roundtrip`], [`simulate_cache_key`], [`parse_simulate`]
//! (into the figures' [`RunPoint`]) and [`run_point`], which
//! `hetmem-sweep` runs its points through, are portable.
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
use hetmem::grid::{Column, RunPoint, Strategy};
use hetmem::{check_fidelity, record_for, Capacity, HetmemError, TelemetrySink};
use hetmem_harness::json::{JsonObject, JsonValue};
use hetmem_harness::{FaultPlan, Request, Response};
use workloads::catalog;

use crate::cli::Args;

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

impl ServeConfig {
    /// Reads the serving flag `flag` into this config: `--addr`,
    /// `--shards` (1..=64), `--queue-depth`, `--cache`, `--max-batch`,
    /// `--conn-buf`, `--read-timeout-ms`, `--write-timeout-ms` (each
    /// positive) or `--faults` (a [`FaultPlan`] spec). `hetmem-serve`
    /// and `hetmem-fleet` both read these through here, after their own
    /// flags.
    ///
    /// # Errors
    ///
    /// The usage error for a missing or malformed value, and `unknown
    /// flag <flag>` for any other token.
    pub fn parse_flag(&mut self, flag: &str, args: &mut Args) -> Result<(), String> {
        match flag {
            "--addr" => self.addr = args.value()?,
            "--shards" => self.shards = args.spawn_count()?,
            "--queue-depth" => self.queue_depth = args.positive()?,
            "--cache" => self.cache_capacity = args.positive()?,
            "--max-batch" => self.max_batch = args.positive()?,
            "--conn-buf" => self.conn_buffer = args.positive()?,
            "--read-timeout-ms" => self.read_timeout_ms = args.positive()?,
            "--write-timeout-ms" => self.write_timeout_ms = args.positive()?,
            "--faults" => self.faults = Some(args.parse_with(FaultPlan::parse)?),
            _ => return Err(args.unknown()),
        }
        Ok(())
    }

    /// Refuses a zero count, size or timeout: none of them means
    /// anything at 0.
    ///
    /// # Errors
    ///
    /// `InvalidInput` naming the first zero setting.
    pub fn check(&self) -> io::Result<()> {
        check_positive(&[
            ("shards", self.shards as u64),
            ("queue_depth", self.queue_depth as u64),
            ("cache_capacity", self.cache_capacity as u64),
            ("max_batch", self.max_batch as u64),
            ("conn_buffer", self.conn_buffer as u64),
            ("read_timeout_ms", self.read_timeout_ms),
            ("write_timeout_ms", self.write_timeout_ms),
        ])
    }
}

/// `InvalidInput` naming the first of `settings` that is zero.
pub(crate) fn check_positive(settings: &[(&str, u64)]) -> io::Result<()> {
    match settings.iter().find(|(_, v)| *v == 0) {
        Some((name, _)) => Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("{name} must be positive"),
        )),
        None => Ok(()),
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

/// Resolves a `simulate` request into its [`RunPoint`], fidelity and
/// canonical cache key. Every knob is defaulted before keying, so
/// explicitly passing a default value still hits.
///
/// # Errors
///
/// The stable-coded refusal `simulate` answers an invalid request with.
pub fn parse_simulate(params: &JsonValue) -> Result<(RunPoint, Fidelity, String), HetmemError> {
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
        if sms == 0 || sms > u64::from(crate::MAX_SMS) {
            let max = crate::MAX_SMS;
            return Err(HetmemError::invalid(format!("'sms' must be in 1..={max}")));
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
    let (strategy, config_label) = Strategy::parse(policy_str, &sim)?;
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
    if let Strategy::Policy(p) = &strategy {
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
    let column = Column {
        config: config_label,
        sim,
        capacity,
        strategy,
    };
    Ok((RunPoint { spec, column }, fidelity, key))
}

/// Runs one resolved point at `fidelity` and renders its `run` line,
/// tagged `tag` (`serve` for the server, `sweep` for `hetmem-sweep`),
/// plus the run's migration report for the server's metrics.
pub fn run_point(p: &RunPoint, fidelity: Fidelity, tag: &str) -> (String, Option<MigrationReport>) {
    let run = p.run(fidelity);
    let c = &p.column;
    let line = record_for(tag, p.spec.name, &c.config, &c.sim, &run).jsonl(false);
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
    parse_simulate(params).map(|(_, _, key)| key)
}
