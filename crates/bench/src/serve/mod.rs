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
//!   a sharded worker pool and return its telemetry [`RunRecord`]
//!   (`hetmem_harness::telemetry::RunRecord`) as JSON. Results are
//!   memoized in a content-addressed LRU cache: repeating a request
//!   returns byte-identical bytes without re-simulating.
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
//! ## Front ends
//!
//! Two interchangeable connection cores serve the same dispatch
//! pipeline ([`ServeCore`]):
//!
//! * **`Poll`** (default on unix) — a std-only poll(2) readiness loop
//!   in one thread: nonblocking accept/read/write with per-connection
//!   read/write buffers. Connections may **pipeline**: many requests
//!   in flight, responses written as their workers complete,
//!   order-independent by `id`. A connection whose unread response
//!   backlog exceeds [`ServeConfig::conn_buffer`] is shed with
//!   structured `overloaded` errors instead of stalling the loop.
//! * **`Threaded`** — the blocking thread-per-connection core (and the
//!   non-unix fallback). Same protocol, responses strictly in request
//!   order.
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
//! Simulations execute through the harness sweep engine
//! ([`run_grid`]) so a panicking grid point surfaces as a structured
//! `sim-panic` error response rather than a dead worker.
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
mod event;
mod threaded;

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use gpusim::{Fidelity, SampleConfig, SimConfig};
use hetmem::{
    bo_traffic_target, check_fidelity, hints_from_profile, profile_workload, record_for,
    topology_for, Capacity, HetmemError, Placement, RunBuilder, TelemetrySink,
};
use hetmem_harness::json::{self, JsonObject, JsonValue};
use hetmem_harness::metrics::{Counter, Gauge, Histogram, MetricsRegistry};
use hetmem_harness::sweep::{run_grid, SweepOptions};
use hetmem_harness::telemetry::{fnv1a, MigrationTelemetry};
use hetmem_harness::{
    BoundedQueue, FaultInjector, FaultPlan, ProtocolError, PushError, Request, Response,
    ResultCache, PROTO_V2,
};
use mempolicy::Mempolicy;
use profiler::get_allocation;
use workloads::{catalog, WorkloadSpec};

/// Default client/server socket read timeout.
const DEFAULT_READ_TIMEOUT_MS: u64 = 120_000;
/// Default server socket write timeout.
const DEFAULT_WRITE_TIMEOUT_MS: u64 = 30_000;
/// Default `batch` sub-request ceiling per envelope.
const DEFAULT_MAX_BATCH: usize = 64;
/// Default per-connection unflushed-response backlog (bytes) before
/// the poll core sheds that connection's requests as `overloaded`.
const DEFAULT_CONN_BUFFER: usize = 256 * 1024;

/// Which connection front end serves the dispatch pipeline.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ServeCore {
    /// One poll(2) readiness loop for every connection: nonblocking
    /// I/O, pipelining, buffered-backlog backpressure. Falls back to
    /// [`ServeCore::Threaded`] off unix.
    #[default]
    Poll,
    /// One blocking thread per connection — the pre-v2 front end, kept
    /// as the baseline for throughput comparison.
    Threaded,
}

impl ServeCore {
    /// Parses a `--core` flag value.
    ///
    /// # Errors
    ///
    /// A message naming the accepted values.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "poll" => Ok(ServeCore::Poll),
            "threaded" => Ok(ServeCore::Threaded),
            other => Err(format!(
                "unknown serve core '{other}' (want poll or threaded)"
            )),
        }
    }
}

/// Server construction knobs. `Default` binds an ephemeral loopback
/// port with two worker shards.
#[derive(Debug, Clone, Default)]
pub struct ServeConfig {
    /// Bind address; port 0 picks an ephemeral port (read it back from
    /// [`ServerHandle::port`]). Empty = `127.0.0.1:0`.
    pub addr: String,
    /// Simulation worker shards (0 = default 2).
    pub shards: usize,
    /// Bounded queue depth per shard (0 = default 32); beyond it the
    /// server sheds load with `overloaded`.
    pub queue_depth: usize,
    /// Result cache capacity in entries (0 = default 128).
    pub cache_capacity: usize,
    /// Optional per-request telemetry sink (`<dir>/serve.jsonl`).
    pub telemetry: Option<Arc<TelemetrySink>>,
    /// Read timeout on accepted connections in ms (0 = default 120000).
    /// An idle connection past this is dropped.
    pub read_timeout_ms: u64,
    /// Write timeout on accepted connections in ms (0 = default 30000).
    /// A client that stops draining its socket cannot wedge a
    /// connection thread forever.
    pub write_timeout_ms: u64,
    /// Deterministic chaos injection; `None` serves faithfully.
    pub faults: Option<FaultPlan>,
    /// Connection front end (default: the poll(2) readiness loop).
    pub core: ServeCore,
    /// `batch` sub-request ceiling per envelope (0 = default 64);
    /// beyond it the envelope is refused with `batch-too-large`.
    pub max_batch: usize,
    /// Poll-core backpressure threshold in bytes (0 = default 256 KiB):
    /// a connection holding this much unflushed response backlog has
    /// further requests shed with `overloaded` until it drains.
    pub conn_buffer: usize,
}

impl ServeConfig {
    fn addr_or_default(&self) -> &str {
        if self.addr.is_empty() {
            "127.0.0.1:0"
        } else {
            &self.addr
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

/// One resolved simulation point — everything a worker needs, and the
/// unit the sweep engine wraps for panic isolation.
#[derive(Debug, Clone)]
struct SimPoint {
    spec: WorkloadSpec,
    sim: SimConfig,
    capacity: Capacity,
    policy: PolicyChoice,
    config_label: String,
    fidelity: Fidelity,
}

/// A queued simulate job: the point plus the reply path back to
/// whichever front end submitted it.
struct Job {
    key: String,
    point: SimPoint,
    /// Cooperative deadline carried over from the request envelope.
    deadline: Option<Instant>,
    /// When the job entered its shard queue (queue-wait timing).
    enqueued: Instant,
    reply: ReplySink,
}

/// Worker → front-end reply.
type JobReply = Result<SimReply, HetmemError>;

/// How a completed job's reply travels back: a blocking channel the
/// connection thread is parked on (threaded core), or a completion
/// queue plus wake-up for the poll loop (event core).
enum ReplySink {
    Oneshot(mpsc::Sender<JobReply>),
    #[cfg(unix)]
    Event(event::EventSink),
}

impl ReplySink {
    /// Delivers the reply. Dropping an event sink without sending
    /// (worker panic drops the whole job) delivers `worker-restarted`,
    /// mirroring the closed-channel semantics of the oneshot path.
    fn send(self, reply: JobReply) {
        match self {
            ReplySink::Oneshot(tx) => {
                let _ = tx.send(reply);
            }
            #[cfg(unix)]
            ReplySink::Event(mut sink) => sink.deliver(reply),
        }
    }
}

/// Worker-phase timings for one request, microseconds. `None` for
/// phases the request never entered (inline ops skip the pool; cache
/// hits skip execute).
#[derive(Debug, Clone, Copy, Default)]
struct PhaseTimes {
    queue_wait_us: Option<u64>,
    cache_lookup_us: Option<u64>,
    execute_us: Option<u64>,
}

/// A successful op result plus how it was produced.
struct SimReply {
    body: String,
    cache_hit: bool,
    phases: PhaseTimes,
}

impl SimReply {
    /// Wraps a body computed inline on the connection thread.
    fn inline(body: String) -> Self {
        SimReply {
            body,
            cache_hit: false,
            phases: PhaseTimes::default(),
        }
    }
}

/// Everything [`finish_request`] needs to account one request after its
/// response is encoded: identity, outcome, and phase timings.
struct ReqMeta {
    /// Raw op name (`"decode"` for lines that never parsed).
    op: String,
    /// Client-supplied or server-generated (`srv-N`) trace id.
    request_id: String,
    /// Span logging requested by the client.
    trace: bool,
    /// `"ok"` or the stable error code.
    status: String,
    cache_hit: bool,
    read_us: u64,
    decode_us: u64,
    phases: PhaseTimes,
    /// Dispatch entry (right after the line was read); per-op request
    /// duration is measured from here to the end of encode.
    t0: Instant,
}

/// Saturating microseconds.
fn us(d: Duration) -> u64 {
    d.as_micros().min(u128::from(u64::MAX)) as u64
}

/// The identity of one in-flight request — everything needed to build
/// its response envelope and accounting record once its outcome is
/// known, independent of which front end carries it.
struct ReqHead {
    id: u64,
    op: String,
    /// Echoed on the response; `None` keeps old wire bytes.
    client_rid: Option<String>,
    /// Telemetry id: the client's, or a generated `srv-N`.
    rid: String,
    trace: bool,
    read_us: u64,
    decode_us: u64,
    t0: Instant,
}

/// What [`dispatch_prepare`] decided about one request line: finished
/// inline, or work for the shard pool that the front end must submit
/// and later complete with [`finish_outcome`] / [`finish_batch`].
enum Prepared {
    /// Response ready (inline op, refusal, or decode error) — already
    /// accounted in `ServerStats`; hand to [`finish_request`] after
    /// encoding.
    Done(Response, ReqMeta),
    /// A `simulate` bound for the pool.
    Sim(SimWork),
    /// A `batch` envelope; inline sub-ops are already resolved, the
    /// remaining sub-simulations are bound for the pool.
    Batch(BatchWork),
}

struct SimWork {
    head: ReqHead,
    point: SimPoint,
    key: String,
    deadline: Option<Instant>,
}

struct BatchWork {
    head: ReqHead,
    subs: Vec<SubWork>,
}

/// One slot of a batch, in sub-request order.
enum SubWork {
    /// Resolved during prepare (inline op or per-sub refusal).
    Ready(Response),
    /// A sub-simulation to fan out to the pool.
    Sim {
        id: u64,
        client_rid: Option<String>,
        point: SimPoint,
        key: String,
        deadline: Option<Instant>,
    },
}

/// The registry embedded in every server, plus direct handles to the
/// metrics the hot paths record. Hot-path updates are pure atomics;
/// scrape-time mirrors (cache stats, queue depths, uptime) are filled
/// in by [`ServeMetrics::refresh`].
struct ServeMetrics {
    registry: MetricsRegistry,
    /// Completed requests; recorded with the per-op histogram so the
    /// conservation invariant holds at every scrape.
    requests_total: Arc<Counter>,
    responses_ok: Arc<Counter>,
    responses_err: Arc<Counter>,
    req_place: Arc<Histogram>,
    req_simulate: Arc<Histogram>,
    req_stats: Arc<Histogram>,
    req_metrics: Arc<Histogram>,
    req_shutdown: Arc<Histogram>,
    req_batch: Arc<Histogram>,
    req_decode: Arc<Histogram>,
    req_other: Arc<Histogram>,
    ph_read: Arc<Histogram>,
    ph_decode: Arc<Histogram>,
    ph_queue_wait: Arc<Histogram>,
    ph_cache_lookup: Arc<Histogram>,
    ph_execute: Arc<Histogram>,
    ph_encode: Arc<Histogram>,
    ph_write: Arc<Histogram>,
    // Scrape-time mirrors of ServerStats / cache counters.
    overloaded: Arc<Counter>,
    deadline_exceeded: Arc<Counter>,
    worker_restarts: Arc<Counter>,
    cache_hits: Arc<Counter>,
    cache_misses: Arc<Counter>,
    cache_insertions: Arc<Counter>,
    cache_evictions: Arc<Counter>,
    cache_corruptions: Arc<Counter>,
    cache_entries: Arc<Gauge>,
    cache_capacity: Arc<Gauge>,
    queue_depth: Vec<Arc<Gauge>>,
    queue_capacity: Arc<Gauge>,
    uptime_ms: Arc<Gauge>,
    // Migration-engine aggregates, accumulated on fresh executions.
    mig_promoted: Arc<Counter>,
    mig_demoted: Arc<Counter>,
    mig_evicted: Arc<Counter>,
    mig_epochs: Arc<Counter>,
    mig_copy_bytes: Arc<Counter>,
}

impl ServeMetrics {
    fn new(shards: usize) -> Self {
        let reg = MetricsRegistry::new();
        let req_help = "Request latency from decode start to encoded response, microseconds.";
        let op_hist = |op| reg.histogram("hm_request_duration_us", req_help, &[("op", op)]);
        let ph_help = "Per-phase request latency, microseconds.";
        let ph_hist = |ph| reg.histogram("hm_phase_duration_us", ph_help, &[("phase", ph)]);
        let cache_help = "Result-cache events, mirrored from cache stats at scrape time.";
        let cache_ev = |ev| reg.counter("hm_cache_events_total", cache_help, &[("event", ev)]);
        let mig_help = "Pages moved by the online migration engine, by movement kind.";
        let mig = |kind| reg.counter("hm_migration_pages_total", mig_help, &[("kind", kind)]);
        ServeMetrics {
            requests_total: reg.counter(
                "hm_requests_total",
                "Requests completed (equals the sum of hm_request_duration_us counts).",
                &[],
            ),
            responses_ok: reg.counter(
                "hm_responses_total",
                "Responses by outcome.",
                &[("status", "ok")],
            ),
            responses_err: reg.counter(
                "hm_responses_total",
                "Responses by outcome.",
                &[("status", "error")],
            ),
            req_place: op_hist("place"),
            req_simulate: op_hist("simulate"),
            req_stats: op_hist("stats"),
            req_metrics: op_hist("metrics"),
            req_shutdown: op_hist("shutdown"),
            req_batch: op_hist("batch"),
            req_decode: op_hist("decode"),
            req_other: op_hist("other"),
            ph_read: ph_hist("read"),
            ph_decode: ph_hist("decode"),
            ph_queue_wait: ph_hist("queue_wait"),
            ph_cache_lookup: ph_hist("cache_lookup"),
            ph_execute: ph_hist("execute"),
            ph_encode: ph_hist("encode"),
            ph_write: ph_hist("write"),
            overloaded: reg.counter(
                "hm_overloaded_total",
                "Requests shed because a shard queue was full.",
                &[],
            ),
            deadline_exceeded: reg.counter(
                "hm_deadline_exceeded_total",
                "Requests refused past their deadline.",
                &[],
            ),
            worker_restarts: reg.counter(
                "hm_worker_restarts_total",
                "Shard workers restarted by the supervisor.",
                &[],
            ),
            cache_hits: cache_ev("hit"),
            cache_misses: cache_ev("miss"),
            cache_insertions: cache_ev("insertion"),
            cache_evictions: cache_ev("eviction"),
            cache_corruptions: cache_ev("corruption"),
            cache_entries: reg.gauge(
                "hm_cache_entries",
                "Result-cache entries resident at scrape time.",
                &[],
            ),
            cache_capacity: reg.gauge("hm_cache_capacity", "Result-cache capacity.", &[]),
            queue_depth: (0..shards)
                .map(|i| {
                    reg.gauge(
                        "hm_queue_depth",
                        "Jobs queued per shard at scrape time.",
                        &[("shard", &i.to_string())],
                    )
                })
                .collect(),
            queue_capacity: reg.gauge("hm_queue_capacity", "Per-shard queue capacity.", &[]),
            uptime_ms: reg.gauge(
                "hm_uptime_ms",
                "Milliseconds since the server started.",
                &[],
            ),
            mig_promoted: mig("promoted"),
            mig_demoted: mig("demoted"),
            mig_evicted: mig("evicted"),
            mig_epochs: reg.counter(
                "hm_migration_epochs_total",
                "Migration epochs processed across simulate executions.",
                &[],
            ),
            mig_copy_bytes: reg.counter(
                "hm_migration_copy_bytes_total",
                "Bytes of page-copy traffic charged by the migration engine.",
                &[],
            ),
            registry: reg,
        }
    }

    /// The request-duration histogram for an op label.
    fn op_hist(&self, op: &str) -> &Histogram {
        match op {
            "place" => &self.req_place,
            "simulate" => &self.req_simulate,
            "stats" => &self.req_stats,
            "metrics" => &self.req_metrics,
            "shutdown" => &self.req_shutdown,
            "batch" => &self.req_batch,
            "decode" => &self.req_decode,
            _ => &self.req_other,
        }
    }

    /// Accumulates one fresh execution's migration aggregate (cache
    /// hits don't re-count the cached run's work).
    fn record_migration(&self, mt: &MigrationTelemetry) {
        self.mig_promoted.add(mt.pages_promoted);
        self.mig_demoted.add(mt.pages_demoted);
        self.mig_evicted.add(mt.pages_evicted);
        self.mig_epochs.add(mt.epochs);
        self.mig_copy_bytes.add(mt.copy_bytes);
    }

    /// Fills the scrape-time mirrors: external monotonic sources (cache
    /// stats, shed/restart counters) and instantaneous gauges.
    fn refresh(&self, shared: &Shared) {
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        self.overloaded.store(load(&shared.stats.overloaded));
        self.deadline_exceeded
            .store(load(&shared.stats.deadline_exceeded));
        self.worker_restarts
            .store(load(&shared.stats.worker_restarts));
        let c = shared.cache.stats();
        self.cache_hits.store(c.hits);
        self.cache_misses.store(c.misses);
        self.cache_insertions.store(c.insertions);
        self.cache_evictions.store(c.evictions);
        self.cache_corruptions.store(c.corruptions);
        self.cache_entries.set(c.entries as u64);
        self.cache_capacity.set(c.capacity as u64);
        for (gauge, queue) in self.queue_depth.iter().zip(&shared.queues) {
            gauge.set(queue.len() as u64);
        }
        self.queue_capacity.set(shared.queues[0].capacity() as u64);
        self.uptime_ms
            .set(shared.started.elapsed().as_millis() as u64);
    }
}

/// Requests currently between decode and response write; shutdown
/// waits for this to reach zero so every accepted request is answered.
#[derive(Default)]
struct ActiveRequests {
    count: Mutex<u64>,
    zero: Condvar,
}

impl ActiveRequests {
    fn begin(&self) {
        *self.count.lock().unwrap_or_else(|e| e.into_inner()) += 1;
    }

    fn end(&self) {
        let mut n = self.count.lock().unwrap_or_else(|e| e.into_inner());
        *n -= 1;
        if *n == 0 {
            self.zero.notify_all();
        }
    }

    fn wait_zero(&self) {
        let mut n = self.count.lock().unwrap_or_else(|e| e.into_inner());
        while *n > 0 {
            n = self.zero.wait(n).unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// RAII guard for one in-flight request.
struct ActiveGuard<'a>(&'a ActiveRequests);

impl<'a> ActiveGuard<'a> {
    fn new(active: &'a ActiveRequests) -> Self {
        active.begin();
        ActiveGuard(active)
    }
}

impl Drop for ActiveGuard<'_> {
    fn drop(&mut self) {
        self.0.end();
    }
}

/// An owning [`ActiveGuard`]: the poll core parks it inside pending
/// request state, which outlives any single stack frame.
struct OwnedGuard(Arc<Shared>);

impl OwnedGuard {
    fn new(shared: &Arc<Shared>) -> Self {
        shared.active.begin();
        OwnedGuard(Arc::clone(shared))
    }
}

impl Drop for OwnedGuard {
    fn drop(&mut self) {
        self.0.active.end();
    }
}

/// The poll core's drain handshake: [`ServerHandle::wait`] blocks here
/// until the loop confirms every accepted request's response bytes are
/// flushed (the loop itself is detached — it lingers only to answer
/// `shutting-down` on connections the client still holds open).
#[derive(Default)]
struct DrainGate {
    flushed: Mutex<bool>,
    cv: Condvar,
}

impl DrainGate {
    fn mark(&self) {
        let mut flushed = self.flushed.lock().unwrap_or_else(|e| e.into_inner());
        *flushed = true;
        self.cv.notify_all();
    }

    fn wait(&self) {
        let mut flushed = self.flushed.lock().unwrap_or_else(|e| e.into_inner());
        while !*flushed {
            flushed = self.cv.wait(flushed).unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// Monotonic server counters, all exposed by the `stats` op.
#[derive(Default)]
struct ServerStats {
    requests: AtomicU64,
    ok: AtomicU64,
    errors: AtomicU64,
    overloaded: AtomicU64,
    op_place: AtomicU64,
    op_simulate: AtomicU64,
    op_stats: AtomicU64,
    op_metrics: AtomicU64,
    op_shutdown: AtomicU64,
    op_batch: AtomicU64,
    op_other: AtomicU64,
    /// Sub-requests carried inside accepted `batch` envelopes (each
    /// envelope itself counts once in `requests`).
    batch_subrequests: AtomicU64,
    worker_restarts: AtomicU64,
    deadline_exceeded: AtomicU64,
}

/// Everything the acceptor, connection, and worker threads share.
struct Shared {
    addr: SocketAddr,
    cache: ResultCache,
    queues: Vec<BoundedQueue<Job>>,
    shutting: AtomicBool,
    stats: ServerStats,
    telemetry: Option<Arc<TelemetrySink>>,
    started: Instant,
    active: ActiveRequests,
    faults: FaultInjector,
    read_timeout: Duration,
    write_timeout: Duration,
    metrics: ServeMetrics,
    /// Source for server-generated `srv-N` request ids.
    next_rid: AtomicU64,
    /// Resolved [`ServeConfig::max_batch`].
    max_batch: usize,
    /// Resolved [`ServeConfig::conn_buffer`].
    conn_buffer: usize,
    /// Poll-core drain handshake (unused by the threaded core).
    drain: DrainGate,
}

/// A running server: the bound address plus the threads to join.
pub struct ServerHandle {
    addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    shared: Arc<Shared>,
    /// Whether the poll core is serving (its loop thread is detached;
    /// [`ServerHandle::wait`] synchronizes on the drain gate instead).
    event_core: bool,
}

impl ServerHandle {
    /// The bound socket address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The bound port (useful with an ephemeral bind).
    pub fn port(&self) -> u16 {
        self.addr.port()
    }

    /// Triggers the drain locally (equivalent to a `shutdown` request).
    pub fn shutdown(&self) {
        begin_shutdown(&self.shared);
    }

    /// Blocks until the server has fully drained: the acceptor has
    /// stopped, the shard workers have finished every queued job, and
    /// every in-flight request has written its response. Under the
    /// poll core the loop thread itself is not joined — it lingers
    /// (detached) to answer `shutting-down` on connections a client
    /// still holds open, and exits once they close.
    pub fn wait(mut self) {
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        self.shared.active.wait_zero();
        if self.event_core {
            self.shared.drain.wait();
        }
    }
}

/// Binds and starts the service: the connection front end selected by
/// [`ServeConfig::core`] plus `shards` simulation workers.
///
/// # Errors
///
/// Propagates bind/spawn failures.
pub fn start(cfg: ServeConfig) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(cfg.addr_or_default())?;
    let addr = listener.local_addr()?;
    let use_event = cfg.core == ServeCore::Poll && cfg!(unix);
    let shards = if cfg.shards == 0 { 2 } else { cfg.shards };
    let depth = if cfg.queue_depth == 0 {
        32
    } else {
        cfg.queue_depth
    };
    let cache_cap = if cfg.cache_capacity == 0 {
        128
    } else {
        cfg.cache_capacity
    };
    let read_timeout_ms = if cfg.read_timeout_ms == 0 {
        DEFAULT_READ_TIMEOUT_MS
    } else {
        cfg.read_timeout_ms
    };
    let write_timeout_ms = if cfg.write_timeout_ms == 0 {
        DEFAULT_WRITE_TIMEOUT_MS
    } else {
        cfg.write_timeout_ms
    };
    let max_batch = if cfg.max_batch == 0 {
        DEFAULT_MAX_BATCH
    } else {
        cfg.max_batch
    };
    let conn_buffer = if cfg.conn_buffer == 0 {
        DEFAULT_CONN_BUFFER
    } else {
        cfg.conn_buffer
    };
    let shared = Arc::new(Shared {
        addr,
        cache: ResultCache::new(cache_cap),
        queues: (0..shards).map(|_| BoundedQueue::new(depth)).collect(),
        shutting: AtomicBool::new(false),
        stats: ServerStats::default(),
        telemetry: cfg.telemetry,
        started: Instant::now(),
        active: ActiveRequests::default(),
        faults: cfg
            .faults
            .map_or_else(FaultInjector::disabled, FaultInjector::new),
        read_timeout: Duration::from_millis(read_timeout_ms),
        write_timeout: Duration::from_millis(write_timeout_ms),
        metrics: ServeMetrics::new(shards),
        next_rid: AtomicU64::new(1),
        max_batch,
        conn_buffer,
        drain: DrainGate::default(),
    });
    let workers = (0..shards)
        .map(|i| {
            let s = Arc::clone(&shared);
            thread::Builder::new()
                .name(format!("hetmem-serve-shard-{i}"))
                .spawn(move || supervise_worker(&s, i))
        })
        .collect::<io::Result<Vec<_>>>()?;
    let mut acceptor = None;
    if use_event {
        // The loop thread is detached: wait() synchronizes on the
        // drain gate, and the loop exits on its own once every
        // connection is gone.
        #[cfg(unix)]
        {
            let s = Arc::clone(&shared);
            thread::Builder::new()
                .name("hetmem-serve-poll".to_string())
                .spawn(move || event::event_loop(&s, listener))?;
        }
    } else {
        let s = Arc::clone(&shared);
        acceptor = Some(
            thread::Builder::new()
                .name("hetmem-serve-accept".to_string())
                .spawn(move || threaded::accept_loop(&s, listener))?,
        );
    }
    Ok(ServerHandle {
        addr,
        acceptor,
        workers,
        shared,
        event_core: use_event,
    })
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
    configure_blocking_stream(&stream, read_timeout, None)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    let mut line = req.encode();
    line.push('\n');
    writer.write_all(line.as_bytes())?;
    writer.flush()?;
    let mut reply = String::new();
    if reader.read_line(&mut reply)? == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "server closed the connection before responding",
        ));
    }
    // A complete response line always ends in '\n'; bytes without it
    // mean the connection died mid-write. Surface that as a short read
    // (retryable), not a protocol error.
    if !reply.ends_with('\n') {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed mid-response (truncated line)",
        ));
    }
    Response::decode(reply.trim_end())
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
}

/// The one place blocking-socket timeout semantics live: client
/// round-trips and the threaded core's accepted connections both come
/// through here, with the same ≥1 ms clamp (a zero `Duration` means
/// "non-blocking" to the OS — never what a blocking stream wants).
fn configure_blocking_stream(
    stream: &TcpStream,
    read_timeout: Duration,
    write_timeout: Option<Duration>,
) -> io::Result<()> {
    let floor = Duration::from_millis(1);
    stream.set_read_timeout(Some(read_timeout.max(floor)))?;
    if let Some(write_timeout) = write_timeout {
        stream.set_write_timeout(Some(write_timeout.max(floor)))?;
    }
    Ok(())
}

/// A fresh server-generated request id, used for telemetry joining
/// when the client did not supply one. Never echoed on responses.
fn gen_rid(shared: &Shared) -> String {
    format!("srv-{}", shared.next_rid.fetch_add(1, Ordering::Relaxed))
}

/// Decodes one request line and resolves it as far as a front end can
/// without blocking: inline ops (and every refusal) come back as
/// [`Prepared::Done`], pool-bound work as [`Prepared::Sim`] /
/// [`Prepared::Batch`] for the front end to submit and complete.
///
/// `shed` is the poll core's backpressure signal: a connection too far
/// behind on reading its responses has everything but `shutdown`
/// refused with `overloaded`, so a slow reader degrades structurally
/// instead of stalling the loop or ballooning its buffer.
fn dispatch_prepare(shared: &Arc<Shared>, line: &str, read_us: u64, shed: bool) -> Prepared {
    let t0 = Instant::now();
    shared.stats.requests.fetch_add(1, Ordering::Relaxed);
    let decoded = Request::decode(line);
    let decode_us = us(t0.elapsed());
    let req = match decoded {
        Ok(req) => req,
        Err(e) => {
            shared.stats.errors.fetch_add(1, Ordering::Relaxed);
            let resp = Response::err(0, e.code(), &e.to_string());
            // The line never parsed, so there is no client id to echo.
            let meta = ReqMeta {
                op: "decode".to_string(),
                request_id: gen_rid(shared),
                trace: false,
                status: e.code().to_string(),
                cache_hit: false,
                read_us,
                decode_us,
                phases: PhaseTimes::default(),
                t0,
            };
            return Prepared::Done(resp, meta);
        }
    };
    let op_counter = match req.op.as_str() {
        "place" => &shared.stats.op_place,
        "simulate" => &shared.stats.op_simulate,
        "stats" => &shared.stats.op_stats,
        "metrics" => &shared.stats.op_metrics,
        "shutdown" => &shared.stats.op_shutdown,
        "batch" => &shared.stats.op_batch,
        _ => &shared.stats.op_other,
    };
    op_counter.fetch_add(1, Ordering::Relaxed);
    // Client-supplied ids are echoed on the response; generated ones
    // exist only in telemetry so identical request lines keep
    // byte-identical responses.
    let client_rid = req.request_id.clone();
    let rid = client_rid.clone().unwrap_or_else(|| gen_rid(shared));
    // The request's cooperative deadline, anchored at receipt time.
    let deadline = req.deadline_ms.map(|ms| t0 + Duration::from_millis(ms));
    let head = ReqHead {
        id: req.id,
        op: req.op.clone(),
        client_rid,
        rid,
        trace: req.trace,
        read_us,
        decode_us,
        t0,
    };

    // Envelope-level refusals, in priority order.
    if shared.shutting.load(Ordering::SeqCst) {
        return done(shared, head, Err(HetmemError::ShuttingDown));
    }
    if req.proto == 0 || req.proto > PROTO_V2 {
        return done(
            shared,
            head,
            Err(HetmemError::UnsupportedProtocol { proto: req.proto }),
        );
    }
    if deadline.is_some_and(|d| Instant::now() >= d) {
        return done(shared, head, Err(HetmemError::DeadlineExceeded));
    }
    if shed && req.op != "shutdown" {
        return done(shared, head, Err(HetmemError::Overloaded));
    }

    match req.op.as_str() {
        "place" => {
            let outcome = handle_place(&req.params).map(SimReply::inline);
            done(shared, head, outcome)
        }
        "simulate" => match parse_simulate(&req.params) {
            Ok((point, key)) => Prepared::Sim(SimWork {
                head,
                point,
                key,
                deadline,
            }),
            Err(e) => done(shared, head, Err(e)),
        },
        "stats" => {
            let body = stats_json(shared);
            done(shared, head, Ok(SimReply::inline(body)))
        }
        "metrics" => {
            let outcome = metrics_json(shared, &req.params).map(SimReply::inline);
            done(shared, head, outcome)
        }
        "shutdown" => {
            begin_shutdown(shared);
            let body = JsonObject::new().bool("draining", true).finish();
            done(shared, head, Ok(SimReply::inline(body)))
        }
        "batch" => {
            if req.proto < PROTO_V2 {
                let e = HetmemError::invalid(
                    "op 'batch' requires \"proto\":2 or newer in the envelope",
                );
                return done(shared, head, Err(e));
            }
            match prepare_batch(shared, &req, deadline, t0) {
                Ok(subs) => Prepared::Batch(BatchWork { head, subs }),
                Err(e) => done(shared, head, Err(e)),
            }
        }
        op => {
            let e = HetmemError::UnknownOp { op: op.to_string() };
            done(shared, head, Err(e))
        }
    }
}

/// [`finish_outcome`] wrapped as a [`Prepared::Done`].
fn done(shared: &Arc<Shared>, head: ReqHead, outcome: JobReply) -> Prepared {
    let (resp, meta) = finish_outcome(shared, head, outcome);
    Prepared::Done(resp, meta)
}

/// Counts the refusal kinds `stats` breaks out separately.
fn count_refusal(shared: &Shared, e: &HetmemError) {
    if matches!(e, HetmemError::Overloaded) {
        shared.stats.overloaded.fetch_add(1, Ordering::Relaxed);
    }
    if matches!(e, HetmemError::DeadlineExceeded) {
        shared
            .stats
            .deadline_exceeded
            .fetch_add(1, Ordering::Relaxed);
    }
}

/// Turns a request's final outcome into its response envelope and
/// accounting record — the single place `ok`/`errors` counting and
/// request-id echo policy live, shared by both front ends.
fn finish_outcome(shared: &Arc<Shared>, head: ReqHead, outcome: JobReply) -> (Response, ReqMeta) {
    let (resp, status, cache_hit, phases) = match outcome {
        Ok(reply) => {
            shared.stats.ok.fetch_add(1, Ordering::Relaxed);
            (
                Response::ok(head.id, reply.body).with_request_id(head.client_rid),
                "ok".to_string(),
                reply.cache_hit,
                reply.phases,
            )
        }
        Err(e) => {
            shared.stats.errors.fetch_add(1, Ordering::Relaxed);
            count_refusal(shared, &e);
            (
                Response::err(head.id, e.code(), &e.to_string()).with_request_id(head.client_rid),
                e.code().to_string(),
                false,
                PhaseTimes::default(),
            )
        }
    };
    let meta = ReqMeta {
        op: head.op,
        request_id: head.rid,
        trace: head.trace,
        status,
        cache_hit,
        read_us: head.read_us,
        decode_us: head.decode_us,
        phases,
        t0: head.t0,
    };
    (resp, meta)
}

/// Assembles a completed batch: the envelope counts once as an `ok`
/// response; per-sub outcomes live inside the `responses` array.
fn finish_batch(
    shared: &Arc<Shared>,
    head: ReqHead,
    responses: Vec<Response>,
) -> (Response, ReqMeta) {
    let body = JsonObject::new()
        .raw(
            "responses",
            &json::array(responses.iter().map(Response::encode)),
        )
        .finish();
    finish_outcome(shared, head, Ok(SimReply::inline(body)))
}

/// Validates a `batch` envelope and resolves every sub-request:
/// inline sub-ops run now, sub-simulations come back as
/// [`SubWork::Sim`] for the front end to fan out.
fn prepare_batch(
    shared: &Arc<Shared>,
    req: &Request,
    parent_deadline: Option<Instant>,
    t0: Instant,
) -> Result<Vec<SubWork>, HetmemError> {
    let items = req
        .params
        .get("requests")
        .and_then(JsonValue::as_array)
        .ok_or_else(|| {
            HetmemError::invalid("batch needs a 'requests' array of request envelopes")
        })?;
    if items.is_empty() {
        return Err(HetmemError::invalid("batch 'requests' must be non-empty"));
    }
    if items.len() > shared.max_batch {
        return Err(HetmemError::BatchTooLarge {
            got: items.len(),
            max: shared.max_batch,
        });
    }
    shared
        .stats
        .batch_subrequests
        .fetch_add(items.len() as u64, Ordering::Relaxed);
    Ok(items
        .iter()
        .map(|item| prepare_sub(shared, item, parent_deadline, t0))
        .collect())
}

/// Resolves one batch slot. Per-sub failures become structured error
/// responses in that slot; they never fail the whole envelope.
fn prepare_sub(
    shared: &Arc<Shared>,
    item: &JsonValue,
    parent_deadline: Option<Instant>,
    t0: Instant,
) -> SubWork {
    let sub = match Request::from_value(item) {
        Ok(sub) => sub,
        // The slot never parsed; like a bare undecodable line, the
        // error response carries id 0.
        Err(e) => return SubWork::Ready(Response::err(0, e.code(), &e.to_string())),
    };
    let client_rid = sub.request_id.clone();
    let fail = |e: HetmemError| {
        count_refusal(shared, &e);
        SubWork::Ready(
            Response::err(sub.id, e.code(), &e.to_string()).with_request_id(client_rid.clone()),
        )
    };
    if sub.proto == 0 || sub.proto > PROTO_V2 {
        return fail(HetmemError::UnsupportedProtocol { proto: sub.proto });
    }
    // A sub-deadline is anchored at batch decode and never outlives
    // the parent envelope's.
    let sub_deadline = sub.deadline_ms.map(|ms| t0 + Duration::from_millis(ms));
    let deadline = match (parent_deadline, sub_deadline) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    };
    if deadline.is_some_and(|d| Instant::now() >= d) {
        return fail(HetmemError::DeadlineExceeded);
    }
    let ready = |result: Result<String, HetmemError>| match result {
        Ok(body) => SubWork::Ready(Response::ok(sub.id, body).with_request_id(client_rid.clone())),
        Err(e) => fail(e),
    };
    match sub.op.as_str() {
        "place" => ready(handle_place(&sub.params)),
        "stats" => ready(Ok(stats_json(shared))),
        "metrics" => ready(metrics_json(shared, &sub.params)),
        "simulate" => match parse_simulate(&sub.params) {
            Ok((point, key)) => SubWork::Sim {
                id: sub.id,
                client_rid,
                point,
                key,
                deadline,
            },
            Err(e) => fail(e),
        },
        "batch" => fail(HetmemError::invalid("'batch' does not nest")),
        "shutdown" => fail(HetmemError::invalid(
            "'shutdown' cannot ride inside a batch",
        )),
        op => fail(HetmemError::UnknownOp { op: op.to_string() }),
    }
}

/// Builds one slot's response from its pool reply. Sub-requests don't
/// count in `ok`/`errors` (the envelope already counted once), but
/// shed and deadline refusals still feed their dedicated counters.
fn sub_sim_response(
    shared: &Shared,
    id: u64,
    client_rid: Option<String>,
    reply: JobReply,
) -> Response {
    match reply {
        Ok(r) => Response::ok(id, r.body).with_request_id(client_rid),
        Err(e) => {
            count_refusal(shared, &e);
            Response::err(id, e.code(), &e.to_string()).with_request_id(client_rid)
        }
    }
}

/// Routes a job to its shard by cache-key hash. A full or closed
/// queue answers through the job's own reply sink, so both front ends
/// observe refusals exactly like any other completion.
fn submit_job(
    shared: &Arc<Shared>,
    key: String,
    point: SimPoint,
    deadline: Option<Instant>,
    reply: ReplySink,
) {
    let shard = (fnv1a(key.as_bytes()) % shared.queues.len() as u64) as usize;
    let job = Job {
        key,
        point,
        deadline,
        enqueued: Instant::now(),
        reply,
    };
    match shared.queues[shard].try_push(job) {
        Ok(()) => {}
        Err(PushError::Overloaded(job)) => job.reply.send(Err(HetmemError::Overloaded)),
        Err(PushError::Closed(job)) => job.reply.send(Err(HetmemError::ShuttingDown)),
    }
}

/// Accounts one finished request: registry histograms and counters,
/// the `serve-request` telemetry line, and (with `"trace":true`) one
/// `serve-span` line per phase. Runs *before* the response bytes are
/// written — see the conservation note in the module docs (both front
/// ends account first, then write).
fn finish_request(shared: &Shared, meta: &ReqMeta, encode_us: u64) {
    let m = &shared.metrics;
    m.op_hist(&meta.op).record(us(meta.t0.elapsed()));
    m.requests_total.inc();
    if meta.status == "ok" {
        m.responses_ok.inc();
    } else {
        m.responses_err.inc();
    }
    let spans = [
        ("read", Some(meta.read_us)),
        ("decode", Some(meta.decode_us)),
        ("queue_wait", meta.phases.queue_wait_us),
        ("cache_lookup", meta.phases.cache_lookup_us),
        ("execute", meta.phases.execute_us),
        ("encode", Some(encode_us)),
    ];
    m.ph_read.record(meta.read_us);
    m.ph_decode.record(meta.decode_us);
    if let Some(v) = meta.phases.queue_wait_us {
        m.ph_queue_wait.record(v);
    }
    if let Some(v) = meta.phases.cache_lookup_us {
        m.ph_cache_lookup.record(v);
    }
    if let Some(v) = meta.phases.execute_us {
        m.ph_execute.record(v);
    }
    m.ph_encode.record(encode_us);
    let Some(sink) = &shared.telemetry else {
        return;
    };
    let mut lines = vec![JsonObject::new()
        .str("kind", "serve-request")
        .str("request_id", &meta.request_id)
        .str("op", &meta.op)
        .str("status", &meta.status)
        .bool("cache_hit", meta.cache_hit)
        .f64("wall_ms", meta.t0.elapsed().as_secs_f64() * 1e3)
        .finish()];
    if meta.trace {
        // Spans chain end-to-start (`start_us` is relative to the
        // start of the read phase), so a renderer can lay them on one
        // timeline without clock plumbing.
        let mut start = 0u64;
        for (phase, dur) in spans {
            let Some(dur) = dur else { continue };
            lines.push(
                JsonObject::new()
                    .str("kind", "serve-span")
                    .str("request_id", &meta.request_id)
                    .str("op", &meta.op)
                    .str("phase", phase)
                    .u64("start_us", start)
                    .u64("dur_us", dur)
                    .finish(),
            );
            start += dur;
        }
    }
    let _ = sink.record_lines("serve", &lines);
}

/// Sets the drain flag once: close every shard queue (workers finish
/// what is queued, then exit) and wake the acceptor so it stops
/// listening.
fn begin_shutdown(shared: &Arc<Shared>) {
    if shared.shutting.swap(true, Ordering::SeqCst) {
        return;
    }
    for q in &shared.queues {
        q.close();
    }
    // accept() is blocking; a throwaway connection wakes it to observe
    // the flag.
    let _ = TcpStream::connect(shared.addr);
}

/// Keeps shard `shard` alive: a panic anywhere in [`worker_loop`]
/// (outside the sweep engine's own `catch_unwind`, e.g. an injected
/// worker fault) is caught, counted, and the loop re-entered. The job
/// being carried is dropped with it, which closes its reply channel —
/// the waiting connection thread observes the disconnect and answers
/// `worker-restarted`. A clean exit (queue closed and drained) ends
/// supervision.
fn supervise_worker(shared: &Arc<Shared>, shard: usize) {
    loop {
        match catch_unwind(AssertUnwindSafe(|| worker_loop(shared, shard))) {
            Ok(()) => break,
            Err(_) => {
                shared.stats.worker_restarts.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

fn worker_loop(shared: &Arc<Shared>, shard: usize) {
    while let Some(job) = shared.queues[shard].pop() {
        let queue_wait_us = us(job.enqueued.elapsed());
        // Chaos hooks, rolled in a fixed order so a seeded plan
        // replays the same decisions: crash the worker, stall it, or
        // rot the cached entry (which the integrity checksum catches).
        shared.faults.maybe_panic("shard-worker");
        if let Some(stall) = shared.faults.maybe_latency() {
            thread::sleep(stall);
        }
        if shared.faults.maybe_corrupt() {
            shared.cache.corrupt(&job.key);
        }
        if job.deadline.is_some_and(|d| Instant::now() >= d) {
            // Counted once, by the front end, when the reply flows back.
            job.reply.send(Err(HetmemError::DeadlineExceeded));
            continue;
        }
        // Identical concurrent requests hash to this same shard, so by
        // the time a duplicate is popped the first result is cached.
        let lookup_start = Instant::now();
        let cached = shared.cache.get(&job.key);
        let mut phases = PhaseTimes {
            queue_wait_us: Some(queue_wait_us),
            cache_lookup_us: Some(us(lookup_start.elapsed())),
            execute_us: None,
        };
        let reply = match cached {
            Some(body) => Ok(SimReply {
                body,
                cache_hit: true,
                phases,
            }),
            None => {
                let exec_start = Instant::now();
                match execute(&job.point, job.deadline) {
                    Ok((body, migration)) => {
                        phases.execute_us = Some(us(exec_start.elapsed()));
                        // Aggregates count work actually done: cache
                        // hits don't re-count the cached run's epochs.
                        if let Some(mt) = &migration {
                            shared.metrics.record_migration(mt);
                        }
                        shared.cache.insert(&job.key, body.clone());
                        Ok(SimReply {
                            body,
                            cache_hit: false,
                            phases,
                        })
                    }
                    Err(e) => Err(e),
                }
            }
        };
        job.reply.send(reply);
    }
}

/// Runs one point through the sweep engine (single-threaded, one
/// point) so a simulator panic comes back as a structured error.
fn execute(
    point: &SimPoint,
    deadline: Option<Instant>,
) -> Result<(String, Option<MigrationTelemetry>), HetmemError> {
    let opts = SweepOptions {
        threads: 1,
        progress: false,
        deadline,
        ..SweepOptions::default()
    };
    let mut results = run_grid(
        std::slice::from_ref(point),
        &opts,
        |p| format!("{}/{}", p.spec.name, p.config_label),
        |p, _ctx| run_point(p),
    )?;
    Ok(results.pop().expect("one point in, one result out"))
}

fn run_point(p: &SimPoint) -> (String, Option<MigrationTelemetry>) {
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
    let rec = record_for("serve", p.spec.name, &p.config_label, &p.sim, &run);
    let migration = rec.migration;
    (rec.jsonl(false), migration)
}

/// Resolves a `simulate` request into a concrete [`SimPoint`] and its
/// canonical cache key. Every knob is resolved (defaults applied)
/// before keying, so explicitly passing a default value still hits.
fn parse_simulate(params: &JsonValue) -> Result<(SimPoint, String), HetmemError> {
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

/// `place`: annotation arrays (or a catalog workload's) through the
/// paper's `GetAllocation`, inline on the connection thread.
fn handle_place(params: &JsonValue) -> Result<String, HetmemError> {
    let sim = SimConfig::paper_baseline();
    let (names, sizes, hotness) = place_inputs(params)?;
    let footprint: u64 = sizes.iter().sum();
    if footprint == 0 {
        return Err(HetmemError::invalid("total footprint must be positive"));
    }
    let bo_bytes = match (
        field_u64(params, "bo_bytes")?,
        field_u64(params, "capacity_pct")?,
    ) {
        (Some(bytes), _) => bytes,
        (None, Some(pct)) if (1..=100).contains(&pct) => {
            (footprint as f64 * pct as f64 / 100.0).ceil() as u64
        }
        (None, Some(_)) => return Err(HetmemError::invalid("'capacity_pct' must be in 1..=100")),
        // Unconstrained: the BW-AWARE share always fits a BO pool the
        // size of the whole footprint.
        (None, None) => footprint,
    };
    let frac = match params.get("bo_traffic_fraction") {
        Some(v) => {
            let f = v
                .as_f64()
                .ok_or_else(|| HetmemError::invalid("'bo_traffic_fraction' must be a number"))?;
            if !(0.0..=1.0).contains(&f) {
                return Err(HetmemError::invalid(
                    "'bo_traffic_fraction' must be in [0, 1]",
                ));
            }
            f
        }
        None => bo_traffic_target(&sim),
    };
    let hints = get_allocation(&sizes, &hotness, bo_bytes, frac);
    let items = names
        .iter()
        .zip(&sizes)
        .zip(&hints)
        .map(|((name, bytes), hint)| {
            JsonObject::new()
                .str("name", name)
                .u64("bytes", *bytes)
                .str("hint", hint.as_str())
                .finish()
        });
    Ok(JsonObject::new()
        .raw("hints", &json::array(items))
        .u64("bo_bytes", bo_bytes)
        .f64("bo_traffic_fraction", frac)
        .finish())
}

type PlaceInputs = (Vec<String>, Vec<u64>, Vec<f64>);

/// The `place` inputs: a catalog workload's structures, or explicit
/// `sizes` + `hotness` (+ optional `names`) arrays.
fn place_inputs(params: &JsonValue) -> Result<PlaceInputs, HetmemError> {
    if let Some(name) = params.get("workload").and_then(JsonValue::as_str) {
        let spec = catalog::by_name(name).ok_or_else(|| HetmemError::UnknownWorkload {
            name: name.to_string(),
        })?;
        let names = spec.structures.iter().map(|s| s.name.to_string()).collect();
        let sizes = spec.structures.iter().map(|s| s.bytes).collect();
        let hotness = spec.hotness_densities();
        return Ok((names, sizes, hotness));
    }
    let sizes = array_field(params, "sizes", JsonValue::as_u64)?
        .ok_or_else(|| HetmemError::invalid("place needs 'workload' or 'sizes' + 'hotness'"))?;
    let hotness = array_field(params, "hotness", JsonValue::as_f64)?
        .ok_or_else(|| HetmemError::invalid("place needs 'hotness' alongside 'sizes'"))?;
    if sizes.is_empty() || sizes.len() != hotness.len() {
        return Err(HetmemError::invalid(
            "'sizes' and 'hotness' must be non-empty and the same length",
        ));
    }
    let names = match array_field(params, "names", |v| v.as_str().map(str::to_string))? {
        Some(names) if names.len() == sizes.len() => names,
        Some(_) => {
            return Err(HetmemError::invalid("'names' must match 'sizes' in length"));
        }
        None => (0..sizes.len()).map(|i| format!("alloc{i}")).collect(),
    };
    Ok((names, sizes, hotness))
}

/// Reads an optional homogeneous array field; `Err` when present but
/// ill-typed.
fn array_field<T>(
    params: &JsonValue,
    key: &str,
    elem: impl Fn(&JsonValue) -> Option<T>,
) -> Result<Option<Vec<T>>, HetmemError> {
    match params.get(key) {
        None => Ok(None),
        Some(v) => {
            let items = v
                .as_array()
                .ok_or_else(|| HetmemError::invalid(format!("'{key}' must be an array")))?;
            items
                .iter()
                .map(|item| {
                    elem(item).ok_or_else(|| {
                        HetmemError::invalid(format!("'{key}' has an ill-typed element"))
                    })
                })
                .collect::<Result<Vec<T>, _>>()
                .map(Some)
        }
    }
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

/// The `stats` result body.
fn stats_json(shared: &Shared) -> String {
    let s = &shared.stats;
    let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
    let cache = shared.cache.stats();
    let ops = JsonObject::new()
        .u64("place", load(&s.op_place))
        .u64("simulate", load(&s.op_simulate))
        .u64("stats", load(&s.op_stats))
        .u64("metrics", load(&s.op_metrics))
        .u64("shutdown", load(&s.op_shutdown))
        .u64("batch", load(&s.op_batch))
        .u64("other", load(&s.op_other))
        .finish();
    let cache_obj = JsonObject::new()
        .u64("hits", cache.hits)
        .u64("misses", cache.misses)
        .u64("insertions", cache.insertions)
        .u64("evictions", cache.evictions)
        .u64("corruptions", cache.corruptions)
        .u64("entries", cache.entries as u64)
        .u64("capacity", cache.capacity as u64)
        .finish();
    let mut obj = JsonObject::new()
        .u64("requests", load(&s.requests))
        .u64("ok", load(&s.ok))
        .u64("errors", load(&s.errors))
        .u64("overloaded", load(&s.overloaded))
        .u64("worker_restarts", load(&s.worker_restarts))
        .u64("deadline_exceeded", load(&s.deadline_exceeded))
        .u64("batch_subrequests", load(&s.batch_subrequests))
        .raw("ops", &ops)
        .raw("cache", &cache_obj)
        .u64("shards", shared.queues.len() as u64)
        .u64("queue_depth", shared.queues[0].capacity() as u64)
        .u64("uptime_ms", shared.started.elapsed().as_millis() as u64);
    if shared.faults.is_active() {
        let f = shared.faults.counts();
        let faults = JsonObject::new()
            .u64("decisions", f.decisions)
            .u64("injected", f.injected())
            .u64("panics", f.panics)
            .u64("latencies", f.latencies)
            .u64("wire_errors", f.wire_errors)
            .u64("corruptions", f.corruptions)
            .u64("conn_drops", f.conn_drops)
            .u64("stalls", f.stalls)
            .u64("refusals", f.refusals)
            .finish();
        obj = obj.raw("faults", &faults);
    }
    obj.finish()
}

/// The `metrics` result body: the full registry in the requested
/// format. Scrape-time mirrors (cache stats, queue depths, uptime)
/// are refreshed first, so both formats see one coherent snapshot.
fn metrics_json(shared: &Shared, params: &JsonValue) -> Result<String, HetmemError> {
    let format = match params.get("format") {
        None => "json",
        Some(v) => v
            .as_str()
            .ok_or_else(|| HetmemError::invalid("'format' must be a string"))?,
    };
    shared.metrics.refresh(shared);
    match format {
        "json" => Ok(shared.metrics.registry.render_json()),
        "prometheus" => Ok(JsonObject::new()
            .str("format", "prometheus")
            .str("text", &shared.metrics.registry.render_prometheus())
            .finish()),
        other => Err(HetmemError::invalid(format!(
            "unknown metrics format '{other}' (want json or prometheus)"
        ))),
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

/// Maps a client-side decode failure onto the protocol's error space
/// (exposed for the client binary).
pub fn protocol_io_error(e: &ProtocolError) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e.to_string())
}
