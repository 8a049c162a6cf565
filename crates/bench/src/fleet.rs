//! `hetmem-fleet`: fault-tolerant multi-process serving.
//!
//! A std-only router that spawns and supervises N `hetmem-serve`
//! backend processes and proxies the JSONL protocol (v1 and v2) to
//! them on the crate's poll(2) reactor — the same loop `hetmem-serve`
//! runs on, with pipelining, per-connection write-backlog
//! backpressure, and read/write timeouts. The router keeps only its
//! per-line and per-completion handlers (`Fleet`).
//!
//! ## Routing
//!
//! Every request's **content key** — for `simulate`, the canonical
//! cache key from [`crate::serve::simulate_cache_key`]; for other ops,
//! `op:params` — is consistent-hashed over the backends with
//! [`HashRing`], so each cache shard lives in exactly one process and
//! repeated requests stay byte-identical cache hits. `batch`
//! envelopes are split per owning backend, forwarded as per-backend
//! batch envelopes, and reassembled in sub-request order; `stats`,
//! `metrics`, and `shutdown` are answered at fleet level by the router
//! itself (bare or as batch slots).
//!
//! ## Robustness
//!
//! * **Supervision** — each backend child is restarted with a bounded,
//!   seeded [`Backoff`] schedule when it exits unexpectedly; a backend
//!   past `max_restarts` is marked gone and drops out of the ring walk.
//! * **Health probes** — a prober issues a periodic `stats` round-trip
//!   with a short deadline against every backend and feeds a
//!   per-backend closed/open/half-open [`CircuitBreaker`]; an open
//!   breaker excludes the backend from routing until its seeded
//!   cooldown elapses.
//! * **Failover** — a transport failure (or a `worker-restarted` that
//!   survives an in-place retry) moves the request to the key's next
//!   ring successor. Requests are idempotent (`place`/`simulate` are
//!   pure and cached), so re-execution is safe. When every candidate
//!   is down the client gets the stable, retryable
//!   `backend-unavailable` code; a draining fleet answers
//!   `fleet-draining`, which clients must not retry.
//! * **Drain** — `shutdown` (or [`FleetHandle::shutdown`], or SIGTERM
//!   and SIGINT once [`FleetHandle::drain_on_termination_signals`] is
//!   on, as in the `hetmem-fleet` binary) refuses new work, finishes
//!   every in-flight request, then stops each child: `shutdown` op
//!   first, SIGTERM next, SIGKILL last.
//!
//! ## Observability
//!
//! The router carries its own [`MetricsRegistry`] with the same
//! conservation contract as a single server (`hm_requests_total` and
//! the per-op `hm_request_duration_us` histogram are recorded before
//! response bytes are written), so `hetmem-top --check` works against
//! the router unchanged. Fleet-specific families add per-backend
//! request/error/reroute/restart counters, a health gauge, and the
//! ring-ownership share per backend.

use std::collections::HashMap;
use std::ffi::c_int;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use hetmem::HetmemError;
use hetmem_harness::json::{self, JsonObject, JsonValue};
use hetmem_harness::metrics::{Counter, Gauge, Histogram, MetricsRegistry};
use hetmem_harness::{
    batch_request, Backoff, BoundedQueue, CircuitBreaker, HashRing, PushError, Request, Response,
    DEFAULT_VNODES, PROTO_V2,
};

use crate::reactor::{self, us, Completions, Conn, DrainGate, Handler, Limits, Sink};
use crate::serve::{roundtrip_timeout, simulate_cache_key};

const SIGINT: c_int = 2;
const SIGTERM: c_int = 15;

extern "C" {
    fn kill(pid: c_int, sig: c_int) -> c_int;
    /// `signal(2)`; the previous handler comes back as an address
    /// (`SIG_ERR` is -1), never called here.
    fn signal(signum: c_int, handler: extern "C" fn(c_int)) -> usize;
}

/// Set by [`on_termination`] when SIGTERM or SIGINT arrives.
static TERMINATION_REQUESTED: AtomicBool = AtomicBool::new(false);

/// The SIGTERM/SIGINT handler: one atomic store, which is
/// async-signal-safe. A watcher thread turns it into a drain.
extern "C" fn on_termination(_signum: c_int) {
    TERMINATION_REQUESTED.store(true, Ordering::SeqCst);
}

/// Default backend child count.
const DEFAULT_BACKENDS: usize = 2;
/// Default forwarding-queue depth (requests parked for a worker).
const DEFAULT_FWD_QUEUE: usize = 256;
/// Default per-forwarded-roundtrip read timeout.
const DEFAULT_BACKEND_TIMEOUT_MS: u64 = 120_000;
/// Default health-probe cadence.
const DEFAULT_PROBE_INTERVAL_MS: u64 = 200;
/// Default health-probe deadline (also its read timeout).
const DEFAULT_PROBE_DEADLINE_MS: u64 = 750;
/// Default consecutive failures before a breaker opens.
const DEFAULT_BREAKER_THRESHOLD: u32 = 3;
/// Default restart budget per backend before it is marked gone.
const DEFAULT_MAX_RESTARTS: u32 = 5;
/// How long to wait for a spawned child's port file.
const SPAWN_DEADLINE: Duration = Duration::from_secs(10);
/// Connect timeout for router→backend sockets.
const CONNECT_TIMEOUT: Duration = Duration::from_millis(1_000);

/// Router construction knobs. `Default` binds an ephemeral loopback
/// port with two backends discovered next to the current executable.
#[derive(Debug, Clone, Default)]
pub struct FleetConfig {
    /// Bind address; empty = `127.0.0.1:0`.
    pub addr: String,
    /// Backend child processes (0 = default 2).
    pub backends: usize,
    /// Path to the `hetmem-serve` binary; `None` looks for a sibling
    /// of the current executable.
    pub serve_bin: Option<PathBuf>,
    /// Per-backend `--shards` passthrough (0 = server default).
    pub shards: usize,
    /// Per-backend `--queue-depth` passthrough (0 = server default).
    pub queue_depth: usize,
    /// Per-backend `--cache` passthrough (0 = server default).
    pub cache_capacity: usize,
    /// `batch` sub-request ceiling, enforced at the router and passed
    /// through to backends (0 = default 64).
    pub max_batch: usize,
    /// Router backpressure threshold in bytes (0 = default 256 KiB),
    /// same semantics as [`crate::serve::ServeConfig::conn_buffer`].
    pub conn_buffer: usize,
    /// Client-connection read timeout at the router (0 = default
    /// 120000 ms).
    pub read_timeout_ms: u64,
    /// Client-connection write timeout at the router (0 = default
    /// 30000 ms).
    pub write_timeout_ms: u64,
    /// Read timeout per forwarded backend round-trip (0 = default
    /// 120000 ms); shortened to the request's own deadline when set.
    pub backend_timeout_ms: u64,
    /// Health-probe cadence (0 = default 200 ms).
    pub probe_interval_ms: u64,
    /// Health-probe deadline (0 = default 750 ms).
    pub probe_deadline_ms: u64,
    /// Consecutive failures that open a backend's breaker (0 = 3).
    pub breaker_threshold: u32,
    /// Seed for the deterministic breaker-cooldown and restart-backoff
    /// jitter.
    pub seed: u64,
    /// Restart budget per backend before it is marked gone (0 = 5).
    pub max_restarts: u32,
    /// `--faults` spec passed through to every backend (router-side
    /// chaos is driven from the backends, so injected decisions stay
    /// deterministic per process).
    pub backend_faults: Option<String>,
    /// Forwarding worker threads (0 = 2 per backend, clamped 2..=16).
    pub workers: usize,
    /// Forwarding-queue depth before the router sheds with
    /// `overloaded` (0 = default 256).
    pub fwd_queue: usize,
}

/// Everything known about one supervised backend process.
struct Backend {
    /// Where the child listens; `None` while it is down or respawning.
    addr: Mutex<Option<SocketAddr>>,
    child: Mutex<Option<Child>>,
    breaker: CircuitBreaker,
    /// Restart budget exhausted: permanently out of the ring walk.
    gone: AtomicBool,
    /// Unexpected exits (each one triggers a supervised respawn).
    restarts: AtomicU64,
    /// Forwarded requests (attempts, including in-place retries).
    requests: Arc<Counter>,
    /// Failed forwarded attempts.
    errors: Arc<Counter>,
    /// Requests that failed here and moved on down the ring (or
    /// exhausted it).
    reroutes: Arc<Counter>,
    /// Last health-probed backend cache counters, aggregated into the
    /// fleet `stats` body.
    cache: Mutex<BackendCache>,
}

impl Backend {
    fn addr(&self) -> Option<SocketAddr> {
        *self.addr.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn healthy(&self) -> bool {
        self.addr().is_some()
            && !self.gone.load(Ordering::Relaxed)
            && self.breaker.state() == hetmem_harness::BreakerState::Closed
    }
}

/// Cache counters scraped from a backend's last successful probe.
#[derive(Debug, Clone, Copy, Default)]
struct BackendCache {
    hits: u64,
    misses: u64,
    insertions: u64,
    evictions: u64,
    corruptions: u64,
    entries: u64,
    capacity: u64,
}

/// Monotonic router counters, exposed by the fleet `stats` op (field
/// names mirror the single-server body so `hetmem-top` parses both).
#[derive(Default)]
struct RouterStats {
    requests: AtomicU64,
    ok: AtomicU64,
    errors: AtomicU64,
    overloaded: AtomicU64,
    deadline_exceeded: AtomicU64,
    batch_subrequests: AtomicU64,
    op_place: AtomicU64,
    op_simulate: AtomicU64,
    op_stats: AtomicU64,
    op_metrics: AtomicU64,
    op_shutdown: AtomicU64,
    op_batch: AtomicU64,
    op_other: AtomicU64,
}

/// The router's registry: the conservation pair (requests_total +
/// per-op duration histograms, recorded before write) plus
/// fleet-specific per-backend families.
struct FleetMetrics {
    registry: MetricsRegistry,
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
    overloaded: Arc<Counter>,
    deadline_exceeded: Arc<Counter>,
    worker_restarts: Arc<Counter>,
    reroutes_total: Arc<Counter>,
    backend_requests: Vec<Arc<Counter>>,
    backend_errors: Vec<Arc<Counter>>,
    backend_reroutes: Vec<Arc<Counter>>,
    backend_restarts: Vec<Arc<Counter>>,
    backend_healthy: Vec<Arc<Gauge>>,
    ring_share_ppm: Vec<Arc<Gauge>>,
    queue_depth: Arc<Gauge>,
    queue_capacity: Arc<Gauge>,
    uptime_ms: Arc<Gauge>,
}

impl FleetMetrics {
    fn new(backends: usize) -> Self {
        let reg = MetricsRegistry::new();
        let req_help = "Request latency from decode start to encoded response, microseconds.";
        let op_hist = |op| reg.histogram("hm_request_duration_us", req_help, &[("op", op)]);
        let per_backend = |name: &str, help: &str| -> Vec<Arc<Counter>> {
            (0..backends)
                .map(|i| reg.counter(name, help, &[("backend", &i.to_string())]))
                .collect()
        };
        FleetMetrics {
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
            overloaded: reg.counter(
                "hm_overloaded_total",
                "Requests shed because the forwarding queue was full.",
                &[],
            ),
            deadline_exceeded: reg.counter(
                "hm_deadline_exceeded_total",
                "Requests refused past their deadline.",
                &[],
            ),
            worker_restarts: reg.counter(
                "hm_worker_restarts_total",
                "Backend child processes restarted by the fleet supervisor.",
                &[],
            ),
            reroutes_total: reg.counter(
                "hm_fleet_reroutes_total",
                "Requests moved off a failed backend to a ring successor.",
                &[],
            ),
            backend_requests: per_backend(
                "hm_backend_requests_total",
                "Forwarded request attempts per backend.",
            ),
            backend_errors: per_backend(
                "hm_backend_errors_total",
                "Failed forwarded attempts per backend.",
            ),
            backend_reroutes: per_backend(
                "hm_backend_reroutes_total",
                "Requests that failed on this backend and moved on.",
            ),
            backend_restarts: per_backend(
                "hm_backend_restarts_total",
                "Unexpected child exits, each answered with a respawn.",
            ),
            backend_healthy: (0..backends)
                .map(|i| {
                    reg.gauge(
                        "hm_backend_healthy",
                        "1 when the backend is up with a closed breaker.",
                        &[("backend", &i.to_string())],
                    )
                })
                .collect(),
            ring_share_ppm: (0..backends)
                .map(|i| {
                    reg.gauge(
                        "hm_fleet_ring_share_ppm",
                        "Consistent-hash ring ownership per backend, parts per million.",
                        &[("backend", &i.to_string())],
                    )
                })
                .collect(),
            queue_depth: reg.gauge(
                "hm_queue_depth",
                "Requests parked in the forwarding queue at scrape time.",
                &[("shard", "fwd")],
            ),
            queue_capacity: reg.gauge("hm_queue_capacity", "Forwarding-queue capacity.", &[]),
            uptime_ms: reg.gauge(
                "hm_uptime_ms",
                "Milliseconds since the router started.",
                &[],
            ),
            registry: reg,
        }
    }

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

    /// Fills scrape-time mirrors so both render formats see one
    /// coherent snapshot.
    fn refresh(&self, shared: &FleetShared) {
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        self.overloaded.store(load(&shared.stats.overloaded));
        self.deadline_exceeded
            .store(load(&shared.stats.deadline_exceeded));
        let mut restarts = 0;
        for (i, b) in shared.backends.iter().enumerate() {
            let r = load(&b.restarts);
            restarts += r;
            self.backend_restarts[i].store(r);
            self.backend_healthy[i].set(u64::from(b.healthy()));
        }
        self.worker_restarts.store(restarts);
        self.queue_depth.set(shared.fwd.len() as u64);
        self.queue_capacity.set(shared.fwd.capacity() as u64);
        self.uptime_ms
            .set(shared.started.elapsed().as_millis() as u64);
    }
}

/// Child-spawn arguments shared by the initial spawn and respawns.
struct BackendArgs {
    shards: usize,
    queue_depth: usize,
    cache_capacity: usize,
    max_batch: usize,
    faults: Option<String>,
}

/// Everything the loop, forwarding workers, supervisors, and prober
/// share.
struct FleetShared {
    addr: SocketAddr,
    serve_bin: PathBuf,
    backend_args: BackendArgs,
    ring: HashRing,
    backends: Vec<Backend>,
    fwd: BoundedQueue<FwdJob>,
    /// New work is refused with `fleet-draining`.
    draining: AtomicBool,
    /// In-flight work has finished flushing: supervisors may stop
    /// children, workers and the prober may exit.
    reap: AtomicBool,
    stats: RouterStats,
    metrics: FleetMetrics,
    /// Marked once the loop has flushed every accepted request's
    /// response while draining; [`FleetHandle::wait`] blocks on it.
    drain: DrainGate,
    started: Instant,
    /// The client-connection write timeout, also applied to writes on
    /// router→backend sockets.
    write_timeout: Duration,
    backend_timeout: Duration,
    probe_interval: Duration,
    probe_deadline_ms: u64,
    restart_backoff: Backoff,
    max_restarts: u32,
    max_batch: usize,
}

/// Uniquifies port-file names across respawns and across every fleet in
/// this process: two routers started by one process (as the integration
/// tests do) must never hand their children the same port file.
static SPAWN_EPOCH: AtomicU64 = AtomicU64::new(0);

/// What a forwarded request came back with.
struct ForwardReply {
    /// The backend's raw response line (no newline), relayed verbatim
    /// for byte identity.
    line: String,
    /// Decoded `ok` flag, for accounting.
    ok: bool,
}

type FwdResult = Result<ForwardReply, HetmemError>;

/// A request parked in the forwarding queue.
struct FwdJob {
    /// The raw line to forward (no newline) — the client's own bytes
    /// for bare requests, a re-encoded per-backend envelope for batch
    /// groups.
    line: String,
    /// Content key the ring walk starts from.
    key: String,
    deadline: Option<Instant>,
    /// Drops to `backend-unavailable` if a worker panics mid-forward.
    sink: Sink<FwdResult>,
}

/// The identity of one in-flight request at the router.
struct Head {
    id: u64,
    op: String,
    client_rid: Option<String>,
    t0: Instant,
}

/// In-flight forwarded work, keyed by completion token.
enum Pending {
    /// A bare forwarded op: relay the backend's line verbatim.
    Single { conn: u64, head: Head },
    /// One per-backend group of a batch envelope: scatter its
    /// sub-responses into the envelope's slots.
    Group {
        batch: u64,
        slots: Vec<usize>,
        /// `(id, client_rid)` per slot, for error filling.
        subs: Vec<(u64, Option<String>)>,
    },
}

/// A batch envelope waiting for its forwarded groups.
struct BatchPending {
    conn: u64,
    head: Head,
    slots: Vec<Option<Response>>,
    remaining: usize,
}

/// A running fleet: the router's bound address plus the threads and
/// children behind it.
pub struct FleetHandle {
    addr: SocketAddr,
    shared: Arc<FleetShared>,
    supervisors: Vec<JoinHandle<()>>,
    prober: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    /// The SIGTERM/SIGINT watcher, once
    /// [`FleetHandle::drain_on_termination_signals`] started it.
    signal_watcher: Option<JoinHandle<()>>,
}

impl FleetHandle {
    /// The router's bound socket address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The router's bound port.
    pub fn port(&self) -> u16 {
        self.addr.port()
    }

    /// The number of supervised backends.
    pub fn backends(&self) -> usize {
        self.shared.backends.len()
    }

    /// Where backend `idx` currently listens (`None` while it is down).
    pub fn backend_addr(&self, idx: usize) -> Option<SocketAddr> {
        self.shared.backends.get(idx).and_then(Backend::addr)
    }

    /// SIGKILLs backend `idx`'s child outright — the chaos hook the
    /// failover tests and CI smoke lean on. The supervisor notices the
    /// exit and respawns it (with backoff); in-flight requests to it
    /// fail over along the ring. Returns whether a signal was sent.
    pub fn kill_backend(&self, idx: usize) -> bool {
        let Some(backend) = self.shared.backends.get(idx) else {
            return false;
        };
        let mut child = backend.child.lock().unwrap_or_else(|e| e.into_inner());
        match child.as_mut() {
            Some(c) => c.kill().is_ok(),
            None => false,
        }
    }

    /// Triggers the drain locally (equivalent to a `shutdown` request).
    pub fn shutdown(&self) {
        begin_drain(&self.shared);
    }

    /// Makes SIGTERM and SIGINT start the same drain as a `shutdown`
    /// request, so signalling the router stops its backends instead of
    /// orphaning them. The handlers are process-wide; a watcher thread
    /// polls the flag they set and exits once the fleet is draining (or
    /// the handle is dropped).
    pub fn drain_on_termination_signals(&mut self) {
        // SAFETY: `on_termination` is an `extern "C" fn(c_int)` that
        // only performs an atomic store, so it is safe to run at any
        // instruction; signal(2) touches no memory of ours.
        unsafe {
            signal(SIGTERM, on_termination);
            signal(SIGINT, on_termination);
        }
        let shared = Arc::clone(&self.shared);
        self.signal_watcher = Some(thread::spawn(move || {
            while !shared.draining.load(Ordering::SeqCst) && !shared.reap.load(Ordering::SeqCst) {
                if TERMINATION_REQUESTED.load(Ordering::SeqCst) {
                    begin_drain(&shared);
                    return;
                }
                thread::sleep(Duration::from_millis(20));
            }
        }));
    }

    /// Blocks until the fleet has fully drained: every accepted
    /// request's response bytes are flushed, every child is stopped
    /// (shutdown op, then SIGTERM, then SIGKILL), and every router
    /// thread has exited. The poll loop itself is detached — it
    /// lingers to answer `fleet-draining` on connections a client
    /// still holds open.
    pub fn wait(mut self) {
        self.shared.drain.wait();
        for s in self.supervisors.drain(..) {
            let _ = s.join();
        }
        if let Some(p) = self.prober.take() {
            let _ = p.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        if let Some(w) = self.signal_watcher.take() {
            let _ = w.join();
        }
    }
}

impl Drop for FleetHandle {
    fn drop(&mut self) {
        // Safety net (a test that panics, a handle dropped without
        // wait()): never leave child processes running.
        self.shared.reap.store(true, Ordering::SeqCst);
        self.shared.fwd.close();
        for backend in &self.shared.backends {
            let mut child = backend.child.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(c) = child.as_mut() {
                let _ = c.kill();
                let _ = c.wait();
            }
            *child = None;
        }
    }
}

/// Spawns the backends, binds the router, and starts serving.
///
/// # Errors
///
/// Bind/spawn failures, a missing `hetmem-serve` binary, or a backend
/// that never published its port. Children already spawned are killed
/// before the error propagates.
pub fn start(cfg: FleetConfig) -> io::Result<FleetHandle> {
    let addr_str = if cfg.addr.is_empty() {
        "127.0.0.1:0"
    } else {
        &cfg.addr
    };
    let listener = TcpListener::bind(addr_str)?;
    let addr = listener.local_addr()?;
    let serve_bin = match cfg.serve_bin {
        Some(path) => path,
        None => default_serve_bin()?,
    };
    if !serve_bin.is_file() {
        return Err(io::Error::new(
            io::ErrorKind::NotFound,
            format!("hetmem-serve binary not found at {}", serve_bin.display()),
        ));
    }
    let backends_n = if cfg.backends == 0 {
        DEFAULT_BACKENDS
    } else {
        cfg.backends
    };
    let fwd_queue = if cfg.fwd_queue == 0 {
        DEFAULT_FWD_QUEUE
    } else {
        cfg.fwd_queue
    };
    let workers_n = if cfg.workers == 0 {
        (backends_n * 2).clamp(2, 16)
    } else {
        cfg.workers
    };
    let threshold = if cfg.breaker_threshold == 0 {
        DEFAULT_BREAKER_THRESHOLD
    } else {
        cfg.breaker_threshold
    };
    let or_default = |v: u64, d: u64| if v == 0 { d } else { v };
    let metrics = FleetMetrics::new(backends_n);
    let ring = HashRing::new(backends_n, DEFAULT_VNODES);
    for (gauge, share) in metrics.ring_share_ppm.iter().zip(ring.shares()) {
        gauge.set((share * 1_000_000.0).round() as u64);
    }
    let cooldown = Backoff::new(100, 2_000, cfg.seed);
    let backends = (0..backends_n)
        .map(|i| Backend {
            addr: Mutex::new(None),
            child: Mutex::new(None),
            breaker: CircuitBreaker::new(threshold, cooldown),
            gone: AtomicBool::new(false),
            restarts: AtomicU64::new(0),
            requests: Arc::clone(&metrics.backend_requests[i]),
            errors: Arc::clone(&metrics.backend_errors[i]),
            reroutes: Arc::clone(&metrics.backend_reroutes[i]),
            cache: Mutex::new(BackendCache::default()),
        })
        .collect();
    let shared = Arc::new(FleetShared {
        addr,
        serve_bin,
        backend_args: BackendArgs {
            shards: cfg.shards,
            queue_depth: cfg.queue_depth,
            cache_capacity: cfg.cache_capacity,
            max_batch: if cfg.max_batch == 0 {
                64
            } else {
                cfg.max_batch
            },
            faults: cfg.backend_faults,
        },
        ring,
        backends,
        fwd: BoundedQueue::new(fwd_queue),
        draining: AtomicBool::new(false),
        reap: AtomicBool::new(false),
        stats: RouterStats::default(),
        metrics,
        drain: DrainGate::default(),
        started: Instant::now(),
        write_timeout: Duration::from_millis(or_default(cfg.write_timeout_ms, 30_000)),
        backend_timeout: Duration::from_millis(or_default(
            cfg.backend_timeout_ms,
            DEFAULT_BACKEND_TIMEOUT_MS,
        )),
        probe_interval: Duration::from_millis(or_default(
            cfg.probe_interval_ms,
            DEFAULT_PROBE_INTERVAL_MS,
        )),
        probe_deadline_ms: or_default(cfg.probe_deadline_ms, DEFAULT_PROBE_DEADLINE_MS),
        restart_backoff: Backoff::new(50, 2_000, cfg.seed.wrapping_add(0x9e37_79b9)),
        max_restarts: if cfg.max_restarts == 0 {
            DEFAULT_MAX_RESTARTS
        } else {
            cfg.max_restarts
        },
        max_batch: if cfg.max_batch == 0 {
            64
        } else {
            cfg.max_batch
        },
    });
    // Initial spawns are synchronous so start() returns a fleet that
    // can actually serve; failures kill what was already spawned.
    for idx in 0..backends_n {
        match spawn_backend(&shared, idx) {
            Ok((child, baddr)) => {
                let b = &shared.backends[idx];
                *b.child.lock().unwrap_or_else(|e| e.into_inner()) = Some(child);
                *b.addr.lock().unwrap_or_else(|e| e.into_inner()) = Some(baddr);
            }
            Err(e) => {
                for b in &shared.backends {
                    let mut child = b.child.lock().unwrap_or_else(|e| e.into_inner());
                    if let Some(c) = child.as_mut() {
                        let _ = c.kill();
                        let _ = c.wait();
                    }
                    *child = None;
                }
                return Err(e);
            }
        }
    }
    let workers = (0..workers_n)
        .map(|i| {
            let s = Arc::clone(&shared);
            thread::Builder::new()
                .name(format!("hetmem-fleet-fwd-{i}"))
                .spawn(move || fwd_worker(&s))
        })
        .collect::<io::Result<Vec<_>>>()?;
    let supervisors = (0..backends_n)
        .map(|i| {
            let s = Arc::clone(&shared);
            thread::Builder::new()
                .name(format!("hetmem-fleet-sup-{i}"))
                .spawn(move || supervisor(&s, i))
        })
        .collect::<io::Result<Vec<_>>>()?;
    let prober = {
        let s = Arc::clone(&shared);
        thread::Builder::new()
            .name("hetmem-fleet-probe".to_string())
            .spawn(move || prober(&s))?
    };
    let limits = Limits {
        conn_buffer: if cfg.conn_buffer == 0 {
            256 * 1024
        } else {
            cfg.conn_buffer
        },
        read_timeout: Duration::from_millis(or_default(cfg.read_timeout_ms, 120_000)),
        write_timeout: shared.write_timeout,
    };
    // Detached: wait() synchronizes on the drain gate, and the loop
    // exits once every conn is gone.
    reactor::spawn("hetmem-fleet-poll", listener, limits, Fleet::new(&shared))?;
    Ok(FleetHandle {
        addr,
        shared,
        supervisors,
        prober: Some(prober),
        workers,
        signal_watcher: None,
    })
}

/// The `hetmem-serve` binary next to the current executable — where
/// cargo puts sibling bin targets.
fn default_serve_bin() -> io::Result<PathBuf> {
    let exe = std::env::current_exe()?;
    let dir = exe.parent().ok_or_else(|| {
        io::Error::new(io::ErrorKind::NotFound, "current executable has no parent")
    })?;
    Ok(dir.join("hetmem-serve"))
}

/// Sets the drain flag once and nudges the poll loop awake.
fn begin_drain(shared: &Arc<FleetShared>) {
    if shared.draining.swap(true, Ordering::SeqCst) {
        return;
    }
    let _ = TcpStream::connect(shared.addr);
}

// ---------------------------------------------------------------------------
// Child supervision
// ---------------------------------------------------------------------------

/// Spawns one backend child and waits for its `--port-file` handshake.
fn spawn_backend(shared: &FleetShared, idx: usize) -> io::Result<(Child, SocketAddr)> {
    let epoch = SPAWN_EPOCH.fetch_add(1, Ordering::Relaxed);
    let port_path = std::env::temp_dir().join(format!(
        "hetmem-fleet-{}-{idx}-{epoch}.port",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&port_path);
    let args = &shared.backend_args;
    let mut cmd = Command::new(&shared.serve_bin);
    cmd.arg("--addr")
        .arg("127.0.0.1:0")
        .arg("--port-file")
        .arg(&port_path)
        .arg("--max-batch")
        .arg(args.max_batch.to_string())
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    if args.shards != 0 {
        cmd.arg("--shards").arg(args.shards.to_string());
    }
    if args.queue_depth != 0 {
        cmd.arg("--queue-depth").arg(args.queue_depth.to_string());
    }
    if args.cache_capacity != 0 {
        cmd.arg("--cache").arg(args.cache_capacity.to_string());
    }
    if let Some(spec) = &args.faults {
        cmd.arg("--faults").arg(spec);
    }
    let mut child = cmd.spawn()?;
    let deadline = Instant::now() + SPAWN_DEADLINE;
    loop {
        if let Ok(text) = std::fs::read_to_string(&port_path) {
            if let Ok(port) = text.trim().parse::<u16>() {
                let _ = std::fs::remove_file(&port_path);
                let baddr = SocketAddr::from(([127, 0, 0, 1], port));
                return Ok((child, baddr));
            }
        }
        if let Ok(Some(status)) = child.try_wait() {
            let _ = std::fs::remove_file(&port_path);
            return Err(io::Error::other(format!(
                "backend {idx} exited during startup ({status})"
            )));
        }
        if Instant::now() >= deadline {
            let _ = child.kill();
            let _ = child.wait();
            let _ = std::fs::remove_file(&port_path);
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                format!("backend {idx} never published its port"),
            ));
        }
        thread::sleep(Duration::from_millis(10));
    }
}

/// Keeps backend `idx` alive: respawns unexpected exits under the
/// seeded backoff schedule until the restart budget runs out, then
/// marks the backend gone. On reap, stops the child gracefully.
fn supervisor(shared: &Arc<FleetShared>, idx: usize) {
    let backend = &shared.backends[idx];
    let mut attempt: u32 = 0;
    let mut spawned_at = Instant::now();
    while !shared.reap.load(Ordering::SeqCst) {
        let exited = {
            let mut child = backend.child.lock().unwrap_or_else(|e| e.into_inner());
            match child.as_mut() {
                None => true,
                Some(c) => match c.try_wait() {
                    Ok(Some(_)) => {
                        *child = None;
                        true
                    }
                    _ => false,
                },
            }
        };
        if exited && !backend.gone.load(Ordering::Relaxed) {
            *backend.addr.lock().unwrap_or_else(|e| e.into_inner()) = None;
            backend.restarts.fetch_add(1, Ordering::Relaxed);
            // A backend that stayed up a while earns a fresh budget:
            // only rapid crash loops exhaust it.
            if spawned_at.elapsed() > Duration::from_secs(10) {
                attempt = 0;
            }
            if attempt >= shared.max_restarts {
                backend.gone.store(true, Ordering::Relaxed);
                continue;
            }
            let delay = shared.restart_backoff.delay_ms(attempt);
            attempt += 1;
            if sleep_unless_reap(shared, Duration::from_millis(delay)) {
                break;
            }
            if let Ok((child, baddr)) = spawn_backend(shared, idx) {
                *backend.child.lock().unwrap_or_else(|e| e.into_inner()) = Some(child);
                *backend.addr.lock().unwrap_or_else(|e| e.into_inner()) = Some(baddr);
                spawned_at = Instant::now();
            }
        }
        if sleep_unless_reap(shared, Duration::from_millis(25)) {
            break;
        }
    }
    stop_child(shared, idx);
}

/// Sleeps `total` in small chunks; true when reap was observed.
fn sleep_unless_reap(shared: &FleetShared, total: Duration) -> bool {
    let deadline = Instant::now() + total;
    loop {
        if shared.reap.load(Ordering::SeqCst) {
            return true;
        }
        let now = Instant::now();
        if now >= deadline {
            return false;
        }
        thread::sleep((deadline - now).min(Duration::from_millis(25)));
    }
}

/// Stops one child for good: `shutdown` op, a grace window, SIGTERM,
/// another window, SIGKILL. Always reaps.
fn stop_child(shared: &FleetShared, idx: usize) {
    let backend = &shared.backends[idx];
    if let Some(addr) = backend.addr() {
        let req = Request::new(0, "shutdown");
        let _ = roundtrip_timeout(&addr.to_string(), &req, Duration::from_millis(2_000));
    }
    let deadline = Instant::now() + Duration::from_secs(3);
    loop {
        {
            let mut child = backend.child.lock().unwrap_or_else(|e| e.into_inner());
            match child.as_mut() {
                None => return,
                Some(c) => {
                    if let Ok(Some(_)) = c.try_wait() {
                        *child = None;
                        return;
                    }
                }
            }
        }
        if Instant::now() >= deadline {
            break;
        }
        thread::sleep(Duration::from_millis(25));
    }
    let mut child = backend.child.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(c) = child.as_mut() {
        // SAFETY: signalling our own child pid; kill(2) has no memory
        // effects on this process.
        unsafe {
            kill(c.id() as c_int, SIGTERM);
        }
        let term_deadline = Instant::now() + Duration::from_secs(1);
        while Instant::now() < term_deadline {
            if let Ok(Some(_)) = c.try_wait() {
                *child = None;
                return;
            }
            thread::sleep(Duration::from_millis(25));
        }
        let _ = c.kill();
        let _ = c.wait();
    }
    *child = None;
}

// ---------------------------------------------------------------------------
// Health probing
// ---------------------------------------------------------------------------

/// Probes every routable backend with a deadline-bounded `stats`
/// round-trip, feeding the breakers and mirroring backend cache
/// counters for the fleet `stats` body.
fn prober(shared: &Arc<FleetShared>) {
    while !shared.reap.load(Ordering::SeqCst) {
        for backend in &shared.backends {
            if backend.gone.load(Ordering::Relaxed) {
                continue;
            }
            let Some(addr) = backend.addr() else { continue };
            // An open breaker also gates probes; once its cooldown
            // elapses this allows() is the half-open trial.
            if !backend.breaker.allows(Instant::now()) {
                continue;
            }
            let req = Request::new(0, "stats").deadline(shared.probe_deadline_ms);
            let timeout = Duration::from_millis(shared.probe_deadline_ms);
            match roundtrip_timeout(&addr.to_string(), &req, timeout) {
                Ok(Response::Ok { result, .. }) => {
                    backend.breaker.record_success();
                    if let Ok(v) = JsonValue::parse(&result) {
                        update_backend_cache(backend, &v);
                    }
                }
                Ok(Response::Err { .. }) | Err(_) => {
                    backend.breaker.record_failure(Instant::now());
                }
            }
        }
        if sleep_unless_reap(shared, shared.probe_interval) {
            break;
        }
    }
}

/// Mirrors one probed `stats` body's cache block.
fn update_backend_cache(backend: &Backend, stats: &JsonValue) {
    let Some(cache) = stats.get("cache") else {
        return;
    };
    let get = |key: &str| cache.get(key).and_then(JsonValue::as_u64).unwrap_or(0);
    let mut mirror = backend.cache.lock().unwrap_or_else(|e| e.into_inner());
    *mirror = BackendCache {
        hits: get("hits"),
        misses: get("misses"),
        insertions: get("insertions"),
        evictions: get("evictions"),
        corruptions: get("corruptions"),
        entries: get("entries"),
        capacity: get("capacity"),
    };
}

// ---------------------------------------------------------------------------
// Forwarding workers
// ---------------------------------------------------------------------------

fn fwd_worker(shared: &Arc<FleetShared>) {
    // Pooled router→backend connections, one per backend, owned by
    // this worker; dropped (and retried fresh) on any I/O error.
    let mut pool: HashMap<usize, BufReader<TcpStream>> = HashMap::new();
    while let Some(job) = shared.fwd.pop() {
        let result = forward_one(shared, &mut pool, &job);
        job.sink.deliver(result);
    }
}

/// Forwards one raw line along the key's ring-successor walk: up to
/// three attempts per candidate backend (a stale pooled connection and
/// a `worker-restarted` each earn an in-place retry), then the next
/// successor. Exhausting every candidate is `backend-unavailable`.
fn forward_one(
    shared: &FleetShared,
    pool: &mut HashMap<usize, BufReader<TcpStream>>,
    job: &FwdJob,
) -> FwdResult {
    let order = shared.ring.successors(&job.key);
    let mut tried = 0usize;
    for &b in &order {
        let backend = &shared.backends[b];
        if backend.gone.load(Ordering::Relaxed) {
            continue;
        }
        let Some(addr) = backend.addr() else {
            pool.remove(&b);
            continue;
        };
        if !backend.breaker.allows(Instant::now()) {
            continue;
        }
        tried += 1;
        let mut attempts = 0u32;
        loop {
            attempts += 1;
            backend.requests.inc();
            let timeout = roundtrip_budget(shared, job.deadline);
            match backend_roundtrip(pool, b, addr, &job.line, timeout, shared.write_timeout) {
                Ok((line, ok, code)) => {
                    if !ok && code.as_deref() == Some("worker-restarted") && attempts < 3 {
                        // The backend's own supervisor already
                        // restarted the shard; same backend, retried.
                        backend.errors.inc();
                        continue;
                    }
                    backend.breaker.record_success();
                    return Ok(ForwardReply { line, ok });
                }
                Err(_) if attempts == 1 => {
                    // Could be a pooled connection the backend closed
                    // (idle timeout, restart): one fresh retry here.
                    pool.remove(&b);
                }
                Err(_) => {
                    pool.remove(&b);
                    backend.errors.inc();
                    backend.breaker.record_failure(Instant::now());
                    backend.reroutes.inc();
                    shared.metrics.reroutes_total.inc();
                    break;
                }
            }
        }
    }
    Err(HetmemError::BackendUnavailable { tried })
}

/// Per-roundtrip read timeout: the configured backend timeout, cut to
/// the request's remaining deadline (plus slack for the refusal to
/// travel back) when one is set.
fn roundtrip_budget(shared: &FleetShared, deadline: Option<Instant>) -> Duration {
    match deadline {
        None => shared.backend_timeout,
        Some(d) => {
            let left = d.saturating_duration_since(Instant::now()) + Duration::from_millis(250);
            left.min(shared.backend_timeout)
        }
    }
}

/// One write-line/read-line exchange on the pooled connection to
/// backend `b` (connecting if needed). Returns the raw response line
/// plus its decoded `ok`/`code` for the failover logic.
fn backend_roundtrip(
    pool: &mut HashMap<usize, BufReader<TcpStream>>,
    b: usize,
    addr: SocketAddr,
    line: &str,
    read_timeout: Duration,
    write_timeout: Duration,
) -> io::Result<(String, bool, Option<String>)> {
    let reader = match pool.entry(b) {
        std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
        std::collections::hash_map::Entry::Vacant(v) => {
            let stream = TcpStream::connect_timeout(&addr, CONNECT_TIMEOUT)?;
            // One write per forwarded request: Nagle + delayed ACK
            // would stall every roundtrip on this socket.
            stream.set_nodelay(true).ok();
            v.insert(BufReader::new(stream))
        }
    };
    let floor = Duration::from_millis(1);
    reader
        .get_ref()
        .set_read_timeout(Some(read_timeout.max(floor)))?;
    reader
        .get_ref()
        .set_write_timeout(Some(write_timeout.max(floor)))?;
    let mut msg = String::with_capacity(line.len() + 1);
    msg.push_str(line);
    msg.push('\n');
    reader.get_mut().write_all(msg.as_bytes())?;
    let mut reply = String::new();
    if reader.read_line(&mut reply)? == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "backend closed the connection before responding",
        ));
    }
    if !reply.ends_with('\n') {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "backend connection died mid-response (truncated line)",
        ));
    }
    let trimmed = reply.trim_end().to_string();
    match Response::decode(&trimmed) {
        Ok(Response::Ok { .. }) => Ok((trimmed, true, None)),
        Ok(Response::Err { code, .. }) => Ok((trimmed, false, Some(code))),
        // A complete-but-undecodable line is relayed as-is: the router
        // proxies, it does not validate.
        Err(_) => Ok((trimmed, false, None)),
    }
}

// ---------------------------------------------------------------------------
// The client-facing handlers
// ---------------------------------------------------------------------------

/// The router front end on the reactor: the fleet's shared state plus
/// the forwards in flight.
struct Fleet {
    shared: Arc<FleetShared>,
    pending: HashMap<u64, Pending>,
    batches: HashMap<u64, BatchPending>,
}

impl Fleet {
    fn new(shared: &Arc<FleetShared>) -> Self {
        Fleet {
            shared: Arc::clone(shared),
            pending: HashMap::new(),
            batches: HashMap::new(),
        }
    }

    /// A `batch` envelope at the router: local sub-ops (fleet `stats` /
    /// `metrics`, per-sub refusals) resolve now; `place`/`simulate` subs
    /// are grouped by owning backend, forwarded as one per-backend batch
    /// envelope each, and reassembled in sub-request order on completion.
    fn batch(
        &mut self,
        c: &mut Conn,
        conn: u64,
        done: &mut Completions<FwdResult>,
        req: &Request,
        head: Head,
        deadline: Option<Instant>,
    ) {
        let shared = &self.shared;
        let refuse = |shared: &FleetShared, c: &mut Conn, head: Head, e: HetmemError| {
            let out = respond_line(shared, head, Err(e));
            deliver(shared, c, &out);
        };
        if req.proto < PROTO_V2 {
            let e =
                HetmemError::invalid("op 'batch' requires \"proto\":2 or newer in the envelope");
            return refuse(shared, c, head, e);
        }
        let Some(items) = req.params.get("requests").and_then(JsonValue::as_array) else {
            let e = HetmemError::invalid("batch needs a 'requests' array of request envelopes");
            return refuse(shared, c, head, e);
        };
        if items.is_empty() {
            let e = HetmemError::invalid("batch 'requests' must be non-empty");
            return refuse(shared, c, head, e);
        }
        if items.len() > shared.max_batch {
            let e = HetmemError::BatchTooLarge {
                got: items.len(),
                max: shared.max_batch,
            };
            return refuse(shared, c, head, e);
        }
        shared
            .stats
            .batch_subrequests
            .fetch_add(items.len() as u64, Ordering::Relaxed);
        let t0 = head.t0;
        let mut slots: Vec<Option<Response>> = Vec::with_capacity(items.len());
        let mut groups: HashMap<usize, GroupBuild> = HashMap::new();
        for (slot, item) in items.iter().enumerate() {
            let sub = match Request::from_value(item) {
                Ok(sub) => sub,
                Err(e) => {
                    slots.push(Some(Response::err(0, e.code(), &e.to_string())));
                    continue;
                }
            };
            let client_rid = sub.request_id.clone();
            let fail = |e: HetmemError| {
                count_refusal(shared, &e);
                Some(
                    Response::err(sub.id, e.code(), &e.to_string())
                        .with_request_id(client_rid.clone()),
                )
            };
            if sub.proto == 0 || sub.proto > PROTO_V2 {
                slots.push(fail(HetmemError::UnsupportedProtocol { proto: sub.proto }));
                continue;
            }
            let sub_deadline = sub.deadline_ms.map(|ms| t0 + Duration::from_millis(ms));
            let combined = match (deadline, sub_deadline) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            };
            if combined.is_some_and(|d| Instant::now() >= d) {
                slots.push(fail(HetmemError::DeadlineExceeded));
                continue;
            }
            match sub.op.as_str() {
                "stats" => {
                    slots.push(Some(
                        Response::ok(sub.id, fleet_stats_json(shared)).with_request_id(client_rid),
                    ));
                }
                "metrics" => match fleet_metrics_json(shared, &sub.params) {
                    Ok(body) => {
                        slots.push(Some(Response::ok(sub.id, body).with_request_id(client_rid)))
                    }
                    Err(e) => slots.push(fail(e)),
                },
                "batch" => slots.push(fail(HetmemError::invalid("'batch' does not nest"))),
                "shutdown" => slots.push(fail(HetmemError::invalid(
                    "'shutdown' cannot ride inside a batch",
                ))),
                "place" | "simulate" => {
                    let key = route_key(&sub);
                    let owner = shared.ring.route(&key);
                    let group = groups.entry(owner).or_default();
                    if group.subs.is_empty() {
                        group.rep_key = key;
                    }
                    group.slots.push(slot);
                    group.ids.push((sub.id, client_rid));
                    group.subs.push(sub);
                    slots.push(None);
                }
                op => slots.push(fail(HetmemError::UnknownOp { op: op.to_string() })),
            }
        }
        if groups.is_empty() {
            let responses: Vec<Response> = slots.into_iter().map(Option::unwrap).collect();
            let body = batch_body(&responses);
            let out = respond_line(shared, head, Ok(body));
            deliver(shared, c, &out);
            return;
        }
        c.inflight += 1;
        let batch_token = done.token();
        self.batches.insert(
            batch_token,
            BatchPending {
                conn,
                head,
                remaining: groups.len(),
                slots,
            },
        );
        for (_, group) in groups {
            let mut env = batch_request(req.id, &group.subs);
            if let Some(d) = deadline {
                // The outer budget rides to the backend as remaining ms;
                // per-sub deadlines are already inside the sub envelopes.
                let left = d.saturating_duration_since(Instant::now()).as_millis() as u64;
                env.deadline_ms = Some(left.max(1));
            }
            let token = done.token();
            self.pending.insert(
                token,
                Pending::Group {
                    batch: batch_token,
                    slots: group.slots,
                    subs: group.ids,
                },
            );
            submit_forward(shared, done, token, env.encode(), group.rep_key, deadline);
        }
    }
}

impl Handler for Fleet {
    type Reply = FwdResult;

    fn draining(&self) -> bool {
        self.shared.draining.load(Ordering::SeqCst)
    }

    fn idle(&self) -> bool {
        self.pending.is_empty() && self.batches.is_empty()
    }

    /// One complete client request line: refusal checks mirror the serve
    /// dispatch (draining replaces shutting-down), router ops answer at
    /// fleet level, and everything else forwards by content key.
    fn line(
        &mut self,
        c: &mut Conn,
        conn: u64,
        line: &str,
        shed: bool,
        done: &mut Completions<FwdResult>,
    ) {
        let shared = &self.shared;
        let trimmed = line.trim();
        if trimmed.is_empty() {
            return;
        }
        let t0 = Instant::now();
        shared.stats.requests.fetch_add(1, Ordering::Relaxed);
        let req = match Request::decode(trimmed) {
            Ok(req) => req,
            Err(e) => {
                shared.stats.errors.fetch_add(1, Ordering::Relaxed);
                let resp = Response::err(0, e.code(), &e.to_string());
                account(shared, "decode", false, t0);
                let mut out = resp.encode();
                out.push('\n');
                deliver(shared, c, &out);
                return;
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
        let head = Head {
            id: req.id,
            op: req.op.clone(),
            client_rid: req.request_id.clone(),
            t0,
        };
        let deadline = req.deadline_ms.map(|ms| t0 + Duration::from_millis(ms));

        // Refusal priority mirrors the serve dispatch.
        if shared.draining.load(Ordering::SeqCst) {
            let out = respond_line(shared, head, Err(HetmemError::FleetDraining));
            deliver(shared, c, &out);
            return;
        }
        if req.proto == 0 || req.proto > PROTO_V2 {
            let e = HetmemError::UnsupportedProtocol { proto: req.proto };
            let out = respond_line(shared, head, Err(e));
            deliver(shared, c, &out);
            return;
        }
        if deadline.is_some_and(|d| Instant::now() >= d) {
            let out = respond_line(shared, head, Err(HetmemError::DeadlineExceeded));
            deliver(shared, c, &out);
            return;
        }
        if shed && req.op != "shutdown" {
            let out = respond_line(shared, head, Err(HetmemError::Overloaded));
            deliver(shared, c, &out);
            return;
        }

        match req.op.as_str() {
            "stats" => {
                let out = respond_line(shared, head, Ok(fleet_stats_json(shared)));
                deliver(shared, c, &out);
            }
            "metrics" => {
                let out = respond_line(shared, head, fleet_metrics_json(shared, &req.params));
                deliver(shared, c, &out);
            }
            "shutdown" => {
                begin_drain(shared);
                let body = JsonObject::new().bool("draining", true).finish();
                let out = respond_line(shared, head, Ok(body));
                deliver(shared, c, &out);
            }
            "batch" => self.batch(c, conn, done, &req, head, deadline),
            "place" | "simulate" => {
                let key = route_key(&req);
                let token = done.token();
                c.inflight += 1;
                self.pending.insert(token, Pending::Single { conn, head });
                submit_forward(shared, done, token, trimmed.to_string(), key, deadline);
            }
            op => {
                let e = HetmemError::UnknownOp { op: op.to_string() };
                let out = respond_line(shared, head, Err(e));
                deliver(shared, c, &out);
            }
        }
    }

    /// A forward finished: relay (or synthesize) the response, keep batch
    /// bookkeeping, account before the bytes reach the connection.
    fn completion(&mut self, conns: &mut HashMap<u64, Conn>, token: u64, reply: FwdResult) {
        let shared = &self.shared;
        match self.pending.remove(&token) {
            None => {}
            Some(Pending::Single { conn, head }) => {
                let out = match reply {
                    Ok(reply) => relay_line(shared, &head, &reply),
                    Err(e) => respond_line(shared, head, Err(e)),
                };
                if let Some(c) = conns.get_mut(&conn) {
                    c.inflight -= 1;
                    deliver(shared, c, &out);
                }
            }
            Some(Pending::Group { batch, slots, subs }) => {
                let fill = |code: &str, message: &str| -> Vec<Response> {
                    subs.iter()
                        .map(|(id, rid)| {
                            Response::err(*id, code, message).with_request_id(rid.clone())
                        })
                        .collect()
                };
                let responses: Vec<Response> = match reply {
                    Err(e) => fill(e.code(), &e.to_string()),
                    Ok(reply) => match Response::decode(&reply.line) {
                        Err(_) => fill(
                            "backend-unavailable",
                            "backend returned an undecodable reply",
                        ),
                        Ok(Response::Err { code, message, .. }) => fill(&code, &message),
                        Ok(ok @ Response::Ok { .. }) => match ok.batch_responses() {
                            Ok(rs) if rs.len() == slots.len() => rs,
                            _ => fill(
                                "backend-unavailable",
                                "backend returned a mismatched batch envelope",
                            ),
                        },
                    },
                };
                let Some(b) = self.batches.get_mut(&batch) else {
                    return;
                };
                for (slot, resp) in slots.iter().zip(responses) {
                    b.slots[*slot] = Some(resp);
                }
                b.remaining -= 1;
                if b.remaining > 0 {
                    return;
                }
                let b = self.batches.remove(&batch).expect("batch present");
                let responses: Vec<Response> = b.slots.into_iter().map(Option::unwrap).collect();
                let body = batch_body(&responses);
                let out = respond_line(shared, b.head, Ok(body));
                if let Some(c) = conns.get_mut(&b.conn) {
                    c.inflight -= 1;
                    deliver(shared, c, &out);
                }
            }
        }
    }

    /// Every accepted request is flushed (or the loop died): let
    /// wait() return and the supervisors stop the children.
    fn drained(&self) {
        self.shared.reap.store(true, Ordering::SeqCst);
        self.shared.fwd.close();
        self.shared.drain.mark();
    }
}
/// Counts the refusal kinds `stats` breaks out separately.
fn count_refusal(shared: &FleetShared, e: &HetmemError) {
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

/// Builds, accounts, and encodes one router-resolved response line —
/// accounting happens before the bytes can reach a socket, preserving
/// the conservation invariant.
fn respond_line(shared: &FleetShared, head: Head, outcome: Result<String, HetmemError>) -> String {
    let resp = match outcome {
        Ok(body) => {
            shared.stats.ok.fetch_add(1, Ordering::Relaxed);
            Response::ok(head.id, body).with_request_id(head.client_rid)
        }
        Err(e) => {
            shared.stats.errors.fetch_add(1, Ordering::Relaxed);
            count_refusal(shared, &e);
            Response::err(head.id, e.code(), &e.to_string()).with_request_id(head.client_rid)
        }
    };
    let ok = resp.is_ok();
    account(shared, &head.op, ok, head.t0);
    let mut out = resp.encode();
    out.push('\n');
    out
}

/// Accounts one relayed backend response line (bytes pass through
/// untouched; only the counters are the router's).
fn relay_line(shared: &FleetShared, head: &Head, reply: &ForwardReply) -> String {
    if reply.ok {
        shared.stats.ok.fetch_add(1, Ordering::Relaxed);
    } else {
        shared.stats.errors.fetch_add(1, Ordering::Relaxed);
    }
    account(shared, &head.op, reply.ok, head.t0);
    let mut out = String::with_capacity(reply.line.len() + 1);
    out.push_str(&reply.line);
    out.push('\n');
    out
}

/// The conservation pair plus the outcome counter, recorded together.
fn account(shared: &FleetShared, op: &str, ok: bool, t0: Instant) {
    let m = &shared.metrics;
    m.op_hist(op).record(us(t0.elapsed()));
    m.requests_total.inc();
    if ok {
        m.responses_ok.inc();
    } else {
        m.responses_err.inc();
    }
}

/// Queues response bytes, honoring the close-after-response contract
/// once draining.
fn deliver(shared: &FleetShared, c: &mut Conn, out: &str) {
    c.queue(out, shared.draining.load(Ordering::SeqCst));
}

/// The content key a request routes by. `simulate` uses the canonical
/// cache key so fleet routing shards exactly like the backend caches;
/// anything else (including invalid simulate params, which any backend
/// refuses identically) falls back to `op:params`.
fn route_key(req: &Request) -> String {
    if req.op == "simulate" {
        if let Ok(key) = simulate_cache_key(&req.params) {
            return key;
        }
    }
    format!("{}:{}", req.op, req.params.render())
}

/// Hands one forwarded line to the worker pool; a full or closed queue
/// answers through the sink immediately, so refusals flow back like
/// any other completion.
fn submit_forward(
    shared: &FleetShared,
    done: &Completions<FwdResult>,
    token: u64,
    line: String,
    key: String,
    deadline: Option<Instant>,
) {
    let sink = done.sink(token, Err(HetmemError::BackendUnavailable { tried: 0 }));
    let job = FwdJob {
        line,
        key,
        deadline,
        sink,
    };
    match shared.fwd.try_push(job) {
        Ok(()) => {}
        Err(PushError::Overloaded(job)) => job.sink.deliver(Err(HetmemError::Overloaded)),
        Err(PushError::Closed(job)) => job.sink.deliver(Err(HetmemError::FleetDraining)),
    }
}

/// One per-backend slice of a batch envelope under construction.
#[derive(Default)]
struct GroupBuild {
    slots: Vec<usize>,
    subs: Vec<Request>,
    ids: Vec<(u64, Option<String>)>,
    rep_key: String,
}

/// The batch envelope body, byte-compatible with the serve core's
/// `finish_batch`.
fn batch_body(responses: &[Response]) -> String {
    JsonObject::new()
        .raw(
            "responses",
            &json::array(responses.iter().map(Response::encode)),
        )
        .finish()
}

// ---------------------------------------------------------------------------
// Fleet-level stats / metrics bodies
// ---------------------------------------------------------------------------

/// The fleet `stats` body: the single-server field set (so
/// `hetmem-top` parses it unchanged, with `worker_restarts` meaning
/// backend child restarts and `cache` the sum of backend caches) plus
/// a `fleet` block with per-backend health and traffic.
fn fleet_stats_json(shared: &FleetShared) -> String {
    let s = &shared.stats;
    let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
    let ops = JsonObject::new()
        .u64("place", load(&s.op_place))
        .u64("simulate", load(&s.op_simulate))
        .u64("stats", load(&s.op_stats))
        .u64("metrics", load(&s.op_metrics))
        .u64("shutdown", load(&s.op_shutdown))
        .u64("batch", load(&s.op_batch))
        .u64("other", load(&s.op_other))
        .finish();
    let mut cache = BackendCache::default();
    let mut restarts = 0u64;
    let backends = json::array(shared.backends.iter().enumerate().map(|(i, b)| {
        let mirror = *b.cache.lock().unwrap_or_else(|e| e.into_inner());
        cache.hits += mirror.hits;
        cache.misses += mirror.misses;
        cache.insertions += mirror.insertions;
        cache.evictions += mirror.evictions;
        cache.corruptions += mirror.corruptions;
        cache.entries += mirror.entries;
        cache.capacity += mirror.capacity;
        restarts += load(&b.restarts);
        let obj = JsonObject::new()
            .u64("backend", i as u64)
            .bool("healthy", b.healthy())
            .str("breaker", b.breaker.state().as_str())
            .bool("gone", b.gone.load(Ordering::Relaxed))
            .u64("requests", b.requests.get())
            .u64("errors", b.errors.get())
            .u64("reroutes", b.reroutes.get())
            .u64("restarts", load(&b.restarts));
        match b.addr() {
            Some(addr) => obj.str("addr", &addr.to_string()).finish(),
            None => obj.finish(),
        }
    }));
    let cache_obj = JsonObject::new()
        .u64("hits", cache.hits)
        .u64("misses", cache.misses)
        .u64("insertions", cache.insertions)
        .u64("evictions", cache.evictions)
        .u64("corruptions", cache.corruptions)
        .u64("entries", cache.entries)
        .u64("capacity", cache.capacity)
        .finish();
    let fleet = JsonObject::new()
        .u64("reroutes", shared.metrics.reroutes_total.get())
        .raw("backends", &backends)
        .finish();
    JsonObject::new()
        .u64("requests", load(&s.requests))
        .u64("ok", load(&s.ok))
        .u64("errors", load(&s.errors))
        .u64("overloaded", load(&s.overloaded))
        .u64("worker_restarts", restarts)
        .u64("deadline_exceeded", load(&s.deadline_exceeded))
        .u64("batch_subrequests", load(&s.batch_subrequests))
        .raw("ops", &ops)
        .raw("cache", &cache_obj)
        .u64("shards", shared.backends.len() as u64)
        .u64("queue_depth", shared.fwd.capacity() as u64)
        .u64("uptime_ms", shared.started.elapsed().as_millis() as u64)
        .raw("fleet", &fleet)
        .finish()
}

/// The fleet `metrics` body: the router registry in the requested
/// format, mirroring the serve op's parameter handling.
fn fleet_metrics_json(shared: &FleetShared, params: &JsonValue) -> Result<String, HetmemError> {
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
