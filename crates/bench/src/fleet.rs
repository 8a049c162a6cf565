//! `hetmem-fleet`: fault-tolerant multi-process serving.
//!
//! A std-only router that spawns and supervises N `hetmem-serve`
//! backend processes and proxies the JSONL protocol (v1 and v2) to
//! them on the crate's poll(2) reactor — the same loop `hetmem-serve`
//! runs on, with pipelining, per-connection write-backlog
//! backpressure, and read/write timeouts — through the same in-flight
//! table. The router supplies only its executor: the forwarder pool.
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
//!   seeded [`Backoff`] schedule when it exits unexpectedly; in a crash
//!   loop (each child dying within 10 s of its start) a backend is
//!   respawned at most 5 times, then marked gone and dropped from the
//!   ring walk.
//! * **Health probes** — every 200 ms a prober issues a `stats`
//!   round-trip with a 750 ms deadline against every backend and feeds
//!   a per-backend closed/open/half-open [`CircuitBreaker`], which
//!   opens after 3 consecutive failures; an open breaker excludes the
//!   backend from routing until its seeded cooldown elapses.
//! * **Failover** — a transport failure (or a `worker-restarted` that
//!   survives an in-place retry) moves the request to the key's next
//!   ring successor. Requests are idempotent (`place`/`simulate` are
//!   pure and cached), so re-execution is safe. When every candidate
//!   is down the client gets the stable, retryable
//!   `backend-unavailable` code; a draining fleet answers
//!   `fleet-draining`, which clients must not retry. A forwarded
//!   round-trip waits at most 120 s for its reply, or until the
//!   request's own deadline if that comes first.
//! * **Drain** — `shutdown` (or [`FleetHandle::shutdown`], or SIGTERM
//!   and SIGINT once [`FleetHandle::drain_on_termination_signals`] is
//!   on, as in the `hetmem-fleet` binary) refuses new work, finishes
//!   every in-flight request, then stops each child: `shutdown` op
//!   first, SIGTERM next, SIGKILL last.
//!
//! ## Observability
//!
//! Request intake, batch validation and the `stats`/`metrics` ledger
//! are the crate's shared `front` module, so the router
//! refuses, counts and reports exactly as a single server does, and
//! `hetmem-top --check` works against it unchanged. Fleet-specific
//! metric families add per-backend request/error/reroute/restart
//! counters, a health gauge, and the ring-ownership share per backend.

use std::collections::HashMap;
use std::ffi::c_int;
use std::io::{self, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use hetmem::HetmemError;
use hetmem_harness::json::{self, JsonObject, JsonValue};
use hetmem_harness::metrics::{Counter, Gauge};
use hetmem_harness::{
    batch_request, Backoff, BoundedQueue, CacheStats, CircuitBreaker, HashRing, Request, Response,
    DEFAULT_VNODES,
};

use crate::front::{self, Exec, Front, Group, Head, Helps, Job, Ledger, Run, Sub, Table};
use crate::reactor::{DrainGate, Reactor, Waker};
use crate::serve::{exchange, roundtrip_timeout, simulate_cache_key, ServeConfig};

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

/// Read timeout per forwarded round-trip, shortened to the request's
/// own deadline when it has one.
const BACKEND_TIMEOUT: Duration = Duration::from_secs(120);
/// Health-probe cadence.
const PROBE_INTERVAL: Duration = Duration::from_millis(200);
/// Health-probe deadline (also its read timeout).
const PROBE_DEADLINE_MS: u64 = 750;
/// Consecutive failures before a breaker opens.
const BREAKER_THRESHOLD: u32 = 3;
/// Rapid-crash restart budget per backend before it is marked gone.
const MAX_RESTARTS: u32 = 5;
/// How long to wait for a spawned child's port file.
const SPAWN_DEADLINE: Duration = Duration::from_secs(10);
/// Connect timeout for router→backend sockets.
const CONNECT_TIMEOUT: Duration = Duration::from_millis(1_000);

/// Help texts of the shared metric families, as a router means them.
const HELPS: Helps = Helps {
    overloaded: "Requests shed because the forwarding queue was full.",
    worker_restarts: "Backend child processes restarted by the fleet supervisor.",
    queue_capacity: "Forwarding-queue capacity.",
    uptime: "Milliseconds since the router started.",
};

/// Router construction knobs. Every count and timeout must be
/// positive. `Default` binds an ephemeral loopback port with two
/// backends discovered next to the current executable; the settings
/// shared with `hetmem-serve` default to [`ServeConfig::default`]'s.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Bind address (default `127.0.0.1:0`).
    pub addr: String,
    /// Backend child processes (default 2).
    pub backends: usize,
    /// Path to the `hetmem-serve` binary; `None` looks for a sibling
    /// of the current executable.
    pub serve_bin: Option<PathBuf>,
    /// Per-backend `--shards` passthrough.
    pub shards: usize,
    /// Per-backend `--queue-depth` passthrough.
    pub queue_depth: usize,
    /// Per-backend `--cache` passthrough.
    pub cache_capacity: usize,
    /// `batch` sub-request ceiling, enforced at the router and passed
    /// through to backends.
    pub max_batch: usize,
    /// Router backpressure threshold in bytes, same semantics as
    /// [`ServeConfig::conn_buffer`].
    pub conn_buffer: usize,
    /// Client-connection read timeout at the router, in ms.
    pub read_timeout_ms: u64,
    /// Client-connection write timeout at the router, in ms.
    pub write_timeout_ms: u64,
    /// Seed for the deterministic breaker-cooldown and restart-backoff
    /// jitter.
    pub seed: u64,
    /// `--faults` spec passed through to every backend (router-side
    /// chaos is driven from the backends, so injected decisions stay
    /// deterministic per process).
    pub backend_faults: Option<String>,
    /// Forwarding worker threads; `None` runs 2 per backend, clamped
    /// to 2..=16.
    pub workers: Option<usize>,
    /// Forwarding-queue depth before the router sheds with
    /// `overloaded` (default 256).
    pub fwd_queue: usize,
}

impl Default for FleetConfig {
    fn default() -> Self {
        let serve = ServeConfig::default();
        FleetConfig {
            addr: serve.addr,
            backends: 2,
            serve_bin: None,
            shards: serve.shards,
            queue_depth: serve.queue_depth,
            cache_capacity: serve.cache_capacity,
            max_batch: serve.max_batch,
            conn_buffer: serve.conn_buffer,
            read_timeout_ms: serve.read_timeout_ms,
            write_timeout_ms: serve.write_timeout_ms,
            seed: 0,
            backend_faults: None,
            workers: None,
            fwd_queue: 256,
        }
    }
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
    restarts: Arc<Counter>,
    /// Forwarded requests (attempts, including in-place retries).
    requests: Arc<Counter>,
    /// Failed forwarded attempts.
    errors: Arc<Counter>,
    /// Requests that failed here and moved on down the ring (or
    /// exhausted it).
    reroutes: Arc<Counter>,
    /// `hm_backend_healthy`, mirrored at scrape time.
    healthy_gauge: Arc<Gauge>,
    /// Last health-probed backend cache counters, aggregated into the
    /// fleet `stats` body.
    cache: Mutex<CacheStats>,
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

/// Everything the loop, forwarding workers, supervisors, and prober
/// share.
struct FleetShared {
    serve_bin: PathBuf,
    /// The `hetmem-serve` flags every spawn and respawn passes through.
    backend_args: Vec<String>,
    ring: HashRing,
    backends: Vec<Backend>,
    fwd: BoundedQueue<Job<Fwd, ForwardReply>>,
    /// New work is refused with `fleet-draining`.
    draining: AtomicBool,
    /// In-flight work has finished flushing: supervisors may stop
    /// children, workers and the prober may exit.
    reap: AtomicBool,
    ledger: Ledger,
    /// `hm_fleet_reroutes_total`.
    reroutes: Arc<Counter>,
    /// `hm_queue_depth{shard="fwd"}`, mirrored at scrape time.
    queue_depth: Arc<Gauge>,
    /// Marked once the loop has flushed every accepted request's
    /// response while draining; [`FleetHandle::wait`] blocks on it.
    drain: DrainGate,
    /// Wakes the poll loop to observe a drain at once.
    waker: Waker,
    /// The client-connection write timeout, also applied to writes on
    /// router→backend sockets.
    write_timeout: Duration,
    restart_backoff: Backoff,
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

/// A request bound for the forwarding queue.
struct Fwd {
    /// The raw line to forward (no newline) — the client's own bytes
    /// for bare requests, a re-encoded per-backend envelope for batch
    /// groups.
    line: String,
    /// Content key the ring walk starts from.
    key: String,
    deadline: Option<Instant>,
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
        self.shared.begin_drain();
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
                    shared.begin_drain();
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
/// `InvalidInput` for a zero count or timeout; bind/spawn failures, a
/// missing `hetmem-serve` binary, or a backend that never published its
/// port. Children already spawned are killed before the error
/// propagates.
pub fn start(cfg: FleetConfig) -> io::Result<FleetHandle> {
    let backends_n = cfg.backends;
    let workers_n = cfg.workers.unwrap_or((backends_n * 2).clamp(2, 16));
    front::check_positive(&[
        ("backends", backends_n as u64),
        ("shards", cfg.shards as u64),
        ("queue_depth", cfg.queue_depth as u64),
        ("cache_capacity", cfg.cache_capacity as u64),
        ("max_batch", cfg.max_batch as u64),
        ("conn_buffer", cfg.conn_buffer as u64),
        ("read_timeout_ms", cfg.read_timeout_ms),
        ("write_timeout_ms", cfg.write_timeout_ms),
        ("workers", workers_n as u64),
        ("fwd_queue", cfg.fwd_queue as u64),
    ])?;
    let listener = TcpListener::bind(&cfg.addr)?;
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
    let ledger = Ledger::new(&HELPS, backends_n, cfg.fwd_queue);
    let reg = ledger.registry();
    let reroutes = reg.counter(
        "hm_fleet_reroutes_total",
        "Requests moved off a failed backend to a ring successor.",
        &[],
    );
    let ring = HashRing::new(backends_n, DEFAULT_VNODES);
    let cooldown = Backoff::new(100, 2_000, cfg.seed);
    let backends = ring
        .shares()
        .into_iter()
        .enumerate()
        .map(|(i, share)| {
            let i = i.to_string();
            let label = [("backend", i.as_str())];
            let counter = |name, help| reg.counter(name, help, &label);
            let backend = Backend {
                addr: Mutex::new(None),
                child: Mutex::new(None),
                breaker: CircuitBreaker::new(BREAKER_THRESHOLD, cooldown),
                gone: AtomicBool::new(false),
                requests: counter(
                    "hm_backend_requests_total",
                    "Forwarded request attempts per backend.",
                ),
                errors: counter(
                    "hm_backend_errors_total",
                    "Failed forwarded attempts per backend.",
                ),
                reroutes: counter(
                    "hm_backend_reroutes_total",
                    "Requests that failed on this backend and moved on.",
                ),
                restarts: counter(
                    "hm_backend_restarts_total",
                    "Unexpected child exits, each answered with a respawn.",
                ),
                healthy_gauge: reg.gauge(
                    "hm_backend_healthy",
                    "1 when the backend is up with a closed breaker.",
                    &label,
                ),
                cache: Mutex::new(CacheStats::default()),
            };
            reg.gauge(
                "hm_fleet_ring_share_ppm",
                "Consistent-hash ring ownership per backend, parts per million.",
                &label,
            )
            .set((share * 1_000_000.0).round() as u64);
            backend
        })
        .collect();
    let queue_depth = reg.gauge(
        "hm_queue_depth",
        "Requests parked in the forwarding queue at scrape time.",
        &[("shard", "fwd")],
    );
    let mut backend_args = vec![
        "--max-batch".to_string(),
        cfg.max_batch.to_string(),
        "--shards".to_string(),
        cfg.shards.to_string(),
        "--queue-depth".to_string(),
        cfg.queue_depth.to_string(),
        "--cache".to_string(),
        cfg.cache_capacity.to_string(),
    ];
    if let Some(spec) = cfg.backend_faults {
        backend_args.extend(["--faults".to_string(), spec]);
    }
    let limits = front::limits(cfg.conn_buffer, cfg.read_timeout_ms, cfg.write_timeout_ms);
    let reactor = Reactor::new(listener)?;
    let shared = Arc::new(FleetShared {
        serve_bin,
        backend_args,
        ring,
        backends,
        fwd: BoundedQueue::new(cfg.fwd_queue),
        draining: AtomicBool::new(false),
        reap: AtomicBool::new(false),
        ledger,
        reroutes,
        queue_depth,
        drain: DrainGate::default(),
        waker: reactor.waker(),
        write_timeout: limits.write_timeout,
        restart_backoff: Backoff::new(50, 2_000, cfg.seed.wrapping_add(0x9e37_79b9)),
        max_batch: cfg.max_batch,
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
    // Detached: wait() synchronizes on the drain gate, and the loop
    // exits once every conn is gone.
    reactor.spawn("hetmem-fleet-poll", limits, Table::new(&shared))?;
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
    let mut child = Command::new(&shared.serve_bin)
        .arg("--addr")
        .arg("127.0.0.1:0")
        .arg("--port-file")
        .arg(&port_path)
        .args(&shared.backend_args)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()?;
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
            backend.restarts.inc();
            shared.ledger.restarted();
            // A backend that stayed up a while earns a fresh budget:
            // only rapid crash loops exhaust it.
            if spawned_at.elapsed() > Duration::from_secs(10) {
                attempt = 0;
            }
            if attempt >= MAX_RESTARTS {
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
            let req = Request::new(0, "stats").deadline(PROBE_DEADLINE_MS);
            let timeout = Duration::from_millis(PROBE_DEADLINE_MS);
            match roundtrip_timeout(&addr.to_string(), &req, timeout) {
                Ok(Response::Ok { result, .. }) => {
                    backend.breaker.record_success();
                    let parsed = JsonValue::parse(&result);
                    if let Some(cache) = parsed.as_ref().ok().and_then(|v| v.get("cache")) {
                        *backend.cache.lock().unwrap_or_else(|e| e.into_inner()) =
                            CacheStats::from_json(cache);
                    }
                }
                Ok(Response::Err { .. }) | Err(_) => {
                    backend.breaker.record_failure(Instant::now());
                }
            }
        }
        if sleep_unless_reap(shared, PROBE_INTERVAL) {
            break;
        }
    }
}

// ---------------------------------------------------------------------------
// Forwarding workers
// ---------------------------------------------------------------------------

fn fwd_worker(shared: &Arc<FleetShared>) {
    // Pooled router→backend connections, one per backend, owned by
    // this worker; dropped (and retried fresh) on any I/O error.
    let mut pool: HashMap<usize, BufReader<TcpStream>> = HashMap::new();
    while let Some(job) = shared.fwd.pop() {
        let result = forward_one(shared, &mut pool, &job.work);
        job.reply.deliver(result);
    }
}

/// Forwards one raw line along the key's ring-successor walk: up to
/// three attempts per candidate backend (a stale pooled connection and
/// a `worker-restarted` each earn an in-place retry), then the next
/// successor. Exhausting every candidate is `backend-unavailable`.
fn forward_one(
    shared: &FleetShared,
    pool: &mut HashMap<usize, BufReader<TcpStream>>,
    job: &Fwd,
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
            let timeout = roundtrip_budget(job.deadline);
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
                    shared.reroutes.inc();
                    break;
                }
            }
        }
    }
    Err(HetmemError::BackendUnavailable { tried })
}

/// Per-roundtrip read timeout: [`BACKEND_TIMEOUT`], cut to the
/// request's remaining deadline (plus slack for the refusal to travel
/// back) when one is set.
fn roundtrip_budget(deadline: Option<Instant>) -> Duration {
    match deadline {
        None => BACKEND_TIMEOUT,
        Some(d) => {
            let left = d.saturating_duration_since(Instant::now()) + Duration::from_millis(250);
            left.min(BACKEND_TIMEOUT)
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
    let conn = match pool.entry(b) {
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
    conn.get_ref()
        .set_read_timeout(Some(read_timeout.max(floor)))?;
    conn.get_ref()
        .set_write_timeout(Some(write_timeout.max(floor)))?;
    let reply = exchange(conn, line)?;
    match Response::decode(&reply) {
        Ok(Response::Ok { .. }) => Ok((reply, true, None)),
        Ok(Response::Err { code, .. }) => Ok((reply, false, Some(code))),
        // A complete-but-undecodable line is relayed as-is: the router
        // proxies, it does not validate.
        Err(_) => Ok((reply, false, None)),
    }
}

// ---------------------------------------------------------------------------
// The executor under the shared in-flight table
// ---------------------------------------------------------------------------

impl Exec for FleetShared {
    type Head = Head;
    type Work = Fwd;
    type Out = ForwardReply;
    const LOST: HetmemError = HetmemError::BackendUnavailable { tried: 0 };

    fn head(&self, head: Head, _read_us: u64) -> Head {
        head
    }

    /// The client's own bytes go to the backend owning the content key.
    fn op(&self, req: &Request, line: &str, deadline: Option<Instant>) -> Run<Fwd> {
        Run::Queue(Fwd {
            line: line.trim().to_string(),
            key: route_key(req),
            deadline,
        })
    }

    /// Groups the slots by owning backend; each group forwards as one
    /// per-backend batch envelope.
    fn scatter(
        &self,
        id: u64,
        deadline: Option<Instant>,
        ops: Vec<(usize, Request, Option<Instant>)>,
        _ready: &mut [Option<Response>],
    ) -> Vec<Group<Fwd>> {
        let mut by_backend: HashMap<usize, (String, Vec<usize>, Vec<Request>)> = HashMap::new();
        for (slot, sub, _) in ops {
            let key = route_key(&sub);
            let (rep_key, slots, subs) = by_backend.entry(self.ring.route(&key)).or_default();
            if subs.is_empty() {
                *rep_key = key;
            }
            slots.push(slot);
            subs.push(sub);
        }
        let group = |(key, slots, subs): (String, Vec<usize>, Vec<Request>)| {
            let mut env = batch_request(id, &subs);
            if let Some(d) = deadline {
                // The outer budget rides to the backend as remaining ms;
                // per-sub deadlines are already inside the sub envelopes.
                let left = d.saturating_duration_since(Instant::now()).as_millis() as u64;
                env.deadline_ms = Some(left.max(1));
            }
            Group {
                slots,
                subs: subs.into_iter().map(|r| (r.id, r.request_id)).collect(),
                work: Fwd {
                    line: env.encode(),
                    key,
                    deadline,
                },
            }
        };
        by_backend.into_values().map(group).collect()
    }

    fn queue(&self, _work: &Fwd) -> &BoundedQueue<Job<Fwd, ForwardReply>> {
        &self.fwd
    }

    /// A backend's batch envelope, decoded into the group's slots. Codes
    /// from a backend's reply are relayed, not counted here.
    fn gather(&self, subs: &[Sub], out: ForwardReply) -> Vec<Response> {
        let fill = |code: &str, message: &str| -> Vec<Response> {
            subs.iter()
                .map(|(id, rid)| Response::err(*id, code, message).with_request_id(rid.clone()))
                .collect()
        };
        match Response::decode(&out.line) {
            Err(_) => fill(
                "backend-unavailable",
                "backend returned an undecodable reply",
            ),
            Ok(Response::Err { code, message, .. }) => fill(&code, &message),
            Ok(ok @ Response::Ok { .. }) => match ok.batch_responses() {
                Ok(rs) if rs.len() == subs.len() => rs,
                _ => fill(
                    "backend-unavailable",
                    "backend returned a mismatched batch envelope",
                ),
            },
        }
    }

    fn respond(&self, head: Head, outcome: Result<String, HetmemError>) -> String {
        let resp = self.ledger.response(head.id, head.client_rid, outcome);
        self.ledger.account(&head.op, resp.is_ok(), head.t0);
        let mut out = resp.encode();
        out.push('\n');
        out
    }

    /// A backend's line, relayed verbatim; only the counters are the
    /// router's.
    fn reply(&self, head: Head, out: ForwardReply) -> String {
        self.ledger.account(&head.op, out.ok, head.t0);
        let mut line = out.line;
        line.push('\n');
        line
    }

    /// Every accepted request is flushed (or the loop died): let
    /// wait() return and the supervisors stop the children.
    fn drained(&self) {
        self.reap.store(true, Ordering::SeqCst);
        self.fwd.close();
        self.drain.mark();
    }
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

impl Front for FleetShared {
    const DRAINING: HetmemError = HetmemError::FleetDraining;

    fn ledger(&self) -> &Ledger {
        &self.ledger
    }

    fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Sets the drain flag once and wakes the poll loop.
    fn begin_drain(&self) {
        if self.draining.swap(true, Ordering::SeqCst) {
            return;
        }
        self.waker.wake();
    }

    fn max_batch(&self) -> usize {
        self.max_batch
    }

    /// The single-server body (so `hetmem-top` parses it unchanged,
    /// with `worker_restarts` meaning backend child restarts and `cache`
    /// the sum of the backends' last probed caches) plus a `fleet` block
    /// with per-backend health and traffic.
    fn stats(&self) -> String {
        let mut cache = CacheStats::default();
        let backends = json::array(self.backends.iter().enumerate().map(|(i, b)| {
            cache.merge(&b.cache.lock().unwrap_or_else(|e| e.into_inner()));
            let obj = JsonObject::new()
                .u64("backend", i as u64)
                .bool("healthy", b.healthy())
                .str("breaker", b.breaker.state().as_str())
                .bool("gone", b.gone.load(Ordering::Relaxed))
                .u64("requests", b.requests.get())
                .u64("errors", b.errors.get())
                .u64("reroutes", b.reroutes.get())
                .u64("restarts", b.restarts.get());
            match b.addr() {
                Some(addr) => obj.str("addr", &addr.to_string()).finish(),
                None => obj.finish(),
            }
        }));
        let fleet = JsonObject::new()
            .u64("reroutes", self.reroutes.get())
            .raw("backends", &backends)
            .finish();
        self.ledger.stats(&cache, Some(("fleet", &fleet)))
    }

    /// Mirrors backend health and the forwarding-queue depth.
    fn refresh(&self) {
        for b in &self.backends {
            b.healthy_gauge.set(u64::from(b.healthy()));
        }
        self.queue_depth.set(self.fwd.len() as u64);
    }
}
