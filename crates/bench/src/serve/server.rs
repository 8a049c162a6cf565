//! The unix server behind [`super::start`]: the dispatch pipeline, the
//! supervised shard workers, and the registry. Connections are served
//! by the crate's poll(2) reactor through [`event`]'s handlers.

mod event;

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use gpusim::SimConfig;
use hetmem::{bo_traffic_target, HetmemError, TelemetrySink};
use hetmem_harness::json::{self, JsonObject, JsonValue};
use hetmem_harness::metrics::{Counter, Gauge, Histogram, MetricsRegistry};
use hetmem_harness::sweep::{run_grid, SweepOptions};
use hetmem_harness::telemetry::{fnv1a, MigrationTelemetry};
use hetmem_harness::{
    BoundedQueue, FaultInjector, PushError, Request, Response, ResultCache, PROTO_V2,
};
use profiler::get_allocation;
use workloads::catalog;

use super::{field_u64, parse_simulate, run_point, ServeConfig, SimPoint, DEFAULT_READ_TIMEOUT_MS};
use crate::reactor::{self, us, DrainGate, Limits, Sink};

/// Default server socket write timeout.
const DEFAULT_WRITE_TIMEOUT_MS: u64 = 30_000;
/// Default `batch` sub-request ceiling per envelope.
const DEFAULT_MAX_BATCH: usize = 64;
/// Default per-connection unflushed-response backlog (bytes) before
/// the server sheds that connection's requests as `overloaded`.
const DEFAULT_CONN_BUFFER: usize = 256 * 1024;

/// A queued simulate job: the point plus the reply path back to the
/// poll loop.
struct Job {
    key: String,
    point: SimPoint,
    /// Cooperative deadline carried over from the request envelope.
    deadline: Option<Instant>,
    /// When the job entered its shard queue (queue-wait timing).
    enqueued: Instant,
    reply: Sink<JobReply>,
}

/// Worker → front-end reply.
type JobReply = Result<SimReply, HetmemError>;

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
    /// Wraps a body computed inline on the poll loop.
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

/// The identity of one in-flight request — everything needed to build
/// its response envelope and accounting record once its outcome is
/// known.
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
/// inline, or work for the shard pool that the poll loop must submit
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

/// Everything the poll loop and the worker threads share.
struct Shared {
    addr: SocketAddr,
    cache: ResultCache,
    queues: Vec<BoundedQueue<Job>>,
    shutting: AtomicBool,
    stats: ServerStats,
    telemetry: Option<Arc<TelemetrySink>>,
    started: Instant,
    faults: FaultInjector,
    metrics: ServeMetrics,
    /// Source for server-generated `srv-N` request ids.
    next_rid: AtomicU64,
    /// Resolved [`ServeConfig::max_batch`].
    max_batch: usize,
    /// Marked once a drain has flushed every accepted request's
    /// response; [`ServerHandle::wait`] blocks on it.
    drain: DrainGate,
}

/// A running server: the bound address plus the threads to join.
pub struct ServerHandle {
    addr: SocketAddr,
    workers: Vec<JoinHandle<()>>,
    shared: Arc<Shared>,
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

    /// Blocks until the server has fully drained: the shard workers
    /// have finished every queued job, and every accepted request has
    /// its response bytes flushed. The poll loop thread itself is not
    /// joined — it lingers (detached) to answer `shutting-down` on
    /// connections a client still holds open, and exits once they
    /// close.
    pub fn wait(mut self) {
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        self.shared.drain.wait();
    }
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

/// Binds and starts the service: the poll loop plus `shards`
/// simulation workers.
///
/// # Errors
///
/// Propagates bind/spawn failures.
pub fn start(cfg: ServeConfig) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(cfg.addr_or_default())?;
    let addr = listener.local_addr()?;
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
        faults: cfg
            .faults
            .map_or_else(FaultInjector::disabled, FaultInjector::new),
        metrics: ServeMetrics::new(shards),
        next_rid: AtomicU64::new(1),
        max_batch,
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
    let limits = Limits {
        conn_buffer,
        read_timeout: Duration::from_millis(read_timeout_ms),
        write_timeout: Duration::from_millis(write_timeout_ms),
    };
    // The loop thread is detached: wait() synchronizes on the drain
    // gate, and the loop exits on its own once every connection is
    // gone.
    reactor::spawn(
        "hetmem-serve-poll",
        listener,
        limits,
        event::Serve::new(&shared),
    )?;
    Ok(ServerHandle {
        addr,
        workers,
        shared,
    })
}

/// A fresh server-generated request id, used for telemetry joining
/// when the client did not supply one. Never echoed on responses.
fn gen_rid(shared: &Shared) -> String {
    format!("srv-{}", shared.next_rid.fetch_add(1, Ordering::Relaxed))
}

/// Decodes one request line and resolves it as far as the poll loop
/// can without blocking: inline ops (and every refusal) come back as
/// [`Prepared::Done`], pool-bound work as [`Prepared::Sim`] /
/// [`Prepared::Batch`] for the loop to submit and complete.
///
/// `shed` is the reactor's backpressure signal: a connection too far
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
/// request-id echo policy live.
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
/// [`SubWork::Sim`] for the poll loop to fan out.
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
/// queue answers through the job's own reply sink, so the poll loop
/// observes refusals exactly like any other completion.
fn submit_job(
    shared: &Arc<Shared>,
    key: String,
    point: SimPoint,
    deadline: Option<Instant>,
    reply: Sink<JobReply>,
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
        Err(PushError::Overloaded(job)) => job.reply.deliver(Err(HetmemError::Overloaded)),
        Err(PushError::Closed(job)) => job.reply.deliver(Err(HetmemError::ShuttingDown)),
    }
}

/// Accounts one finished request: registry histograms and counters,
/// the `serve-request` telemetry line, and (with `"trace":true`) one
/// `serve-span` line per phase. Runs *before* the response bytes are
/// written — see the conservation note in the module docs.
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
/// what is queued, then exit) and wake the poll loop so it stops
/// listening.
fn begin_shutdown(shared: &Arc<Shared>) {
    if shared.shutting.swap(true, Ordering::SeqCst) {
        return;
    }
    for q in &shared.queues {
        q.close();
    }
    // A throwaway connection wakes the loop's poll(2) to observe the
    // flag at once.
    let _ = TcpStream::connect(shared.addr);
}

/// Keeps shard `shard` alive: a panic anywhere in [`worker_loop`]
/// (outside the sweep engine's own `catch_unwind`, e.g. an injected
/// worker fault) is caught, counted, and the loop re-entered. The job
/// being carried is dropped with it, and its dropped reply sink
/// answers `worker-restarted`. A clean exit (queue closed and drained) ends
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
            // Counted once, by the poll loop, when the reply flows back.
            job.reply.deliver(Err(HetmemError::DeadlineExceeded));
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
        job.reply.deliver(reply);
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
        SimPoint::label,
        |p, _ctx| run_point(p, "serve"),
    )?;
    Ok(results.pop().expect("one point in, one result out"))
}

/// `place`: annotation arrays (or a catalog workload's) through the
/// paper's `GetAllocation`, inline on the poll loop.
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
