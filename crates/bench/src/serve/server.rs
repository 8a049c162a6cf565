//! The unix server behind [`super::start`]: the supervised shard
//! workers, the response path, and the registry. Connections are served
//! by the crate's poll(2) reactor through the shared
//! [`front`] — request intake, batch validation, the
//! in-flight table and the `stats`/`metrics` ledger — with [`event`]
//! holding serve's executor.

mod event;

use std::io;
use std::net::{SocketAddr, TcpListener};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Instant;

use gpusim::{Fidelity, MigrationReport, SimConfig};
use hetmem::grid::RunPoint;
use hetmem::{bo_traffic_target, HetmemError, TelemetrySink};
use hetmem_harness::json::{self, JsonObject, JsonValue};
use hetmem_harness::metrics::{Counter, Gauge, Histogram, MetricsRegistry};
use hetmem_harness::sweep::{panic_message, SweepError};
use hetmem_harness::{BoundedQueue, FaultInjector, Response, ResultCache};
use profiler::get_allocation;
use workloads::catalog;

use super::{field_u64, run_point, ServeConfig};
use crate::front::{self, Exec, Head, Helps, Job, Ledger, Table};
use crate::reactor::{us, DrainGate, Reactor, Waker};

/// Help texts of the shared metric families, as a server means them.
const HELPS: Helps = Helps {
    overloaded: "Requests shed because a shard queue was full.",
    worker_restarts: "Shard workers restarted by the supervisor.",
    queue_capacity: "Per-shard queue capacity.",
    uptime: "Milliseconds since the server started.",
};

/// A simulate bound for the shard pool.
struct SimWork {
    point: Box<RunPoint>,
    fidelity: Fidelity,
    key: String,
    /// Cooperative deadline carried over from the request envelope.
    deadline: Option<Instant>,
    /// When the job was made for its shard queue (queue-wait timing).
    enqueued: Instant,
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

/// One in-flight request: its front-end identity plus what serve's
/// telemetry adds.
struct ReqHead {
    head: Head,
    /// Telemetry id: the client's, or a generated `srv-N`.
    rid: String,
    read_us: u64,
}

/// Request phases in the order they happen, as `hm_phase_duration_us`
/// labels and `serve-span` names (`write` is recorded by the reactor
/// and has no span).
const PHASES: [&str; 7] = [
    "read",
    "decode",
    "queue_wait",
    "cache_lookup",
    "execute",
    "encode",
    "write",
];

/// Serve's own metric families, registered after the shared
/// [`Ledger`] half. Hot-path updates are pure atomics; scrape-time
/// mirrors (cache stats, queue depths) are filled in by serve's
/// [`Exec::refresh`].
struct ServeMetrics {
    /// One histogram per [`PHASES`] entry.
    phases: Vec<Arc<Histogram>>,
    cache_hits: Arc<Counter>,
    cache_misses: Arc<Counter>,
    cache_insertions: Arc<Counter>,
    cache_evictions: Arc<Counter>,
    cache_corruptions: Arc<Counter>,
    cache_entries: Arc<Gauge>,
    cache_capacity: Arc<Gauge>,
    queue_depth: Vec<Arc<Gauge>>,
    // Migration-engine aggregates, accumulated on fresh executions.
    mig_promoted: Arc<Counter>,
    mig_demoted: Arc<Counter>,
    mig_evicted: Arc<Counter>,
    mig_epochs: Arc<Counter>,
    mig_copy_bytes: Arc<Counter>,
}

impl ServeMetrics {
    fn new(reg: &MetricsRegistry, shards: usize) -> Self {
        let ph_help = "Per-phase request latency, microseconds.";
        let cache_help = "Result-cache events, mirrored from cache stats at scrape time.";
        let cache_ev = |ev| reg.counter("hm_cache_events_total", cache_help, &[("event", ev)]);
        let mig_help = "Pages moved by the online migration engine, by movement kind.";
        let mig = |kind| reg.counter("hm_migration_pages_total", mig_help, &[("kind", kind)]);
        ServeMetrics {
            phases: PHASES
                .iter()
                .map(|ph| reg.histogram("hm_phase_duration_us", ph_help, &[("phase", ph)]))
                .collect(),
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
        }
    }

    /// Accumulates one fresh execution's migration aggregate (cache
    /// hits don't re-count the cached run's work).
    fn record_migration(&self, mt: &MigrationReport) {
        self.mig_promoted.add(mt.pages_promoted);
        self.mig_demoted.add(mt.pages_demoted);
        self.mig_evicted.add(mt.pages_evicted);
        self.mig_epochs.add(mt.epochs);
        self.mig_copy_bytes.add(mt.copy_bytes);
    }
}

/// Everything the poll loop and the worker threads share.
struct Shared {
    cache: ResultCache,
    queues: Vec<BoundedQueue<Job<SimWork, SimReply>>>,
    shutting: AtomicBool,
    ledger: Ledger,
    telemetry: Option<Arc<TelemetrySink>>,
    faults: FaultInjector,
    metrics: ServeMetrics,
    /// Source for server-generated `srv-N` request ids.
    next_rid: AtomicU64,
    /// [`ServeConfig::max_batch`].
    max_batch: usize,
    /// Marked once a drain has flushed every accepted request's
    /// response; [`ServerHandle::wait`] blocks on it.
    drain: DrainGate,
    /// Wakes the poll loop to observe a drain at once.
    waker: Waker,
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
        self.shared.begin_drain();
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

/// Binds and starts the service: the poll loop plus `shards`
/// simulation workers.
///
/// # Errors
///
/// `InvalidInput` for a zero count or timeout; bind/spawn failures.
pub fn start(cfg: ServeConfig) -> io::Result<ServerHandle> {
    cfg.check()?;
    let limits = front::limits(&cfg);
    let listener = TcpListener::bind(&cfg.addr)?;
    let addr = listener.local_addr()?;
    let shards = cfg.shards;
    let reactor = Reactor::new(listener)?;
    let ledger = Ledger::new(&HELPS, shards, cfg.queue_depth);
    let metrics = ServeMetrics::new(ledger.registry(), shards);
    let shared = Arc::new(Shared {
        cache: ResultCache::new(cfg.cache_capacity),
        queues: (0..shards)
            .map(|_| BoundedQueue::new(cfg.queue_depth))
            .collect(),
        shutting: AtomicBool::new(false),
        ledger,
        telemetry: cfg.telemetry,
        faults: cfg
            .faults
            .map_or_else(FaultInjector::disabled, FaultInjector::new),
        metrics,
        next_rid: AtomicU64::new(1),
        max_batch: cfg.max_batch,
        drain: DrainGate::default(),
        waker: reactor.waker(),
    });
    let workers = (0..shards)
        .map(|i| {
            let s = Arc::clone(&shared);
            thread::Builder::new()
                .name(format!("hetmem-serve-shard-{i}"))
                .spawn(move || supervise_worker(&s, i))
        })
        .collect::<io::Result<Vec<_>>>()?;
    // The loop thread is detached: wait() synchronizes on the drain
    // gate, and the loop exits on its own once every connection is
    // gone.
    reactor.spawn("hetmem-serve-poll", limits, Table::new(&shared))?;
    Ok(ServerHandle {
        addr,
        workers,
        shared,
    })
}

/// Builds, encodes and accounts one finished request's response —
/// *before* its bytes go anywhere near a socket (the conservation
/// invariant): the ledger, the phase histograms, the `serve-request`
/// telemetry line, and (with `"trace":true`) one `serve-span` line per
/// phase.
fn respond(shared: &Shared, req: ReqHead, outcome: JobReply) -> String {
    let (outcome, cache_hit, phases) = match outcome {
        Ok(r) => (Ok(r.body), r.cache_hit, r.phases),
        Err(e) => (Err(e), false, PhaseTimes::default()),
    };
    let head = &req.head;
    let resp = shared
        .ledger
        .response(head.id, head.client_rid.clone(), outcome);
    let encode_start = Instant::now();
    let mut out = resp.encode();
    out.push('\n');
    let encode_us = us(encode_start.elapsed());
    shared.ledger.account(&head.op, resp.is_ok(), head.t0);
    let spans = [
        Some(req.read_us),
        Some(head.decode_us),
        phases.queue_wait_us,
        phases.cache_lookup_us,
        phases.execute_us,
        Some(encode_us),
    ];
    for (hist, dur) in shared.metrics.phases.iter().zip(spans) {
        if let Some(v) = dur {
            hist.record(v);
        }
    }
    let Some(sink) = &shared.telemetry else {
        return out;
    };
    let status = match &resp {
        Response::Ok { .. } => "ok",
        Response::Err { code, .. } => code,
    };
    let mut lines = vec![JsonObject::new()
        .str("kind", "serve-request")
        .str("request_id", &req.rid)
        .str("op", &head.op)
        .str("status", status)
        .bool("cache_hit", cache_hit)
        .f64("wall_ms", head.t0.elapsed().as_secs_f64() * 1e3)
        .finish()];
    if head.trace {
        // Spans chain end-to-start (`start_us` is relative to the
        // start of the read phase), so a renderer can lay them on one
        // timeline without clock plumbing.
        let mut start = 0u64;
        for (phase, dur) in PHASES.iter().zip(spans) {
            let Some(dur) = dur else { continue };
            lines.push(
                JsonObject::new()
                    .str("kind", "serve-span")
                    .str("request_id", &req.rid)
                    .str("op", &head.op)
                    .str("phase", phase)
                    .u64("start_us", start)
                    .u64("dur_us", dur)
                    .finish(),
            );
            start += dur;
        }
    }
    let _ = sink.record_lines("serve", &lines);
    out
}

/// Keeps shard `shard` alive: a panic anywhere in [`worker_loop`]
/// (outside [`execute`]'s own `catch_unwind`, e.g. an injected worker
/// fault) is caught, counted, and the loop re-entered. The job
/// being carried is dropped with it, and its dropped reply sink
/// answers `worker-restarted`. A clean exit (queue closed and drained) ends
/// supervision.
fn supervise_worker(shared: &Arc<Shared>, shard: usize) {
    loop {
        match catch_unwind(AssertUnwindSafe(|| worker_loop(shared, shard))) {
            Ok(()) => break,
            Err(_) => shared.ledger.restarted(),
        }
    }
}

fn worker_loop(shared: &Arc<Shared>, shard: usize) {
    while let Some(Job { work: job, reply }) = shared.queues[shard].pop() {
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
            reply.deliver(Err(HetmemError::DeadlineExceeded));
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
        let result = match cached {
            Some(body) => Ok(SimReply {
                body,
                cache_hit: true,
                phases,
            }),
            None => {
                let exec_start = Instant::now();
                match execute(&job.point, job.fidelity, job.deadline) {
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
        reply.deliver(result);
    }
}

/// Runs one point on the calling worker, after the deadline check, so
/// an expired request is not simulated and a simulator panic comes back
/// as `sim-panic` (worded as the sweep engine words a panicking grid
/// point) instead of unwinding the shard worker.
fn execute(
    point: &RunPoint,
    fidelity: Fidelity,
    deadline: Option<Instant>,
) -> Result<(String, Option<MigrationReport>), HetmemError> {
    if deadline.is_some_and(|d| Instant::now() >= d) {
        return Err(HetmemError::DeadlineExceeded);
    }
    catch_unwind(AssertUnwindSafe(|| run_point(point, fidelity, "serve"))).map_err(|payload| {
        HetmemError::Sweep(SweepError::Panic {
            index: 0,
            label: point.label(),
            message: panic_message(payload),
        })
    })
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

#[cfg(test)]
mod tests {
    use super::*;
    use gpusim::SampleConfig;

    /// A `MIGRATE` point with sampled fidelity, which `parse_simulate`
    /// refuses and the run path panics on.
    fn panicking_point() -> (RunPoint, Fidelity) {
        let params = JsonValue::parse(r#"{"workload":"bfs","policy":"MIGRATE","mem_ops":100}"#)
            .expect("valid json");
        let (point, _, _) = super::super::parse_simulate(&params).expect("valid request");
        (point, Fidelity::Sampled(SampleConfig::default()))
    }

    #[test]
    fn a_panicking_point_comes_back_as_sim_panic() {
        let (point, fidelity) = panicking_point();
        assert!(
            point.label().starts_with("bfs/MIGRATE("),
            "{}",
            point.label()
        );
        let err = execute(&point, fidelity, None).expect_err("the point panics");
        assert_eq!(err.code(), "sim-panic");
        let msg = err.to_string();
        let lead = format!(
            "grid point 0 ({}) panicked: fidelity 'sampled'",
            point.label()
        );
        assert!(msg.contains(&lead), "{msg}");
    }

    #[test]
    fn an_expired_deadline_runs_nothing() {
        let (point, fidelity) = panicking_point();
        let err = execute(&point, fidelity, Some(Instant::now())).expect_err("expired");
        assert_eq!(err.code(), "deadline-exceeded");
    }
}
