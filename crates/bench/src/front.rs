//! The request front `hetmem-serve` and the `hetmem-fleet` router
//! share above the reactor: envelope intake, batch validation, the
//! in-flight table, and the ledger behind the `stats` and `metrics`
//! ops.
//!
//! A front end implements one trait, [`Exec`]: what really differs in
//! intake — its draining refusal (`shutting-down` / `fleet-draining`),
//! its `stats` extras and its scrape-time mirrors — plus its executor
//! (serve's shard pool or the router's forwarder pool) and the hooks
//! the reactor calls on it. The [`Table`] is what the reactor loop
//! drives for either front end. It parks every request [`intake`] hands
//! over, fans a batch's slots out to the executor and gathers them back
//! in sub-request order, and accounts each response before its bytes
//! are queued. The refusal order, every error string and the shared
//! shape of `stats` and `metrics` live here once, so a router answers
//! what a server answers byte for byte.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hetmem::HetmemError;
use hetmem_harness::json::{self, JsonObject, JsonValue};
use hetmem_harness::metrics::{Counter, Gauge, Histogram, MetricsRegistry};
use hetmem_harness::{BoundedQueue, CacheStats, PushError, Request, Response, PROTO_V2};

use crate::reactor::{us, Completions, Conn, Limits, Sink};
use crate::serve::ServeConfig;

/// The client-connection limits of either front end.
pub(crate) fn limits(cfg: &ServeConfig) -> Limits {
    Limits {
        conn_buffer: cfg.conn_buffer,
        read_timeout: Duration::from_millis(cfg.read_timeout_ms),
        write_timeout: Duration::from_millis(cfg.write_timeout_ms),
    }
}

/// The identity of one accepted request line.
pub(crate) struct Head {
    pub(crate) id: u64,
    /// Raw op name (`"decode"` for lines that never parsed).
    pub(crate) op: String,
    /// Echoed on the response; `None` keeps old wire bytes.
    pub(crate) client_rid: Option<String>,
    /// Span logging requested by the client.
    pub(crate) trace: bool,
    /// Intake entry, right after the line was read; request duration
    /// is measured from here.
    pub(crate) t0: Instant,
    pub(crate) decode_us: u64,
}

/// What [`intake`] made of one request line.
pub(crate) enum Intake {
    /// Answered at the front: a refusal, an undecodable line, or a
    /// front-level op (`stats`, `metrics`, `shutdown`, an unknown op).
    Answer(Head, Result<String, HetmemError>),
    /// A `place` or `simulate` for the front end to execute, with its
    /// deadline anchored at receipt.
    Op(Head, Request, Option<Instant>),
    /// A validated `batch`: one slot per sub-request, in order, plus
    /// the envelope's own deadline.
    Batch(Head, Vec<Slot>, Option<Instant>),
}

/// One batch slot after validation.
pub(crate) enum Slot {
    /// Resolved here: a per-sub refusal or a front-level op.
    Ready(Response),
    /// A `place` or `simulate` for the front end, with its deadline
    /// (its own, capped by the envelope's).
    Op(Request, Option<Instant>),
}

/// Reads one request line: skips blank lines, decodes, counts, and
/// applies the envelope refusals in priority order — draining,
/// unsupported protocol, deadline already past, then `shed` (the
/// reactor's backpressure signal; `shutdown` is never shed).
pub(crate) fn intake<E: Exec>(front: &E, line: &str, shed: bool) -> Option<Intake> {
    let line = line.trim();
    if line.is_empty() {
        return None;
    }
    let t0 = Instant::now();
    let ledger = front.ledger();
    ledger.requests.fetch_add(1, Ordering::Relaxed);
    let decoded = Request::decode(line);
    let decode_us = us(t0.elapsed());
    let req = match decoded {
        Ok(req) => req,
        Err(e) => {
            // The line never parsed, so there is no client id to echo.
            let head = Head {
                id: 0,
                op: "decode".to_string(),
                client_rid: None,
                trace: false,
                t0,
                decode_us,
            };
            return Some(Intake::Answer(head, Err(HetmemError::Protocol(e))));
        }
    };
    ledger.ops[op_slot(&req.op)].fetch_add(1, Ordering::Relaxed);
    let head = Head {
        id: req.id,
        op: req.op.clone(),
        client_rid: req.request_id.clone(),
        trace: req.trace,
        t0,
        decode_us,
    };
    let deadline = req.deadline_ms.map(|ms| t0 + Duration::from_millis(ms));
    let refusal = if front.draining() {
        Some(E::DRAINING)
    } else {
        proto_or_deadline(req.proto, deadline)
            .or_else(|| (shed && req.op != "shutdown").then_some(HetmemError::Overloaded))
    };
    let outcome = match (refusal, req.op.as_str()) {
        (Some(e), _) => Err(e),
        (None, "place" | "simulate") => return Some(Intake::Op(head, req, deadline)),
        (None, "batch") if req.proto < PROTO_V2 => Err(HetmemError::invalid(
            "op 'batch' requires \"proto\":2 or newer in the envelope",
        )),
        (None, "batch") => match batch(front, &req.params, deadline, t0) {
            Ok(slots) => return Some(Intake::Batch(head, slots, deadline)),
            Err(e) => Err(e),
        },
        (None, "shutdown") => {
            front.begin_drain();
            Ok(JsonObject::new().bool("draining", true).finish())
        }
        (None, op) => local(front, op, &req.params),
    };
    Some(Intake::Answer(head, outcome))
}

/// The protocol and deadline checks an envelope and every batch slot
/// must pass.
fn proto_or_deadline(proto: u64, deadline: Option<Instant>) -> Option<HetmemError> {
    if proto == 0 || proto > PROTO_V2 {
        return Some(HetmemError::UnsupportedProtocol { proto });
    }
    deadline
        .is_some_and(|d| Instant::now() >= d)
        .then_some(HetmemError::DeadlineExceeded)
}

/// The ops every front end answers itself, bare or inside a batch.
fn local<E: Exec>(front: &E, op: &str, params: &JsonValue) -> Result<String, HetmemError> {
    match op {
        "stats" => Ok(front.stats()),
        "metrics" => front.ledger().metrics(params, || front.refresh()),
        op => Err(HetmemError::UnknownOp { op: op.to_string() }),
    }
}

/// Validates a `batch` envelope's `requests` and resolves every slot.
/// Per-sub failures become error responses in their slot; they never
/// fail the envelope.
fn batch<E: Exec>(
    front: &E,
    params: &JsonValue,
    parent_deadline: Option<Instant>,
    t0: Instant,
) -> Result<Vec<Slot>, HetmemError> {
    let items = params
        .get("requests")
        .and_then(JsonValue::as_array)
        .ok_or_else(|| {
            HetmemError::invalid("batch needs a 'requests' array of request envelopes")
        })?;
    if items.is_empty() {
        return Err(HetmemError::invalid("batch 'requests' must be non-empty"));
    }
    if items.len() > front.max_batch() {
        return Err(HetmemError::BatchTooLarge {
            got: items.len(),
            max: front.max_batch(),
        });
    }
    let ledger = front.ledger();
    ledger
        .batch_subrequests
        .fetch_add(items.len() as u64, Ordering::Relaxed);
    let slot = |item: &JsonValue| {
        let sub = match Request::from_value(item) {
            Ok(sub) => sub,
            // Like a bare undecodable line, the slot answers with id 0.
            Err(e) => return Slot::Ready(ledger.response(0, None, Err(HetmemError::Protocol(e)))),
        };
        // A sub-deadline is anchored at batch decode and never
        // outlives the envelope's.
        let own = sub.deadline_ms.map(|ms| t0 + Duration::from_millis(ms));
        let deadline = match (parent_deadline, own) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        let outcome = match (proto_or_deadline(sub.proto, deadline), sub.op.as_str()) {
            (Some(e), _) => Err(e),
            (None, "place" | "simulate") => return Slot::Op(sub, deadline),
            (None, "batch") => Err(HetmemError::invalid("'batch' does not nest")),
            (None, "shutdown") => Err(HetmemError::invalid(
                "'shutdown' cannot ride inside a batch",
            )),
            (None, op) => local(front, op, &sub.params),
        };
        Slot::Ready(ledger.response(sub.id, sub.request_id, outcome))
    };
    Ok(items.iter().map(slot).collect())
}

/// A completed batch's result body, `{"responses":[...]}` in
/// sub-request order; the envelope counts once as an `ok` response.
/// Every slot must be filled.
fn batch_result(slots: Vec<Option<Response>>) -> String {
    let responses = slots
        .into_iter()
        .map(|slot| slot.expect("every batch slot is answered").encode());
    JsonObject::new()
        .raw("responses", &json::array(responses))
        .finish()
}

/// Ops with their own `stats.ops` counter and request-duration
/// histogram; any other op counts as `other`.
const OPS: [&str; 6] = ["place", "simulate", "stats", "metrics", "shutdown", "batch"];

fn op_slot(op: &str) -> usize {
    OPS.iter().position(|o| *o == op).unwrap_or(OPS.len())
}

/// Help texts for the shared metric families whose meaning differs by
/// front end.
pub(crate) struct Helps {
    pub(crate) overloaded: &'static str,
    pub(crate) worker_restarts: &'static str,
    pub(crate) queue_capacity: &'static str,
    pub(crate) uptime: &'static str,
}

/// The counters behind `stats` and the shared half of the `metrics`
/// registry. Front ends register their own families in
/// [`Ledger::registry`] after these.
pub(crate) struct Ledger {
    registry: MetricsRegistry,
    started: Instant,
    shards: usize,
    queue_capacity: usize,
    /// Request lines decoded or not, counted at intake.
    requests: AtomicU64,
    /// Sub-requests carried inside accepted `batch` envelopes (each
    /// envelope itself counts once in `requests`).
    batch_subrequests: AtomicU64,
    /// Per-op counts in [`OPS`] order, then `other`.
    ops: [AtomicU64; OPS.len() + 1],
    /// Completed requests; recorded with the per-op histogram so the
    /// conservation invariant holds at every scrape.
    requests_total: Arc<Counter>,
    /// `hm_responses_total` by outcome, read back as `stats.ok`/`errors`.
    responses_ok: Arc<Counter>,
    responses_err: Arc<Counter>,
    /// Request duration per op in [`OPS`] order, then `decode`, `other`.
    durations: Vec<Arc<Histogram>>,
    overloaded: Arc<Counter>,
    deadline_exceeded: Arc<Counter>,
    worker_restarts: Arc<Counter>,
    uptime_ms: Arc<Gauge>,
}

impl Ledger {
    /// `shards` and `queue_capacity` are what `stats` reports as
    /// `shards` and `queue_depth`.
    pub(crate) fn new(helps: &Helps, shards: usize, queue_capacity: usize) -> Self {
        let reg = MetricsRegistry::new();
        let requests_total = reg.counter(
            "hm_requests_total",
            "Requests completed (equals the sum of hm_request_duration_us counts).",
            &[],
        );
        let response = |status| {
            reg.counter(
                "hm_responses_total",
                "Responses by outcome.",
                &[("status", status)],
            )
        };
        let (responses_ok, responses_err) = (response("ok"), response("error"));
        let help = "Request latency from decode start to encoded response, microseconds.";
        let durations = OPS
            .iter()
            .chain(&["decode", "other"])
            .map(|op| reg.histogram("hm_request_duration_us", help, &[("op", op)]))
            .collect();
        let overloaded = reg.counter("hm_overloaded_total", helps.overloaded, &[]);
        let deadline_exceeded = reg.counter(
            "hm_deadline_exceeded_total",
            "Requests refused past their deadline.",
            &[],
        );
        let worker_restarts = reg.counter("hm_worker_restarts_total", helps.worker_restarts, &[]);
        reg.gauge("hm_queue_capacity", helps.queue_capacity, &[])
            .set(queue_capacity as u64);
        let uptime_ms = reg.gauge("hm_uptime_ms", helps.uptime, &[]);
        Ledger {
            registry: reg,
            started: Instant::now(),
            shards,
            queue_capacity,
            requests: AtomicU64::new(0),
            batch_subrequests: AtomicU64::new(0),
            ops: Default::default(),
            requests_total,
            responses_ok,
            responses_err,
            durations,
            overloaded,
            deadline_exceeded,
            worker_restarts,
            uptime_ms,
        }
    }

    pub(crate) fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Counts one worker (serve) or backend child (fleet) restart.
    pub(crate) fn restarted(&self) {
        self.worker_restarts.inc();
    }

    /// The response to request `id`. A shed or deadline refusal also
    /// counts in its own counter, for envelopes and batch slots alike.
    pub(crate) fn response(
        &self,
        id: u64,
        client_rid: Option<String>,
        outcome: Result<String, HetmemError>,
    ) -> Response {
        match outcome {
            Ok(body) => Response::ok(id, body),
            Err(e) => {
                match e {
                    HetmemError::Overloaded => self.overloaded.inc(),
                    HetmemError::DeadlineExceeded => self.deadline_exceeded.inc(),
                    _ => {}
                }
                Response::err(id, e.code(), &e.to_string())
            }
        }
        .with_request_id(client_rid)
    }

    /// Accounts one finished request — `stats.ok`/`errors`, the
    /// conservation pair and `hm_responses_total` — before its bytes
    /// can reach a socket, so a scrape issued after a response is read
    /// already counts it.
    pub(crate) fn account(&self, op: &str, ok: bool, t0: Instant) {
        let slot = match op_slot(op) {
            i if i < OPS.len() => i,
            _ if op == "decode" => OPS.len(),
            _ => OPS.len() + 1,
        };
        self.durations[slot].record(us(t0.elapsed()));
        self.requests_total.inc();
        match ok {
            true => self.responses_ok.inc(),
            false => self.responses_err.inc(),
        }
    }

    /// The `stats` body: the shared counters, `cache`, and the queue
    /// shape, then the front end's `extra` block if any.
    pub(crate) fn stats(&self, cache: &CacheStats, extra: Option<(&str, &str)>) -> String {
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        let ops = OPS
            .iter()
            .chain(&["other"])
            .zip(&self.ops)
            .fold(JsonObject::new(), |obj, (op, n)| obj.u64(op, load(n)))
            .finish();
        let obj = JsonObject::new()
            .u64("requests", load(&self.requests))
            .u64("ok", self.responses_ok.get())
            .u64("errors", self.responses_err.get())
            .u64("overloaded", self.overloaded.get())
            .u64("worker_restarts", self.worker_restarts.get())
            .u64("deadline_exceeded", self.deadline_exceeded.get())
            .u64("batch_subrequests", load(&self.batch_subrequests))
            .raw("ops", &ops)
            .raw("cache", &cache.to_json())
            .u64("shards", self.shards as u64)
            .u64("queue_depth", self.queue_capacity as u64)
            .u64("uptime_ms", self.uptime());
        match extra {
            Some((key, block)) => obj.raw(key, block).finish(),
            None => obj.finish(),
        }
    }

    /// The `metrics` body: the whole registry in the requested
    /// `format`, after `refresh` fills the front end's scrape-time
    /// mirrors, so both formats see one coherent snapshot.
    fn metrics(&self, params: &JsonValue, refresh: impl FnOnce()) -> Result<String, HetmemError> {
        let format = match params.get("format") {
            None => "json",
            Some(v) => v
                .as_str()
                .ok_or_else(|| HetmemError::invalid("'format' must be a string"))?,
        };
        refresh();
        self.uptime_ms.set(self.uptime());
        match format {
            "json" => Ok(self.registry.render_json()),
            "prometheus" => Ok(JsonObject::new()
                .str("format", "prometheus")
                .str("text", &self.registry.render_prometheus())
                .finish()),
            other => Err(HetmemError::invalid(format!(
                "unknown metrics format '{other}' (want json or prometheus)"
            ))),
        }
    }

    fn uptime(&self) -> u64 {
        self.started.elapsed().as_millis() as u64
    }
}

/// How an executor takes a `place` or `simulate`.
pub(crate) enum Run<W> {
    /// Answered on the loop.
    Now(Result<String, HetmemError>),
    /// Work for the executor's queue.
    Queue(W),
}

/// A batch slot's request id and client id, which its response echoes.
pub(crate) type Sub = (u64, Option<String>);

/// Batch slots that run as one queued job.
pub(crate) struct Group<W> {
    /// The envelope slots the job fills, in order.
    pub(crate) slots: Vec<usize>,
    /// One entry per slot.
    pub(crate) subs: Vec<Sub>,
    pub(crate) work: W,
}

/// One job on an executor's queue: its work, and the sink its reply
/// goes back to the loop through.
pub(crate) struct Job<W, O> {
    pub(crate) work: W,
    pub(crate) reply: Sink<Result<O, HetmemError>>,
}

/// A front end: what it supplies to the shared intake, the executor
/// below the shared [`Table`], and the hooks the reactor loop calls.
pub(crate) trait Exec: Send + Sync + 'static {
    /// A request's identity while it is in flight.
    type Head: Send + 'static;
    /// What one queued job carries.
    type Work: Send + 'static;
    /// A finished job's result.
    type Out: Send + 'static;
    /// The refusal new work gets once the front end is draining.
    const DRAINING: HetmemError;
    /// The answer of a job whose worker died holding it.
    const LOST: HetmemError;

    fn ledger(&self) -> &Ledger;

    /// The front end is draining: the listener closes, and every
    /// connection closes once its responses flush.
    fn draining(&self) -> bool;

    /// Starts the drain (the `shutdown` op).
    fn begin_drain(&self);

    /// The `batch` sub-request ceiling per envelope.
    fn max_batch(&self) -> usize;

    /// The `stats` body, built with [`Ledger::stats`].
    fn stats(&self) -> String;

    /// Fills the front end's own scrape-time mirrors before a `metrics`
    /// render.
    fn refresh(&self);

    /// The identity of a request [`intake`] accepted; `read_us` is its
    /// read phase (socket wait plus client think time).
    fn head(&self, head: Head, read_us: u64) -> Self::Head;

    /// A bare `place` or `simulate`, as received on `line`.
    fn op(&self, req: &Request, line: &str, deadline: Option<Instant>) -> Run<Self::Work>;

    /// A batch's `place` and `simulate` slots (index, request,
    /// deadline) as queued groups; a slot answered on the loop is filled
    /// in `ready` instead. `id` and `deadline` are the envelope's.
    fn scatter(
        &self,
        id: u64,
        deadline: Option<Instant>,
        ops: Vec<(usize, Request, Option<Instant>)>,
        ready: &mut [Option<Response>],
    ) -> Vec<Group<Self::Work>>;

    /// The queue `work` runs on.
    fn queue(&self, work: &Self::Work) -> &BoundedQueue<Job<Self::Work, Self::Out>>;

    /// A group's result as one response per slot, in the group's order.
    fn gather(&self, subs: &[Sub], out: Self::Out) -> Vec<Response>;

    /// Accounts one finished request and encodes its response line,
    /// newline included, before the bytes go near a socket.
    fn respond(&self, head: Self::Head, outcome: Result<String, HetmemError>) -> String;

    /// As [`Exec::respond`], for a bare op's queued result.
    fn reply(&self, head: Self::Head, out: Self::Out) -> String;

    /// Queues response bytes on the connection; once draining, the
    /// connection closes after them.
    fn deliver(&self, c: &mut Conn, out: &str) {
        c.queue(out, self.draining());
    }

    /// Chaos hook: close a freshly accepted connection before serving
    /// it, as a server at its fd limit would.
    fn refuse_accept(&self) -> bool {
        false
    }

    /// A socket accepted response bytes after `us` microseconds in
    /// write(2).
    fn wrote(&self, _us: u64) {}

    /// Every accepted request's response is flushed while draining —
    /// or the reactor loop exited (a panic included). May run more than
    /// once.
    fn drained(&self);
}

/// What a job handed to `E`'s executor delivers back to the loop.
pub(crate) type Reply<E> = Result<<E as Exec>::Out, HetmemError>;

/// A request waiting on the executor, keyed by completion token.
enum Parked<H> {
    /// A bare op, answered on its connection.
    Bare { conn: u64, head: H },
    /// One group of a batch envelope's slots.
    Group {
        batch: u64,
        slots: Vec<usize>,
        subs: Vec<Sub>,
    },
}

/// A batch envelope waiting for its groups.
struct Batch<H> {
    conn: u64,
    head: H,
    slots: Vec<Option<Response>>,
    remaining: usize,
}

/// The in-flight table: what the reactor loop drives for either front
/// end.
pub(crate) struct Table<E: Exec> {
    pub(crate) exec: Arc<E>,
    parked: HashMap<u64, Parked<E::Head>>,
    batches: HashMap<u64, Batch<E::Head>>,
}

impl<E: Exec> Table<E> {
    pub(crate) fn new(exec: &Arc<E>) -> Self {
        Table {
            exec: Arc::clone(exec),
            parked: HashMap::new(),
            batches: HashMap::new(),
        }
    }

    /// No accepted request is waiting on a completion.
    pub(crate) fn idle(&self) -> bool {
        self.parked.is_empty() && self.batches.is_empty()
    }

    /// One complete request line (newline included) read from `c`,
    /// whose id is `conn`, through [`intake`]: answered now, or parked
    /// until its executor completes it. `shed` is set when the
    /// connection's unflushed backlog has reached its `conn_buffer`.
    pub(crate) fn line(
        &mut self,
        c: &mut Conn,
        conn: u64,
        line: &str,
        shed: bool,
        done: &mut Completions<Reply<E>>,
    ) {
        let now = Instant::now();
        let read_us = us(now.saturating_duration_since(c.last_line_done));
        c.last_line_done = now;
        let exec = &*self.exec;
        let (head, run) = match intake(exec, line, shed) {
            None => return,
            Some(Intake::Answer(head, outcome)) => (head, Run::Now(outcome)),
            Some(Intake::Op(head, req, deadline)) => (head, exec.op(&req, line, deadline)),
            Some(Intake::Batch(head, slots, deadline)) => {
                let head = (head.id, exec.head(head, read_us));
                return self.batch(c, conn, done, head, slots, deadline);
            }
        };
        let head = exec.head(head, read_us);
        match run {
            Run::Now(outcome) => {
                let out = exec.respond(head, outcome);
                exec.deliver(c, &out);
            }
            Run::Queue(work) => {
                let token = done.token();
                c.inflight += 1;
                self.parked.insert(token, Parked::Bare { conn, head });
                submit(exec, done, token, work);
            }
        }
    }

    /// A job finished: its request is answered, or its batch slots are
    /// filled and, with the last group, the envelope is. Its connection,
    /// if still open, is in `conns`. Accounted even if the connection is
    /// gone: completed work always counts.
    pub(crate) fn completion(
        &mut self,
        conns: &mut HashMap<u64, Conn>,
        token: u64,
        reply: Reply<E>,
    ) {
        let exec = &*self.exec;
        let (conn, out) = match self.parked.remove(&token) {
            None => return,
            Some(Parked::Bare { conn, head }) => match reply {
                Ok(out) => (conn, exec.reply(head, out)),
                Err(e) => (conn, exec.respond(head, Err(e))),
            },
            Some(Parked::Group { batch, slots, subs }) => {
                let responses = match reply {
                    Ok(out) => exec.gather(&subs, out),
                    // The front end's own refusal (a full or closed
                    // queue, a lost job) counts like any other.
                    Err(e) => subs
                        .into_iter()
                        .map(|(id, rid)| exec.ledger().response(id, rid, Err(e.clone())))
                        .collect(),
                };
                let Some(b) = self.batches.get_mut(&batch) else {
                    return;
                };
                for (slot, resp) in slots.into_iter().zip(responses) {
                    b.slots[slot] = Some(resp);
                }
                b.remaining -= 1;
                if b.remaining > 0 {
                    return;
                }
                let b = self.batches.remove(&batch).expect("batch present");
                (b.conn, exec.respond(b.head, Ok(batch_result(b.slots))))
            }
        };
        if let Some(c) = conns.get_mut(&conn) {
            c.inflight -= 1;
            exec.deliver(c, &out);
        }
    }

    /// A validated batch: `Ready` slots are kept and the rest fan out
    /// as the executor groups them. An envelope with nothing to fan out
    /// is answered at once; otherwise it is one in-flight unit on its
    /// connection until its last group completes.
    fn batch(
        &mut self,
        c: &mut Conn,
        conn: u64,
        done: &mut Completions<Reply<E>>,
        (id, head): (u64, E::Head),
        slots: Vec<Slot>,
        deadline: Option<Instant>,
    ) {
        let exec = &*self.exec;
        let mut ready = Vec::with_capacity(slots.len());
        let mut ops = Vec::new();
        for (i, slot) in slots.into_iter().enumerate() {
            ready.push(match slot {
                Slot::Ready(resp) => Some(resp),
                Slot::Op(req, deadline) => {
                    ops.push((i, req, deadline));
                    None
                }
            });
        }
        let groups = exec.scatter(id, deadline, ops, &mut ready);
        if groups.is_empty() {
            let out = exec.respond(head, Ok(batch_result(ready)));
            exec.deliver(c, &out);
            return;
        }
        c.inflight += 1;
        let batch = done.token();
        let remaining = groups.len();
        self.batches.insert(
            batch,
            Batch {
                conn,
                head,
                slots: ready,
                remaining,
            },
        );
        for Group { slots, subs, work } in groups {
            let token = done.token();
            self.parked
                .insert(token, Parked::Group { batch, slots, subs });
            submit(exec, done, token, work);
        }
    }
}

/// Pushes one job onto its executor queue. A full queue answers
/// `overloaded` and a closed one the draining error, both through the
/// job's own sink, so refusals come back like any other completion.
fn submit<E: Exec>(exec: &E, done: &Completions<Reply<E>>, token: u64, work: E::Work) {
    let job = Job {
        work,
        reply: done.sink(token, Err(E::LOST)),
    };
    match exec.queue(&job.work).try_push(job) {
        Ok(()) => {}
        Err(PushError::Overloaded(job)) => job.reply.deliver(Err(HetmemError::Overloaded)),
        Err(PushError::Closed(job)) => job.reply.deliver(Err(E::DRAINING)),
    }
}
