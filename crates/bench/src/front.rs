//! The request front `hetmem-serve` and the `hetmem-fleet` router
//! share above the reactor: envelope intake, batch validation, and the
//! ledger behind the `stats` and `metrics` ops.
//!
//! A front end implements [`Front`] for what really differs — its
//! draining refusal (`shutting-down` / `fleet-draining`), its `stats`
//! extras and its scrape-time mirrors — and executes only the work
//! [`intake`] hands back: `place` and `simulate`, bare or as batch
//! slots. The refusal order, every error string and the shared shape of
//! `stats` and `metrics` live here once, so a router answers what a
//! server answers byte for byte.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hetmem::HetmemError;
use hetmem_harness::json::{self, JsonObject, JsonValue};
use hetmem_harness::metrics::{Counter, Gauge, Histogram, MetricsRegistry};
use hetmem_harness::{CacheStats, Request, Response, PROTO_V2};

use crate::reactor::us;

/// What a front end supplies to the shared intake.
pub(crate) trait Front {
    /// The refusal new work gets once the front end is draining.
    const DRAINING: HetmemError;
    fn ledger(&self) -> &Ledger;
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
pub(crate) fn intake<F: Front>(front: &F, line: &str, shed: bool) -> Option<Intake> {
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
        Some(F::DRAINING)
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
fn local<F: Front>(front: &F, op: &str, params: &JsonValue) -> Result<String, HetmemError> {
    match op {
        "stats" => Ok(front.stats()),
        "metrics" => front.ledger().metrics(params, || front.refresh()),
        op => Err(HetmemError::UnknownOp { op: op.to_string() }),
    }
}

/// Validates a `batch` envelope's `requests` and resolves every slot.
/// Per-sub failures become error responses in their slot; they never
/// fail the envelope.
fn batch<F: Front>(
    front: &F,
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
pub(crate) fn batch_result(slots: Vec<Option<Response>>) -> String {
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
    ok: AtomicU64,
    errors: AtomicU64,
    /// Sub-requests carried inside accepted `batch` envelopes (each
    /// envelope itself counts once in `requests`).
    batch_subrequests: AtomicU64,
    /// Per-op counts in [`OPS`] order, then `other`.
    ops: [AtomicU64; OPS.len() + 1],
    /// Completed requests; recorded with the per-op histogram so the
    /// conservation invariant holds at every scrape.
    requests_total: Arc<Counter>,
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
            ok: AtomicU64::new(0),
            errors: AtomicU64::new(0),
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
        let (counter, outcome) = match ok {
            true => (&self.ok, &self.responses_ok),
            false => (&self.errors, &self.responses_err),
        };
        counter.fetch_add(1, Ordering::Relaxed);
        outcome.inc();
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
            .u64("ok", load(&self.ok))
            .u64("errors", load(&self.errors))
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
