//! Serve's front end: the one [`Exec`] impl the crate's shared intake,
//! in-flight table and reactor loop call — the `shutting-down` drain,
//! the `stats` `faults` block and the cache and queue mirrors, and the
//! shard-pool executor.
//!
//! `place`, and a `simulate` that does not parse, are answered on the
//! poll loop; a valid `simulate` goes to its shard's queue, and a batch
//! fans out one job per simulate slot so its points spread over the
//! shards. A pool job that dies with its worker answers
//! `worker-restarted`. Every response is accounted by [`respond`]
//! before its bytes are queued (the conservation invariant), and
//! delivery is where the chaos wire faults — drop, stall, tear —
//! strike.

use std::sync::atomic::Ordering;
use std::time::Instant;

use hetmem::HetmemError;
use hetmem_harness::json::JsonObject;
use hetmem_harness::telemetry::fnv1a;
use hetmem_harness::{BoundedQueue, Request, Response};

use super::{handle_place, respond, ReqHead, Shared, SimReply, SimWork, PHASES};
use crate::front::{Exec, Group, Head, Job, Ledger, Run, Sub};
use crate::reactor::Conn;
use crate::serve::parse_simulate;

impl Exec for Shared {
    type Head = ReqHead;
    type Work = SimWork;
    type Out = SimReply;
    const DRAINING: HetmemError = HetmemError::ShuttingDown;
    const LOST: HetmemError = HetmemError::WorkerRestarted;

    fn ledger(&self) -> &Ledger {
        &self.ledger
    }

    fn draining(&self) -> bool {
        self.shutting.load(Ordering::SeqCst)
    }

    /// Sets the drain flag once: close every shard queue (workers
    /// finish what is queued, then exit) and wake the poll loop so it
    /// stops listening.
    fn begin_drain(&self) {
        if self.shutting.swap(true, Ordering::SeqCst) {
            return;
        }
        for q in &self.queues {
            q.close();
        }
        self.waker.wake();
    }

    fn max_batch(&self) -> usize {
        self.max_batch
    }

    /// The shared body plus, under chaos injection, a `faults` block.
    fn stats(&self) -> String {
        let faults = self.faults.is_active().then(|| {
            let f = self.faults.counts();
            JsonObject::new()
                .u64("decisions", f.decisions)
                .u64("injected", f.injected())
                .u64("panics", f.panics)
                .u64("latencies", f.latencies)
                .u64("wire_errors", f.wire_errors)
                .u64("corruptions", f.corruptions)
                .u64("conn_drops", f.conn_drops)
                .u64("stalls", f.stalls)
                .u64("refusals", f.refusals)
                .finish()
        });
        let extra = faults.as_deref().map(|block| ("faults", block));
        self.ledger.stats(&self.cache.stats(), extra)
    }

    /// Mirrors the cache counters and the shard queue depths.
    fn refresh(&self) {
        let m = &self.metrics;
        let c = self.cache.stats();
        m.cache_hits.store(c.hits);
        m.cache_misses.store(c.misses);
        m.cache_insertions.store(c.insertions);
        m.cache_evictions.store(c.evictions);
        m.cache_corruptions.store(c.corruptions);
        m.cache_entries.set(c.entries as u64);
        m.cache_capacity.set(c.capacity as u64);
        for (gauge, queue) in m.queue_depth.iter().zip(&self.queues) {
            gauge.set(queue.len() as u64);
        }
    }

    fn head(&self, head: Head, read_us: u64) -> ReqHead {
        // Client-supplied ids are echoed on the response; generated ones
        // exist only in telemetry so identical request lines keep
        // byte-identical responses.
        let rid = head
            .client_rid
            .clone()
            .unwrap_or_else(|| format!("srv-{}", self.next_rid.fetch_add(1, Ordering::Relaxed)));
        ReqHead { head, rid, read_us }
    }

    fn op(&self, req: &Request, _line: &str, deadline: Option<Instant>) -> Run<SimWork> {
        run(req, deadline)
    }

    /// One group per simulate slot.
    fn scatter(
        &self,
        _id: u64,
        _deadline: Option<Instant>,
        ops: Vec<(usize, Request, Option<Instant>)>,
        ready: &mut [Option<Response>],
    ) -> Vec<Group<SimWork>> {
        let mut groups = Vec::new();
        for (slot, sub, deadline) in ops {
            match run(&sub, deadline) {
                Run::Now(outcome) => {
                    ready[slot] = Some(self.ledger.response(sub.id, sub.request_id, outcome));
                }
                Run::Queue(work) => groups.push(Group {
                    slots: vec![slot],
                    subs: vec![(sub.id, sub.request_id)],
                    work,
                }),
            }
        }
        groups
    }

    /// The shard owning the job's cache key, so identical concurrent
    /// requests serialize and the followers become cache hits.
    fn queue(&self, work: &SimWork) -> &BoundedQueue<Job<SimWork, SimReply>> {
        let shard = fnv1a(work.key.as_bytes()) % self.queues.len() as u64;
        &self.queues[shard as usize]
    }

    fn gather(&self, subs: &[Sub], out: SimReply) -> Vec<Response> {
        // A serve group is one slot.
        let (id, rid) = &subs[0];
        vec![self.ledger.response(*id, rid.clone(), Ok(out.body))]
    }

    fn respond(&self, head: ReqHead, outcome: Result<String, HetmemError>) -> String {
        respond(self, head, outcome.map(SimReply::inline))
    }

    fn reply(&self, head: ReqHead, out: SimReply) -> String {
        respond(self, head, Ok(out))
    }

    /// Queues response bytes, honoring chaos wire faults and the
    /// post-shutdown close-after-response contract.
    fn deliver(&self, c: &mut Conn, out: &str) {
        if c.poisoned {
            return;
        }
        if self.faults.maybe_conn_drop() {
            // Chaos: the connection dies outright mid-write. The peer
            // sees a reset/EOF instead of its response and retries.
            c.dead = true;
            return;
        }
        if self.faults.maybe_stall() {
            // Chaos: a prefix of the response lands and then the writer
            // goes silent — no close, no more bytes. Poisoning discards
            // every later response so nothing can follow the partial
            // line; the peer's read timeout is what ends the exchange.
            c.tear(&out.as_bytes()[..out.len() / 3]);
            return;
        }
        if self.faults.maybe_wire_error() {
            // Chaos: tear the response mid-line and poison the
            // connection so no later response can follow the torn
            // bytes. The client sees a short read / EOF and retries.
            c.tear(&out.as_bytes()[..out.len() / 2]);
            c.closing = true;
            return;
        }
        c.queue(out, self.draining());
    }

    fn refuse_accept(&self) -> bool {
        self.faults.maybe_refuse_accept()
    }

    fn wrote(&self, us: u64) {
        // `write`, the last phase.
        self.metrics.phases[PHASES.len() - 1].record(us);
    }

    fn drained(&self) {
        self.drain.mark();
    }
}

/// `place` runs on the loop, as does the refusal of a `simulate` that
/// does not parse; a valid `simulate` is work for its shard.
fn run(req: &Request, deadline: Option<Instant>) -> Run<SimWork> {
    if req.op == "place" {
        return Run::Now(handle_place(&req.params));
    }
    match parse_simulate(&req.params) {
        Ok((point, fidelity, key)) => Run::Queue(SimWork {
            point: Box::new(point),
            fidelity,
            key,
            deadline,
            enqueued: Instant::now(),
        }),
        Err(e) => Run::Now(Err(e)),
    }
}
