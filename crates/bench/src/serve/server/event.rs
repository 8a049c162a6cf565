//! Serve's executor under the crate's shared in-flight table.
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
use hetmem_harness::telemetry::fnv1a;
use hetmem_harness::{BoundedQueue, Request, Response};

use super::{handle_place, respond, ReqHead, Shared, SimReply, SimWork, PHASES};
use crate::front::{Exec, Front, Group, Head, Job, Run, Sub};
use crate::reactor::Conn;
use crate::serve::parse_simulate;

impl Exec for Shared {
    type Head = ReqHead;
    type Work = SimWork;
    type Out = SimReply;
    const LOST: HetmemError = HetmemError::WorkerRestarted;

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
        Ok((point, key)) => Run::Queue(SimWork {
            point: Box::new(point),
            key,
            deadline,
            enqueued: Instant::now(),
        }),
        Err(e) => Run::Now(Err(e)),
    }
}
