//! Serve's two handlers on the crate's poll(2) reactor: one for a
//! complete request line, one for a finished shard-pool job.
//!
//! Lines resolve through [`prepare`]: inline ops finish at
//! once, their bytes queued on the connection; simulate-shaped work is
//! submitted to the shard pool with a reactor sink whose drop fallback
//! is `worker-restarted`, and the request finishes when its completion
//! comes back. Every response is accounted before its bytes are
//! queued (the conservation invariant), and delivery is where the
//! chaos wire faults — drop, stall, tear — strike.

use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use hetmem::HetmemError;
use hetmem_harness::Response;

use super::{
    prepare, respond, submit_job, JobReply, Prepared, ReqHead, Shared, SimReply, SubWork, PHASES,
};
use crate::front::batch_result;
use crate::reactor::{us, Completions, Conn, Handler};

/// An in-flight pool job's bookkeeping, keyed by completion token.
enum Pending {
    /// A bare `simulate`: finish and respond on its connection.
    Single { conn: u64, head: ReqHead },
    /// One slot of a batch envelope.
    Sub {
        batch: u64,
        slot: usize,
        id: u64,
        client_rid: Option<String>,
    },
}

/// A batch envelope waiting for its pool-bound slots.
struct BatchPending {
    conn: u64,
    head: ReqHead,
    slots: Vec<Option<Response>>,
    remaining: usize,
}

/// The serve front end: the server's shared state plus the requests
/// waiting on the pool.
pub(super) struct Serve {
    shared: Arc<Shared>,
    pending: HashMap<u64, Pending>,
    batches: HashMap<u64, BatchPending>,
}

impl Serve {
    pub(super) fn new(shared: &Arc<Shared>) -> Self {
        Serve {
            shared: Arc::clone(shared),
            pending: HashMap::new(),
            batches: HashMap::new(),
        }
    }
}

/// A pool job that died with its worker.
fn restarted() -> JobReply {
    Err(HetmemError::WorkerRestarted)
}

impl Handler for Serve {
    type Reply = JobReply;

    fn draining(&self) -> bool {
        self.shared.shutting.load(Ordering::SeqCst)
    }

    fn idle(&self) -> bool {
        self.pending.is_empty() && self.batches.is_empty()
    }

    fn refuse_accept(&self) -> bool {
        self.shared.faults.maybe_refuse_accept()
    }

    /// Dispatches one line, and either responds now or parks the
    /// request until its pool completion arrives.
    fn line(
        &mut self,
        c: &mut Conn,
        conn: u64,
        line: &str,
        shed: bool,
        done: &mut Completions<JobReply>,
    ) {
        let shared = &self.shared;
        let now = Instant::now();
        let read_us = us(now.saturating_duration_since(c.last_line_done));
        c.last_line_done = now;
        let Some(prepared) = prepare(shared, line, read_us, shed) else {
            return;
        };
        match prepared {
            Prepared::Done(head, outcome) => {
                let out = respond(shared, head, outcome);
                deliver(shared, c, &out);
            }
            Prepared::Sim(work) => {
                let token = done.token();
                c.inflight += 1;
                self.pending.insert(
                    token,
                    Pending::Single {
                        conn,
                        head: work.head,
                    },
                );
                let sink = done.sink(token, restarted());
                submit_job(shared, work.key, work.point, work.deadline, sink);
            }
            Prepared::Batch(work) => {
                let mut slots = Vec::with_capacity(work.subs.len());
                let mut sims = Vec::new();
                for (slot, sub) in work.subs.into_iter().enumerate() {
                    match sub {
                        SubWork::Ready(resp) => slots.push(Some(resp)),
                        SubWork::Sim {
                            id,
                            client_rid,
                            point,
                            key,
                            deadline,
                        } => {
                            slots.push(None);
                            sims.push((slot, id, client_rid, point, key, deadline));
                        }
                    }
                }
                if sims.is_empty() {
                    let out = respond(shared, work.head, Ok(SimReply::inline(batch_result(slots))));
                    deliver(shared, c, &out);
                    return;
                }
                // The whole envelope is one in-flight unit on the conn;
                // its slots fan out to the pool concurrently.
                c.inflight += 1;
                let batch_token = done.token();
                self.batches.insert(
                    batch_token,
                    BatchPending {
                        conn,
                        head: work.head,
                        remaining: sims.len(),
                        slots,
                    },
                );
                for (slot, id, client_rid, point, key, deadline) in sims {
                    let token = done.token();
                    self.pending.insert(
                        token,
                        Pending::Sub {
                            batch: batch_token,
                            slot,
                            id,
                            client_rid,
                        },
                    );
                    let sink = done.sink(token, restarted());
                    submit_job(shared, key, point, deadline, sink);
                }
            }
        }
    }

    /// Finishes the job's request (accounted even if the connection is
    /// gone — completed work always counts) and queues the response
    /// bytes if the client is still there.
    fn completion(&mut self, conns: &mut HashMap<u64, Conn>, token: u64, reply: JobReply) {
        let shared = &self.shared;
        match self.pending.remove(&token) {
            None => {}
            Some(Pending::Single { conn, head }) => {
                let out = respond(shared, head, reply);
                if let Some(c) = conns.get_mut(&conn) {
                    c.inflight -= 1;
                    deliver(shared, c, &out);
                }
            }
            Some(Pending::Sub {
                batch,
                slot,
                id,
                client_rid,
            }) => {
                let resp = shared
                    .ledger
                    .response(id, client_rid, reply.map(|r| r.body));
                let Some(b) = self.batches.get_mut(&batch) else {
                    return;
                };
                b.slots[slot] = Some(resp);
                b.remaining -= 1;
                if b.remaining > 0 {
                    return;
                }
                let b = self.batches.remove(&batch).expect("batch present");
                let out = respond(shared, b.head, Ok(SimReply::inline(batch_result(b.slots))));
                if let Some(c) = conns.get_mut(&b.conn) {
                    c.inflight -= 1;
                    deliver(shared, c, &out);
                }
            }
        }
    }

    fn wrote(&self, us: u64) {
        // `write`, the last phase.
        self.shared.metrics.phases[PHASES.len() - 1].record(us);
    }

    fn drained(&self) {
        self.shared.drain.mark();
    }
}

/// Queues response bytes on a connection, honoring chaos wire faults
/// and the post-shutdown close-after-response contract.
fn deliver(shared: &Shared, c: &mut Conn, out: &str) {
    if c.poisoned {
        return;
    }
    if shared.faults.maybe_conn_drop() {
        // Chaos: the connection dies outright mid-write. The peer sees
        // a reset/EOF instead of its response and retries.
        c.dead = true;
        return;
    }
    if shared.faults.maybe_stall() {
        // Chaos: a prefix of the response lands and then the writer
        // goes silent — no close, no more bytes. Poisoning discards
        // every later response so nothing can follow the partial line;
        // the peer's read timeout is what ends the exchange.
        c.tear(&out.as_bytes()[..out.len() / 3]);
        return;
    }
    if shared.faults.maybe_wire_error() {
        // Chaos: tear the response mid-line and poison the connection
        // so no later response can follow the torn bytes. The client
        // sees a short read / EOF and retries.
        c.tear(&out.as_bytes()[..out.len() / 2]);
        c.closing = true;
        return;
    }
    c.queue(out, shared.shutting.load(Ordering::SeqCst));
}
