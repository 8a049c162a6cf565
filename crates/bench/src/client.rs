//! The resilient `hetmem-serve` client: retries with deterministic
//! backoff, deadline budgets, and idempotent replays.
//!
//! [`ClientBuilder`] is the client API: configure the target address,
//! retry count, backoff schedule, deadline budget, socket timeout, and
//! an optional request-id prefix once, then issue [`ClientBuilder::call`]
//! (one request) or [`ClientBuilder::call_batch`] (a protocol-v2 `batch`
//! envelope) as many times as needed. The retry engine underneath wraps
//! [`crate::serve::roundtrip_timeout`]; two classes
//! of failure are retried:
//!
//! * **Transport errors** — refused connections, timeouts, short reads
//!   (a torn response never parses: the newline is missing), EOF.
//! * **Transient server errors** — the stable codes `overloaded` and
//!   `worker-restarted`, which the server documents as safe to retry.
//!
//! Everything else (structured errors like `unknown-workload`, or a
//! success) is returned as-is. Retries are **idempotent by
//! construction**: the request line is re-encoded from the same
//! [`Request`] (minus the shrinking deadline), and the server's
//! content-addressed cache makes a replayed simulation byte-identical
//! to the first attempt. Because the whole `Request` is cloned, a
//! client-supplied `request_id` rides along on every attempt — all
//! retries of one logical call share one id in the server's telemetry,
//! and client-side deadline errors name it too.
//!
//! Delays come from the seeded [`Backoff`] schedule — capped
//! exponential with deterministic jitter — and every sleep is clamped
//! to the remaining deadline budget, so a caller with a 2000 ms
//! deadline never blocks past ~2 s regardless of retry count.

use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use hetmem_harness::{batch_request, Backoff, Request, Response};

use crate::serve::roundtrip_timeout;

/// Error codes the server guarantees are safe to retry.
pub const RETRYABLE_CODES: [&str; 2] = ["overloaded", "worker-restarted"];

/// Additional codes that are retryable only against a `hetmem-fleet`
/// router: `backend-unavailable` means every ring candidate was down
/// at that instant, and the fleet's supervisor is already restarting
/// them — a later attempt can land. `fleet-draining` is deliberately
/// NOT here: a draining fleet never comes back, so retrying it only
/// burns the deadline budget.
pub const FLEET_RETRYABLE_CODES: [&str; 1] = ["backend-unavailable"];

/// The retry/deadline knobs a [`ClientBuilder`] resolves to.
#[derive(Debug, Clone)]
pub struct ClientOptions {
    /// Additional attempts after the first (so `retries: 3` = at most
    /// 4 round-trips).
    pub retries: u32,
    /// The delay schedule between attempts.
    pub backoff: Backoff,
    /// Overall budget across all attempts; also sent to the server as
    /// the envelope's `deadline_ms` (shrunk by elapsed time each
    /// attempt). `None` = no deadline.
    pub deadline_ms: Option<u64>,
    /// Per-attempt socket read timeout.
    pub read_timeout: Duration,
    /// Talking to a `hetmem-fleet` router: also retry
    /// [`FLEET_RETRYABLE_CODES`]. Retried attempts re-encode the same
    /// request, so they re-route by the same content key and a
    /// recovered (or successor) backend answers byte-identically.
    pub fleet: bool,
}

impl Default for ClientOptions {
    fn default() -> Self {
        ClientOptions {
            retries: 3,
            backoff: Backoff::default(),
            deadline_ms: None,
            read_timeout: Duration::from_secs(120),
            fleet: false,
        }
    }
}

/// Outcome of one call, with the attempt count that produced it.
#[derive(Debug, Clone, PartialEq)]
pub struct CallOutcome {
    /// The final response (success or structured error).
    pub response: Response,
    /// Round-trips performed, including the successful one (≥ 1).
    pub attempts: u32,
}

/// Outcome of one [`ClientBuilder::call_batch`]: the envelope response
/// plus the per-sub-request responses split back out in order.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchOutcome {
    /// The whole-envelope response. An `Err` here (e.g.
    /// `batch-too-large`) means no sub-request ran.
    pub response: Response,
    /// Sub-responses in sub-request order; empty when the envelope
    /// itself failed. Each is byte-identical to what the bare request
    /// would have returned.
    pub responses: Vec<Response>,
    /// Round-trips performed, including the successful one (≥ 1).
    pub attempts: u32,
}

/// The configured client: address plus retry policy, reusable across
/// calls (and threads, behind an `Arc`).
///
/// ```no_run
/// use hetmem_bench::client::ClientBuilder;
/// use hetmem_harness::Request;
///
/// let client = ClientBuilder::new("127.0.0.1:7077")
///     .retries(5)
///     .deadline_ms(2000)
///     .request_id_prefix("sweep");
/// let outcome = client.call(&Request::new(1, "stats")).unwrap();
/// assert_eq!(outcome.attempts, 1);
/// ```
#[derive(Debug)]
pub struct ClientBuilder {
    addr: String,
    opts: ClientOptions,
    rid_prefix: Option<String>,
    /// Sequence for prefix-stamped request ids (`<prefix>-N`).
    next_rid: AtomicU64,
}

impl ClientBuilder {
    /// A client for `addr` with default retry policy (3 retries,
    /// default backoff, no deadline, 120 s socket timeout).
    pub fn new(addr: impl Into<String>) -> Self {
        ClientBuilder {
            addr: addr.into(),
            opts: ClientOptions::default(),
            rid_prefix: None,
            next_rid: AtomicU64::new(1),
        }
    }

    /// Additional attempts after the first.
    #[must_use]
    pub fn retries(mut self, retries: u32) -> Self {
        self.opts.retries = retries;
        self
    }

    /// The delay schedule between attempts.
    #[must_use]
    pub fn backoff(mut self, backoff: Backoff) -> Self {
        self.opts.backoff = backoff;
        self
    }

    /// Overall budget across all attempts of each call.
    #[must_use]
    pub fn deadline_ms(mut self, ms: u64) -> Self {
        self.opts.deadline_ms = Some(ms);
        self
    }

    /// Per-attempt socket read timeout.
    #[must_use]
    pub fn read_timeout(mut self, d: Duration) -> Self {
        self.opts.read_timeout = d;
        self
    }

    /// Target a `hetmem-fleet` router: `backend-unavailable` joins the
    /// retryable set (the supervisor is already restarting backends),
    /// while `fleet-draining` stays terminal.
    #[must_use]
    pub fn fleet(mut self, fleet: bool) -> Self {
        self.opts.fleet = fleet;
        self
    }

    /// Stamp requests that carry no `request_id` of their own with
    /// `<prefix>-N` (N counts up per builder), joining client logs to
    /// server telemetry without per-call plumbing.
    #[must_use]
    pub fn request_id_prefix(mut self, prefix: impl Into<String>) -> Self {
        self.rid_prefix = Some(prefix.into());
        self
    }

    /// The retry policy this builder resolved to.
    pub fn options(&self) -> &ClientOptions {
        &self.opts
    }

    /// Sends `req` with retries, backoff, and the deadline budget.
    ///
    /// # Errors
    ///
    /// The last transport error once attempts (or the deadline budget)
    /// are exhausted. A structured server error response is a *success*
    /// of the transport and is returned in the outcome, except the
    /// retryable codes, which are retried while budget remains.
    pub fn call(&self, req: &Request) -> io::Result<CallOutcome> {
        match (&self.rid_prefix, &req.request_id) {
            (Some(prefix), None) => {
                let n = self.next_rid.fetch_add(1, Ordering::Relaxed);
                let stamped = req.clone().request_id(&format!("{prefix}-{n}"));
                call_engine(&self.addr, &stamped, &self.opts)
            }
            _ => call_engine(&self.addr, req, &self.opts),
        }
    }

    /// Wraps `subs` in one protocol-v2 `batch` envelope (id `id`),
    /// sends it through the same retry engine, and splits the
    /// sub-responses back out in order.
    ///
    /// # Errors
    ///
    /// Transport errors as for [`ClientBuilder::call`], plus
    /// `InvalidData` if a successful envelope carries a malformed
    /// `responses` array (a server protocol bug, never retried).
    pub fn call_batch(&self, id: u64, subs: &[Request]) -> io::Result<BatchOutcome> {
        let outcome = self.call(&batch_request(id, subs))?;
        let responses = match &outcome.response {
            Response::Ok { .. } => outcome
                .response
                .batch_responses()
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?,
            Response::Err { .. } => Vec::new(),
        };
        Ok(BatchOutcome {
            response: outcome.response,
            responses,
            attempts: outcome.attempts,
        })
    }
}

/// The retry engine behind [`ClientBuilder::call`].
fn call_engine(addr: &str, req: &Request, opts: &ClientOptions) -> io::Result<CallOutcome> {
    let start = Instant::now();
    let budget = opts.deadline_ms.map(Duration::from_millis);
    let mut attempt: u32 = 0;
    loop {
        let remaining = match budget {
            Some(b) => {
                let left = b.saturating_sub(start.elapsed());
                if left.is_zero() {
                    return Err(deadline_error(attempt, req.request_id.as_deref()));
                }
                Some(left)
            }
            None => None,
        };
        let attempt_req = match remaining {
            // Re-anchor the envelope deadline to what is left of the
            // budget so the server never works past the client's wait.
            Some(left) => req.clone().deadline((left.as_millis() as u64).max(1)),
            None => req.clone(),
        };
        let read_timeout = match remaining {
            // A little slack past the deadline so the server's own
            // `deadline-exceeded` response can still arrive.
            Some(left) => opts.read_timeout.min(left + Duration::from_millis(250)),
            None => opts.read_timeout,
        };
        let outcome = roundtrip_timeout(addr, &attempt_req, read_timeout);
        let retryable = match &outcome {
            Ok(Response::Err { code, .. }) => {
                RETRYABLE_CODES.contains(&code.as_str())
                    || (opts.fleet && FLEET_RETRYABLE_CODES.contains(&code.as_str()))
            }
            Ok(Response::Ok { .. }) => false,
            // Transport failure; a malformed response line
            // (InvalidData) is not retried — it signals a protocol
            // bug, not a transient fault.
            Err(e) => e.kind() != io::ErrorKind::InvalidData,
        };
        if !retryable || attempt >= opts.retries {
            return outcome.map(|response| CallOutcome {
                response,
                attempts: attempt + 1,
            });
        }
        let mut delay = Duration::from_millis(opts.backoff.delay_ms(attempt));
        if let Some(b) = budget {
            let left = b.saturating_sub(start.elapsed());
            if left.is_zero() {
                // Budget exhausted mid-retry: surface the last result.
                return outcome.map(|response| CallOutcome {
                    response,
                    attempts: attempt + 1,
                });
            }
            delay = delay.min(left);
        }
        std::thread::sleep(delay);
        attempt += 1;
    }
}

fn deadline_error(attempts: u32, request_id: Option<&str>) -> io::Error {
    let tag = request_id.map_or(String::new(), |id| format!(" (request_id {id})"));
    io::Error::new(
        io::ErrorKind::TimedOut,
        format!("client deadline exceeded after {attempts} attempt(s){tag}"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let o = ClientOptions::default();
        assert_eq!(o.retries, 3);
        assert!(o.deadline_ms.is_none());
        assert!(o.read_timeout >= Duration::from_secs(1));
        let b = ClientBuilder::new("127.0.0.1:1");
        assert_eq!(b.options().retries, 3);
    }

    #[test]
    fn builder_knobs_land_in_options() {
        let b = ClientBuilder::new("127.0.0.1:1")
            .retries(7)
            .backoff(Backoff::new(1, 2, 3))
            .deadline_ms(1234)
            .read_timeout(Duration::from_millis(50));
        assert_eq!(b.options().retries, 7);
        assert_eq!(b.options().deadline_ms, Some(1234));
        assert_eq!(b.options().read_timeout, Duration::from_millis(50));
    }

    #[test]
    fn refused_connection_is_retried_then_surfaced() {
        // Nothing listens on a fresh ephemeral port we bind and drop.
        let port = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().port()
        };
        let addr = format!("127.0.0.1:{port}");
        let client = ClientBuilder::new(addr)
            .retries(2)
            .backoff(Backoff::new(1, 2, 7));
        let err = client.call(&Request::new(1, "stats")).unwrap_err();
        assert_ne!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn deadline_error_names_the_request_id() {
        let client = ClientBuilder::new("127.0.0.1:1").deadline_ms(0);
        let req = Request::new(1, "stats").request_id("cli-7");
        let err = client.call(&req).unwrap_err();
        assert!(err.to_string().contains("request_id cli-7"));
    }

    #[test]
    fn prefix_stamps_only_requests_without_an_id() {
        // A zero deadline fails before connecting, and the error
        // message names the request id the engine actually saw.
        let client = ClientBuilder::new("127.0.0.1:1")
            .deadline_ms(0)
            .request_id_prefix("top");
        let err = client.call(&Request::new(1, "stats")).unwrap_err();
        assert!(err.to_string().contains("request_id top-1"), "{err}");
        let err = client.call(&Request::new(1, "stats")).unwrap_err();
        assert!(err.to_string().contains("request_id top-2"), "{err}");
        // An explicit id wins over the prefix.
        let err = client
            .call(&Request::new(1, "stats").request_id("mine"))
            .unwrap_err();
        assert!(err.to_string().contains("request_id mine"), "{err}");
    }

    #[test]
    fn zero_budget_fails_fast_without_connecting() {
        let client = ClientBuilder::new("127.0.0.1:1").deadline_ms(0);
        let err = client.call(&Request::new(1, "stats")).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
    }

    /// A throwaway server answering each connection's first line from a
    /// scripted list of responses, for retry-semantics tests.
    fn scripted_server(responses: Vec<Response>) -> String {
        use std::io::{BufRead, BufReader, Write};
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        std::thread::spawn(move || {
            for resp in responses {
                let (stream, _) = listener.accept().unwrap();
                let mut reader = BufReader::new(stream);
                let mut line = String::new();
                reader.read_line(&mut line).unwrap();
                let mut out = resp.encode();
                out.push('\n');
                reader.get_mut().write_all(out.as_bytes()).unwrap();
            }
        });
        addr
    }

    #[test]
    fn fleet_mode_retries_backend_unavailable() {
        let addr = scripted_server(vec![
            Response::err(
                1,
                "backend-unavailable",
                "no healthy backend after trying 2",
            ),
            Response::ok(1, "{}".to_string()),
        ]);
        let client = ClientBuilder::new(addr)
            .retries(3)
            .backoff(Backoff::new(1, 2, 7))
            .fleet(true);
        let outcome = client.call(&Request::new(1, "stats")).unwrap();
        assert_eq!(outcome.attempts, 2);
        assert!(matches!(outcome.response, Response::Ok { .. }));
    }

    #[test]
    fn backend_unavailable_is_terminal_without_fleet_mode() {
        let addr = scripted_server(vec![Response::err(
            1,
            "backend-unavailable",
            "no healthy backend after trying 2",
        )]);
        let client = ClientBuilder::new(addr)
            .retries(3)
            .backoff(Backoff::new(1, 2, 7));
        let outcome = client.call(&Request::new(1, "stats")).unwrap();
        assert_eq!(outcome.attempts, 1);
    }

    #[test]
    fn fleet_draining_is_terminal_even_in_fleet_mode() {
        let addr = scripted_server(vec![Response::err(
            1,
            "fleet-draining",
            "fleet is draining",
        )]);
        let client = ClientBuilder::new(addr)
            .retries(3)
            .backoff(Backoff::new(1, 2, 7))
            .fleet(true);
        let outcome = client.call(&Request::new(1, "stats")).unwrap();
        assert_eq!(outcome.attempts, 1);
        match outcome.response {
            Response::Err { code, .. } => assert_eq!(code, "fleet-draining"),
            Response::Ok { .. } => panic!("expected the drain refusal"),
        }
    }
}
