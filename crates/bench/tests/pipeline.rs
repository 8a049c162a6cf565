//! Integration tests for the poll(2) reactor the serve core and the
//! fleet router share: pipelining, protocol-v2 `batch` envelopes,
//! slow-reader backpressure, and idle read timeouts.
//!
//! The chaos and serve suites already pin the dispatch pipeline's
//! behavior; this suite pins what the readiness loop adds: many
//! in-flight requests per connection answered order-independently by
//! id, batch sub-responses byte-identical to bare requests, a stalled
//! reader degrading to structured `overloaded` instead of wedging the
//! loop, and an idle connection closed at its read timeout. The
//! backpressure and timeout checks run against both front ends.
#![cfg(unix)]

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use hetmem_bench::fleet::{self, FleetConfig, FleetHandle};
use hetmem_bench::serve::{roundtrip, start, ServeConfig, ServerHandle};
use hetmem_harness::json::JsonValue;
use hetmem_harness::{batch_request, Request, Response, PROTO_V2};

fn sim_request(id: u64, json_params: &str) -> Request {
    Request::with_params(id, "simulate", JsonValue::parse(json_params).unwrap())
}

fn expect_ok(resp: &Response) -> &str {
    match resp {
        Response::Ok { result, .. } => result,
        Response::Err { code, message, .. } => panic!("expected ok, got {code}: {message}"),
    }
}

fn expect_err(resp: &Response) -> (&str, &str) {
    match resp {
        Response::Err { code, message, .. } => (code, message),
        Response::Ok { result, .. } => panic!("expected error, got ok: {result}"),
    }
}

fn server(cfg: ServeConfig) -> ServerHandle {
    start(cfg).expect("bind loopback")
}

/// A router over two real `hetmem-serve` children.
fn router(cfg: FleetConfig) -> FleetHandle {
    fleet::start(FleetConfig {
        serve_bin: Some(PathBuf::from(env!("CARGO_BIN_EXE_hetmem-serve"))),
        ..cfg
    })
    .expect("fleet must start")
}

/// A connected pipelining client: raw line writes, buffered line reads.
struct Pipe {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Pipe {
    fn connect(addr: &str) -> Pipe {
        let stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .unwrap();
        Pipe {
            reader: BufReader::new(stream.try_clone().unwrap()),
            writer: stream,
        }
    }

    fn send_all(&mut self, reqs: &[Request]) {
        let mut burst = String::new();
        for r in reqs {
            burst.push_str(&r.encode());
            burst.push('\n');
        }
        self.writer.write_all(burst.as_bytes()).unwrap();
        self.writer.flush().unwrap();
    }

    fn recv_line(&mut self) -> String {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).unwrap();
        assert!(n > 0, "server closed the connection mid-pipeline");
        line.trim_end().to_string()
    }
}

/// Distinct quick simulate points (unique seeds → unique cache keys).
fn grid(n: u64) -> Vec<Request> {
    (0..n)
        .map(|i| {
            sim_request(
                i + 1,
                &format!(
                    r#"{{"workload":"hotspot","policy":"LOCAL","mem_ops":2000,"sms":2,"seed":{}}}"#,
                    40 + i
                ),
            )
        })
        .collect()
}

#[test]
fn pipelined_responses_are_byte_identical_to_serial() {
    // Two fresh servers: one answers 10 requests pipelined down a
    // single connection, the other answers the same 10 one at a time
    // on separate connections. Neither run is cache-warmed by the
    // other, so this compares real computations, not cache echoes.
    let reqs = grid(10);

    let pipelined = server(ServeConfig::default());
    let mut pipe = Pipe::connect(&pipelined.addr().to_string());
    pipe.send_all(&reqs);
    // Responses complete order-independently (simulations land on
    // different shards), so collect them by id.
    let mut by_id: HashMap<u64, String> = HashMap::new();
    for _ in &reqs {
        let line = pipe.recv_line();
        let resp = Response::decode(&line).unwrap();
        assert!(by_id.insert(resp.id(), line).is_none(), "duplicate id");
    }
    drop(pipe);
    pipelined.shutdown();
    pipelined.wait();

    let serial = server(ServeConfig::default());
    let serial_addr = serial.addr().to_string();
    for req in &reqs {
        let resp = roundtrip(&serial_addr, req).unwrap();
        let line = by_id.get(&req.id).expect("pipelined response for id");
        assert_eq!(
            line,
            &resp.encode(),
            "pipelined bytes must match serial for id {}",
            req.id
        );
    }
    serial.shutdown();
    serial.wait();
}

#[test]
fn batch_of_one_matches_bare_request_bytes() {
    let handle = server(ServeConfig::default());
    let addr = handle.addr().to_string();

    let req = sim_request(
        7,
        r#"{"workload":"bfs","policy":"BW-AWARE","mem_ops":2000,"sms":2,"seed":3}"#,
    );
    let bare = roundtrip(&addr, &req).unwrap();

    let envelope = roundtrip(&addr, &batch_request(99, &[req.clone()])).unwrap();
    assert!(envelope.is_ok(), "envelope refused: {envelope:?}");
    let subs = envelope.batch_responses().unwrap();
    assert_eq!(subs.len(), 1);
    assert_eq!(
        subs[0].encode(),
        bare.encode(),
        "a batch of one must carry exactly the bare response"
    );

    handle.shutdown();
    handle.wait();
}

#[test]
fn batch_mixes_results_and_structured_errors_in_order() {
    let handle = server(ServeConfig::default());
    let addr = handle.addr().to_string();

    let subs = [
        Request::new(1, "stats"),
        sim_request(2, r#"{"workload":"no-such-app"}"#),
        sim_request(
            3,
            r#"{"workload":"hotspot","policy":"LOCAL","mem_ops":2000,"sms":2,"seed":5}"#,
        ),
        Request::new(4, "frobnicate"),
    ];
    let envelope = roundtrip(&addr, &batch_request(50, &subs)).unwrap();
    let responses = envelope.batch_responses().unwrap();
    assert_eq!(responses.len(), 4, "one sub-response per sub-request");
    let ids: Vec<u64> = responses.iter().map(Response::id).collect();
    assert_eq!(ids, vec![1, 2, 3, 4], "sub-responses keep request order");
    expect_ok(&responses[0]);
    assert_eq!(expect_err(&responses[1]).0, "unknown-workload");
    expect_ok(&responses[2]);
    assert_eq!(expect_err(&responses[3]).0, "unknown-op");

    handle.shutdown();
    handle.wait();
}

#[test]
fn oversized_batches_and_unknown_protocols_are_refused() {
    let handle = server(ServeConfig {
        max_batch: 4,
        ..ServeConfig::default()
    });
    let addr = handle.addr().to_string();

    // Five sub-requests against a max of four: a stable whole-envelope
    // refusal, and no sub-request runs.
    let subs: Vec<Request> = (1..=5).map(|i| Request::new(i, "stats")).collect();
    let resp = roundtrip(&addr, &batch_request(9, &subs)).unwrap();
    let (code, message) = expect_err(&resp);
    assert_eq!(code, "batch-too-large");
    assert!(message.contains('5') && message.contains('4'), "{message}");

    // Unknown protocol majors are rejected with their own stable code,
    // for v0 and for versions from the future alike.
    for proto in [0, 9] {
        let resp = roundtrip(&addr, &Request::new(1, "stats").proto(proto)).unwrap();
        let (code, message) = expect_err(&resp);
        assert_eq!(code, "unsupported-protocol", "proto {proto}");
        assert!(message.contains("1-2"), "{message}");
    }

    // `batch` without a v2 envelope is an invalid request: v1 clients
    // must opt in before the server accepts compound dispatch.
    let mut v1_batch = batch_request(9, &[Request::new(1, "stats")]);
    v1_batch.proto = 1;
    let resp = roundtrip(&addr, &v1_batch).unwrap();
    let (code, message) = expect_err(&resp);
    assert_eq!(code, "invalid-request");
    assert!(message.contains("proto"), "{message}");

    // Batches do not nest, and shutdown cannot ride inside one.
    let nested = batch_request(2, &[Request::new(1, "stats")]);
    let resp = roundtrip(&addr, &batch_request(9, &[nested])).unwrap();
    let inner = resp.batch_responses().unwrap();
    assert_eq!(expect_err(&inner[0]).0, "invalid-request");
    let resp = roundtrip(&addr, &batch_request(9, &[Request::new(1, "shutdown")])).unwrap();
    let inner = resp.batch_responses().unwrap();
    assert_eq!(expect_err(&inner[0]).0, "invalid-request");

    // The envelope still checks plain-request invariants.
    let mut empty = Request::new(9, "batch").proto(PROTO_V2);
    empty.params = JsonValue::parse(r#"{"requests":[]}"#).unwrap();
    let resp = roundtrip(&addr, &empty).unwrap();
    assert_eq!(expect_err(&resp).0, "invalid-request");

    handle.shutdown();
    handle.wait();
}

#[test]
fn slow_reader_backpressure_sheds_overloaded_without_wedging() {
    // A tiny per-connection backlog budget: one fat Prometheus
    // metrics body alone exceeds it, so a burst of pipelined scrapes
    // from a reader that never drains must shed almost immediately.
    let handle = server(ServeConfig {
        conn_buffer: 1024,
        ..ServeConfig::default()
    });
    assert_slow_reader_sheds(&handle.addr().to_string());
    handle.shutdown();
    handle.wait();
}

#[test]
fn router_slow_reader_backpressure_sheds_overloaded_without_wedging() {
    // The router answers `metrics` itself, so its own backlog budget
    // is what sheds.
    let handle = router(FleetConfig {
        conn_buffer: 1024,
        ..FleetConfig::default()
    });
    assert_slow_reader_sheds(&handle.addr().to_string());
    handle.shutdown();
    handle.wait();
}

/// Pipelines 400 Prometheus scrapes on one connection and stalls
/// before reading any: the loop keeps serving other connections,
/// every scrape is answered (the overflow as `overloaded`), and the
/// connection recovers once its client reads again.
fn assert_slow_reader_sheds(addr: &str) {
    const REQS: u64 = 400;
    let reqs: Vec<Request> = (1..=REQS)
        .map(|id| {
            Request::with_params(
                id,
                "metrics",
                JsonValue::parse(r#"{"format":"prometheus"}"#).unwrap(),
            )
        })
        .collect();
    let mut stalled = Pipe::connect(addr);
    stalled.send_all(&reqs);
    // ...and then refuse to read anything for a while.
    std::thread::sleep(Duration::from_millis(300));

    // The loop is not wedged: a second connection gets served while
    // the first one's backlog is jammed.
    let probe = roundtrip(addr, &Request::new(9000, "stats")).unwrap();
    expect_ok(&probe);

    // Now drain the stalled connection: every request is answered —
    // some with full metrics bodies, the overflow with structured
    // `overloaded` — and nothing is lost or reordered past its id.
    let mut ok = 0u64;
    let mut shed = 0u64;
    for _ in 0..REQS {
        let line = stalled.recv_line();
        let resp = Response::decode(&line).unwrap();
        match &resp {
            Response::Ok { .. } => ok += 1,
            Response::Err { code, .. } => {
                assert_eq!(code, "overloaded", "only backpressure sheds expected");
                shed += 1;
            }
        }
    }
    assert_eq!(ok + shed, REQS);
    assert!(ok >= 1, "early requests fit the backlog budget");
    assert!(
        shed >= 1,
        "a stalled reader must shed once its backlog budget is spent"
    );

    // The connection recovers once the client reads again.
    stalled.send_all(&[Request::new(9001, "stats")]);
    let resp = Response::decode(&stalled.recv_line()).unwrap();
    expect_ok(&resp);
}

#[test]
fn idle_connection_is_closed_at_the_read_timeout() {
    let handle = server(ServeConfig {
        read_timeout_ms: 200,
        ..ServeConfig::default()
    });
    assert_idle_conn_closed(&handle.addr().to_string());
    handle.shutdown();
    handle.wait();
}

#[test]
fn router_idle_connection_is_closed_at_the_read_timeout() {
    let handle = router(FleetConfig {
        read_timeout_ms: 200,
        ..FleetConfig::default()
    });
    assert_idle_conn_closed(&handle.addr().to_string());
    handle.shutdown();
    handle.wait();
}

/// A connection that never sends a byte sees EOF once the 200 ms read
/// timeout passes, and a fresh connection is still served.
fn assert_idle_conn_closed(addr: &str) {
    let mut idle = TcpStream::connect(addr).unwrap();
    idle.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let t0 = Instant::now();
    let mut byte = [0u8; 1];
    let n = idle
        .read(&mut byte)
        .expect("the server closes, not the client timeout");
    assert_eq!(n, 0, "an idle connection gets EOF, not bytes");
    assert!(
        t0.elapsed() >= Duration::from_millis(150),
        "closed before its read timeout: {:?}",
        t0.elapsed()
    );
    let resp = roundtrip(addr, &Request::new(1, "stats")).unwrap();
    expect_ok(&resp);
}
