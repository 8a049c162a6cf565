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
//! backpressure, timeout and drain checks run against both front ends,
//! and so do the pipelining, batch and refusal checks: a router over
//! two backends answers what a server answers, byte for byte, with only
//! its draining code and its `stats` body its own.
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

    /// Sends one raw line and reads one response line back.
    fn ask(&mut self, line: &str) -> String {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .unwrap();
        self.recv_line()
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

/// Pipelines `reqs` down one connection and collects the response
/// lines by id (simulations complete in any order).
fn pipelined(addr: &str, reqs: &[Request]) -> HashMap<u64, String> {
    let mut pipe = Pipe::connect(addr);
    pipe.send_all(reqs);
    let mut by_id = HashMap::new();
    for _ in reqs {
        let line = pipe.recv_line();
        let resp = Response::decode(&line).unwrap();
        assert!(by_id.insert(resp.id(), line).is_none(), "duplicate id");
    }
    by_id
}

#[test]
fn pipelined_responses_are_byte_identical_to_serial() {
    // Two fresh servers: one answers 10 requests pipelined down a
    // single connection, the other answers the same 10 one at a time
    // on separate connections. Neither run is cache-warmed by the
    // other, so this compares real computations, not cache echoes.
    let reqs = grid(10);

    let pipelined_server = server(ServeConfig::default());
    let by_id = pipelined(&pipelined_server.addr().to_string(), &reqs);
    pipelined_server.shutdown();
    pipelined_server.wait();

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

    // The same pipeline through a router spreads over both backends and
    // comes back with the server's bytes.
    let router = router(FleetConfig::default());
    assert_eq!(pipelined(&router.addr().to_string(), &reqs), by_id);
    assert_both_backends_served(&router);
    router.shutdown();
    router.wait();
}

/// Every backend of `router` took at least one forwarded request.
fn assert_both_backends_served(router: &FleetHandle) {
    let stats = roundtrip(&router.addr().to_string(), &Request::new(0, "stats")).unwrap();
    let stats = JsonValue::parse(expect_ok(&stats)).unwrap();
    let backends = stats.get("fleet").and_then(|f| f.get("backends")).unwrap();
    let served: Vec<u64> = backends
        .as_array()
        .unwrap()
        .iter()
        .map(|b| b.get("requests").and_then(JsonValue::as_u64).unwrap())
        .collect();
    assert_eq!(served.len(), router.backends());
    assert!(
        served.iter().all(|&n| n > 0),
        "forwards per backend: {served:?}"
    );
}

#[test]
fn batch_of_one_matches_bare_request_bytes() {
    let req = sim_request(
        7,
        r#"{"workload":"bfs","policy":"BW-AWARE","mem_ops":2000,"sms":2,"seed":3}"#,
    );
    let envelope = batch_request(99, std::slice::from_ref(&req));
    let ask = |addr: String| {
        let bare = roundtrip(&addr, &req).unwrap();
        let batch = roundtrip(&addr, &envelope).unwrap();
        (bare.encode(), batch)
    };

    let handle = server(ServeConfig::default());
    let (bare, batch) = ask(handle.addr().to_string());
    handle.shutdown();
    handle.wait();
    assert!(batch.is_ok(), "envelope refused: {batch:?}");
    let subs = batch.batch_responses().unwrap();
    assert_eq!(subs.len(), 1);
    assert_eq!(
        subs[0].encode(),
        bare,
        "a batch of one must carry exactly the bare response"
    );

    let router = router(FleetConfig::default());
    let (routed_bare, routed_batch) = ask(router.addr().to_string());
    router.shutdown();
    router.wait();
    assert_eq!(
        routed_bare, bare,
        "router bytes differ for the bare request"
    );
    assert_eq!(
        routed_batch.encode(),
        batch.encode(),
        "router bytes differ for the batch"
    );
}

#[test]
fn batch_mixes_results_and_structured_errors_in_order() {
    let sim = |id, seed| {
        sim_request(
            id,
            &format!(
                r#"{{"workload":"hotspot","policy":"LOCAL","mem_ops":2000,"sms":2,"seed":{seed}}}"#
            ),
        )
    };
    let place = |id, pct| {
        Request::with_params(
            id,
            "place",
            JsonValue::parse(&format!(r#"{{"workload":"bfs","capacity_pct":{pct}}}"#)).unwrap(),
        )
    };
    // Enough distinct keys that a router's slots land on both backends.
    let subs = [
        Request::new(1, "stats"),
        sim_request(2, r#"{"workload":"no-such-app"}"#),
        sim(3, 5),
        Request::new(4, "frobnicate"),
        sim(5, 6),
        place(6, 10),
        sim(7, 7),
        place(8, 20),
    ];
    let envelope = batch_request(50, &subs);

    let handle = server(ServeConfig::default());
    let served = roundtrip(&handle.addr().to_string(), &envelope).unwrap();
    handle.shutdown();
    handle.wait();
    let responses = served.batch_responses().unwrap();
    assert_eq!(responses.len(), 8, "one sub-response per sub-request");
    let ids: Vec<u64> = responses.iter().map(Response::id).collect();
    assert_eq!(
        ids,
        (1..=8).collect::<Vec<_>>(),
        "sub-responses keep request order"
    );
    assert_eq!(
        codes(&served),
        [
            "ok",
            "unknown-workload",
            "ok",
            "unknown-op",
            "ok",
            "ok",
            "ok",
            "ok"
        ]
    );

    // A router answers every slot with the server's bytes but the
    // `stats` one, which carries the router's own body.
    let router = router(FleetConfig::default());
    let routed = roundtrip(&router.addr().to_string(), &envelope).unwrap();
    assert_both_backends_served(&router);
    router.shutdown();
    router.wait();
    let routed = routed.batch_responses().unwrap();
    let encode = |rs: &[Response]| rs.iter().map(Response::encode).collect::<Vec<_>>();
    assert_eq!(encode(&routed[1..]), encode(&responses[1..]));
    expect_ok(&routed[0]);
}

/// One line the front end answers itself: the code it must carry (for
/// a batch envelope, the code of every slot, `ok` for a result), and
/// substrings the answer must contain, which pin each refusal to the
/// check that made it.
type Refusal = (String, Vec<&'static str>, &'static [&'static str]);

/// Every line here is refused, or answered by the front end itself,
/// without running `place` or `simulate`, so a router must answer each
/// byte for byte as a server does.
fn refusal_cases() -> Vec<Refusal> {
    let line = |r: &Request| r.encode();
    let stats = |id| Request::new(id, "stats");
    // Five sub-requests against a max of four: a stable whole-envelope
    // refusal, and no sub-request runs.
    let five: Vec<Request> = (1..=5).map(stats).collect();
    // `batch` without a v2 envelope is an invalid request: v1 clients
    // must opt in before the server accepts compound dispatch.
    let mut v1_batch = batch_request(9, &[stats(1)]);
    v1_batch.proto = 1;
    let mut empty = Request::new(9, "batch").proto(PROTO_V2);
    empty.params = JsonValue::parse(r#"{"requests":[]}"#).unwrap();
    let mut not_array = Request::new(9, "batch").proto(PROTO_V2);
    not_array.params = JsonValue::parse(r#"{"requests":7}"#).unwrap();
    let expired = sim_request(4, r#"{"workload":"bfs","mem_ops":2000,"sms":2}"#)
        .deadline(0)
        .request_id("late-1");
    let late_sub = Request::new(2, "place").deadline(0);
    let subs = batch_request(
        10,
        &[late_sub, Request::new(3, "frobnicate"), stats(4).proto(9)],
    );
    let mut mixed = line(&subs);
    // An undecodable slot (non-integer id) answers with id 0.
    mixed = mixed.replacen(r#"[{"#, r#"[{"id":"x","op":"stats"},{"#, 1);
    vec![
        (
            line(&batch_request(9, &five)),
            vec!["batch-too-large"],
            &["batch carries 5 sub-requests", "at most 4"],
        ),
        // Unknown protocol majors, for v0 and the future alike.
        (
            line(&stats(1).proto(0)),
            vec!["unsupported-protocol"],
            &["protocol version 0", "1-2"],
        ),
        (
            line(&stats(1).proto(9)),
            vec!["unsupported-protocol"],
            &["protocol version 9", "1-2"],
        ),
        (
            line(&v1_batch),
            vec!["invalid-request"],
            &[r#"op 'batch' requires \"proto\":2"#],
        ),
        // Batches do not nest, and shutdown cannot ride inside one.
        (
            line(&batch_request(9, &[batch_request(2, &[stats(1)])])),
            vec!["invalid-request"],
            &["'batch' does not nest"],
        ),
        (
            line(&batch_request(9, &[Request::new(1, "shutdown")])),
            vec!["invalid-request"],
            &["'shutdown' cannot ride inside a batch"],
        ),
        (
            line(&empty),
            vec!["invalid-request"],
            &["'requests' must be non-empty"],
        ),
        (
            line(&not_array),
            vec!["invalid-request"],
            &["needs a 'requests' array"],
        ),
        ("{not json".to_string(), vec!["bad-json"], &[r#"{"id":0,"#]),
        (
            r#"{"id":1}"#.to_string(),
            vec!["bad-request"],
            &[r#"{"id":0,"#],
        ),
        (
            line(&Request::new(3, "frobnicate")),
            vec!["unknown-op"],
            &["unknown operation 'frobnicate'"],
        ),
        (line(&expired), vec!["deadline-exceeded"], &["late-1"]),
        (
            mixed,
            vec![
                "bad-request",
                "deadline-exceeded",
                "unknown-op",
                "unsupported-protocol",
            ],
            &[
                r#"{"id":0,"#,
                "unknown operation 'frobnicate'",
                "protocol version 9",
            ],
        ),
    ]
}

/// The codes a response carries: its own, or each batch slot's.
fn codes(resp: &Response) -> Vec<String> {
    match resp {
        Response::Err { code, .. } => vec![code.clone()],
        Response::Ok { .. } => resp
            .batch_responses()
            .unwrap()
            .iter()
            .map(|r| match r {
                Response::Ok { .. } => "ok".to_string(),
                Response::Err { code, .. } => code.clone(),
            })
            .collect(),
    }
}

#[test]
fn oversized_batches_and_unknown_protocols_are_refused() {
    let server = server(ServeConfig {
        max_batch: 4,
        ..ServeConfig::default()
    });
    let router = router(FleetConfig {
        max_batch: 4,
        ..FleetConfig::default()
    });
    let mut to_server = Pipe::connect(&server.addr().to_string());
    let mut to_router = Pipe::connect(&router.addr().to_string());
    for (line, expected, needles) in refusal_cases() {
        let want = to_server.ask(&line);
        assert_eq!(to_router.ask(&line), want, "router bytes differ for {line}");
        let resp = Response::decode(&want).unwrap();
        assert_eq!(codes(&resp), expected, "{line} -> {want}");
        for needle in needles {
            assert!(want.contains(needle), "{line} -> {want} lacks {needle}");
        }
    }
    drop((to_server, to_router));
    server.shutdown();
    server.wait();
    router.shutdown();
    router.wait();
}

#[test]
fn draining_refusal_differs_only_in_its_code() {
    let server = server(ServeConfig::default());
    let router = router(FleetConfig::default());
    let mut to_server = Pipe::connect(&server.addr().to_string());
    let mut to_router = Pipe::connect(&router.addr().to_string());
    let line = Request::new(5, "stats").encode();
    server.shutdown();
    router.shutdown();
    // A connection held open past the drain is still answered, with
    // each front end's own draining code.
    let served = to_server.ask(&line);
    let routed = to_router.ask(&line);
    assert_eq!(
        served,
        r#"{"id":5,"ok":false,"error":{"code":"shutting-down","message":"service is draining"}}"#
    );
    assert_eq!(
        routed,
        served
            .replace("shutting-down", "fleet-draining")
            .replace("service is draining", "fleet is draining")
    );
    drop((to_server, to_router));
    server.wait();
    router.wait();
}

#[test]
fn drain_answers_connections_waiting_to_be_accepted() {
    for _ in 0..20 {
        let handle = server(ServeConfig::default());
        assert_backlog_answered(
            &handle.addr().to_string(),
            || handle.shutdown(),
            "shutting-down",
        );
        handle.wait();
    }
    for _ in 0..20 {
        let handle = router(FleetConfig {
            backends: 1,
            ..FleetConfig::default()
        });
        assert_backlog_answered(
            &handle.addr().to_string(),
            || handle.shutdown(),
            "fleet-draining",
        );
        handle.wait();
    }
}

/// Connections opened just before a drain, with nothing sent yet, may
/// still sit in the listener's backlog when it starts: each must read
/// the draining code, never a reset.
fn assert_backlog_answered(addr: &str, shutdown: impl FnOnce(), code: &str) {
    let mut conns: Vec<Pipe> = (0..4).map(|_| Pipe::connect(addr)).collect();
    shutdown();
    for pipe in &mut conns {
        let resp = Response::decode(&pipe.ask(&Request::new(1, "stats").encode())).unwrap();
        assert_eq!(expect_err(&resp).0, code);
    }
}

#[test]
fn router_stats_has_the_server_shape_plus_fleet() {
    let server = server(ServeConfig::default());
    let router = router(FleetConfig::default());
    let body = |addr: String| {
        let resp = roundtrip(&addr, &Request::new(1, "stats")).unwrap();
        JsonValue::parse(expect_ok(&resp)).unwrap()
    };
    let keys = |v: &JsonValue| match v {
        JsonValue::Object(fields) => fields.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>(),
        other => panic!("not an object: {other:?}"),
    };
    let served = body(server.addr().to_string());
    let routed = body(router.addr().to_string());
    let mut want = keys(&served);
    want.push("fleet".to_string());
    assert_eq!(
        keys(&routed),
        want,
        "serve's keys in serve's order, then fleet"
    );
    assert_eq!(
        keys(routed.get("cache").unwrap()),
        keys(served.get("cache").unwrap())
    );
    server.shutdown();
    server.wait();
    router.shutdown();
    router.wait();
}

#[test]
fn router_counts_shed_batch_slots_in_its_stats() {
    // One forwarding worker and a one-job queue: once the worker has
    // taken a long simulate, a second fills the queue, so the batch
    // pipelined behind it finds the queue full.
    let handle = router(FleetConfig {
        backends: 1,
        workers: Some(1),
        fwd_queue: 1,
        ..FleetConfig::default()
    });
    let addr = handle.addr().to_string();
    let sim = |id, mem_ops| {
        sim_request(
            id,
            &format!(r#"{{"workload":"bfs","mem_ops":{mem_ops},"sms":2,"seed":{id}}}"#),
        )
    };
    let mut pipe = Pipe::connect(&addr);
    pipe.send_all(&[sim(1, 1_000_000)]);
    // The backend counts the forward once the worker has taken it off
    // the queue; before that, the second simulate could be the one shed.
    let forwarded = || {
        let stats = roundtrip(&addr, &Request::new(9, "stats")).unwrap();
        let stats = JsonValue::parse(expect_ok(&stats)).unwrap();
        let backends = stats.get("fleet").and_then(|f| f.get("backends")).unwrap();
        backends.as_array().unwrap()[0]
            .get("requests")
            .and_then(JsonValue::as_u64)
            .unwrap()
    };
    while forwarded() == 0 {
        std::thread::sleep(Duration::from_millis(2));
    }
    pipe.send_all(&[
        sim(2, 2000),
        batch_request(3, &[sim(4, 2000), sim(5, 2000)]),
    ]);
    let mut shed = 0;
    for _ in 0..3 {
        let resp = Response::decode(&pipe.recv_line()).unwrap();
        let got = match &resp {
            Response::Ok { .. } if resp.id() != 3 => vec!["ok".to_string()],
            _ => codes(&resp),
        };
        if resp.id() == 3 {
            assert_eq!(got, ["overloaded", "overloaded"], "{resp:?}");
        }
        shed += got.iter().filter(|c| *c == "overloaded").count() as u64;
    }
    // Every shed answer, bare or in a batch slot, is counted once.
    let stats = roundtrip(&addr, &Request::new(9, "stats")).unwrap();
    let stats = JsonValue::parse(expect_ok(&stats)).unwrap();
    assert_eq!(
        stats.get("overloaded").and_then(JsonValue::as_u64),
        Some(shed)
    );
    drop(pipe);
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

/// A zero count or timeout has no meaning, so both front ends refuse it
/// at start, before binding or spawning anything.
#[test]
fn zero_settings_are_refused_at_start() {
    let refusal = |result: std::io::Result<()>| {
        let e = result.expect_err("a zero setting must be refused");
        assert_eq!(e.kind(), std::io::ErrorKind::InvalidInput);
        e.to_string()
    };
    let serve = |cfg| start(cfg).map(|_| ());
    let fleet = |cfg| fleet::start(cfg).map(|_| ());
    assert_eq!(
        refusal(serve(ServeConfig {
            shards: 0,
            ..ServeConfig::default()
        })),
        "shards must be positive"
    );
    assert_eq!(
        refusal(serve(ServeConfig {
            read_timeout_ms: 0,
            ..ServeConfig::default()
        })),
        "read_timeout_ms must be positive"
    );
    assert_eq!(
        refusal(fleet(FleetConfig {
            backends: 0,
            ..FleetConfig::default()
        })),
        "backends must be positive"
    );
    assert_eq!(
        refusal(fleet(FleetConfig {
            workers: Some(0),
            ..FleetConfig::default()
        })),
        "workers must be positive"
    );
}
