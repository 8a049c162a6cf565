//! Integration tests for `hetmem-serve`: the sharded placement service
//! end-to-end over real loopback TCP.
//!
//! Covers the service's contract: deterministic byte-identical results
//! under concurrent clients, cache hits that reproduce the miss bytes
//! exactly, structured `overloaded` load shedding, graceful
//! drain-on-shutdown, and machine-readable error codes for every
//! protocol failure.
#![cfg(unix)]

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use hetmem::experiments::ExpOptions;
use hetmem::{record_for, Capacity, Placement, RunBuilder, TelemetrySink};
use hetmem_bench::serve::{parse_simulate, roundtrip, run_point, start, ServeConfig, ServerHandle};
use hetmem_harness::json::JsonValue;
use hetmem_harness::{parse_prometheus, Request, Response};

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

fn server(shards: usize, queue_depth: usize) -> ServerHandle {
    start(ServeConfig {
        shards,
        queue_depth,
        ..ServeConfig::default()
    })
    .expect("bind loopback")
}

fn stats(addr: &str) -> JsonValue {
    let resp = roundtrip(addr, &Request::new(900, "stats")).unwrap();
    JsonValue::parse(expect_ok(&resp)).unwrap()
}

fn stat(v: &JsonValue, path: &[&str]) -> u64 {
    let mut cur = v;
    for key in path {
        cur = cur.get(key).unwrap_or_else(|| panic!("missing {path:?}"));
    }
    cur.as_u64().unwrap_or_else(|| panic!("{path:?} not a u64"))
}

/// A quick simulate body (~tens of ms in debug builds).
const QUICK: &str = r#"{"workload":"hotspot","policy":"LOCAL","mem_ops":4000,"sms":2,"seed":7}"#;

/// A slow simulate body (~1s in debug builds) used to occupy workers.
fn slow(seed: u64) -> String {
    format!(r#"{{"workload":"hotspot","policy":"LOCAL","mem_ops":120000,"sms":2,"seed":{seed}}}"#)
}

#[test]
fn concurrent_identical_clients_get_byte_identical_results() {
    let handle = server(2, 32);
    let addr = handle.addr().to_string();

    // 8 clients race the same request; identical keys hash to one
    // shard, so exactly one simulation runs and the rest are hits.
    let clients: Vec<_> = (0..8)
        .map(|i| {
            let addr = addr.clone();
            thread::spawn(move || {
                let resp = roundtrip(&addr, &sim_request(100 + i, QUICK)).unwrap();
                assert_eq!(resp.id(), 100 + i);
                expect_ok(&resp).to_string()
            })
        })
        .collect();
    let results: Vec<String> = clients.into_iter().map(|c| c.join().unwrap()).collect();
    for r in &results[1..] {
        assert_eq!(r, &results[0], "concurrent results must be byte-identical");
    }

    // A later repeat is a pure cache hit with the same bytes.
    let again = roundtrip(&addr, &sim_request(200, QUICK)).unwrap();
    assert_eq!(expect_ok(&again), results[0]);

    let record = JsonValue::parse(&results[0]).unwrap();
    assert_eq!(record.get("workload").unwrap().as_str(), Some("hotspot"));
    assert!(stat(&record, &["cycles"]) > 0);

    let s = stats(&addr);
    assert_eq!(stat(&s, &["cache", "insertions"]), 1, "one simulation ran");
    assert_eq!(stat(&s, &["cache", "misses"]), 1);
    assert_eq!(stat(&s, &["cache", "hits"]), 8, "8 of 9 requests were hits");
    assert_eq!(stat(&s, &["ops", "simulate"]), 9);
    assert_eq!(stat(&s, &["errors"]), 0);

    handle.shutdown();
    handle.wait();
}

#[test]
fn overload_sheds_with_structured_error_and_recovers() {
    // One shard, queue depth one: at most one running and one queued
    // job; everything else must be shed as `overloaded`.
    let handle = server(1, 1);
    let addr = handle.addr().to_string();

    let clients: Vec<_> = (0..6)
        .map(|seed| {
            let addr = addr.clone();
            thread::spawn(move || roundtrip(&addr, &sim_request(seed, &slow(seed))).unwrap())
        })
        .collect();
    let responses: Vec<Response> = clients.into_iter().map(|c| c.join().unwrap()).collect();

    let mut ok = 0;
    let mut shed = 0;
    for resp in &responses {
        match resp {
            Response::Ok { .. } => ok += 1,
            Response::Err { code, message, .. } => {
                assert_eq!(code, "overloaded", "only overloaded errors expected");
                assert!(message.contains("load shed"), "got {message}");
                shed += 1;
            }
        }
    }
    assert!(ok >= 1, "at least the first job must complete");
    assert!(shed >= 1, "with 6 jobs on a depth-1 queue some must shed");

    // Shedding is not a crash: the server still answers, and its own
    // counters agree with what the clients saw.
    // (The snapshot is taken before the stats call's own ok-count.)
    let s = stats(&addr);
    assert_eq!(stat(&s, &["overloaded"]), shed);
    assert_eq!(stat(&s, &["ok"]), ok);

    handle.shutdown();
    handle.wait();
}

#[test]
fn shutdown_drains_in_flight_requests() {
    let handle = server(1, 4);
    let addr = handle.addr().to_string();

    // A slow request is mid-flight when shutdown arrives.
    let in_flight = {
        let addr = addr.clone();
        thread::spawn(move || roundtrip(&addr, &sim_request(1, &slow(42))).unwrap())
    };
    thread::sleep(Duration::from_millis(200));

    let resp = roundtrip(&addr, &Request::new(2, "shutdown")).unwrap();
    let draining = JsonValue::parse(expect_ok(&resp)).unwrap();
    assert_eq!(draining.get("draining").unwrap().as_bool(), Some(true));

    // The in-flight request still gets its full result...
    let resp = in_flight.join().unwrap();
    let record = JsonValue::parse(expect_ok(&resp)).unwrap();
    assert!(stat(&record, &["cycles"]) > 0, "drained result is complete");

    // ...and wait() returns once everything is answered. Afterwards the
    // listener is gone: new connections are refused or reset.
    handle.wait();
    let refused = match TcpStream::connect(&addr) {
        Err(_) => true,
        Ok(stream) => {
            let mut reader = BufReader::new(stream);
            let mut line = String::new();
            matches!(reader.read_line(&mut line), Ok(0) | Err(_))
        }
    };
    assert!(refused, "server must not accept work after wait()");
}

#[test]
fn requests_after_shutdown_are_refused_as_shutting_down() {
    let handle = server(1, 4);
    let addr = handle.addr().to_string();

    // Open a connection first; it stays usable across shutdown.
    let stream = TcpStream::connect(&addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;

    let resp = roundtrip(&addr, &Request::new(1, "shutdown")).unwrap();
    assert!(resp.is_ok());

    let mut line = sim_request(2, QUICK).encode();
    line.push('\n');
    writer.write_all(line.as_bytes()).unwrap();
    writer.flush().unwrap();
    let mut reply = String::new();
    reader.read_line(&mut reply).unwrap();
    let resp = Response::decode(reply.trim_end()).unwrap();
    let (code, message) = expect_err(&resp);
    assert_eq!(code, "shutting-down");
    assert!(message.contains("draining"), "got {message}");
    drop(writer);

    handle.wait();
}

#[test]
fn protocol_and_validation_errors_are_structured() {
    let handle = server(1, 4);
    let addr = handle.addr().to_string();

    // One pipelined connection exercising every error path in order;
    // the server must answer each line and keep the connection open.
    let stream = TcpStream::connect(&addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;

    let lines = [
        "this is not json".to_string(),
        Request::new(11, "frobnicate").encode(),
        sim_request(12, r#"{"workload":"no-such-app"}"#).encode(),
        sim_request(13, r#"{"workload":"bfs","policy":"FASTEST"}"#).encode(),
        sim_request(14, r#"{"workload":"bfs","capacity_pct":500}"#).encode(),
        sim_request(15, r#"{"workload":"bfs","mem_ops":0}"#).encode(),
        sim_request(16, r#"{"workload":"bfs","policy":"MIGRATE:hot=x"}"#).encode(),
        sim_request(17, r#"{"workload":"bfs","policy":"MIGRATE:epoch=0"}"#).encode(),
        // A comma-splitting client turned the spec into an array; that
        // must be rejected, never silently defaulted to BW-AWARE.
        sim_request(
            18,
            r#"{"workload":"bfs","policy":["MIGRATE:epoch=2000","hot=2"]}"#,
        )
        .encode(),
    ];
    for line in &lines {
        writer.write_all(line.as_bytes()).unwrap();
        writer.write_all(b"\n").unwrap();
    }
    writer.flush().unwrap();

    let mut read_response = || {
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        Response::decode(reply.trim_end()).unwrap()
    };

    let expected: [(u64, &str); 9] = [
        (0, "bad-json"), // id 0: the request never parsed
        (11, "unknown-op"),
        (12, "unknown-workload"),
        (13, "invalid-request"),
        (14, "invalid-request"),
        (15, "invalid-request"),
        // A recognized-but-malformed MIGRATE spec keeps its dedicated
        // stable code so clients can distinguish it from a typo'd name.
        (16, "invalid-policy-spec"),
        (17, "invalid-policy-spec"),
        (18, "invalid-request"),
    ];
    for (want_id, want_code) in expected {
        let resp = read_response();
        assert_eq!(resp.id(), want_id);
        let (code, _) = expect_err(&resp);
        assert_eq!(code, want_code, "for request id {want_id}");
    }

    // The same connection still serves valid work after six errors.
    let mut line = Request::new(20, "stats").encode();
    line.push('\n');
    writer.write_all(line.as_bytes()).unwrap();
    writer.flush().unwrap();
    let resp = read_response();
    assert!(resp.is_ok(), "connection must survive bad requests");

    handle.shutdown();
    handle.wait();
}

/// A seed a JSON number cannot carry exactly is refused, not rounded:
/// 2^53 + 1 parses to 2^53, so both are `invalid-request` (before this
/// bound, `...993` was served as a cache hit for `...992`).
#[test]
fn seeds_from_2_pow_53_are_refused_not_rounded() {
    let handle = server(1, 4);
    let addr = handle.addr().to_string();
    let stream = TcpStream::connect(&addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    // Raw lines: a `JsonValue` would round the seed before it is sent.
    for (id, seed) in [
        (1, "9007199254740992"),
        (2, "9007199254740993"),
        (3, "9007199254740991"),
    ] {
        let line = format!(
            r#"{{"id":{id},"op":"simulate","params":{{"workload":"hotspot","policy":"LOCAL","mem_ops":4000,"sms":2,"seed":{seed}}}}}"#
        );
        writeln!(writer, "{line}").unwrap();
    }
    writer.flush().unwrap();
    let mut read_response = || {
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        Response::decode(reply.trim_end()).unwrap()
    };
    for want_id in [1, 2] {
        let resp = read_response();
        assert_eq!(resp.id(), want_id);
        let (code, message) = expect_err(&resp);
        assert_eq!(code, "invalid-request", "id {want_id}: {message}");
        assert!(message.contains("'seed'"), "{message}");
    }
    let resp = read_response();
    assert_eq!(resp.id(), 3);
    expect_ok(&resp);
    handle.shutdown();
    handle.wait();
}

#[test]
fn migrate_policy_simulates_with_migration_counters() {
    let handle = server(1, 4);
    let addr = handle.addr().to_string();

    // A capacity-constrained run with an eager migrate spec: short
    // epochs and a low hot threshold so pages actually move.
    let body = r#"{"workload":"hotspot","policy":"MIGRATE:epoch=2000,hot=2",
                   "mem_ops":4000,"sms":2,"capacity_pct":10,"seed":7}"#;
    let resp = roundtrip(&addr, &sim_request(1, body)).unwrap();
    let record = JsonValue::parse(expect_ok(&resp)).unwrap();
    assert!(stat(&record, &["cycles"]) > 0);
    assert!(
        record
            .get("config")
            .unwrap()
            .as_str()
            .unwrap()
            .starts_with("MIGRATE(epoch=2000,hot=2,"),
        "cache key and record carry the canonical policy name"
    );
    assert!(
        stat(&record, &["migration", "epochs"]) >= 1,
        "migration telemetry block must be present for MIGRATE runs"
    );
    assert!(stat(&record, &["migration", "pages_migrated"]) >= 1);

    // Same request again: a pure cache hit with identical bytes.
    let again = roundtrip(&addr, &sim_request(2, body)).unwrap();
    assert_eq!(expect_ok(&again), expect_ok(&resp));

    handle.shutdown();
    handle.wait();
}

#[test]
fn sampled_migrate_is_refused_with_unsupported_fidelity() {
    let handle = server(1, 4);
    let addr = handle.addr().to_string();

    // Sampled fidelity cannot run online migration: a stable code, not
    // an extrapolated answer, and nothing is cached under the key.
    let body = r#"{"workload":"hotspot","policy":"MIGRATE:epoch=2000,hot=2",
                   "mem_ops":4000,"sms":2,"capacity_pct":10,"seed":7,
                   "fidelity":"sampled"}"#;
    for id in 1..=2 {
        let resp = roundtrip(&addr, &sim_request(id, body)).unwrap();
        let (code, message) = expect_err(&resp);
        assert_eq!(code, "unsupported-fidelity", "{message}");
        assert!(message.contains("MIGRATE"), "{message}");
    }
    // The same policy at full fidelity, and sampled without migration,
    // still run.
    let full = body.replace(r#""fidelity":"sampled""#, r#""fidelity":"full""#);
    expect_ok(&roundtrip(&addr, &sim_request(3, &full)).unwrap());
    let sampled_local = body.replace("MIGRATE:epoch=2000,hot=2", "LOCAL");
    expect_ok(&roundtrip(&addr, &sim_request(4, &sampled_local)).unwrap());
    assert_eq!(stat(&stats(&addr), &["cache", "hits"]), 0);

    handle.shutdown();
    handle.wait();
}

#[test]
fn metrics_op_serves_both_formats_and_conserves_counts() {
    let handle = server(2, 32);
    let addr = handle.addr().to_string();

    // Mixed traffic: a place, two simulates (miss + hit), a stats, and
    // one line that never parses.
    roundtrip(
        &addr,
        &Request::with_params(
            1,
            "place",
            JsonValue::parse(r#"{"workload":"bfs","capacity_pct":10}"#).unwrap(),
        ),
    )
    .unwrap();
    roundtrip(&addr, &sim_request(2, QUICK)).unwrap();
    roundtrip(&addr, &sim_request(3, QUICK)).unwrap();
    stats(&addr);
    {
        let stream = TcpStream::connect(&addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        writer.write_all(b"not json\n").unwrap();
        writer.flush().unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
    }

    // JSON format: per-op histogram counts must sum to
    // hm_requests_total (the conservation invariant: both sides are
    // recorded before each response is written, so this sequential
    // scrape sees a consistent ledger).
    let resp = roundtrip(&addr, &Request::new(10, "metrics")).unwrap();
    let doc = JsonValue::parse(expect_ok(&resp)).unwrap();
    let families = doc.get("metrics").unwrap().as_array().unwrap();
    let family = |name: &str| {
        families
            .iter()
            .find(|f| f.get("name").and_then(JsonValue::as_str) == Some(name))
            .unwrap_or_else(|| panic!("no {name} family"))
    };
    let requests_total = family("hm_requests_total")
        .get("series")
        .unwrap()
        .as_array()
        .unwrap()[0]
        .get("value")
        .unwrap()
        .as_u64()
        .unwrap();
    assert_eq!(requests_total, 5, "4 requests + the decode failure");
    let duration_series = family("hm_request_duration_us")
        .get("series")
        .unwrap()
        .as_array()
        .unwrap()
        .to_vec();
    let mut by_op = std::collections::BTreeMap::new();
    for s in &duration_series {
        let op = s
            .get("labels")
            .and_then(|l| l.get("op"))
            .and_then(JsonValue::as_str)
            .unwrap()
            .to_string();
        by_op.insert(op, s.get("count").unwrap().as_u64().unwrap());
    }
    assert_eq!(by_op.values().sum::<u64>(), requests_total);
    assert_eq!(by_op["place"], 1);
    assert_eq!(by_op["simulate"], 2);
    assert_eq!(by_op["stats"], 1);
    assert_eq!(by_op["decode"], 1);
    // The simulate histogram carries a real latency distribution.
    let sim = duration_series
        .iter()
        .find(|s| {
            s.get("labels")
                .and_then(|l| l.get("op"))
                .and_then(JsonValue::as_str)
                == Some("simulate")
        })
        .unwrap();
    assert!(sim.get("p99").unwrap().as_u64().unwrap() > 0);
    // Cache mirrors agree with stats: one miss, one hit.
    let cache_series = family("hm_cache_events_total")
        .get("series")
        .unwrap()
        .as_array()
        .unwrap()
        .to_vec();
    let cache_event = |ev: &str| {
        cache_series
            .iter()
            .find(|s| {
                s.get("labels")
                    .and_then(|l| l.get("event"))
                    .and_then(JsonValue::as_str)
                    == Some(ev)
            })
            .and_then(|s| s.get("value"))
            .and_then(JsonValue::as_u64)
            .unwrap()
    };
    assert_eq!(cache_event("hit"), 1);
    assert_eq!(cache_event("miss"), 1);

    // Prometheus format: the exposition must validate, and the request
    // ledger keeps growing (the JSON scrape above is now counted).
    let req = Request::with_params(
        11,
        "metrics",
        JsonValue::parse(r#"{"format":"prometheus"}"#).unwrap(),
    );
    let resp = roundtrip(&addr, &req).unwrap();
    let body = JsonValue::parse(expect_ok(&resp)).unwrap();
    assert_eq!(body.get("format").unwrap().as_str(), Some("prometheus"));
    let text = body.get("text").unwrap().as_str().unwrap().to_string();
    let samples = parse_prometheus(&text).expect("valid exposition");
    assert!(samples > 20, "got only {samples} samples");
    assert!(text.contains("hm_requests_total 6"), "JSON scrape counted");
    assert!(text.contains(r#"hm_request_duration_us_count{op="metrics"} 1"#));

    // An unknown format is a structured error, not a hang or a panic.
    let req = Request::with_params(
        12,
        "metrics",
        JsonValue::parse(r#"{"format":"xml"}"#).unwrap(),
    );
    let resp = roundtrip(&addr, &req).unwrap();
    let (code, message) = expect_err(&resp);
    assert_eq!(code, "invalid-request");
    assert!(message.contains("xml"));

    handle.shutdown();
    handle.wait();
}

#[test]
fn request_ids_are_echoed_and_traced_through_telemetry() {
    let dir = std::env::temp_dir().join(format!("hetmem-serve-rid-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let sink = Arc::new(TelemetrySink::create(&dir).unwrap());
    let handle = start(ServeConfig {
        shards: 1,
        queue_depth: 8,
        telemetry: Some(sink),
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = handle.addr().to_string();

    // A traced simulate: the response echoes the client id.
    let req = sim_request(1, QUICK).request_id("it-sim-1").trace();
    let resp = roundtrip(&addr, &req).unwrap();
    assert_eq!(resp.request_id(), Some("it-sim-1"));
    expect_ok(&resp);

    // Errors echo it too — the join key survives the failure path.
    let req = Request::new(2, "frobnicate").request_id("it-err-1");
    let resp = roundtrip(&addr, &req).unwrap();
    assert_eq!(resp.request_id(), Some("it-err-1"));
    assert_eq!(expect_err(&resp).0, "unknown-op");

    // Without a client id the response carries none (a server-side
    // srv-N id exists only in telemetry, keeping identical request
    // lines byte-identical).
    let resp = roundtrip(&addr, &sim_request(3, QUICK)).unwrap();
    assert_eq!(resp.request_id(), None);

    handle.shutdown();
    handle.wait();

    let log = std::fs::read_to_string(dir.join("serve.jsonl")).unwrap();
    let lines: Vec<JsonValue> = log.lines().map(|l| JsonValue::parse(l).unwrap()).collect();
    let of_kind = |kind: &str| {
        lines
            .iter()
            .filter(|v| v.get("kind").and_then(JsonValue::as_str) == Some(kind))
            .collect::<Vec<_>>()
    };
    let requests = of_kind("serve-request");
    let rid = |v: &JsonValue| {
        v.get("request_id")
            .and_then(JsonValue::as_str)
            .unwrap()
            .to_string()
    };
    // Every request line carries an id; client ids verbatim, the rest
    // server-generated.
    assert!(requests.iter().any(|v| rid(v) == "it-sim-1"));
    assert!(requests.iter().any(|v| rid(v) == "it-err-1"
        && v.get("status").and_then(JsonValue::as_str) == Some("unknown-op")));
    assert!(requests.iter().all(|v| !rid(v).is_empty()));
    assert!(requests.iter().any(|v| rid(v).starts_with("srv-")));

    // Spans exist only for the traced request, chain end-to-start from
    // zero, and cover the worker phases of a fresh simulate.
    let spans = of_kind("serve-span");
    assert!(!spans.is_empty(), "traced request must emit spans");
    assert!(spans.iter().all(|v| rid(v) == "it-sim-1"));
    let phases: Vec<&str> = spans
        .iter()
        .map(|v| v.get("phase").and_then(JsonValue::as_str).unwrap())
        .collect();
    for want in [
        "read",
        "decode",
        "queue_wait",
        "cache_lookup",
        "execute",
        "encode",
    ] {
        assert!(phases.contains(&want), "missing {want} span in {phases:?}");
    }
    let mut cursor = 0u64;
    for span in &spans {
        assert_eq!(stat(span, &["start_us"]), cursor, "spans must chain");
        cursor += stat(span, &["dur_us"]);
    }
}

#[test]
fn served_simulate_bytes_match_an_unobserved_local_run() {
    // The no-perturbation contract: the observability layer must not
    // change simulation results. A served simulate's body is exactly
    // the record a direct in-process run produces.
    let handle = server(1, 4);
    let addr = handle.addr().to_string();
    let resp = roundtrip(&addr, &sim_request(1, QUICK)).unwrap();
    let served = expect_ok(&resp).to_string();
    handle.shutdown();
    handle.wait();

    let mut spec = workloads::catalog::by_name("hotspot").unwrap();
    spec.mem_ops = 4000;
    spec.seed = 7;
    let mut sim = gpusim::SimConfig::paper_baseline();
    sim.num_sms = 2;
    let topo = hetmem::topology_for(&sim, &vec![1; sim.pools.len()]);
    let policy = mempolicy::Mempolicy::parse("LOCAL", &topo).unwrap();
    let label = policy.name();
    let run = RunBuilder::new(&spec, &sim)
        .capacity(Capacity::Unconstrained)
        .placement(&Placement::Policy(policy))
        .run();
    let local = record_for("serve", spec.name, &label, &sim, &run).jsonl(false);
    assert_eq!(served, local, "served bytes must match the local run");
}

#[test]
fn simulate_oracle_and_hinted_match_fig10_cells() {
    // One resolver: a `simulate` point at 10% capacity runs its ORACLE
    // and HINTED placements exactly as fig10 at `ExpOptions::quick()`
    // (4 SMs, 15% of each workload's 220,000 ops) runs its Oracle and
    // Annotated cells. Measured: bfs 33,029 / 27,682 and xsbench
    // 24,868 / 23,851 cycles (HINTED / ORACLE).
    let dir = std::env::temp_dir().join(format!("hetmem-one-point-{}", std::process::id()));
    let opts = ExpOptions {
        workloads: Some(vec!["bfs".to_string(), "xsbench".to_string()]),
        telemetry: Some(Arc::new(TelemetrySink::create(&dir).unwrap())),
        ..ExpOptions::quick()
    };
    hetmem::experiments::fig10(&opts);
    let figure = std::fs::read_to_string(dir.join("fig10.jsonl")).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    let cycles = |line: &str| {
        JsonValue::parse(line)
            .unwrap()
            .get("cycles")
            .unwrap()
            .as_u64()
    };
    for spec in opts.specs() {
        assert_eq!(spec.mem_ops, 33_000, "{}", spec.name);
        for (policy, config) in [("HINTED", "Annotated"), ("ORACLE", "Oracle")] {
            let params = format!(
                r#"{{"workload":"{}","policy":"{policy}","capacity_pct":10,"mem_ops":33000,"sms":4}}"#,
                spec.name
            );
            let (point, fidelity, _) = parse_simulate(&JsonValue::parse(&params).unwrap()).unwrap();
            let (line, _) = run_point(&point, fidelity, "serve");
            let cell = format!(r#""workload":"{}","config":"{config}","#, spec.name);
            let fig10 = figure
                .lines()
                .find(|l| l.contains(&cell))
                .expect("fig10 cell");
            assert_eq!(cycles(&line), cycles(fig10), "{} {policy}", spec.name);
        }
    }
}

#[test]
fn place_reports_hints_for_every_structure() {
    let handle = server(1, 4);
    let addr = handle.addr().to_string();

    let req = Request::with_params(
        1,
        "place",
        JsonValue::parse(r#"{"workload":"bfs","capacity_pct":10}"#).unwrap(),
    );
    let resp = roundtrip(&addr, &req).unwrap();
    let result = JsonValue::parse(expect_ok(&resp)).unwrap();

    let hints = result.get("hints").unwrap().as_array().unwrap();
    assert_eq!(hints.len(), 6, "bfs has six data structures");
    for h in hints {
        let hint = h.get("hint").unwrap().as_str().unwrap();
        assert!(
            matches!(hint, "BO" | "CO" | "BW"),
            "machine-abstract hint, got {hint}"
        );
        assert!(stat(h, &["bytes"]) > 0);
        assert!(h.get("name").unwrap().as_str().is_some());
    }
    assert!(stat(&result, &["bo_bytes"]) > 0);
    let frac = result.get("bo_traffic_fraction").unwrap().as_f64().unwrap();
    assert!((0.0..=1.0).contains(&frac));

    // Raw annotation arrays work without naming a catalog workload.
    let req = Request::with_params(
        2,
        "place",
        JsonValue::parse(r#"{"sizes":[1048576,4096],"hotness":[0.1,0.9],"bo_bytes":8192}"#)
            .unwrap(),
    );
    let resp = roundtrip(&addr, &req).unwrap();
    let result = JsonValue::parse(expect_ok(&resp)).unwrap();
    let hints = result.get("hints").unwrap().as_array().unwrap();
    assert_eq!(hints.len(), 2);
    assert_eq!(
        hints[1].get("hint").unwrap().as_str(),
        Some("BO"),
        "the small hot structure belongs in BO"
    );

    handle.shutdown();
    handle.wait();
}
