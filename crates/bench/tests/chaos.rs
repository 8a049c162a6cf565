//! Chaos loopback tests: a server under deterministic fault injection
//! must answer every request either **byte-correct** or with a stable
//! error code — never with silently wrong bytes, and never by hanging.
//!
//! The canonical bytes come from a clean server first; then a chaos
//! server (seeded worker panics, stalls, torn response writes, cache
//! corruption) serves the same requests to a fleet of retrying
//! clients, and every success is compared byte-for-byte. Deterministic
//! single-fault tests pin down each failure path: a crashed worker
//! surfaces as `worker-restarted` and the shard recovers; dropped,
//! stalled and refused connections are retried to the same bytes; an expired
//! deadline is refused as `deadline-exceeded`; corrupted cache entries
//! are detected by checksum and recomputed rather than served.
#![cfg(unix)]

use std::collections::HashMap;
use std::time::Duration;

use hetmem_bench::client::ClientBuilder;
use hetmem_bench::serve::{roundtrip, start, ServeConfig};
use hetmem_harness::json::JsonValue;
use hetmem_harness::{Backoff, FaultPlan, Request, Response};

/// The request mix: small enough to simulate in milliseconds.
const POINTS: [(&str, &str); 4] = [
    ("bfs", "LOCAL"),
    ("bfs", "BW-AWARE"),
    ("hotspot", "LOCAL"),
    ("hotspot", "INTERLEAVE"),
];

fn sim_request(id: u64, workload: &str, policy: &str) -> Request {
    Request::with_params(
        id,
        "simulate",
        JsonValue::Object(vec![
            ("workload".to_string(), JsonValue::Str(workload.to_string())),
            ("policy".to_string(), JsonValue::Str(policy.to_string())),
            ("mem_ops".to_string(), JsonValue::Num(1500.0)),
            ("sms".to_string(), JsonValue::Num(2.0)),
        ]),
    )
}

/// Runs each point once on a clean server and returns its bytes.
fn canonical_bodies() -> HashMap<(&'static str, &'static str), String> {
    let handle = start(ServeConfig::default()).unwrap();
    let addr = handle.addr().to_string();
    let mut bodies = HashMap::new();
    for (i, (w, p)) in POINTS.iter().enumerate() {
        let resp = roundtrip(&addr, &sim_request(i as u64 + 1, w, p)).unwrap();
        match resp {
            Response::Ok { result, .. } => {
                bodies.insert((*w, *p), result);
            }
            Response::Err { code, message, .. } => {
                panic!("clean server failed {w}/{p}: {code}: {message}")
            }
        }
    }
    let _ = roundtrip(&addr, &Request::new(99, "shutdown"));
    handle.wait();
    bodies
}

fn stat(v: &JsonValue, path: &[&str]) -> u64 {
    let mut cur = v.clone();
    for key in path {
        cur = cur
            .get(key)
            .unwrap_or_else(|| panic!("missing {key}"))
            .clone();
    }
    cur.as_u64().unwrap_or_else(|| panic!("{path:?} not a u64"))
}

/// The headline chaos test: seeded panics + stalls + torn writes +
/// cache corruption, many retrying clients, and the invariant that
/// every request ends byte-correct or with a stable error code.
#[test]
fn chaos_fleet_gets_byte_correct_or_stable_errors() {
    let canonical = canonical_bodies();
    let plan = FaultPlan::parse("seed=42,panic=0.1,latency=0.2,latency-ms=5,wire=0.1,corrupt=0.2")
        .unwrap();
    let handle = start(ServeConfig {
        shards: 2,
        queue_depth: 16,
        faults: Some(plan),
        read_timeout_ms: 10_000,
        write_timeout_ms: 10_000,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = handle.addr().to_string();

    const CLIENTS: usize = 4;
    const PER_CLIENT: usize = 8;
    let stable_codes = [
        "overloaded",
        "worker-restarted",
        "deadline-exceeded",
        "shutting-down",
    ];
    let mut ok_count = 0usize;
    let mut transport_failures = 0usize;
    std::thread::scope(|scope| {
        let outcomes: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let addr = addr.clone();
                let canonical = &canonical;
                scope.spawn(move || {
                    let client = ClientBuilder::new(addr)
                        .retries(12)
                        .backoff(Backoff::new(1, 10, c as u64))
                        .read_timeout(Duration::from_secs(30));
                    let mut ok = 0usize;
                    let mut transport = 0usize;
                    for i in 0..PER_CLIENT {
                        let (w, p) = POINTS[(c + i) % POINTS.len()];
                        let id = (c * PER_CLIENT + i) as u64 + 1;
                        match client.call(&sim_request(id, w, p)) {
                            Ok(outcome) => match outcome.response {
                                Response::Ok { result, .. } => {
                                    assert_eq!(
                                        result,
                                        canonical[&(w, p)],
                                        "{w}/{p} must be byte-identical to the clean run"
                                    );
                                    ok += 1;
                                }
                                Response::Err { code, .. } => {
                                    assert!(
                                        stable_codes.contains(&code.as_str()),
                                        "unexpected error code '{code}' for {w}/{p}"
                                    );
                                }
                            },
                            // Transport failure after retries: allowed
                            // (the wire is being torn on purpose) but
                            // never a protocol violation.
                            Err(e) => {
                                assert_ne!(
                                    e.kind(),
                                    std::io::ErrorKind::InvalidData,
                                    "server must never emit an unparseable response line"
                                );
                                transport += 1;
                            }
                        }
                    }
                    (ok, transport)
                })
            })
            .collect();
        for h in outcomes {
            let (ok, transport) = h.join().unwrap();
            ok_count += ok;
            transport_failures += transport;
        }
    });
    assert!(
        ok_count >= CLIENTS * PER_CLIENT / 2,
        "with 12 retries most requests must land: {ok_count}/{} ok, \
         {transport_failures} transport failures",
        CLIENTS * PER_CLIENT
    );

    // Give the last supervisor restart a beat to be counted, then
    // check the chaos actually fired and the books are consistent.
    std::thread::sleep(Duration::from_millis(100));
    let client = ClientBuilder::new(addr)
        .retries(12)
        .backoff(Backoff::new(1, 10, 999));
    let outcome = client.call(&Request::new(9000, "stats")).unwrap();
    let Response::Ok { result, .. } = outcome.response else {
        panic!("stats must succeed");
    };
    let s = JsonValue::parse(&result).unwrap();
    assert!(
        stat(&s, &["faults", "injected"]) > 0,
        "the fault plan must actually have fired"
    );
    if stat(&s, &["faults", "panics"]) > 0 {
        assert!(
            stat(&s, &["worker_restarts"]) > 0,
            "every injected panic implies a supervised restart"
        );
    }
    if stat(&s, &["faults", "corruptions"]) > 0 {
        assert!(
            stat(&s, &["cache", "corruptions"]) > 0,
            "injected corruption must be detected by the cache checksum"
        );
    }

    let _ = client.call(&Request::new(9001, "shutdown"));
    handle.wait();
}

/// The connection-level classes: dropped connections, responses that
/// stall after a prefix, and refused accepts. One client sends its
/// requests in turn, so the seeded decision stream lands the same way
/// every run; a stall only ends at the client's short read timeout,
/// after which the retry gets the same bytes.
#[test]
fn connection_faults_are_retried_to_byte_correct_answers() {
    let canonical = canonical_bodies();
    let plan = FaultPlan::parse("seed=3,conn-drop=0.2,stall=0.2,refuse=0.2").unwrap();
    let handle = start(ServeConfig {
        shards: 2,
        faults: Some(plan),
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = handle.addr().to_string();
    let client = ClientBuilder::new(addr)
        .retries(12)
        .backoff(Backoff::new(1, 10, 5))
        .read_timeout(Duration::from_millis(500));

    const REQUESTS: usize = 24;
    let mut ok = 0;
    for i in 0..REQUESTS {
        let (w, p) = POINTS[i % POINTS.len()];
        let outcome = client.call(&sim_request(i as u64 + 1, w, p)).unwrap();
        match outcome.response {
            Response::Ok { result, .. } => {
                assert_eq!(result, canonical[&(w, p)], "{w}/{p} must be byte-identical");
                ok += 1;
            }
            Response::Err { code, .. } => assert!(
                ["overloaded", "worker-restarted", "deadline-exceeded"].contains(&code.as_str()),
                "unexpected error code '{code}' for {w}/{p}"
            ),
        }
    }
    assert_eq!(ok, REQUESTS, "no worker-level fault is planned");

    let outcome = client.call(&Request::new(9000, "stats")).unwrap();
    let Response::Ok { result, .. } = outcome.response else {
        panic!("stats must succeed");
    };
    let s = JsonValue::parse(&result).unwrap();
    for class in ["conn_drops", "stalls", "refusals"] {
        assert!(
            stat(&s, &["faults", class]) > 0,
            "no {class} fired: {result}"
        );
    }

    let _ = client.call(&Request::new(9001, "shutdown"));
    handle.wait();
}

/// Every injected worker panic maps to `worker-restarted`, and the
/// shard keeps serving afterwards (the supervisor respawned it).
#[test]
fn worker_panic_surfaces_as_worker_restarted_and_shard_recovers() {
    let plan = FaultPlan::parse("seed=7,panic=1").unwrap();
    let handle = start(ServeConfig {
        shards: 1,
        faults: Some(plan),
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = handle.addr().to_string();

    for attempt in 0..3 {
        let resp = roundtrip(&addr, &sim_request(attempt + 1, "bfs", "LOCAL")).unwrap();
        match resp {
            Response::Err { code, .. } => assert_eq!(code, "worker-restarted"),
            Response::Ok { .. } => panic!("panic=1 cannot produce a success"),
        }
    }
    // The control plane never touches the workers: stats still works
    // and counts one restart per crashed job. The supervisor increments
    // the counter *after* the reply channel drops (that drop is what
    // answered the client), so poll briefly for the books to balance.
    let mut s = JsonValue::Null;
    for _ in 0..100 {
        let resp = roundtrip(&addr, &Request::new(50, "stats")).unwrap();
        let Response::Ok { result, .. } = resp else {
            panic!("stats must succeed on a server with crashing workers");
        };
        s = JsonValue::parse(&result).unwrap();
        if stat(&s, &["worker_restarts"]) >= 3 {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(stat(&s, &["worker_restarts"]) >= 3);
    assert_eq!(
        stat(&s, &["faults", "panics"]),
        stat(&s, &["worker_restarts"])
    );

    let _ = roundtrip(&addr, &Request::new(51, "shutdown"));
    handle.wait();
}

/// Deadlines are enforced at every cooperative boundary: an already
/// expired deadline is refused in dispatch, and a deadline that
/// expires while the job stalls in the worker is refused there.
#[test]
fn expired_deadlines_are_refused_with_deadline_exceeded() {
    // Dispatch-level: deadline_ms=0 has expired by the time any op is
    // examined, even cheap ones.
    let handle = start(ServeConfig::default()).unwrap();
    let addr = handle.addr().to_string();
    let resp = roundtrip(&addr, &Request::new(1, "stats").deadline(0)).unwrap();
    match resp {
        Response::Err { code, .. } => assert_eq!(code, "deadline-exceeded"),
        Response::Ok { .. } => panic!("an expired deadline cannot succeed"),
    }
    // A generous deadline changes nothing.
    let resp = roundtrip(&addr, &sim_request(2, "bfs", "LOCAL").deadline(60_000)).unwrap();
    assert!(resp.is_ok(), "generous deadline must not perturb results");
    let _ = roundtrip(&addr, &Request::new(3, "shutdown"));
    handle.wait();

    // Worker-level: a guaranteed 50 ms stall outlives a 10 ms
    // deadline, so the pre-execution check fires deterministically.
    let plan = FaultPlan::parse("seed=1,latency=1,latency-ms=50").unwrap();
    let handle = start(ServeConfig {
        shards: 1,
        faults: Some(plan),
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = handle.addr().to_string();
    let resp = roundtrip(&addr, &sim_request(4, "bfs", "LOCAL").deadline(10)).unwrap();
    match resp {
        Response::Err { code, .. } => assert_eq!(code, "deadline-exceeded"),
        Response::Ok { .. } => panic!("a 10ms deadline cannot survive a 50ms stall"),
    }
    let _ = roundtrip(&addr, &Request::new(5, "shutdown"));
    handle.wait();
}

/// Corrupted cache entries are never served: the checksum catches the
/// rot, the point recomputes, and the bytes stay identical.
#[test]
fn cache_corruption_is_detected_and_recomputed() {
    let plan = FaultPlan::parse("seed=3,corrupt=1").unwrap();
    let handle = start(ServeConfig {
        shards: 1,
        faults: Some(plan),
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = handle.addr().to_string();

    let first = roundtrip(&addr, &sim_request(1, "hotspot", "LOCAL")).unwrap();
    let Response::Ok { result: body1, .. } = first else {
        panic!("first request must succeed");
    };
    // corrupt=1 rots the entry before every lookup, so this can never
    // be served from cache — yet the bytes must not change.
    let second = roundtrip(&addr, &sim_request(2, "hotspot", "LOCAL")).unwrap();
    let Response::Ok { result: body2, .. } = second else {
        panic!("second request must succeed");
    };
    assert_eq!(body1, body2, "recomputed result must be byte-identical");

    let resp = roundtrip(&addr, &Request::new(3, "stats")).unwrap();
    let Response::Ok { result, .. } = resp else {
        panic!("stats must succeed");
    };
    let s = JsonValue::parse(&result).unwrap();
    assert!(stat(&s, &["cache", "corruptions"]) >= 1);
    assert_eq!(
        stat(&s, &["cache", "hits"]),
        0,
        "rotted entries never count as hits"
    );

    let _ = roundtrip(&addr, &Request::new(4, "shutdown"));
    handle.wait();
}
