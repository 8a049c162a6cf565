//! `hetmem-fleet` integration tests: the router in front of real
//! `hetmem-serve` child processes must keep the single-server wire
//! contract — byte-identical successes, stable kebab error codes, no
//! hung connections — through consistent-hash routing, backend chaos,
//! a SIGKILL'd backend, and a graceful drain.
//!
//! The acceptance test mirrors the PR 4 chaos suite: a 200-request
//! mixed place/simulate/batch workload runs once against one clean
//! in-process server to fix the canonical bytes, then again through a
//! router whose backends inject seeded faults and one of which is
//! SIGKILL'd mid-sweep. Every response must be byte-identical to the
//! canonical run or carry a stable error code.
#![cfg(unix)]

use std::path::PathBuf;
use std::time::{Duration, Instant};

use hetmem_bench::client::ClientBuilder;
use hetmem_bench::fleet::{start as fleet_start, FleetConfig, FleetHandle};
use hetmem_bench::serve::{roundtrip, start as serve_start, ServeConfig};
use hetmem_bench::top::TopSnapshot;
use hetmem_harness::json::JsonValue;
use hetmem_harness::{Backoff, FaultPlan, Request, Response};

/// The compiled sibling backend binary, resolved by cargo for
/// integration tests.
fn serve_bin() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_hetmem-serve"))
}

fn fleet(cfg: FleetConfig) -> FleetHandle {
    fleet_start(FleetConfig {
        serve_bin: Some(serve_bin()),
        ..cfg
    })
    .expect("fleet must start")
}

fn sim_request(id: u64, workload: &str, policy: &str, mem_ops: u64) -> Request {
    Request::with_params(
        id,
        "simulate",
        JsonValue::Object(vec![
            ("workload".to_string(), JsonValue::Str(workload.to_string())),
            ("policy".to_string(), JsonValue::Str(policy.to_string())),
            ("mem_ops".to_string(), JsonValue::Num(mem_ops as f64)),
            ("sms".to_string(), JsonValue::Num(2.0)),
        ]),
    )
}

fn place_request(id: u64, workload: &str, capacity_pct: u64) -> Request {
    Request::with_params(
        id,
        "place",
        JsonValue::Object(vec![
            ("workload".to_string(), JsonValue::Str(workload.to_string())),
            (
                "capacity_pct".to_string(),
                JsonValue::Num(capacity_pct as f64),
            ),
        ]),
    )
}

/// One logical unit of the sweep: a bare request or a batch envelope.
enum Step {
    Bare(Request),
    Batch(u64, Vec<Request>),
}

/// The 200-request mixed workload (152 bare + 12 envelopes × 4 subs),
/// deterministic so both runs see identical lines.
fn workload() -> Vec<Step> {
    let sims: [(&str, &str, u64); 6] = [
        ("bfs", "LOCAL", 1000),
        ("bfs", "BW-AWARE", 1500),
        ("hotspot", "LOCAL", 1000),
        ("hotspot", "INTERLEAVE", 1500),
        ("bfs", "INTERLEAVE", 2000),
        ("hotspot", "BW-AWARE", 2000),
    ];
    let places: [(&str, u64); 4] = [("bfs", 10), ("bfs", 30), ("hotspot", 20), ("hotspot", 40)];
    let mut id = 0u64;
    let mut next = || {
        id += 1;
        id
    };
    let mut steps = Vec::new();
    for round in 0..19 {
        for &(w, p, ops) in &sims {
            steps.push(Step::Bare(sim_request(next(), w, p, ops)));
        }
        for &(w, pct) in &places {
            steps.push(Step::Bare(place_request(next(), w, pct)));
        }
        if round % 2 == 0 {
            // A 4-sub envelope mixing both forwarded ops.
            let subs = vec![
                sim_request(1, sims[round % 6].0, sims[round % 6].1, sims[round % 6].2),
                place_request(2, places[round % 4].0, places[round % 4].1),
                sim_request(3, sims[(round + 3) % 6].0, sims[(round + 3) % 6].1, 1500),
                place_request(4, places[(round + 2) % 4].0, places[(round + 2) % 4].1),
            ];
            steps.push(Step::Batch(next(), subs));
        }
    }
    let weight = |s: &Step| match s {
        Step::Bare(_) => 1,
        Step::Batch(_, subs) => subs.len(),
    };
    // 19 rounds of 10 bare + 10 envelopes of 4 subs = 230 logical
    // requests; trim the tail to exactly 200.
    assert_eq!(steps.iter().map(weight).sum::<usize>(), 230);
    while steps.iter().map(weight).sum::<usize>() > 200 {
        steps.pop();
    }
    let total: usize = steps.iter().map(weight).sum();
    assert_eq!(total, 200, "workload carries {total} logical requests");
    steps
}

/// Runs the sweep against one clean in-process server and returns the
/// canonical encoded response per step (bare) and per sub (batch).
fn canonical_run(steps: &[Step]) -> Vec<Vec<String>> {
    let handle = serve_start(ServeConfig::default()).unwrap();
    let addr = handle.addr().to_string();
    let client = ClientBuilder::new(addr.clone());
    let mut out = Vec::with_capacity(steps.len());
    for step in steps {
        match step {
            Step::Bare(req) => {
                let o = client.call(req).expect("clean server must answer");
                assert!(o.response.is_ok(), "clean run failed: {:?}", o.response);
                out.push(vec![o.response.encode()]);
            }
            Step::Batch(id, subs) => {
                let o = client.call_batch(*id, subs).expect("clean batch");
                assert!(o.response.is_ok(), "clean batch failed: {:?}", o.response);
                out.push(o.responses.iter().map(Response::encode).collect());
            }
        }
    }
    let _ = roundtrip(&addr, &Request::new(9_999, "shutdown"));
    handle.wait();
    out
}

/// The acceptance test: seeded backend faults + one SIGKILL'd backend
/// mid-sweep; every response byte-identical or stably coded, the books
/// conserved, nothing hung.
#[test]
fn chaos_sweep_through_the_fleet_is_byte_identical_or_stably_coded() {
    let steps = workload();
    let canonical = canonical_run(&steps);

    let handle = fleet(FleetConfig {
        backends: 3,
        seed: 42,
        serve: ServeConfig {
            faults: Some(
                FaultPlan::parse("seed=42,panic=0.05,latency=0.1,latency-ms=5,wire=0.05").unwrap(),
            ),
            ..ServeConfig::default()
        },
        ..FleetConfig::default()
    });
    let addr = handle.addr().to_string();
    let client = ClientBuilder::new(addr.clone())
        .retries(12)
        .backoff(Backoff::new(1, 10, 7))
        .read_timeout(Duration::from_secs(30));

    let stable = [
        "overloaded",
        "worker-restarted",
        "deadline-exceeded",
        "backend-unavailable",
        "fleet-draining",
    ];
    let check = |got: &Response, want: &str| match got {
        Response::Ok { .. } => {
            assert_eq!(got.encode(), want, "success must be byte-identical");
            true
        }
        Response::Err { code, .. } => {
            assert!(stable.contains(&code.as_str()), "unstable code '{code}'");
            false
        }
    };
    let mut ok = 0usize;
    let mut killed = false;
    for (i, step) in steps.iter().enumerate() {
        if i == steps.len() / 2 {
            killed = handle.kill_backend(0);
        }
        match step {
            Step::Bare(req) => {
                let o = client.call(req).expect("transport through the router");
                ok += usize::from(check(&o.response, &canonical[i][0]));
            }
            Step::Batch(id, subs) => {
                let o = client.call_batch(*id, subs).expect("batch transport");
                assert!(
                    o.response.is_ok(),
                    "the envelope itself must never fail here: {:?}",
                    o.response
                );
                assert_eq!(o.responses.len(), subs.len());
                for (sub, want) in o.responses.iter().zip(&canonical[i]) {
                    ok += usize::from(check(sub, want));
                }
            }
        }
    }
    assert!(killed, "the SIGKILL must actually land");
    assert!(
        ok >= 150,
        "with 12 retries most of the 200 requests must land byte-correct, got {ok}"
    );

    // The router's books: conservation holds and the kill was seen.
    let snap = TopSnapshot::fetch(&addr, Duration::from_secs(10)).expect("top against the router");
    snap.check_conservation().expect("fleet conservation");
    let stats = stats_body(&addr);
    assert!(
        field(&stats, &["worker_restarts"]) >= 1,
        "the SIGKILL'd backend must have been respawned"
    );

    let _ = roundtrip(&addr, &Request::new(100_000, "shutdown"));
    handle.wait();
}

fn stats_body(addr: &str) -> JsonValue {
    let resp = roundtrip(addr, &Request::new(90_000, "stats")).expect("stats roundtrip");
    let Response::Ok { result, .. } = resp else {
        panic!("stats must succeed: {resp:?}");
    };
    JsonValue::parse(&result).unwrap()
}

fn field(v: &JsonValue, path: &[&str]) -> u64 {
    let mut cur = v.clone();
    for key in path {
        cur = cur
            .get(key)
            .unwrap_or_else(|| panic!("missing {key}"))
            .clone();
    }
    cur.as_u64().unwrap_or_else(|| panic!("{path:?} not a u64"))
}

/// A healthy 2-backend fleet returns byte-identical bodies to a single
/// process, and repeats are cache hits on the owning backend.
#[test]
fn healthy_fleet_matches_single_process_and_keeps_cache_hits() {
    let req = |id| sim_request(id, "bfs", "LOCAL", 1200);
    let single = serve_start(ServeConfig::default()).unwrap();
    let single_addr = single.addr().to_string();
    let canonical = match roundtrip(&single_addr, &req(1)).unwrap() {
        Response::Ok { result, .. } => result,
        other => panic!("clean server failed: {other:?}"),
    };
    let _ = roundtrip(&single_addr, &Request::new(9, "shutdown"));
    single.wait();

    let handle = fleet(FleetConfig {
        backends: 2,
        ..FleetConfig::default()
    });
    let addr = handle.addr().to_string();
    for round in 1..=3u64 {
        match roundtrip(&addr, &req(round)).unwrap() {
            Response::Ok { result, .. } => assert_eq!(result, canonical, "round {round}"),
            other => panic!("healthy fleet refused: {other:?}"),
        }
    }
    // The fleet's cache block mirrors the backends' health probes, so
    // give the prober a beat to scrape the hits.
    let deadline = Instant::now() + Duration::from_secs(10);
    let stats = loop {
        let stats = stats_body(&addr);
        if field(&stats, &["cache", "hits"]) >= 2 || Instant::now() >= deadline {
            break stats;
        }
        std::thread::sleep(Duration::from_millis(50));
    };
    assert!(
        field(&stats, &["cache", "hits"]) >= 2,
        "rounds 2 and 3 must be cache hits on the owning backend"
    );
    // The router's own `ok` counter excludes the in-flight stats
    // request (the body renders before it is accounted), but includes
    // any stats polls above; the 3 simulates are its floor.
    assert!(field(&stats, &["ok"]) >= 3);

    let _ = roundtrip(&addr, &Request::new(10, "shutdown"));
    handle.wait();
}

/// Identical simulate lines always land on the same backend (the ring
/// is deterministic), shown by exactly one backend owning the key's
/// cache misses/hits.
#[test]
fn requests_route_by_content_key_to_one_backend() {
    let handle = fleet(FleetConfig {
        backends: 3,
        ..FleetConfig::default()
    });
    let addr = handle.addr().to_string();
    for id in 1..=6u64 {
        let resp = roundtrip(&addr, &sim_request(id, "hotspot", "LOCAL", 1000)).unwrap();
        assert!(resp.is_ok(), "{resp:?}");
    }
    let stats = stats_body(&addr);
    let backends = stats
        .get("fleet")
        .and_then(|f| f.get("backends"))
        .and_then(JsonValue::as_array)
        .expect("fleet.backends array");
    let serving: Vec<u64> = backends
        .iter()
        .filter(|b| b.get("requests").and_then(|v| v.as_u64()).unwrap_or(0) > 0)
        .map(|b| b.get("backend").and_then(|v| v.as_u64()).unwrap())
        .collect();
    assert_eq!(
        serving.len(),
        1,
        "one content key must route to exactly one backend: {serving:?}"
    );

    let _ = roundtrip(&addr, &Request::new(50, "shutdown"));
    handle.wait();
}

/// A SIGKILL'd backend's keys fail over to a ring successor with
/// byte-identical recomputed results, and the supervisor respawns the
/// child.
#[test]
fn sigkilled_backend_fails_over_and_restarts() {
    let handle = fleet(FleetConfig {
        backends: 2,
        ..FleetConfig::default()
    });
    let addr = handle.addr().to_string();
    let client = ClientBuilder::new(addr.clone())
        .retries(8)
        .backoff(Backoff::new(5, 50, 3))
        .read_timeout(Duration::from_secs(30));

    let req = |id| sim_request(id, "bfs", "BW-AWARE", 1100);
    let first = client.call(&req(1)).unwrap();
    let Response::Ok { result: want, .. } = &first.response else {
        panic!("healthy call failed: {:?}", first.response);
    };

    assert!(handle.kill_backend(0));
    assert!(handle.kill_backend(1));
    // Both children are dead: the very next forwards either fail over
    // to a respawned child or surface backend-unavailable to the
    // retrying client — never a hang, never different bytes.
    let o = client.call(&req(2)).unwrap();
    match &o.response {
        Response::Ok { result, .. } => assert_eq!(result, want),
        Response::Err { code, .. } => assert_eq!(code, "backend-unavailable"),
    }
    // The supervisor must bring both children back.
    let deadline = Instant::now() + Duration::from_secs(15);
    loop {
        let o = client.call(&req(3)).unwrap();
        if let Response::Ok { result, .. } = &o.response {
            assert_eq!(result, want, "recovered fleet must recompute identically");
            break;
        }
        assert!(
            Instant::now() < deadline,
            "fleet never recovered from the double SIGKILL: {:?}",
            o.response
        );
        std::thread::sleep(Duration::from_millis(100));
    }
    let stats = stats_body(&addr);
    assert!(field(&stats, &["worker_restarts"]) >= 2);

    let _ = roundtrip(&addr, &Request::new(60, "shutdown"));
    handle.wait();
}

/// `shutdown` drains gracefully: the shutdown response arrives, later
/// requests refuse with the stable `fleet-draining` code, wait()
/// returns, and the children are gone.
#[test]
fn drain_refuses_new_work_with_fleet_draining_and_stops_children() {
    let handle = fleet(FleetConfig {
        backends: 2,
        ..FleetConfig::default()
    });
    let addr = handle.addr().to_string();
    let resp = roundtrip(&addr, &sim_request(1, "bfs", "LOCAL", 1000)).unwrap();
    assert!(resp.is_ok());
    let backend0 = handle.backend_addr(0).expect("backend 0 up");

    let resp = roundtrip(&addr, &Request::new(2, "shutdown")).unwrap();
    let Response::Ok { result, .. } = resp else {
        panic!("shutdown must ack: {resp:?}");
    };
    assert!(result.contains("\"draining\":true"));
    // A straggler on a fresh connection (while the loop lingers for
    // open conns) must see the stable drain code, not a hang; once the
    // listener is gone, a refused connect is equally acceptable.
    if let Ok(resp) = roundtrip(&addr, &sim_request(3, "bfs", "LOCAL", 1000)) {
        match resp {
            Response::Err { code, .. } => assert_eq!(code, "fleet-draining"),
            Response::Ok { .. } => panic!("a draining fleet must not accept work"),
        }
    }
    handle.wait();
    // The children were stopped: their ports no longer accept.
    assert!(
        std::net::TcpStream::connect_timeout(&backend0, Duration::from_millis(500)).is_err(),
        "backend child must be gone after drain"
    );
}

/// Pids of `parent`'s live (non-zombie) children, from `/proc`.
fn live_children(parent: u32) -> Vec<u32> {
    let mut kids = Vec::new();
    for entry in std::fs::read_dir("/proc").expect("procfs") {
        let name = entry.expect("procfs entry").file_name();
        let Some(pid) = name.to_str().and_then(|n| n.parse::<u32>().ok()) else {
            continue;
        };
        let Ok(stat) = std::fs::read_to_string(format!("/proc/{pid}/stat")) else {
            continue;
        };
        // Fields after the parenthesized command: state, ppid, ...
        let Some((_, rest)) = stat.rsplit_once(") ") else {
            continue;
        };
        let mut fields = rest.split_whitespace();
        let state = fields.next();
        let ppid = fields.next().and_then(|p| p.parse::<u32>().ok());
        if ppid == Some(parent) && state != Some("Z") {
            kids.push(pid);
        }
    }
    kids
}

/// Whether `pid` names a process that has not exited (zombies count as
/// exited).
fn alive(pid: u32) -> bool {
    std::fs::read_to_string(format!("/proc/{pid}/stat")).is_ok_and(|stat| {
        stat.rsplit_once(") ")
            .is_some_and(|(_, rest)| !rest.starts_with('Z'))
    })
}

/// SIGTERM to the `hetmem-fleet` binary drains the fleet: the router
/// stops both `hetmem-serve` children instead of orphaning them.
#[test]
fn sigterm_to_the_router_stops_every_backend() {
    let dir = std::env::temp_dir().join(format!("hetmem-fleet-sigterm-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let port_file = dir.join("fleet.port");
    let mut router = std::process::Command::new(env!("CARGO_BIN_EXE_hetmem-fleet"))
        .args(["--addr", "127.0.0.1:0", "--backends", "2", "--serve-bin"])
        .arg(serve_bin())
        .arg("--port-file")
        .arg(&port_file)
        .stdout(std::process::Stdio::null())
        .spawn()
        .expect("spawn hetmem-fleet");
    let deadline = Instant::now() + Duration::from_secs(20);
    while !std::fs::read_to_string(&port_file).is_ok_and(|p| !p.trim().is_empty()) {
        assert!(Instant::now() < deadline, "router never published its port");
        std::thread::sleep(Duration::from_millis(25));
    }
    let backends = live_children(router.id());
    assert_eq!(backends.len(), 2, "two backend children: {backends:?}");

    let status = std::process::Command::new("kill")
        .args(["-TERM", &router.id().to_string()])
        .status()
        .expect("run kill");
    assert!(status.success());

    let deadline = Instant::now() + Duration::from_secs(5);
    while backends.iter().any(|&pid| alive(pid)) && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(25));
    }
    let leaked: Vec<u32> = backends.iter().copied().filter(|&pid| alive(pid)).collect();
    for &pid in &leaked {
        let _ = std::process::Command::new("kill")
            .args(["-KILL", &pid.to_string()])
            .status();
    }
    assert!(
        leaked.is_empty(),
        "backends {leaked:?} outlived the router's SIGTERM"
    );
    let exit = router.wait().expect("router exits");
    assert!(exit.success(), "a SIGTERM drain exits cleanly: {exit:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `hetmem-top`'s batched stats+metrics fetch works against the router
/// and its conservation gate holds on a healthy fleet.
#[test]
fn top_snapshot_and_conservation_hold_against_the_router() {
    let handle = fleet(FleetConfig {
        backends: 2,
        ..FleetConfig::default()
    });
    let addr = handle.addr().to_string();
    for id in 1..=4u64 {
        let resp = roundtrip(&addr, &sim_request(id, "hotspot", "INTERLEAVE", 1000)).unwrap();
        assert!(resp.is_ok(), "{resp:?}");
    }
    let snap = TopSnapshot::fetch(&addr, Duration::from_secs(10)).expect("fetch via batch");
    snap.check_conservation().expect("conservation");
    assert!(snap.requests_total >= 4);

    let _ = roundtrip(&addr, &Request::new(70, "shutdown"));
    handle.wait();
}
