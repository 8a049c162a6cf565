//! fleet-mix: an open-loop and a closed-loop client against a real
//! `hetmem-fleet` router with two `hetmem-serve` backends, each its own
//! release process.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use gpusim::SimConfig;
use hetmem::{record_for, topology_for, RunBuilder};
use hetmem_bench::serve::simulate_cache_key;
use hetmem_harness::json::JsonValue;
use hetmem_harness::metrics::{bucket_bounds, bucket_index};
use hetmem_harness::rng::mix;
use hetmem_harness::{HashRing, Request, Response, SplitMix64, DEFAULT_VNODES};
use mempolicy::Mempolicy;
use workloads::catalog;

use crate::report::{peak_rss_mb, Outcome, Samples};
use crate::spans::Tracer;
use crate::Args;

pub const NAME: &str = "fleet-mix";

/// Router and backend flags, sized for two cores: one simulation shard
/// per backend and two forwarding workers in the router.
const BACKENDS: usize = 2;
const FLEET_FLAGS: [&str; 10] = [
    "--backends",
    "2",
    "--shards",
    "1",
    "--workers",
    "4",
    "--queue-depth",
    "64",
    "--cache",
    "128",
];
/// Phase 1 offered load, requests per second, and its class mix.
const RATE_PER_S: f64 = 800.0;
const SIM_SHARE: f64 = 0.10;
/// Every `SIM_REPEAT_EVERY`-th simulate repeats an earlier key.
const SIM_REPEAT_EVERY: usize = 4;
/// A repeat picks among the keys this many to this many distinct keys
/// back, so its first copy has long been answered and cached.
const REPEAT_WINDOW: (usize, usize) = (4, 12);
const SIM_WORKLOADS: [&str; 3] = ["hotspot", "bfs", "sgemm"];
const SIM_POLICIES: [&str; 2] = ["LOCAL", "BW-AWARE"];
const SIM_OPS: u64 = 2_000;
const SIM_SMS: u64 = 2;
/// Share of the run spent in phase 1; phase 2 gets the rest.
const PHASE1_SHARE: f64 = 0.6;
/// Place requests each phase-2 connection keeps in flight.
const CLOSED_DEPTH: usize = 8;
const SETUP_REPS: usize = 3;
/// Simulate replies compared byte for byte against a local run.
const BYTE_MATCH_SAMPLE: usize = 4;
/// Place requests timed through the router and directly (traced run).
const HOP_PAIRS: usize = 1_000;
/// The serve phases whose p50 the traced run reads from each backend.
/// `encode` is left out: it takes under the backend's 1 µs resolution,
/// so from outside its p50 only reads as half a microsecond.
const SERVE_PHASES: [&str; 6] = [
    "read",
    "decode",
    "queue_wait",
    "cache_lookup",
    "execute",
    "write",
];
const IO_TIMEOUT: Duration = Duration::from_secs(30);
const EXIT_GRACE: Duration = Duration::from_secs(5);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Place,
    Simulate,
}

/// One request of the open-loop schedule.
struct Planned {
    due: Duration,
    class: Class,
    line: String,
    params: JsonValue,
}

fn params(pairs: Vec<(&str, JsonValue)>) -> JsonValue {
    JsonValue::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn num(v: u64) -> JsonValue {
    JsonValue::Num(v as f64)
}

/// A `place` request, in catalog or raw-`sizes` form alternately.
fn place_params(rng: &mut SplitMix64, names: &[&'static str]) -> JsonValue {
    let capacity = num(5 + rng.next_u64() % 96);
    if rng.next_u64().is_multiple_of(2) {
        let w = names[(rng.next_u64() % names.len() as u64) as usize];
        params(vec![
            ("workload", JsonValue::Str(w.into())),
            ("capacity_pct", capacity),
        ])
    } else {
        let k = 3 + (rng.next_u64() % 6) as usize;
        let sizes = (0..k)
            .map(|_| num((1 + rng.next_u64() % 512) << 20))
            .collect();
        let hotness = (0..k)
            .map(|_| JsonValue::Num((1 + rng.next_u64() % 1000) as f64 / 100.0))
            .collect();
        params(vec![
            ("sizes", JsonValue::Array(sizes)),
            ("hotness", JsonValue::Array(hotness)),
            ("capacity_pct", capacity),
        ])
    }
}

fn simulate_params(workload: &str, policy: &str, seed: u64) -> JsonValue {
    params(vec![
        ("workload", JsonValue::Str(workload.into())),
        ("policy", JsonValue::Str(policy.into())),
        ("mem_ops", num(SIM_OPS)),
        ("sms", num(SIM_SMS)),
        ("seed", num(seed)),
    ])
}

/// The seeded phase-1 schedule: exponential gaps at [`RATE_PER_S`],
/// [`SIM_SHARE`] simulate requests of which every
/// [`SIM_REPEAT_EVERY`]-th repeats a recent key. Built before the timed
/// phase, with every line already encoded.
fn plan(seed: u64, seconds: f64, first_id: u64) -> Vec<Planned> {
    let mut rng = SplitMix64::new(mix(seed ^ 0xF1EE7));
    let names = catalog::names();
    let mut keys: Vec<(usize, usize, u64)> = Vec::new();
    let mut sims = 0usize;
    let mut t = 0.0f64;
    let mut out = Vec::new();
    loop {
        let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        t += -(1.0 - u).ln() / RATE_PER_S;
        if t >= seconds {
            break;
        }
        let is_sim = (rng.next_u64() % 1000) as f64 / 1000.0 < SIM_SHARE;
        let (class, op, p) = if is_sim {
            sims += 1;
            let (wi, pi, s) =
                if sims.is_multiple_of(SIM_REPEAT_EVERY) && keys.len() > REPEAT_WINDOW.0 {
                    let back = REPEAT_WINDOW.0
                        + (rng.next_u64() as usize) % (REPEAT_WINDOW.1 - REPEAT_WINDOW.0);
                    keys[keys.len() - 1 - back.min(keys.len() - 1)]
                } else {
                    let k = (
                        (rng.next_u64() % SIM_WORKLOADS.len() as u64) as usize,
                        (rng.next_u64() % SIM_POLICIES.len() as u64) as usize,
                        rng.next_u64() >> 16,
                    );
                    keys.push(k);
                    k
                };
            (
                Class::Simulate,
                "simulate",
                simulate_params(SIM_WORKLOADS[wi], SIM_POLICIES[pi], s),
            )
        } else {
            (Class::Place, "place", place_params(&mut rng, &names))
        };
        let id = first_id + out.len() as u64;
        let mut line = Request::with_params(id, op, p.clone()).encode();
        line.push('\n');
        out.push(Planned {
            due: Duration::from_secs_f64(t),
            class,
            line,
            params: p,
        });
    }
    out
}

/// The key the router routes a request by.
fn route_key(op: &str, params: &JsonValue) -> String {
    if op == "simulate" {
        if let Ok(key) = simulate_cache_key(params) {
            return key;
        }
    }
    format!("{op}:{}", params.render())
}

/// The `simulate` reply a server must give for `params`: the same point
/// run locally through `RunBuilder` and rendered as its telemetry record.
fn expected_simulate_line(id: u64, params: &JsonValue) -> String {
    let get = |k: &str| params.get(k).expect("planned param");
    let mut spec = catalog::by_name(get("workload").as_str().expect("name")).expect("catalog");
    spec.mem_ops = get("mem_ops").as_u64().expect("mem_ops");
    spec.seed = get("seed").as_u64().expect("seed");
    let mut sim = SimConfig::paper_baseline();
    sim.num_sms = get("sms").as_u64().expect("sms") as u32;
    let topo = topology_for(&sim, &vec![1; sim.pools.len()]);
    let policy = Mempolicy::parse(get("policy").as_str().expect("policy"), &topo).expect("policy");
    let label = policy.name();
    let run = RunBuilder::new(&spec, &sim)
        .placement(&hetmem::Placement::Policy(policy))
        .run();
    Response::ok(
        id,
        record_for("serve", spec.name, &label, &sim, &run).jsonl(false),
    )
    .encode()
}

fn connect(addr: SocketAddr) -> Result<TcpStream, String> {
    let s = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    s.set_nodelay(true).map_err(|e| e.to_string())?;
    s.set_read_timeout(Some(IO_TIMEOUT))
        .map_err(|e| e.to_string())?;
    Ok(s)
}

/// One blocking round trip on `conn`.
fn call(conn: &mut BufReader<TcpStream>, line: &str) -> Result<String, String> {
    conn.get_mut()
        .write_all(line.as_bytes())
        .map_err(|e| e.to_string())?;
    let mut reply = String::new();
    match conn.read_line(&mut reply) {
        Ok(0) => Err("connection closed".into()),
        Ok(_) => Ok(reply),
        Err(e) => Err(e.to_string()),
    }
}

fn result_of(reply: &str) -> Result<JsonValue, String> {
    match Response::decode(reply.trim_end()) {
        Ok(Response::Ok { result, .. }) => JsonValue::parse(&result).map_err(|e| e.to_string()),
        Ok(Response::Err { code, message, .. }) => Err(format!("{code}: {message}")),
        Err(e) => Err(e.to_string()),
    }
}

fn op_line(id: u64, op: &str) -> String {
    let mut line = Request::new(id, op).encode();
    line.push('\n');
    line
}

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
}

const SIGKILL: i32 = 9;

/// Whether `pid` is a live (non-zombie) process.
fn alive(pid: u32) -> bool {
    match std::fs::read_to_string(format!("/proc/{pid}/stat")) {
        Ok(stat) => stat
            .rsplit_once(')')
            .and_then(|(_, rest)| rest.split_whitespace().next())
            .is_some_and(|state| state != "Z"),
        Err(_) => false,
    }
}

/// Live processes whose parent is `parent`.
fn children_of(parent: u32) -> Vec<u32> {
    let Ok(dir) = std::fs::read_dir("/proc") else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for entry in dir.flatten() {
        let Ok(pid) = entry.file_name().to_string_lossy().parse::<u32>() else {
            continue;
        };
        let Ok(stat) = std::fs::read_to_string(format!("/proc/{pid}/stat")) else {
            continue;
        };
        let ppid = stat
            .rsplit_once(')')
            .and_then(|(_, rest)| rest.split_whitespace().nth(1))
            .and_then(|p| p.parse::<u32>().ok());
        if ppid == Some(parent) && alive(pid) {
            out.push(pid);
        }
    }
    out
}

/// A running router and its backends. Dropping it kills whatever is
/// still alive, so no process outlives the benchmark on any path.
struct Fleet {
    router: Child,
    /// Held open so the router's last line never meets a closed pipe.
    _stdout: BufReader<ChildStdout>,
    addr: SocketAddr,
    backends: Vec<u32>,
}

impl Fleet {
    /// Spawns the router and reads its listening line; the router binds
    /// and starts its backends before printing it.
    fn spawn(bin_dir: &Path, tmp: &Path) -> Result<Fleet, String> {
        let bin = bin_dir.join("hetmem-fleet");
        let mut router = Command::new(&bin)
            .args(FLEET_FLAGS)
            .args(["--addr", "127.0.0.1:0"])
            .arg("--serve-bin")
            .arg(bin_dir.join("hetmem-serve"))
            .env("TMPDIR", tmp)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(router.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = line
            .strip_prefix("hetmem-fleet listening on ")
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|a| a.parse().ok());
        let mut fleet = Fleet {
            backends: children_of(router.id()),
            router,
            _stdout: stdout,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        match (read, addr) {
            (Ok(_), Some(addr)) if fleet.backends.len() == BACKENDS => {
                fleet.addr = addr;
                Ok(fleet)
            }
            (Ok(_), Some(_)) => Err(format!(
                "router reports ready with {} live backends, not {BACKENDS}",
                fleet.backends.len()
            )),
            _ => Err(format!(
                "router did not report its address (got '{}')",
                line.trim()
            )),
        }
    }

    /// Sends `shutdown` and gives the router, then its backends,
    /// [`EXIT_GRACE`] each to exit. Returns the backends that outlived
    /// the router; dropping `self` then kills them.
    fn shutdown(mut self) -> Result<Vec<u32>, String> {
        let mut conn = BufReader::new(connect(self.addr)?);
        let reply = call(&mut conn, &op_line(1, "shutdown"))?;
        result_of(&reply).map_err(|e| format!("shutdown refused: {e}"))?;
        drop(conn);
        let deadline = Instant::now() + EXIT_GRACE;
        let status = loop {
            match self.router.try_wait().map_err(|e| e.to_string())? {
                Some(status) => break status,
                None if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(10)),
                None => {
                    return Err(format!(
                        "router still running {EXIT_GRACE:?} after shutdown"
                    ))
                }
            }
        };
        if !status.success() {
            return Err(format!("router exited with {status}"));
        }
        let deadline = Instant::now() + EXIT_GRACE;
        let mut leaked: Vec<u32> = self
            .backends
            .iter()
            .copied()
            .filter(|&p| alive(p))
            .collect();
        while !leaked.is_empty() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(20));
            leaked.retain(|&p| alive(p));
        }
        Ok(leaked)
    }

    fn peak_rss_mb(&self) -> f64 {
        std::iter::once(self.router.id())
            .chain(self.backends.iter().copied())
            .map(|pid| peak_rss_mb(&pid.to_string()).unwrap_or(f64::NAN))
            .sum()
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        if let Ok(None) = self.router.try_wait() {
            let _ = self.router.kill();
            let _ = self.router.wait();
        }
        for &pid in &self.backends {
            if alive(pid) {
                // SAFETY: `kill` only signals; `pid` is a backend this
                // run observed as a child of its own router and that is
                // still alive, so no unrelated process is targeted.
                unsafe {
                    kill(pid as i32, SIGKILL);
                }
            }
        }
        // The backends are the router's children, so this process cannot
        // reap them; it waits until each is gone or a zombie.
        let deadline = Instant::now() + EXIT_GRACE;
        while self.backends.iter().any(|&pid| alive(pid)) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}

/// Router `stats`, parsed.
fn stats(addr: SocketAddr) -> Result<JsonValue, String> {
    let mut conn = BufReader::new(connect(addr)?);
    result_of(&call(&mut conn, &op_line(1, "stats"))?)
}

fn u64_at(v: &JsonValue, path: &[&str]) -> u64 {
    let mut cur = v;
    for key in path {
        match cur.get(key) {
            Some(next) => cur = next,
            None => return 0,
        }
    }
    cur.as_u64().unwrap_or(0)
}

/// One warm-up `simulate` per backend, each keyed onto its backend.
fn warm_up(addr: SocketAddr) -> Result<(), String> {
    let ring = HashRing::new(BACKENDS, DEFAULT_VNODES);
    let mut conn = BufReader::new(connect(addr)?);
    let mut covered = [false; BACKENDS];
    let mut seed = 1u64 << 40;
    while covered.iter().any(|c| !c) {
        let p = simulate_params(SIM_WORKLOADS[0], SIM_POLICIES[0], seed);
        let owner = ring.route(&route_key("simulate", &p));
        if !covered[owner] {
            let line = format!("{}\n", Request::with_params(1, "simulate", p).encode());
            result_of(&call(&mut conn, &line)?).map_err(|e| format!("warm-up: {e}"))?;
            covered[owner] = true;
        }
        seed += 1;
    }
    Ok(())
}

/// Phase 1's raw observations.
struct OpenLoop {
    start: Instant,
    /// Per request: send time and (receive time, reply line).
    sent: Vec<Duration>,
    replies: Vec<Option<(Duration, String)>>,
    /// Receive-path decode spans (traced run only).
    decode_spans: Vec<(Instant, f64)>,
}

/// Phase 1: one connection, this thread sends on the schedule and a
/// receiver thread timestamps every reply and matches it by id.
fn open_loop(
    addr: SocketAddr,
    plan: &[Planned],
    first_id: u64,
    traced: bool,
) -> Result<OpenLoop, String> {
    let stream = connect(addr)?;
    let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
    let n = plan.len();
    let start = Instant::now();
    let (sent, received) = std::thread::scope(|scope| {
        let receiver = scope.spawn(move || {
            let mut reader = BufReader::new(stream);
            let mut replies: Vec<Option<(Duration, String)>> = vec![None; n];
            let mut decode_spans = Vec::new();
            for _ in 0..n {
                let mut line = String::new();
                match reader.read_line(&mut line) {
                    Ok(0) | Err(_) => break,
                    Ok(_) => {}
                }
                let at = start.elapsed();
                let id = if traced {
                    let t = Instant::now();
                    let id = Response::decode(line.trim_end()).map(|r| r.id()).ok();
                    decode_spans.push((t, t.elapsed().as_nanos() as f64));
                    id
                } else {
                    reply_id(&line)
                };
                if let Some(slot) = id
                    .and_then(|id| id.checked_sub(first_id))
                    .and_then(|i| replies.get_mut(i as usize))
                {
                    *slot = Some((at, line));
                }
            }
            (replies, decode_spans)
        });
        let mut sent = Vec::with_capacity(n);
        for p in plan {
            let now = start.elapsed();
            if p.due > now {
                std::thread::sleep(p.due - now);
            }
            sent.push(start.elapsed());
            if writer.write_all(p.line.as_bytes()).is_err() {
                break;
            }
        }
        (sent, receiver.join())
    });
    let (replies, decode_spans) = received.map_err(|_| "receiver thread panicked".to_string())?;
    Ok(OpenLoop {
        start,
        sent,
        replies,
        decode_spans,
    })
}

/// The `id` of a reply line without a full parse: replies start
/// `{"id":<n>,`.
fn reply_id(line: &str) -> Option<u64> {
    let rest = line.strip_prefix("{\"id\":")?;
    let end = rest.find(|c: char| !c.is_ascii_digit())?;
    rest[..end].parse().ok()
}

fn reply_ok(line: &str) -> bool {
    line.contains("\"ok\":true")
}

/// Phase 2: two connections, each on its own thread keeping
/// [`CLOSED_DEPTH`] `place` requests in flight. Returns completions,
/// failures and the measured window.
fn closed_loop(addr: SocketAddr, seed: u64, seconds: f64) -> Result<(u64, u64, f64), String> {
    let names = catalog::names();
    let conns = [connect(addr)?, connect(addr)?];
    let lines: Vec<Vec<String>> = (0..conns.len())
        .map(|c| {
            let mut rng = SplitMix64::new(mix(seed ^ 0xC105ED ^ c as u64));
            (0..1024)
                .map(|i| {
                    let mut l =
                        Request::with_params(i + 1, "place", place_params(&mut rng, &names))
                            .encode();
                    l.push('\n');
                    l
                })
                .collect()
        })
        .collect();
    let window = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let results: Vec<Result<(u64, u64), String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .into_iter()
            .zip(&lines)
            .map(|(stream, lines)| {
                scope.spawn(move || -> Result<(u64, u64), String> {
                    let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
                    let mut reader = BufReader::new(stream);
                    let mut next = 0usize;
                    let mut send = |w: &mut TcpStream| {
                        let r = w.write_all(lines[next % lines.len()].as_bytes());
                        next += 1;
                        r.map_err(|e| e.to_string())
                    };
                    for _ in 0..CLOSED_DEPTH {
                        send(&mut writer)?;
                    }
                    let (mut done, mut failed, mut in_flight) = (0u64, 0u64, CLOSED_DEPTH);
                    let mut line = String::new();
                    while in_flight > 0 {
                        line.clear();
                        if reader.read_line(&mut line).map_err(|e| e.to_string())? == 0 {
                            return Err("connection closed in phase 2".into());
                        }
                        in_flight -= 1;
                        if start.elapsed() < window {
                            done += 1;
                            if !reply_ok(&line) {
                                failed += 1;
                            }
                            send(&mut writer)?;
                            in_flight += 1;
                        }
                    }
                    Ok((done, failed))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("phase-2 thread panicked".into()))
            })
            .collect()
    });
    let (mut done, mut failed) = (0, 0);
    for r in results {
        let (d, f) = r?;
        done += d;
        failed += f;
    }
    Ok((done, failed, window.as_secs_f64()))
}

/// Phase-1 latencies split by class and checked.
struct Phase1 {
    place_ms: Samples,
    sim_ms: Samples,
    late_ms: Samples,
}

fn score_open_loop(out: &mut Outcome, plan: &[Planned], ol: &OpenLoop) -> Phase1 {
    let mut r = Phase1 {
        place_ms: Samples::default(),
        sim_ms: Samples::default(),
        late_ms: Samples::default(),
    };
    for (i, p) in plan.iter().enumerate() {
        if let Some(s) = ol.sent.get(i) {
            r.late_ms.push(s.saturating_sub(p.due).as_secs_f64() * 1e3);
        }
        match &ol.replies[i] {
            Some((at, line)) if reply_ok(line) => {
                let ms = at.saturating_sub(p.due).as_secs_f64() * 1e3;
                match p.class {
                    Class::Place => r.place_ms.push(ms),
                    Class::Simulate => r.sim_ms.push(ms),
                }
                out.op(true, String::new);
            }
            Some((_, line)) => out.op(false, || format!("request {i} failed: {}", line.trim())),
            None => out.op(false, || format!("request {i} got no reply")),
        }
    }
    r
}

/// Compares a seeded sample of distinct `simulate` replies byte for
/// byte with the same requests run locally.
fn byte_match(out: &mut Outcome, plan: &[Planned], ol: &OpenLoop, seed: u64, first_id: u64) {
    let mut seen = std::collections::BTreeSet::new();
    let mut candidates: Vec<usize> = plan
        .iter()
        .enumerate()
        .filter(|(_, p)| p.class == Class::Simulate && seen.insert(p.params.render()))
        .map(|(i, _)| i)
        .collect();
    let mut rng = SplitMix64::new(mix(seed ^ 0xB17E));
    for _ in 0..BYTE_MATCH_SAMPLE.min(candidates.len()) {
        let i = candidates.swap_remove((rng.next_u64() % candidates.len() as u64) as usize);
        let want = expected_simulate_line(first_id + i as u64, &plan[i].params);
        let got = ol.replies[i].as_ref().map(|(_, l)| l.trim_end());
        out.op(got == Some(want.as_str()), || {
            format!("simulate reply {i} differs from the local run: got {got:?}, want {want}")
        });
    }
}

/// The p50 of one serve phase histogram series, in µs. The backend
/// records whole microseconds, truncated, into log buckets; the p50 is
/// interpolated linearly over the bucket holding the median rank, each
/// record standing for its value up to the next microsecond.
fn interpolated_p50(series: &JsonValue) -> Option<f64> {
    let count = series.get("count")?.as_u64()?;
    let rank = count as f64 / 2.0;
    let mut below = 0.0;
    for bucket in series.get("buckets")?.as_array()? {
        let le = bucket.get("le")?.as_u64()?;
        let cum = bucket.get("cum")?.as_u64()? as f64;
        if cum >= rank && cum > below {
            let (lo, hi) = bucket_bounds(bucket_index(le));
            let width = (hi - lo + 1) as f64;
            return Some(lo as f64 + width * (rank - below) / (cum - below));
        }
        below = cum;
    }
    None
}

/// Each serve phase's p50 in µs, read from every backend's `metrics` op
/// and reduced to the nearest-rank median across backends.
fn serve_phase_p50(backend_addrs: &[SocketAddr]) -> Result<Vec<(&'static str, f64)>, String> {
    let mut per_phase: Vec<Samples> = vec![Samples::default(); SERVE_PHASES.len()];
    for &addr in backend_addrs {
        let mut conn = BufReader::new(connect(addr)?);
        let m = result_of(&call(&mut conn, &op_line(1, "metrics"))?)?;
        let families = m
            .get("metrics")
            .and_then(JsonValue::as_array)
            .unwrap_or(&[]);
        let phases = families
            .iter()
            .find(|f| f.get("name").and_then(JsonValue::as_str) == Some("hm_phase_duration_us"));
        for series in phases
            .and_then(|f| f.get("series"))
            .and_then(JsonValue::as_array)
            .unwrap_or(&[])
        {
            let phase = series
                .get("labels")
                .and_then(|l| l.get("phase"))
                .and_then(JsonValue::as_str);
            let i = SERVE_PHASES.iter().position(|p| Some(*p) == phase);
            if let (Some(i), Some(p50)) = (i, interpolated_p50(series)) {
                per_phase[i].push(p50);
            }
        }
    }
    Ok(SERVE_PHASES
        .iter()
        .zip(per_phase)
        .map(|(name, s)| (*name, s.median().unwrap_or(f64::NAN)))
        .collect())
}

/// Router hop: seeded `place` requests timed through the router and
/// directly at the backend that owns them, alternating which goes
/// first; the hop is the difference, in µs.
fn hop_us(router: SocketAddr, backends: &[SocketAddr], seed: u64) -> Result<Samples, String> {
    let ring = HashRing::new(BACKENDS, DEFAULT_VNODES);
    let names = catalog::names();
    let mut rng = SplitMix64::new(mix(seed ^ 0x4095));
    let mut via = BufReader::new(connect(router)?);
    let mut direct: Vec<BufReader<TcpStream>> = backends
        .iter()
        .map(|&a| connect(a).map(BufReader::new))
        .collect::<Result<_, _>>()?;
    let mut hops = Samples::default();
    for i in 0..HOP_PAIRS {
        let p = place_params(&mut rng, &names);
        let owner = ring.route(&route_key("place", &p));
        let line = format!(
            "{}\n",
            Request::with_params(i as u64 + 1, "place", p).encode()
        );
        let time = |conn: &mut BufReader<TcpStream>| -> Result<f64, String> {
            let t = Instant::now();
            let reply = call(conn, &line)?;
            let us = t.elapsed().as_secs_f64() * 1e6;
            if reply_ok(&reply) {
                Ok(us)
            } else {
                Err(format!("hop probe failed: {}", reply.trim()))
            }
        };
        let (r, d) = if i % 2 == 0 {
            let r = time(&mut via)?;
            (r, time(&mut direct[owner])?)
        } else {
            let d = time(&mut direct[owner])?;
            (time(&mut via)?, d)
        };
        hops.push(r - d);
    }
    Ok(hops)
}

/// Spawns a fleet and warms it: spawn to ready plus one warm-up request
/// per backend, timed.
fn set_up(args: &Args, tmp: &Path) -> Result<(Fleet, f64), String> {
    let t = Instant::now();
    let fleet = Fleet::spawn(&args.bin_dir, tmp)?;
    warm_up(fleet.addr)?;
    Ok((fleet, t.elapsed().as_secs_f64()))
}

fn finish(out: &mut Outcome, fleet: Fleet) {
    match fleet.shutdown() {
        Ok(leaked) => {
            for pid in &leaked {
                out.op(false, || {
                    format!("hetmem-serve {pid} outlived its router's shutdown")
                });
            }
        }
        Err(e) => out.check(false, || format!("shutdown: {e}")),
    }
}

/// fleet-mix. Untraced (`traced == None`) it reports the end-to-end
/// metrics; traced it reports the client, harness, serve and fleet layer
/// metrics and the tracing overhead on phase-1 `place` latency.
pub fn run(args: &Args, traced: Option<(&mut Tracer, Duration)>) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let tmp = args.out_dir.join("tmp");
    std::fs::create_dir_all(&tmp).map_err(|e| format!("cannot create {}: {e}", tmp.display()))?;
    let seconds = traced
        .as_ref()
        .map_or(args.seconds, |(_, s)| *s)
        .as_secs_f64();
    let phase1_s = seconds * PHASE1_SHARE;
    let phase2_s = seconds - phase1_s;

    let Some((tracer, _)) = traced else {
        let mut setup_s = Samples::default();
        let mut kept = None;
        for rep in 0..SETUP_REPS {
            let (fleet, s) = set_up(args, &tmp)?;
            setup_s.push(s);
            if rep + 1 < SETUP_REPS {
                finish(&mut out, fleet);
            } else {
                kept = Some(fleet);
            }
        }
        let fleet = kept.expect("at least one set-up");
        let first_id = 100;
        let plan = plan(args.seed, phase1_s, first_id);
        out.note(format!(
            "workload {NAME} seed {} inputs {:016x}",
            args.seed,
            inputs_fingerprint(&plan)
        ));
        let before = stats(fleet.addr)?;
        let ol = open_loop(fleet.addr, &plan, first_id, false)?;
        let after = stats(fleet.addr)?;
        let p1 = score_open_loop(&mut out, &plan, &ol);
        let (done, failed, window) = closed_loop(fleet.addr, args.seed, phase2_s)?;
        for _ in 0..failed {
            out.op(false, || "phase-2 place request failed".into());
        }
        out.attempted += done - failed;
        let rss = fleet.peak_rss_mb();
        byte_match(&mut out, &plan, &ol, args.seed, first_id);
        let end = stats(fleet.addr)?;
        out.check(u64_at(&end, &["overloaded"]) == 0, || {
            "router shed requests as overloaded".into()
        });
        finish(&mut out, fleet);

        out.pct_metric("setup_s", &setup_s, 0.5, "s");
        out.pct_metric("place_p50_ms", &p1.place_ms, 0.5, "ms");
        out.pct_metric("place_p99_ms", &p1.place_ms, 0.99, "ms");
        out.pct_metric("sim_p50_ms", &p1.sim_ms, 0.5, "ms");
        out.pct_metric("sim_p90_ms", &p1.sim_ms, 0.9, "ms");
        out.metric("place_rps", done as f64 / window, "1/s");
        out.metric("peak_rss_mb", rss, "MB");
        describe_mix(&mut out, &plan, &p1, &before, &after);
        out.note(format!(
            "phase 2: {done} place replies in {window:.3} s on 2 connections x {CLOSED_DEPTH} in flight"
        ));
        return Ok(out);
    };

    tracer.set_track(3);
    let (fleet, _) = set_up(args, &tmp)?;
    let half = phase1_s / 2.0;
    let first_id = 100;
    let plan_a = plan(args.seed, half, first_id);
    let first_b = first_id + plan_a.len() as u64;
    let plan_b = plan(args.seed ^ 0x7ACED, half, first_b);
    for p in plan_a.iter().chain(&plan_b) {
        let req = Request::decode(p.line.trim_end()).map_err(|e| e.to_string())?;
        tracer.span("harness.encode", |_| std::hint::black_box(req.encode()));
    }
    let ring = HashRing::new(BACKENDS, DEFAULT_VNODES);
    let keys: Vec<String> = plan_a
        .iter()
        .chain(&plan_b)
        .map(|p| {
            route_key(
                if p.class == Class::Simulate {
                    "simulate"
                } else {
                    "place"
                },
                &p.params,
            )
        })
        .collect();
    let (_, route_ns) = tracer.span("harness.ring_route", |_| {
        for k in &keys {
            std::hint::black_box(ring.route(k));
        }
    });

    let before = stats(fleet.addr)?;
    let ol_a = open_loop(fleet.addr, &plan_a, first_id, false)?;
    let p1_a = score_open_loop(&mut out, &plan_a, &ol_a);
    let ol_b = open_loop(fleet.addr, &plan_b, first_b, true)?;
    let after = stats(fleet.addr)?;
    let p1_b = score_open_loop(&mut out, &plan_b, &ol_b);
    for &(start, ns) in &ol_b.decode_spans {
        tracer.record_at("harness.decode", start, ns);
    }
    for (p, reply) in plan_b.iter().zip(&ol_b.replies) {
        if let Some((at, _)) = reply {
            let name = match p.class {
                Class::Place => "client.place",
                Class::Simulate => "client.simulate",
            };
            let ns = at.saturating_sub(p.due).as_nanos() as f64;
            tracer.record_at(name, ol_b.start + p.due, ns);
        }
    }
    let (done, failed, _) = closed_loop(fleet.addr, args.seed, phase2_s)?;
    for _ in 0..failed {
        out.op(false, || "phase-2 place request failed".into());
    }
    out.attempted += done - failed;
    byte_match(&mut out, &plan_a, &ol_a, args.seed, first_id);
    let end = stats(fleet.addr)?;
    let backend_addrs: Vec<SocketAddr> = end
        .get("fleet")
        .and_then(|f| f.get("backends"))
        .and_then(JsonValue::as_array)
        .unwrap_or(&[])
        .iter()
        .filter_map(|b| b.get("addr").and_then(JsonValue::as_str)?.parse().ok())
        .collect();
    if backend_addrs.len() != BACKENDS {
        return Err(format!(
            "router stats list {} backend addresses",
            backend_addrs.len()
        ));
    }
    let phases = serve_phase_p50(&backend_addrs)?;
    let hops = tracer
        .span("fleet.hop_probe", |_| {
            hop_us(fleet.addr, &backend_addrs, args.seed)
        })
        .0?;
    finish(&mut out, fleet);

    let median_us = |name: &str| tracer.durations(name).median().unwrap_or(f64::NAN) / 1e3;
    out.metric("harness.encode_us", median_us("harness.encode"), "us");
    out.metric("harness.decode_us", median_us("harness.decode"), "us");
    out.metric("harness.ring_route_ns", route_ns / keys.len() as f64, "ns");
    for (phase, p50) in phases {
        out.metric(&format!("serve.{phase}_us_p50"), p50, "us");
    }
    let hits = u64_at(&end, &["cache", "hits"]);
    let misses = u64_at(&end, &["cache", "misses"]);
    out.metric(
        "serve.cache_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
    );
    out.metric(
        "serve.overloaded",
        u64_at(&end, &["overloaded"]) as f64,
        "count",
    );
    out.pct_metric("fleet.hop_us_p50", &hops, 0.5, "us");
    out.pct_metric("fleet.hop_us_p99", &hops, 0.99, "us");
    out.metric(
        "fleet.reroutes",
        u64_at(&end, &["fleet", "reroutes"]) as f64,
        "count",
    );
    let backend_errors: u64 = end
        .get("fleet")
        .and_then(|f| f.get("backends"))
        .and_then(JsonValue::as_array)
        .unwrap_or(&[])
        .iter()
        .map(|b| u64_at(b, &["errors"]))
        .sum();
    out.metric("fleet.backend_errors", backend_errors as f64, "count");
    let mut late = p1_a.late_ms.clone();
    late.extend(&p1_b.late_ms);
    out.pct_metric("client.late_ms_p99", &late, 0.99, "ms");
    out.metric(
        "client.sent",
        (ol_a.sent.len() + ol_b.sent.len()) as f64,
        "count",
    );
    let client_failed = plan_a.len() + plan_b.len()
        - p1_a.place_ms.len()
        - p1_a.sim_ms.len()
        - p1_b.place_ms.len()
        - p1_b.sim_ms.len();
    out.metric("client.failed", client_failed as f64, "count");
    let hit_share = hit_share(&before, &after);
    out.metric("client.sim_hit_share", hit_share, "ratio");
    let untraced = p1_a.place_ms.median().unwrap_or(f64::NAN);
    let traced_p50 = p1_b.place_ms.median().unwrap_or(f64::NAN);
    out.metric(
        "trace.fleet_overhead_pct",
        (traced_p50 - untraced) / untraced * 100.0,
        "%",
    );
    out.note(format!(
        "{NAME} traced: place p50 untraced {untraced:.4} ms, traced {traced_p50:.4} ms"
    ));
    Ok(out)
}

fn hit_share(before: &JsonValue, after: &JsonValue) -> f64 {
    let d = |k: &str| u64_at(after, &["cache", k]).saturating_sub(u64_at(before, &["cache", k]));
    d("hits") as f64 / (d("hits") + d("misses")).max(1) as f64
}

fn describe_mix(
    out: &mut Outcome,
    plan: &[Planned],
    p1: &Phase1,
    before: &JsonValue,
    after: &JsonValue,
) {
    let sims = plan.iter().filter(|p| p.class == Class::Simulate).count();
    out.note(format!(
        "phase 1: {} requests at {RATE_PER_S}/s offered, {} place + {sims} simulate planned; \
         {} place and {} simulate replies timed; simulate cache hit share {:.3}",
        plan.len(),
        plan.len() - sims,
        p1.place_ms.len(),
        p1.sim_ms.len(),
        hit_share(before, after)
    ));
    if let Some(p) = p1.late_ms.pct(0.99) {
        out.note(format!(
            "generator lateness p99 {:.4} ms over {} sends",
            p.value, p.n
        ));
    }
}

fn inputs_fingerprint(plan: &[Planned]) -> u64 {
    let mut h = 0u64;
    for p in plan {
        h = mix(h ^ hetmem_harness::fnv1a(p.line.as_bytes()) ^ p.due.as_nanos() as u64);
    }
    h
}
