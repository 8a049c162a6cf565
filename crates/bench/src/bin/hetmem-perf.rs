//! `hetmem-perf`: simulator-throughput benchmark and regression gate.
//!
//! Runs a fixed, seeded workload × policy matrix on the in-tree timing
//! loop ([`hetmem_harness::timing::bench`]) and records, per grid
//! point, the deterministic work done (memory ops, engine events,
//! simulated cycles) and the wall time to do it — min/mean plus p50/p99
//! iteration tails — giving mem-ops/sec, events/sec and
//! sim-cycles/sec, the throughput numbers the benchmark trajectory
//! (`BENCH_*.json`) tracks. Memory ops are the work-invariant measure:
//! an engine change that merges events does the same simulated work in
//! fewer events, so events/sec no longer compares across it.
//!
//! ```text
//! hetmem-perf run [--quick] [--migrate] [--label L] [--out FILE] [--iters N]
//!                 [--mem-ops N] [--sms N] [--workloads a,b] [--policies p,q]
//! hetmem-perf fidelity [--quick] [--label L] [--out FILE] [--iters N]
//!                      [--mem-ops N] [--sms N] [--workloads a,b] [--policy P]
//!                      [--min-speedup X] [--max-error PCT] [--min-pass N]
//! hetmem-perf serve [--conns N] [--reqs N] [--depth N] [--fleet N] [--out FILE]
//!                   [--max-overhead X]
//! hetmem-perf gate --baseline FILE --current FILE
//!                  [--max-regress 0.30] [--min-speedup X]
//! hetmem-perf report --baseline FILE --current FILE --out FILE
//! ```
//!
//! * `run` measures the matrix and writes one JSON document (a
//!   "section": label, matrix, per-point results, aggregate rates).
//! * `fidelity` runs each matrix workload at full fidelity and again
//!   with `Fidelity::Sampled` (default fast-forward schedule) and
//!   records, per workload, the wall-clock `speedup_x` and the
//!   achieved-bandwidth `error_pct` of the sampled run against the
//!   full one — the two numbers BENCH_0009 tracks. `--min-speedup` /
//!   `--max-error` mark each workload pass/fail, and the gate exits 4
//!   when fewer than `--min-pass` workloads (default: all) pass both.
//! * `serve` measures front-end throughput: `--conns` loopback
//!   connections each pipeline `--reqs` cheap `stats` requests at
//!   `--depth` in-flight lines per socket against an in-process
//!   `hetmem-serve` and emits one section with `requests_per_sec`.
//!   With `--fleet N` it instead measures routing
//!   overhead: the same forwarded-op (`place`) workload runs against
//!   one `hetmem-serve` process (`baseline`) and then through a
//!   `hetmem-fleet` router fronting N supervised backends
//!   (`current`), and the report's `overhead_x` is single÷fleet
//!   (expected > 1 — the extra hop is the price of failover);
//!   `--max-overhead` turns that into a gate (exit 4). `serve` is
//!   unix-only, like the server and the router.
//! * `gate` compares two sections and exits 4 if the current aggregate
//!   events/sec regressed by more than `--max-regress` (default 0.30,
//!   the CI smoke threshold) — or, with `--min-speedup`, if current is
//!   not at least that factor faster than baseline.
//! * `report` embeds both sections plus the speedup summary
//!   (`speedup_events_per_sec`, and `speedup_mem_ops_per_sec` when
//!   both sections carry `mem_ops_per_sec`) into one document — the
//!   format committed as `BENCH_NNNN.json`.
//!
//! Exit codes: 0 ok, 2 usage error, 4 gate failure.

#[cfg(unix)]
use std::io::{BufRead, BufReader, Write};
#[cfg(unix)]
use std::net::TcpStream;
use std::process::ExitCode;
#[cfg(unix)]
use std::sync::{Arc, Barrier};
#[cfg(unix)]
use std::time::Instant;

use gpusim::{Fidelity, SampleConfig, SimConfig};
use hetmem::{check_fidelity, topology_for, Placement, RunBuilder};
use hetmem_bench::cli::Args;
#[cfg(unix)]
use hetmem_bench::serve::{roundtrip, start, ServeConfig};
use hetmem_harness::json::{array, JsonObject, JsonValue};
use hetmem_harness::timing::bench;
#[cfg(unix)]
use hetmem_harness::Request;
use mempolicy::Mempolicy;
use workloads::catalog;

/// The default fixed matrix: a pattern mix (graph, stencil, streaming,
/// dense, sparse, table-lookup) under the two placement extremes.
const DEFAULT_WORKLOADS: &[&str] = &["bfs", "hotspot", "lbm", "sgemm", "spmv", "xsbench"];
const DEFAULT_POLICIES: &[&str] = &["LOCAL", "BW-AWARE"];
/// The opt-in `--migrate` scenario: an eager online-migration point
/// measuring the engine's epoch walks, copy bursts, and remap stalls.
/// Opt-in (not in `DEFAULT_POLICIES`) so sections stay comparable with
/// trajectory entries recorded before the engine existed. Uses `+`
/// separators because `--policies` splits its list on commas.
const MIGRATE_POLICY: &str = "MIGRATE:epoch=20000+hot=4";
const DEFAULT_MEM_OPS: u64 = 400_000;
const DEFAULT_ITERS: u64 = 3;

/// The matrix flags `run` and `fidelity` share.
struct Matrix {
    label: String,
    out: Option<String>,
    workloads: Vec<String>,
    mem_ops: u64,
    sms: u32,
    iters: u64,
}

impl Matrix {
    fn new(mem_ops: u64) -> Self {
        Self {
            label: "current".to_string(),
            out: None,
            workloads: DEFAULT_WORKLOADS.iter().map(|s| s.to_string()).collect(),
            mem_ops,
            sms: SimConfig::paper_baseline().num_sms,
            iters: DEFAULT_ITERS,
        }
    }

    /// `--quick`: two workloads of `mem_ops` each on 4 SMs, 2 iterations.
    fn quick(&mut self, mem_ops: u64) {
        self.workloads = vec!["bfs".to_string(), "hotspot".to_string()];
        self.mem_ops = mem_ops;
        self.sms = 4;
        self.iters = 2;
    }

    /// Applies one shared flag; any other flag is unknown.
    fn flag(&mut self, flag: &str, args: &mut Args) -> Result<(), String> {
        match flag {
            "--label" => self.label = args.value()?,
            "--out" => self.out = Some(args.value()?),
            "--iters" => self.iters = args.parse()?,
            "--mem-ops" => self.mem_ops = args.parse()?,
            "--sms" => self.sms = args.parse()?,
            "--workloads" => self.workloads = args.list()?,
            _ => return Err(args.unknown()),
        }
        Ok(())
    }
}

struct RunOpts {
    matrix: Matrix,
    policies: Vec<String>,
}

fn fail(msg: &str) -> ExitCode {
    eprintln!("hetmem-perf: {msg}");
    ExitCode::from(2)
}

fn run_matrix(opts: &RunOpts) -> Result<String, String> {
    let m = &opts.matrix;
    let mut sim = SimConfig::paper_baseline();
    sim.num_sms = m.sms;
    let topo = topology_for(&sim, &vec![1; sim.pools.len()]);

    let mut points = Vec::new();
    let mut total_events = 0u64;
    let mut total_mem_ops = 0u64;
    let mut total_cycles = 0u64;
    let mut total_min_ns = 0.0f64;
    let mut total_mean_ns = 0.0f64;
    let mut total_p50_ns = 0.0f64;
    let mut total_p99_ns = 0.0f64;
    for name in &m.workloads {
        let mut spec = catalog::by_name(name).ok_or_else(|| format!("unknown workload {name}"))?;
        spec.mem_ops = m.mem_ops;
        for policy in &opts.policies {
            let pol =
                Mempolicy::parse(policy, &topo).map_err(|e| format!("policy {policy}: {e}"))?;
            let placement = Placement::Policy(pol);
            let builder = RunBuilder::new(&spec, &sim).placement(&placement);
            // One untimed run pins the deterministic work measure.
            let run = builder.run();
            let events = run.engine.events_processed;
            let mem_ops = run.report.mem_ops;
            let cycles = run.report.cycles;
            let res = bench(&format!("{name}/{policy}"), m.iters, || builder.run());
            total_events += events;
            total_mem_ops += mem_ops;
            total_cycles += cycles;
            total_min_ns += res.min_ns;
            total_mean_ns += res.mean_ns;
            total_p50_ns += res.p50_ns;
            total_p99_ns += res.p99_ns;
            points.push(
                JsonObject::new()
                    .str("workload", name)
                    .str("policy", policy)
                    .u64("events", events)
                    .u64("mem_ops", mem_ops)
                    .u64("cycles", cycles)
                    .u64("iters", res.iters)
                    .f64("wall_ms_min", res.min_ns / 1e6)
                    .f64("wall_ms_mean", res.mean_ns / 1e6)
                    .f64("wall_ms_p50", res.p50_ns / 1e6)
                    .f64("wall_ms_p99", res.p99_ns / 1e6)
                    .f64("events_per_sec", events as f64 / (res.min_ns / 1e9))
                    .f64("mem_ops_per_sec", mem_ops as f64 / (res.min_ns / 1e9))
                    .f64("sim_cycles_per_sec", cycles as f64 / (res.min_ns / 1e9))
                    .finish(),
            );
        }
    }
    let matrix = JsonObject::new()
        .raw(
            "workloads",
            &array(m.workloads.iter().map(|w| format!("\"{w}\""))),
        )
        .raw(
            "policies",
            &array(opts.policies.iter().map(|p| format!("\"{p}\""))),
        )
        .u64("mem_ops", m.mem_ops)
        .u64("sms", u64::from(m.sms))
        .u64("iters", m.iters)
        .finish();
    Ok(JsonObject::new()
        .str("bench", "hetmem-perf")
        .str("label", &m.label)
        .raw("matrix", &matrix)
        .raw("points", &array(points))
        .f64("total_wall_ms_min", total_min_ns / 1e6)
        .f64("total_wall_ms_mean", total_mean_ns / 1e6)
        .f64("total_wall_ms_p50", total_p50_ns / 1e6)
        .f64("total_wall_ms_p99", total_p99_ns / 1e6)
        .u64("total_events", total_events)
        .u64("total_mem_ops", total_mem_ops)
        .u64("total_sim_cycles", total_cycles)
        .f64("events_per_sec", total_events as f64 / (total_min_ns / 1e9))
        .f64(
            "mem_ops_per_sec",
            total_mem_ops as f64 / (total_min_ns / 1e9),
        )
        .f64(
            "sim_cycles_per_sec",
            total_cycles as f64 / (total_min_ns / 1e9),
        )
        .finish())
}

struct FidelityOpts {
    matrix: Matrix,
    policy: String,
    sample: SampleConfig,
    min_speedup: Option<f64>,
    max_error_pct: Option<f64>,
}

/// Runs each workload at full fidelity and again with the default
/// sampled fast-forward schedule, and reports wall-clock `speedup_x`
/// plus achieved-bandwidth `error_pct` per workload. Returns the
/// report document and how many workloads passed both gates (a gate
/// that was not requested passes vacuously).
fn fidelity_matrix(opts: &FidelityOpts) -> Result<(String, usize), String> {
    let m = &opts.matrix;
    let mut sim = SimConfig::paper_baseline();
    sim.num_sms = m.sms;
    let topo = topology_for(&sim, &vec![1; sim.pools.len()]);
    let pol = Mempolicy::parse(&opts.policy, &topo)
        .map_err(|e| format!("policy {}: {e}", opts.policy))?;
    let sample = opts.sample;
    check_fidelity(Fidelity::Sampled(sample), &pol).map_err(|e| format!("{e} ({})", e.code()))?;
    let placement = Placement::Policy(pol);

    let mut points = Vec::new();
    let mut passing = 0usize;
    let mut speedup_min = f64::INFINITY;
    let mut error_max = 0.0f64;
    for name in &m.workloads {
        let mut spec = catalog::by_name(name).ok_or_else(|| format!("unknown workload {name}"))?;
        spec.mem_ops = m.mem_ops;
        let full_builder = RunBuilder::new(&spec, &sim).placement(&placement);
        let sampled_builder = RunBuilder::new(&spec, &sim)
            .placement(&placement)
            .fidelity(Fidelity::Sampled(sample));

        // One run of each mode pins the deterministic accuracy numbers;
        // the timing loop then measures pure wall clock.
        let full_report = full_builder.run().report;
        let sampled_report = sampled_builder.run().report;
        let est = sampled_report
            .estimated
            .as_ref()
            .ok_or_else(|| format!("{name}: sampled run carried no estimate block"))?;
        let full_bw = full_report.achieved_bandwidth(sim.sm_clock_ghz).gbps();
        let sampled_bw = sampled_report.achieved_bandwidth(sim.sm_clock_ghz).gbps();
        let error_pct = if full_bw == 0.0 {
            0.0
        } else {
            (sampled_bw - full_bw).abs() / full_bw * 100.0
        };
        let full_res = bench(&format!("{name}/full"), m.iters, || full_builder.run());
        let sampled_res = bench(&format!("{name}/sampled"), m.iters, || {
            sampled_builder.run()
        });
        let speedup = full_res.min_ns / sampled_res.min_ns;
        let pass = opts.min_speedup.is_none_or(|min| speedup >= min)
            && opts.max_error_pct.is_none_or(|max| error_pct <= max);
        passing += usize::from(pass);
        speedup_min = speedup_min.min(speedup);
        error_max = error_max.max(error_pct);
        eprintln!(
            "hetmem-perf: fidelity {name} full {:.1} ms / sampled {:.1} ms = {speedup:.1}x, \
             bandwidth error {error_pct:.2}%",
            full_res.min_ns / 1e6,
            sampled_res.min_ns / 1e6
        );
        let full_section = JsonObject::new()
            .f64("wall_ms", full_res.min_ns / 1e6)
            .f64("bandwidth_gbps", full_bw)
            .u64("cycles", full_report.cycles)
            .finish();
        let sampled_section = JsonObject::new()
            .f64("wall_ms", sampled_res.min_ns / 1e6)
            .f64("bandwidth_gbps", sampled_bw)
            .u64("cycles", sampled_report.cycles)
            .u64("windows_detail", est.windows_detail)
            .u64("windows_extrapolated", est.windows_extrapolated)
            .u64("ops_simulated", est.ops_simulated)
            .u64("ops_extrapolated", est.ops_extrapolated)
            .f64("confidence", est.confidence)
            .finish();
        points.push(
            JsonObject::new()
                .str("workload", name)
                .raw("full", &full_section)
                .raw("sampled", &sampled_section)
                .f64("speedup_x", speedup)
                .f64("error_pct", error_pct)
                .bool("pass", pass)
                .finish(),
        );
    }
    let matrix = JsonObject::new()
        .raw(
            "workloads",
            &array(m.workloads.iter().map(|w| format!("\"{w}\""))),
        )
        .str("policy", &opts.policy)
        .u64("mem_ops", m.mem_ops)
        .u64("sms", u64::from(m.sms))
        .u64("iters", m.iters)
        .u64("window_ops", sample.window_ops)
        .u64("warmup_windows", sample.warmup_windows)
        .u64("period", sample.period)
        .finish();
    let body = JsonObject::new()
        .str("bench", "hetmem-perf-fidelity")
        .str("label", &m.label)
        .raw("matrix", &matrix)
        .raw("points", &array(points))
        .f64("speedup_x_min", speedup_min)
        .f64("error_pct_max", error_max)
        .u64("workloads_passing", passing as u64)
        .u64("workloads_total", m.workloads.len() as u64)
        .finish();
    Ok((body, passing))
}

/// Drives `conns` loopback connections, each pipelining the
/// pre-encoded `lines` at `depth` in flight per socket, and returns
/// the wall time for every connection to finish. Panics on any
/// non-`ok` response — a throughput number over errors is a lie.
#[cfg(unix)]
fn pump(addr: &str, lines: &Arc<Vec<String>>, conns: usize, depth: usize) -> std::time::Duration {
    let barrier = Arc::new(Barrier::new(conns + 1));
    let workers: Vec<_> = (0..conns)
        .map(|_| {
            let addr = addr.to_string();
            let lines = Arc::clone(lines);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || -> Result<(), String> {
                let stream = TcpStream::connect(&addr).map_err(|e| format!("connect: {e}"))?;
                stream.set_nodelay(true).ok();
                let mut reader =
                    BufReader::new(stream.try_clone().map_err(|e| format!("clone: {e}"))?);
                let mut writer = stream;
                barrier.wait();
                let mut resp = String::new();
                for chunk in lines.chunks(depth.max(1)) {
                    let burst: String = chunk.concat();
                    writer
                        .write_all(burst.as_bytes())
                        .map_err(|e| format!("write: {e}"))?;
                    for _ in chunk {
                        resp.clear();
                        let n = reader
                            .read_line(&mut resp)
                            .map_err(|e| format!("read: {e}"))?;
                        if n == 0 {
                            return Err("server closed mid-pipeline".to_string());
                        }
                        if !resp.contains("\"ok\":true") {
                            return Err(format!("unexpected response: {}", resp.trim_end()));
                        }
                    }
                }
                Ok(())
            })
        })
        .collect();
    barrier.wait();
    let t0 = Instant::now();
    for w in workers {
        w.join()
            .expect("serve bench client panicked")
            .unwrap_or_else(|e| panic!("serve bench client failed: {e}"));
    }
    t0.elapsed()
}

/// Renders one measurement as a trajectory section.
#[cfg(unix)]
fn section_json(
    label: &str,
    conns: usize,
    reqs: usize,
    depth: usize,
    wall: std::time::Duration,
    rate: f64,
) -> String {
    JsonObject::new()
        .str("bench", "hetmem-perf-serve")
        .str("label", label)
        .u64("conns", conns as u64)
        .u64("reqs_per_conn", reqs as u64)
        .u64("pipeline_depth", depth as u64)
        .u64("requests", (conns * reqs) as u64)
        .f64("wall_ms", wall.as_secs_f64() * 1e3)
        .f64("requests_per_sec", rate)
        .finish()
}

/// One serve-throughput measurement: `conns` loopback connections,
/// each pipelining `reqs` `stats` requests with `depth` lines in
/// flight per socket, against a fresh in-process server. Returns
/// requests/sec and the section JSON.
#[cfg(unix)]
fn serve_section(conns: usize, reqs: usize, depth: usize) -> (f64, String) {
    let handle = start(ServeConfig::default())
        .unwrap_or_else(|e| panic!("serve bench: cannot start server: {e}"));
    let addr = handle.addr().to_string();

    // Pre-encode the request lines once; every connection sends the
    // same bytes, so the measurement is pure front-end work.
    let lines: Arc<Vec<String>> = Arc::new(
        (1..=reqs as u64)
            .map(|id| {
                let mut line = Request::new(id, "stats").encode();
                line.push('\n');
                line
            })
            .collect(),
    );
    let wall = pump(&addr, &lines, conns, depth);
    roundtrip(&addr, &Request::new(1, "shutdown"))
        .unwrap_or_else(|e| panic!("serve bench shutdown: {e}"));
    handle.wait();

    let rate = (conns * reqs) as f64 / wall.as_secs_f64();
    (rate, section_json("poll", conns, reqs, depth, wall, rate))
}

/// Pre-encoded forwarded-op workload for the fleet comparison:
/// `place` requests cycling workload × capacity_pct so their content
/// keys spread across the ring (identical params would pin a single
/// backend and measure nothing about routing).
#[cfg(unix)]
fn place_lines(reqs: usize) -> Arc<Vec<String>> {
    const WORKLOADS: &[&str] = &["bfs", "hotspot", "lbm", "sgemm"];
    Arc::new(
        (1..=reqs as u64)
            .map(|id| {
                let workload = WORKLOADS[(id % WORKLOADS.len() as u64) as usize];
                let pct = 5 + 5 * (id % 8);
                let mut line = Request::with_params(
                    id,
                    "place",
                    JsonValue::Object(vec![
                        ("workload".to_string(), JsonValue::Str(workload.to_string())),
                        ("capacity_pct".to_string(), JsonValue::Num(pct as f64)),
                    ]),
                )
                .encode();
                line.push('\n');
                line
            })
            .collect(),
    )
}

/// Routing-overhead measurement: the same forwarded-op workload runs
/// against one `hetmem-serve` process (the report's `baseline`), then
/// through a `hetmem-fleet` router fronting `backends` supervised
/// child processes (`current`). Returns the report document; its
/// `overhead_x` is single÷fleet, expected above 1 — the extra hop and
/// fan-out are the price the fleet pays for failover. (Earlier
/// trajectory entries recorded the inverse as
/// `speedup_requests_per_sec`, which read as a regression; overhead is
/// the honest name for a cost.)
#[cfg(unix)]
fn fleet_report(backends: usize, conns: usize, reqs: usize, depth: usize) -> (f64, String) {
    use hetmem_bench::fleet::{start as start_fleet, FleetConfig};

    let lines = place_lines(reqs);
    let total = (conns * reqs) as f64;

    let single = start(ServeConfig::default())
        .unwrap_or_else(|e| panic!("serve bench: cannot start server: {e}"));
    let saddr = single.addr().to_string();
    let wall = pump(&saddr, &lines, conns, depth);
    roundtrip(&saddr, &Request::new(1, "shutdown"))
        .unwrap_or_else(|e| panic!("serve bench shutdown: {e}"));
    single.wait();
    let base_rate = total / wall.as_secs_f64();
    let base_section = section_json("single-place", conns, reqs, depth, wall, base_rate);

    let fleet = start_fleet(FleetConfig {
        backends,
        ..FleetConfig::default()
    })
    .unwrap_or_else(|e| panic!("serve bench: cannot start fleet: {e}"));
    let faddr = fleet.addr().to_string();
    let wall = pump(&faddr, &lines, conns, depth);
    fleet.shutdown();
    fleet.wait();
    let fleet_rate = total / wall.as_secs_f64();
    let fleet_section = section_json(
        &format!("fleet-{backends}-place"),
        conns,
        reqs,
        depth,
        wall,
        fleet_rate,
    );

    let overhead = base_rate / fleet_rate;
    eprintln!(
        "hetmem-perf: serve single {base_rate:.0} req/s, fleet({backends}) {fleet_rate:.0} req/s, \
         routing overhead {overhead:.2}x"
    );
    let body = JsonObject::new()
        .str("bench", "hetmem-perf-serve")
        .raw("baseline", &base_section)
        .raw("current", &fleet_section)
        .f64("overhead_x", overhead)
        .finish();
    (overhead, body)
}

/// Loads a run file and its aggregate events/sec. A merged `report`
/// file stands for its `current` run, so a committed `BENCH_*.json`
/// report can be the next change's `--baseline` as it is.
fn load_rate(path: &str) -> Result<(f64, JsonValue), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut doc = JsonValue::parse(text.trim()).map_err(|e| format!("{path}: {e}"))?;
    if let Some(run) = doc
        .get("current")
        .filter(|c| c.get("events_per_sec").is_some())
    {
        doc = run.clone();
    }
    let rate = doc
        .get("events_per_sec")
        .and_then(JsonValue::as_f64)
        .ok_or_else(|| format!("{path}: missing events_per_sec"))?;
    Ok((rate, doc))
}

fn write_or_print(out: Option<&str>, body: &str) -> Result<(), String> {
    match out {
        Some(path) => std::fs::write(path, format!("{body}\n"))
            .map_err(|e| format!("cannot write {path}: {e}")),
        None => {
            println!("{body}");
            Ok(())
        }
    }
}

fn main() -> ExitCode {
    let mut args = Args::from_env();
    let Some(cmd) = args.next() else {
        return fail("usage: hetmem-perf <run|fidelity|serve|gate|report> [flags]");
    };
    let result = match cmd.as_str() {
        "run" => run_cmd(&mut args),
        "fidelity" => fidelity_cmd(&mut args),
        "serve" => serve_cmd(&mut args),
        "gate" | "report" => compare_cmd(&cmd, &mut args),
        other => Err(format!("unknown subcommand {other}")),
    };
    result.unwrap_or_else(|e| fail(&e))
}

fn run_cmd(args: &mut Args) -> Result<ExitCode, String> {
    let mut opts = RunOpts {
        matrix: Matrix::new(DEFAULT_MEM_OPS),
        policies: DEFAULT_POLICIES.iter().map(|s| s.to_string()).collect(),
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => opts.matrix.quick(20_000),
            "--migrate" => opts.policies.push(MIGRATE_POLICY.to_string()),
            "--policies" => {
                let list = args.list()?;
                opts.policies = list.iter().map(|p| p.trim().to_ascii_uppercase()).collect();
            }
            _ => opts.matrix.flag(&arg, args)?,
        }
    }
    write_or_print(opts.matrix.out.as_deref(), &run_matrix(&opts)?)?;
    Ok(ExitCode::SUCCESS)
}

fn fidelity_cmd(args: &mut Args) -> Result<ExitCode, String> {
    let mut opts = FidelityOpts {
        // Sampling targets long runs: at the `run` scenario's 400k ops
        // the fixed drain cost dominates; 2M ops is where the 10x+
        // speedups the mode exists for show up.
        matrix: Matrix::new(2_000_000),
        policy: "BW-AWARE".to_string(),
        sample: SampleConfig::default(),
        min_speedup: None,
        max_error_pct: None,
    };
    let mut min_pass: Option<usize> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => {
                opts.matrix.quick(60_000);
                // The production 64k windows would cover this tiny run
                // whole; shrink so sampling engages.
                opts.sample.window_ops = 16_384;
                opts.sample.warmup_windows = 1;
                opts.sample.period = 8;
            }
            "--policy" => opts.policy = args.value()?.trim().to_ascii_uppercase(),
            "--min-speedup" => opts.min_speedup = Some(args.parse()?),
            "--max-error" => opts.max_error_pct = Some(args.parse()?),
            "--min-pass" => min_pass = Some(args.parse()?),
            "--window-ops" => opts.sample.window_ops = args.parse()?,
            "--warmup-windows" => opts.sample.warmup_windows = args.parse()?,
            "--period" => opts.sample.period = args.parse()?,
            _ => opts.matrix.flag(&arg, args)?,
        }
    }
    let (body, passing) = fidelity_matrix(&opts)?;
    write_or_print(opts.matrix.out.as_deref(), &body)?;
    let total = opts.matrix.workloads.len();
    let need = min_pass.unwrap_or(total);
    if passing < need {
        eprintln!("hetmem-perf: GATE FAILED: {passing}/{total} workloads passed, need {need}");
        return Ok(ExitCode::from(4));
    }
    Ok(ExitCode::SUCCESS)
}

fn serve_cmd(args: &mut Args) -> Result<ExitCode, String> {
    let mut conns = 64usize;
    let mut reqs = 400usize;
    let mut depth = 32usize;
    let mut fleet_backends: Option<usize> = None;
    let mut out: Option<String> = None;
    let mut max_overhead: Option<f64> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--max-overhead" => max_overhead = Some(args.parse()?),
            "--fleet" => fleet_backends = Some(args.positive()?),
            "--conns" => conns = args.positive()?,
            "--reqs" => reqs = args.positive()?,
            "--depth" => depth = args.parse()?,
            "--out" => out = Some(args.value()?),
            _ => return Err(args.unknown()),
        }
    }
    if max_overhead.is_some() && fleet_backends.is_none() {
        return Err("--max-overhead only applies to --fleet".to_string());
    }
    #[cfg(not(unix))]
    {
        let _ = (conns, reqs, depth, out);
        return Err("serve needs unix (hetmem-serve and hetmem-fleet are unix-only)".to_string());
    }
    #[cfg(unix)]
    {
        if let Some(backends) = fleet_backends {
            let (overhead, body) = fleet_report(backends, conns, reqs, depth);
            write_or_print(out.as_deref(), &body)?;
            if let Some(max) = max_overhead {
                if overhead > max {
                    eprintln!(
                        "hetmem-perf: GATE FAILED: routing overhead {overhead:.2}x above {max:.2}x"
                    );
                    return Ok(ExitCode::from(4));
                }
            }
            return Ok(ExitCode::SUCCESS);
        }
        let (rate, section) = serve_section(conns, reqs, depth);
        eprintln!("hetmem-perf: serve {rate:.0} req/s");
        write_or_print(out.as_deref(), &section)?;
        Ok(ExitCode::SUCCESS)
    }
}

/// `gate` and `report`: compare two run files.
fn compare_cmd(cmd: &str, args: &mut Args) -> Result<ExitCode, String> {
    let mut baseline = None;
    let mut current = None;
    let mut out = None;
    let mut max_regress = 0.30f64;
    let mut min_speedup: Option<f64> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--baseline" => baseline = Some(args.value()?),
            "--current" => current = Some(args.value()?),
            "--out" => out = Some(args.value()?),
            "--max-regress" => max_regress = args.parse()?,
            "--min-speedup" => min_speedup = Some(args.parse()?),
            _ => return Err(args.unknown()),
        }
    }
    let (Some(base_path), Some(cur_path)) = (baseline, current) else {
        return Err(format!("{cmd} needs --baseline and --current"));
    };
    let (base_rate, base_doc) = load_rate(&base_path)?;
    let (cur_rate, cur_doc) = load_rate(&cur_path)?;
    let speedup = cur_rate / base_rate;
    eprintln!(
        "hetmem-perf: baseline {base_rate:.0} ev/s, current {cur_rate:.0} ev/s, \
         speedup {speedup:.2}x"
    );
    if cmd == "report" {
        let mut body = JsonObject::new()
            .str("bench", "hetmem-perf")
            .raw("baseline", &base_doc.render())
            .raw("current", &cur_doc.render())
            .f64("speedup_events_per_sec", speedup);
        let mem_rate = |doc: &JsonValue| doc.get("mem_ops_per_sec").and_then(JsonValue::as_f64);
        if let (Some(base), Some(cur)) = (mem_rate(&base_doc), mem_rate(&cur_doc)) {
            eprintln!(
                "hetmem-perf: baseline {base:.0} mem-ops/s, current {cur:.0} mem-ops/s, \
                 speedup {:.2}x",
                cur / base
            );
            body = body.f64("speedup_mem_ops_per_sec", cur / base);
        }
        write_or_print(out.as_deref(), &body.finish())?;
        return Ok(ExitCode::SUCCESS);
    }
    if speedup < 1.0 - max_regress {
        eprintln!(
            "hetmem-perf: GATE FAILED: regression {:.1}% exceeds {:.1}%",
            (1.0 - speedup) * 100.0,
            max_regress * 100.0
        );
        return Ok(ExitCode::from(4));
    }
    if let Some(min) = min_speedup {
        if speedup < min {
            eprintln!("hetmem-perf: GATE FAILED: speedup {speedup:.2}x below {min:.2}x");
            return Ok(ExitCode::from(4));
        }
    }
    eprintln!("hetmem-perf: gate ok");
    Ok(ExitCode::SUCCESS)
}
