//! `hetmem-sweep`: a crash-safe, resumable workload × policy sweep.
//!
//! ```text
//! cargo run --release -p hetmem-bench --bin hetmem-sweep -- \
//!     --workloads bfs,hotspot --policies LOCAL,BW-AWARE \
//!     --mem-ops 4000 --sms 2 --checkpoint /tmp/sweep.ckpt \
//!     --out /tmp/sweep.jsonl
//! ```
//!
//! Every completed grid point is flushed to the checkpoint file with a
//! write-temp-then-atomic-rename, so the file is a valid JSONL snapshot
//! at every instant — `kill -9` mid-sweep loses at most the point in
//! flight. Re-running with the same `--checkpoint` path skips
//! completed points (matched by content key over the *resolved*
//! configuration) and produces output **byte-identical** to an
//! uninterrupted run: per-point seeds derive from the original grid
//! index, not the execution order.
//!
//! Flags:
//!
//! * `--workloads a,b,c` — catalog workloads (default `bfs,hotspot`)
//! * `--policies p,q` — placement policies: `LOCAL`, `INTERLEAVE`,
//!   `BW-AWARE`, `xC-yB`, `ORACLE`, `HINTED` (default
//!   `LOCAL,BW-AWARE`)
//! * `--mem-ops <n>` — override every workload's memory operations
//! * `--sms <n>` — simulated SMs (default: paper baseline)
//! * `--capacity-pct <n>` — bandwidth-optimized pool capacity as a
//!   percentage of footprint (default: unconstrained)
//! * `--seed <n>` — sweep seed (per-point seeds derive from it)
//! * `--threads <n>` — worker threads (0 = one per core)
//! * `--checkpoint <path>` / `--resume <path>` — enable crash-safe
//!   checkpointing; an existing file resumes, skipping completed points
//! * `--fsync` — fsync the checkpoint on every flush (machine-crash
//!   safe, not just process-crash safe)
//! * `--out <path>` — write the merged grid-order JSONL here (default
//!   stdout)
//! * `--deadline-ms <n>` — cooperative sweep deadline; on expiry the
//!   sweep exits 3 with completed points checkpointed for resume
//! * `--faults <spec>` — deterministic chaos (only latency faults
//!   apply here), e.g. `seed=7,latency=1,latency-ms=200` — used by CI
//!   to widen the kill window of the SIGKILL/resume smoke test
//! * `--addr <host:port>` — **remote mode**: instead of simulating
//!   locally, send every grid point to a running `hetmem-serve` as
//!   `simulate` sub-requests inside protocol-v2 `batch` envelopes
//!   (chunked by `--batch`, default 32), via the retrying
//!   [`ClientBuilder`](hetmem_bench::client::ClientBuilder). Output
//!   stays in grid order; the server's records carry its `serve` tag
//!   rather than `sweep`, and its result cache makes re-runs
//!   byte-identical. Incompatible with `--checkpoint`/`--resume`
//!   (the server owns execution; resume locally instead)
//! * `--batch <n>` — sub-requests per envelope in remote mode
//!   (default 32; must not exceed the server's `--max-batch`)
//! * `--fidelity full|sampled` — simulation fidelity (default `full`;
//!   `sampled` fast-forwards steady-state windows and extrapolates,
//!   trading exactness for 10–100× throughput). Part of the point key,
//!   so sampled checkpoints never satisfy full-fidelity runs. A
//!   `MIGRATE` policy under `sampled` is refused up front with the
//!   `unsupported-fidelity` code (exit 2)
//!
//! Exit codes: 0 success, 2 usage/setup error, 3 sweep failure
//! (panicking point, deadline exceeded, or a failed remote point).

use std::io::Write;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use gpusim::{Fidelity, SampleConfig, SimConfig};
use hetmem::{
    check_fidelity, hints_from_profile, profile_workload, record_for, topology_for, Capacity,
    Placement, RunBuilder,
};
use hetmem_bench::client::ClientBuilder;
use hetmem_harness::checkpoint::{run_grid_resumable, CheckpointWriter};
use hetmem_harness::json::{JsonObject, JsonValue};
use hetmem_harness::sweep::{run_grid, PointCtx, SweepOptions};
use hetmem_harness::{FaultInjector, FaultPlan, Request, Response};
use mempolicy::Mempolicy;
use workloads::{catalog, WorkloadSpec};

struct Point {
    spec: WorkloadSpec,
    policy: String,
    sim: SimConfig,
    capacity: Capacity,
    capacity_pct: u64,
    fidelity: Fidelity,
}

impl Point {
    /// The canonical content key, over the resolved configuration —
    /// the same shape `hetmem-serve` caches under. Sampled points key
    /// with an extra `fidelity` field; full-fidelity keys keep their
    /// pre-sampling bytes.
    fn key(&self) -> String {
        let mut obj = JsonObject::new()
            .str("workload", self.spec.name)
            .str("policy", &self.policy)
            .u64("capacity_pct", self.capacity_pct)
            .u64("mem_ops", self.spec.mem_ops)
            .u64("sms", u64::from(self.sim.num_sms))
            .u64("seed", self.spec.seed);
        if matches!(self.fidelity, Fidelity::Sampled(_)) {
            obj = obj.str("fidelity", "sampled");
        }
        obj.finish()
    }

    fn label(&self) -> String {
        format!("{}/{}", self.spec.name, self.policy)
    }

    /// The `simulate` request carrying this point's resolved knobs —
    /// the same fields the server's parser keys its result cache on,
    /// so a remote sweep hits the cache exactly where a local resume
    /// would skip.
    fn request(&self, id: u64) -> Request {
        let mut fields = vec![
            (
                "workload".to_string(),
                JsonValue::Str(self.spec.name.to_string()),
            ),
            ("policy".to_string(), JsonValue::Str(self.policy.clone())),
            (
                "mem_ops".to_string(),
                JsonValue::Num(self.spec.mem_ops as f64),
            ),
            (
                "sms".to_string(),
                JsonValue::Num(f64::from(self.sim.num_sms)),
            ),
            ("seed".to_string(), JsonValue::Num(self.spec.seed as f64)),
        ];
        if matches!(self.fidelity, Fidelity::Sampled(_)) {
            fields.push((
                "fidelity".to_string(),
                JsonValue::Str("sampled".to_string()),
            ));
        }
        if self.capacity_pct > 0 {
            fields.push((
                "capacity_pct".to_string(),
                JsonValue::Num(self.capacity_pct as f64),
            ));
        }
        Request::with_params(id, "simulate", JsonValue::Object(fields))
    }

    fn run(&self) -> String {
        let placement = match self.policy.as_str() {
            "ORACLE" => {
                let (histogram, _) = profile_workload(&self.spec, &self.sim);
                Placement::Oracle(histogram)
            }
            "HINTED" => {
                let (_, profile) = profile_workload(&self.spec, &self.sim);
                Placement::Hinted(hints_from_profile(
                    &profile,
                    &self.spec,
                    &self.sim,
                    self.capacity,
                ))
            }
            os => {
                let topo = topology_for(&self.sim, &vec![1; self.sim.pools.len()]);
                Placement::Policy(
                    Mempolicy::parse(os, &topo).expect("policy validated during setup"),
                )
            }
        };
        let run = RunBuilder::new(&self.spec, &self.sim)
            .capacity(self.capacity)
            .placement(&placement)
            .fidelity(self.fidelity)
            .run();
        record_for("sweep", self.spec.name, &self.policy, &self.sim, &run).jsonl(false)
    }
}

fn fail(msg: &str) -> ExitCode {
    eprintln!("hetmem-sweep: {msg}");
    ExitCode::from(2)
}

/// Runs the grid against a live `hetmem-serve`, chunking points into
/// `batch`-sized protocol-v2 envelopes. Responses come back in
/// sub-request order, so the output stays in grid order without any
/// local reordering.
fn run_remote(
    addr: &str,
    points: &[Point],
    batch: usize,
    deadline_ms: Option<u64>,
) -> Result<Vec<String>, String> {
    let mut client = ClientBuilder::new(addr).request_id_prefix("sweep");
    if let Some(ms) = deadline_ms {
        client = client.deadline_ms(ms);
    }
    let mut lines = Vec::with_capacity(points.len());
    for (envelope, chunk) in points.chunks(batch.max(1)).enumerate() {
        let subs: Vec<Request> = chunk
            .iter()
            .enumerate()
            .map(|(i, p)| p.request(i as u64 + 1))
            .collect();
        let outcome = client
            .call_batch(envelope as u64 + 1, &subs)
            .map_err(|e| format!("remote sweep against {addr}: {e}"))?;
        if let Response::Err { code, message, .. } = &outcome.response {
            return Err(format!("server refused batch envelope: {code}: {message}"));
        }
        for (sub, p) in outcome.responses.iter().zip(chunk) {
            match sub {
                Response::Ok { result, .. } => lines.push(result.clone()),
                Response::Err { code, message, .. } => {
                    return Err(format!(
                        "point {} failed remotely: {code}: {message}",
                        p.label()
                    ));
                }
            }
        }
    }
    Ok(lines)
}

#[allow(clippy::too_many_lines)]
fn main() -> ExitCode {
    let mut workloads = vec!["bfs".to_string(), "hotspot".to_string()];
    let mut policies = vec!["LOCAL".to_string(), "BW-AWARE".to_string()];
    let mut mem_ops: Option<u64> = None;
    let mut sim = SimConfig::paper_baseline();
    let mut capacity_pct: Option<u64> = None;
    let mut opts = SweepOptions::default();
    let mut checkpoint: Option<String> = None;
    let mut fsync = false;
    let mut out: Option<String> = None;
    let mut faults: Option<FaultPlan> = None;
    let mut addr: Option<String> = None;
    let mut batch: usize = 32;
    let mut deadline_ms: Option<u64> = None;
    let mut fidelity = Fidelity::Full;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut next = |flag: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--workloads" => {
                workloads = next("--workloads").split(',').map(str::to_string).collect();
            }
            "--policies" => {
                policies = next("--policies")
                    .split(',')
                    .map(|p| p.trim().to_ascii_uppercase())
                    .collect();
            }
            "--mem-ops" => {
                mem_ops = Some(
                    next("--mem-ops")
                        .parse()
                        .expect("--mem-ops takes an integer"),
                );
            }
            "--sms" => sim.num_sms = next("--sms").parse().expect("--sms takes an integer"),
            "--capacity-pct" => {
                let pct: u64 = next("--capacity-pct")
                    .parse()
                    .expect("--capacity-pct takes an integer");
                assert!(
                    (1..=100).contains(&pct),
                    "--capacity-pct must be in 1..=100"
                );
                capacity_pct = Some(pct);
            }
            "--seed" => opts.seed = next("--seed").parse().expect("--seed takes an integer"),
            "--threads" => {
                opts.threads = next("--threads")
                    .parse()
                    .expect("--threads takes an integer");
            }
            "--checkpoint" | "--resume" => checkpoint = Some(next("--checkpoint")),
            "--fsync" => fsync = true,
            "--out" => out = Some(next("--out")),
            "--deadline-ms" => {
                let ms: u64 = next("--deadline-ms")
                    .parse()
                    .expect("--deadline-ms takes an integer");
                deadline_ms = Some(ms);
                opts.deadline = Some(Instant::now() + Duration::from_millis(ms));
            }
            "--addr" => addr = Some(next("--addr")),
            "--batch" => {
                batch = next("--batch").parse().expect("--batch takes an integer");
                assert!(batch > 0, "--batch must be positive");
            }
            "--fidelity" => {
                fidelity = match next("--fidelity").trim().to_ascii_lowercase().as_str() {
                    "full" => Fidelity::Full,
                    "sampled" => Fidelity::Sampled(SampleConfig::default()),
                    other => {
                        return fail(&format!(
                            "unknown fidelity '{other}' (expected 'full' or 'sampled')"
                        ))
                    }
                };
            }
            "--faults" => {
                let spec = next("--faults");
                faults = Some(
                    FaultPlan::parse(&spec)
                        .unwrap_or_else(|e| panic!("bad --faults spec '{spec}': {e}")),
                );
            }
            other => return fail(&format!("unknown flag {other}; see hetmem-sweep docs")),
        }
    }

    let capacity = match capacity_pct {
        Some(pct) => Capacity::FractionOfFootprint(pct as f64 / 100.0),
        None => Capacity::Unconstrained,
    };
    let topo = topology_for(&sim, &vec![1; sim.pools.len()]);
    let mut points = Vec::new();
    for name in &workloads {
        let Some(mut spec) = catalog::by_name(name) else {
            return fail(&format!("unknown workload '{name}'"));
        };
        if let Some(ops) = mem_ops {
            spec.mem_ops = ops;
        }
        for policy in &policies {
            if !matches!(policy.as_str(), "ORACLE" | "HINTED") {
                let Ok(parsed) = Mempolicy::parse(policy, &topo) else {
                    return fail(&format!("unknown policy '{policy}'"));
                };
                if let Err(e) = check_fidelity(fidelity, &parsed) {
                    return fail(&format!("{} ({})", e, e.code()));
                }
            }
            points.push(Point {
                spec: spec.clone(),
                policy: policy.clone(),
                sim: sim.clone(),
                capacity,
                capacity_pct: capacity_pct.unwrap_or(0),
                fidelity,
            });
        }
    }

    let injector = faults.map_or_else(FaultInjector::disabled, FaultInjector::new);
    let run_point = |p: &Point, _ctx: PointCtx| {
        if let Some(stall) = injector.maybe_latency() {
            std::thread::sleep(stall);
        }
        p.run()
    };

    let result = if let Some(addr) = &addr {
        if checkpoint.is_some() {
            return fail(
                "--addr (remote mode) is incompatible with --checkpoint/--resume; \
                 the server owns execution — resume locally instead",
            );
        }
        run_remote(addr, &points, batch, deadline_ms)
    } else {
        match &checkpoint {
            Some(path) => {
                let ckpt = match CheckpointWriter::open(path, fsync) {
                    Ok(w) => w,
                    Err(e) => return fail(&format!("cannot open checkpoint {path}: {e}")),
                };
                if !ckpt.is_empty() {
                    eprintln!(
                        "hetmem-sweep: resuming from {path} ({} point(s) checkpointed)",
                        ckpt.len()
                    );
                }
                run_grid_resumable(&points, &opts, Point::key, Point::label, run_point, &ckpt)
                    .map_err(|e| e.to_string())
            }
            None => run_grid(&points, &opts, Point::label, run_point).map_err(|e| e.to_string()),
        }
    };
    let lines = match result {
        Ok(lines) => lines,
        Err(e) => {
            eprintln!("hetmem-sweep: {e}");
            if checkpoint.is_some() {
                eprintln!("hetmem-sweep: completed points are checkpointed; re-run to resume");
            }
            return ExitCode::from(3);
        }
    };
    let mut body = String::new();
    for line in &lines {
        body.push_str(line);
        body.push('\n');
    }
    match &out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, body.as_bytes()) {
                return fail(&format!("cannot write {path}: {e}"));
            }
        }
        None => {
            let stdout = std::io::stdout();
            let mut h = stdout.lock();
            if h.write_all(body.as_bytes())
                .and_then(|()| h.flush())
                .is_err()
            {
                return ExitCode::from(2);
            }
        }
    }
    eprintln!("hetmem-sweep: {} point(s) written", lines.len());
    ExitCode::SUCCESS
}
