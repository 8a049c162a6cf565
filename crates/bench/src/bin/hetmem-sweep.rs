//! `hetmem-sweep`: a crash-safe, resumable workload × policy sweep.
//!
//! ```text
//! cargo run --release -p hetmem-bench --bin hetmem-sweep -- \
//!     --workloads bfs,hotspot --policies LOCAL,BW-AWARE \
//!     --mem-ops 4000 --sms 2 --checkpoint /tmp/sweep.ckpt \
//!     --out /tmp/sweep.jsonl
//! ```
//!
//! Every grid point is a `simulate` request resolved by `hetmem-serve`'s
//! own parser ([`parse_simulate`]) into a figure's [`RunPoint`] and run
//! by its [`run_point`], so a point is accepted, refused, labelled,
//! keyed and resolved as the server and the figures do: a record's
//! `config` is serve's canonical label (e.g. `BW-AWARE(29C-71B)` for
//! `BW-AWARE`), and a local record differs from the server's only in
//! its `sweep` tag and `config_hash`.
//!
//! Every completed grid point is flushed to the checkpoint file with a
//! write-temp-then-atomic-rename, so the file is a valid JSONL snapshot
//! at every instant — `kill -9` mid-sweep loses at most the point in
//! flight. Re-running with the same `--checkpoint` path skips
//! completed points (matched by serve's cache key over the *resolved*
//! configuration, trace seed included) and produces output
//! **byte-identical** to an uninterrupted run: a point's record depends
//! on the point alone, not on the execution order. Checkpoint entries
//! keyed under a policy spelling other than the canonical label (as
//! older builds wrote them) match no point and are recomputed, never
//! misread.
//!
//! Flags:
//!
//! * `--workloads a,b,c` — catalog workloads (default `bfs,hotspot`)
//! * `--policies p,q` — placement policies, any `simulate` accepts:
//!   `LOCAL`, `INTERLEAVE`, `BW-AWARE`, `xC-yB`, `MIGRATE[:k=v+...]`,
//!   `ORACLE`, `HINTED`/`ANNOTATED` (default `LOCAL,BW-AWARE`)
//! * `--mem-ops <n>` — override every workload's memory operations
//!   (positive)
//! * `--sms <n>` — simulated SMs, 1..=1024 (default: paper baseline)
//! * `--capacity-pct <n>` — bandwidth-optimized pool capacity as a
//!   percentage of footprint (default: unconstrained)
//! * `--seed <n>` — trace seed of every point, sent as `simulate`'s
//!   `seed` param, below 2^53 as the protocol's JSON integers are
//!   (default: each workload's own catalog seed)
//! * `--threads <n>` — worker threads, 0..=64 (0 = one per core)
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
//!   [`hetmem_bench::client::ClientBuilder`]. The
//!   requests carry the same params the local mode resolves. Output
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
//! Exit codes: 0 success, 2 usage/setup error (including any point
//! `simulate` would refuse, e.g. `--mem-ops 0`), 3 sweep failure
//! (panicking point, deadline exceeded, or a failed remote point).

use std::io::Write;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use gpusim::Fidelity;
use hetmem::grid::RunPoint;
use hetmem_bench::cli::{self, Args};
use hetmem_bench::client::ClientBuilder;
use hetmem_bench::serve::{parse_simulate, run_point};
use hetmem_harness::checkpoint::{run_grid_resumable, CheckpointWriter};
use hetmem_harness::json::JsonValue;
use hetmem_harness::sweep::{run_grid, SweepOptions};
use hetmem_harness::{FaultInjector, FaultPlan, Request, Response};

/// One grid point: the `simulate` params it was built from (sent as-is
/// in remote mode), what they resolve to, and serve's canonical cache
/// key for them (the checkpoint key).
struct Point {
    params: JsonValue,
    point: RunPoint,
    fidelity: Fidelity,
    key: String,
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
            .map(|(i, p)| Request::with_params(i as u64 + 1, "simulate", p.params.clone()))
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
                        p.point.label()
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
    let mut sms: Option<u64> = None;
    let mut capacity_pct: Option<u64> = None;
    let mut seed: Option<u64> = None;
    let mut opts = SweepOptions::default();
    let mut checkpoint: Option<String> = None;
    let mut fsync = false;
    let mut out: Option<String> = None;
    let mut faults: Option<FaultPlan> = None;
    let mut addr: Option<String> = None;
    let mut batch: usize = 32;
    let mut deadline_ms: Option<u64> = None;
    let mut fidelity: Option<String> = None;

    cli::parse_or_exit("hetmem-sweep", 2, Args::from_env(), |arg, args| {
        match arg.as_str() {
            "--workloads" => workloads = args.list()?,
            "--policies" => policies = args.list()?,
            "--mem-ops" => mem_ops = Some(args.parse()?),
            "--sms" => sms = Some(args.parse()?),
            "--capacity-pct" => capacity_pct = Some(args.parse()?),
            "--seed" => {
                seed = Some(args.parse_with(|s| match s.parse::<u64>() {
                    Ok(n) if n < 1 << 53 => Ok(n),
                    _ => Err("expected an integer below 2^53"),
                })?);
            }
            "--threads" => opts.threads = args.thread_count()?,
            "--checkpoint" | "--resume" => checkpoint = Some(args.value()?),
            "--fsync" => fsync = true,
            "--out" => out = Some(args.value()?),
            "--deadline-ms" => {
                let ms = args.parse()?;
                deadline_ms = Some(ms);
                opts.deadline = Some(Instant::now() + Duration::from_millis(ms));
            }
            "--addr" => addr = Some(args.value()?),
            "--batch" => batch = args.positive()?,
            "--fidelity" => fidelity = Some(args.value()?),
            "--faults" => faults = Some(args.parse_with(FaultPlan::parse)?),
            _ => return Err(args.unknown()),
        }
        Ok(())
    });

    // Each point is a `simulate` request resolved by serve's own parser,
    // so validation, labels and keys cannot drift from the server's.
    let num = |n: u64| JsonValue::Num(n as f64);
    let knobs = [
        ("mem_ops", mem_ops.map(num)),
        ("sms", sms.map(num)),
        ("capacity_pct", capacity_pct.map(num)),
        ("seed", seed.map(num)),
        ("fidelity", fidelity.map(JsonValue::Str)),
    ];
    let mut points = Vec::new();
    for name in &workloads {
        for policy in &policies {
            let mut fields = vec![
                ("workload".to_string(), JsonValue::Str(name.clone())),
                ("policy".to_string(), JsonValue::Str(policy.clone())),
            ];
            for (k, v) in &knobs {
                if let Some(v) = v {
                    fields.push(((*k).to_string(), v.clone()));
                }
            }
            let params = JsonValue::Object(fields);
            let (point, fidelity, key) = match parse_simulate(&params) {
                Ok(resolved) => resolved,
                Err(e) => return fail(&format!("{e} ({})", e.code())),
            };
            points.push(Point {
                params,
                point,
                fidelity,
                key,
            });
        }
    }

    let injector = faults.map_or_else(FaultInjector::disabled, FaultInjector::new);
    let run = |p: &Point| {
        if let Some(stall) = injector.maybe_latency() {
            std::thread::sleep(stall);
        }
        run_point(&p.point, p.fidelity, "sweep").0
    };
    let label = |p: &Point| p.point.label();

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
                run_grid_resumable(&points, &opts, |p| p.key.clone(), label, run, &ckpt)
                    .map_err(|e| e.to_string())
            }
            None => run_grid(&points, &opts, label, run).map_err(|e| e.to_string()),
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
