//! A one-shot `hetmem-serve` client for scripts and CI.
//!
//! ```text
//! hetmem-client [flags] <addr> <op> [key=value ...]
//!
//! hetmem-client 127.0.0.1:7711 place workload=bfs capacity_pct=10
//! hetmem-client 127.0.0.1:7711 simulate workload=hotspot policy=LOCAL \
//!     mem_ops=5000 sms=2
//! hetmem-client --retries 5 --deadline-ms 30000 127.0.0.1:7711 stats
//! hetmem-client 127.0.0.1:7711 shutdown
//! ```
//!
//! Flags (all optional, anywhere on the line):
//!
//! * `--retries <n>` — extra attempts after the first (default 3);
//!   transport errors and the retryable codes `overloaded`,
//!   `worker-restarted` and (from a `hetmem-fleet` router)
//!   `backend-unavailable` are retried with capped exponential backoff
//!   and deterministic jitter; `fleet-draining` stays terminal
//! * `--deadline-ms <n>` — overall budget across attempts, also sent
//!   to the server in the request envelope (default: none)
//! * `--timeout-ms <n>` — per-attempt socket read timeout (default
//!   120000)
//! * `--backoff-seed <n>` — jitter seed, for reproducible schedules
//! * `--request-id <s>` — tag the request; the server echoes it on the
//!   response (success or error) and stamps it on every telemetry line
//!   for the request, across all retries of this one call
//! * `--trace` — ask the server to log per-phase `serve-span` lines
//!   for this request (render with `hetmem-trace spans`)
//! * `--batch <n>` — wrap the request in one protocol-v2 `batch`
//!   envelope carrying `n` copies (sub-ids 1..=n) through a single
//!   dispatch; each sub-response prints on its own line
//! * `--fidelity <mode>` — shorthand for a `fidelity=<mode>` param on
//!   a `simulate` request (`full` or `sampled`; the server rejects
//!   anything else with the stable `invalid-fidelity` code)
//!
//! Values parse as (in order): unsigned integer, float, boolean,
//! comma-separated number array (`sizes=1048576,2097152`), else
//! string. The raw response line prints on stdout.
//!
//! Exit codes: 0 for an `ok` response, 2 for a structured error
//! response, 1 for a usage error (unknown flag, missing or malformed
//! value, a pair without `=`) or a transport or decode failure.

use std::process::ExitCode;
use std::time::Duration;

use hetmem_bench::cli::{self, Args};
use hetmem_bench::client::ClientBuilder;
use hetmem_harness::json::JsonValue;
use hetmem_harness::{Backoff, Request, Response};

/// Parses one `key=value` pair into a JSON field.
fn field(pair: &str) -> Result<(String, JsonValue), String> {
    let (key, value) = pair
        .split_once('=')
        .ok_or_else(|| format!("expected key=value, got '{pair}'"))?;
    Ok((key.to_string(), scalar_or_array(value)))
}

fn scalar_or_array(value: &str) -> JsonValue {
    if value.contains(',') {
        return JsonValue::Array(value.split(',').map(scalar).collect());
    }
    scalar(value)
}

fn scalar(value: &str) -> JsonValue {
    if let Ok(n) = value.parse::<u64>() {
        return JsonValue::Num(n as f64);
    }
    if let Ok(f) = value.parse::<f64>() {
        return JsonValue::Num(f);
    }
    match value {
        "true" => JsonValue::Bool(true),
        "false" => JsonValue::Bool(false),
        _ => JsonValue::Str(value.to_string()),
    }
}

fn main() -> ExitCode {
    let mut retries = 3u32;
    let mut deadline_ms: Option<u64> = None;
    let mut timeout = Duration::from_secs(120);
    let mut backoff_seed = 0u64;
    let mut request_id: Option<String> = None;
    let mut trace = false;
    let mut batch: Option<u64> = None;
    let mut fidelity: Option<String> = None;
    let mut rest: Vec<String> = Vec::new();
    let mut fields: Vec<(String, JsonValue)> = Vec::new();
    cli::parse_or_exit("hetmem-client", 1, Args::from_env(), |arg, args| {
        match arg.as_str() {
            "--retries" => retries = args.parse()?,
            "--deadline-ms" => deadline_ms = Some(args.parse()?),
            "--timeout-ms" => timeout = Duration::from_millis(args.parse::<u64>()?.max(1)),
            "--backoff-seed" => backoff_seed = args.parse()?,
            "--request-id" => {
                request_id = Some(args.parse_with(|v| match v {
                    "" => Err("must be non-empty"),
                    id => Ok(id.to_string()),
                })?);
            }
            "--trace" => trace = true,
            "--fidelity" => fidelity = Some(args.value()?),
            "--batch" => batch = Some(args.positive()?),
            other if other.starts_with("--") => return Err(args.unknown()),
            // <addr> and <op>, then the key=value params.
            _ if rest.len() < 2 => rest.push(arg),
            _ => fields.push(field(&arg)?),
        }
        Ok(())
    });
    if rest.len() < 2 {
        eprintln!("usage: hetmem-client [flags] <addr> <op> [key=value ...]");
        return ExitCode::from(1);
    }
    let addr = &rest[0];
    let op = &rest[1];
    let mut client = ClientBuilder::new(addr)
        .retries(retries)
        .backoff(Backoff::new(50, 2000, backoff_seed))
        .read_timeout(timeout);
    if let Some(ms) = deadline_ms {
        client = client.deadline_ms(ms);
    }
    if let Some(mode) = fidelity {
        // The flag loses to an explicit fidelity=... param.
        if !fields.iter().any(|(k, _)| k == "fidelity") {
            fields.push(("fidelity".to_string(), JsonValue::Str(mode)));
        }
    }
    let params = JsonValue::Object(fields);
    let mut req = Request::with_params(1, op, params);
    if let Some(id) = &request_id {
        req = req.request_id(id);
    }
    if trace {
        req = req.trace();
    }
    if let Some(n) = batch {
        let subs: Vec<Request> = (1..=n)
            .map(|i| {
                let mut sub = req.clone();
                sub.id = i;
                sub
            })
            .collect();
        return match client.call_batch(1, &subs) {
            Ok(outcome) => {
                if let Response::Err { .. } = &outcome.response {
                    // The envelope itself was refused (batch-too-large,
                    // shutting-down, ...): one line, like a bare error.
                    println!("{}", outcome.response.encode());
                    return ExitCode::from(2);
                }
                let mut all_ok = true;
                for sub in &outcome.responses {
                    println!("{}", sub.encode());
                    all_ok &= matches!(sub, Response::Ok { .. });
                }
                if all_ok {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::from(2)
                }
            }
            Err(e) => {
                eprintln!("hetmem-client: {e}");
                ExitCode::from(1)
            }
        };
    }
    match client.call(&req) {
        Ok(outcome) => {
            println!("{}", outcome.response.encode());
            if matches!(outcome.response, Response::Ok { .. }) {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(2)
            }
        }
        Err(e) => {
            eprintln!("hetmem-client: {e}");
            ExitCode::from(1)
        }
    }
}
