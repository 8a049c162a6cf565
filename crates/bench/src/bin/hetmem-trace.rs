//! Trace/telemetry inspection CLI for the observability layer.
//!
//! ```text
//! hetmem-trace check <file...>          validate JSONL / trace JSON files
//! hetmem-trace summary <file> [--top K] summarize one telemetry or trace file
//! hetmem-trace spans <file> --request <id> [--out <path>]
//!                                       render one request's serve-spans
//! hetmem-trace promcheck <file...>      validate Prometheus expositions
//! ```
//!
//! `check` parses every line of a `.jsonl` telemetry file (or the whole
//! document for a Chrome trace `.json`) through the strict in-tree JSON
//! parser and fails loudly on the first malformed input — CI runs it
//! over everything the smoke sweep emits.
//!
//! `summary` understands both file shapes:
//!
//! * **telemetry JSONL** (`run` + `interval` records): per-run table,
//!   top-K hottest sampling windows by achieved GB/s, the windows with
//!   the worst pool imbalance (bus-utilization spread), and the MSHR
//!   stall breakdown;
//! * **Chrome trace JSON** (`traceEvents`): event counts and total
//!   duration per event name, plus the `truncated` marker if the tracer
//!   budget dropped events.
//!
//! `spans` filters a `serve.jsonl` for the `serve-span` lines of one
//! `request_id` (a request sent with `"trace":true`) and renders them
//! as a Chrome `trace_event` timeline — one complete event per phase
//! (read, decode, queue wait, cache lookup, execute, encode) — to
//! `--out` or stdout. It fails when the id has no spans, so a CI smoke
//! can assert tracing actually fired.
//!
//! `promcheck` validates Prometheus text exposition files through the
//! in-tree [`parse_prometheus`] validator. It accepts either the raw
//! text or a `metrics` op response envelope / body (JSON carrying the
//! text under `"text"`), so a captured `hetmem-client ... metrics
//! format=prometheus` line checks directly.
//!
//! Exit codes: 0 success, 1 an input file is unreadable or invalid, 2
//! usage error (unknown subcommand or flag, a missing or malformed
//! value).

use std::fs;
use std::process::ExitCode;

use hetmem_bench::cli::{self, Args};
use hetmem_harness::trace::{ChromeTrace, TraceEvent};
use hetmem_harness::{parse_prometheus, validate_jsonl, JsonValue};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("check") if args.len() > 1 => check(&args[1..]),
        Some("summary") if args.len() > 1 => summary(&args[1..]),
        Some("spans") if args.len() > 1 => spans(&args[1..]),
        Some("promcheck") if args.len() > 1 => promcheck(&args[1..]),
        _ => {
            eprintln!("usage: hetmem-trace check <file...>");
            eprintln!("       hetmem-trace summary <file> [--top K]");
            eprintln!("       hetmem-trace spans <file> --request <id> [--out <path>]");
            eprintln!("       hetmem-trace promcheck <file...>");
            ExitCode::from(2)
        }
    }
}

/// A Chrome trace is one JSON document; telemetry files are JSON Lines.
fn is_chrome_trace(text: &str) -> bool {
    let head: String = text.chars().take(200).collect();
    head.trim_start().starts_with('{') && head.contains("\"traceEvents\"")
}

fn check(files: &[String]) -> ExitCode {
    let mut failed = false;
    for path in files {
        let text = match fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("{path}: {e}");
                failed = true;
                continue;
            }
        };
        if is_chrome_trace(&text) {
            match JsonValue::parse(&text) {
                Ok(v) => {
                    let n = v
                        .get("traceEvents")
                        .and_then(JsonValue::as_array)
                        .map_or(0, <[JsonValue]>::len);
                    println!("{path}: trace OK ({n} events)");
                }
                Err(e) => {
                    eprintln!("{path}: invalid trace JSON: {e}");
                    failed = true;
                }
            }
        } else {
            match validate_jsonl(&text) {
                Ok(n) => println!("{path}: {n} lines OK"),
                Err((line, e)) => {
                    eprintln!("{path}:{line}: invalid JSON: {e}");
                    failed = true;
                }
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn summary(args: &[String]) -> ExitCode {
    let mut path = None;
    let mut top = 5usize;
    cli::parse_or_exit("hetmem-trace", 2, Args::new(args.to_vec()), |arg, args| {
        match arg.as_str() {
            "--top" => top = args.parse()?,
            other if other.starts_with("--") => return Err(args.unknown()),
            _ => path = Some(arg),
        }
        Ok(())
    });
    let Some(path) = path else {
        cli::usage_exit("hetmem-trace", 2, "summary needs a file");
    };
    let text = match fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("{path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if is_chrome_trace(&text) {
        summarize_trace(&path, &text)
    } else {
        summarize_jsonl(&path, &text, top)
    }
}

/// One parsed `interval` record, reduced to what the summary ranks on.
struct Window {
    who: String,
    start: u64,
    end: u64,
    gbps: f64,
    imbalance: f64,
    stalls: u64,
}

fn summarize_jsonl(path: &str, text: &str, top: usize) -> ExitCode {
    let mut runs: Vec<String> = Vec::new();
    let mut windows: Vec<Window> = Vec::new();
    // Sampled-fidelity runs tag each interval with its mode; full runs
    // carry no tag.
    let mut detail = 0usize;
    let mut extrapolated = 0usize;
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v = match JsonValue::parse(line) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("{path}:{}: invalid JSON: {e}", i + 1);
                return ExitCode::FAILURE;
            }
        };
        let str_of = |key: &str| v.get(key).and_then(JsonValue::as_str).unwrap_or("?");
        let num = |key: &str| v.get(key).and_then(JsonValue::as_f64).unwrap_or(0.0);
        let int = |key: &str| v.get(key).and_then(JsonValue::as_u64).unwrap_or(0);
        let who = format!("{}/{}", str_of("workload"), str_of("config"));
        match str_of("record") {
            "run" => runs.push(format!(
                "  {:<28}{:>12} cycles{:>9.2} GB/s   L1 {:>5.1}%  L2 {:>5.1}%  stalls {}{}",
                who,
                int("cycles"),
                num("achieved_gbps"),
                num("l1_hit_rate") * 100.0,
                num("l2_hit_rate") * 100.0,
                int("mshr_stalls"),
                if v.get("completed").and_then(JsonValue::as_bool) == Some(false) {
                    "  [DID NOT COMPLETE]"
                } else {
                    ""
                },
            )),
            "interval" => {
                match v.get("mode").and_then(JsonValue::as_str) {
                    Some("detail") => detail += 1,
                    Some("extrapolated") => extrapolated += 1,
                    _ => {}
                }
                let pools = v.get("pools").and_then(JsonValue::as_array).unwrap_or(&[]);
                let gbps: f64 = pools
                    .iter()
                    .filter_map(|p| p.get("achieved_gbps").and_then(JsonValue::as_f64))
                    .sum();
                let utils: Vec<f64> = pools
                    .iter()
                    .filter_map(|p| p.get("bus_util").and_then(JsonValue::as_f64))
                    .collect();
                let imbalance = utils.iter().cloned().fold(f64::MIN, f64::max)
                    - utils.iter().cloned().fold(f64::MAX, f64::min);
                windows.push(Window {
                    who,
                    start: int("start_cycle"),
                    end: int("end_cycle"),
                    gbps,
                    imbalance: if utils.len() > 1 { imbalance } else { 0.0 },
                    stalls: int("mshr_stalls"),
                });
            }
            other => {
                eprintln!("{path}:{}: unknown record type {other:?}", i + 1);
                return ExitCode::FAILURE;
            }
        }
    }

    println!(
        "{path}: {} run records, {} interval records{}",
        runs.len(),
        windows.len(),
        if detail + extrapolated > 0 {
            format!(" ({detail} detail, {extrapolated} extrapolated)")
        } else {
            String::new()
        }
    );
    if !runs.is_empty() {
        println!("runs:");
        for r in &runs {
            println!("{r}");
        }
    }
    if windows.is_empty() {
        return ExitCode::SUCCESS;
    }

    let fmt_w = |w: &Window, metric: String| {
        format!("  {:<28}[{:>10}..{:>10})  {metric}", w.who, w.start, w.end)
    };

    println!("hottest {top} windows (achieved GB/s):");
    let mut by_gbps: Vec<&Window> = windows.iter().collect();
    by_gbps.sort_by(|a, b| b.gbps.total_cmp(&a.gbps));
    for w in by_gbps.iter().take(top) {
        println!("{}", fmt_w(w, format!("{:8.2} GB/s", w.gbps)));
    }

    println!("worst {top} pool-imbalance windows (bus-util spread):");
    let mut by_imb: Vec<&Window> = windows.iter().collect();
    by_imb.sort_by(|a, b| b.imbalance.total_cmp(&a.imbalance));
    for w in by_imb.iter().take(top) {
        println!("{}", fmt_w(w, format!("{:8.1}%", w.imbalance * 100.0)));
    }

    let total_stalls: u64 = windows.iter().map(|w| w.stalls).sum();
    let stalled = windows.iter().filter(|w| w.stalls > 0).count();
    println!(
        "MSHR stalls: {total_stalls} total across {stalled}/{} windows",
        windows.len()
    );
    if total_stalls > 0 {
        let mut by_stalls: Vec<&Window> = windows.iter().collect();
        by_stalls.sort_by_key(|w| std::cmp::Reverse(w.stalls));
        for w in by_stalls.iter().take(top).filter(|w| w.stalls > 0) {
            println!("{}", fmt_w(w, format!("{:8} stalls", w.stalls)));
        }
    }
    ExitCode::SUCCESS
}

/// `spans`: one request's `serve-span` lines as a Chrome timeline.
fn spans(args: &[String]) -> ExitCode {
    let mut path = None;
    let mut request = None;
    let mut out = None;
    cli::parse_or_exit("hetmem-trace", 2, Args::new(args.to_vec()), |arg, args| {
        match arg.as_str() {
            "--request" => request = Some(args.value()?),
            "--out" => out = Some(args.value()?),
            other if other.starts_with("--") => return Err(args.unknown()),
            _ => path = Some(arg),
        }
        Ok(())
    });
    let (Some(path), Some(request)) = (path, request) else {
        cli::usage_exit("hetmem-trace", 2, "spans needs <file> and --request <id>");
    };
    let text = match fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("{path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut trace = ChromeTrace::new();
    trace.name_process(0, &format!("request {request} (server phases)"));
    let mut n = 0usize;
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v = match JsonValue::parse(line) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("{path}:{}: invalid JSON: {e}", i + 1);
                return ExitCode::FAILURE;
            }
        };
        let str_of = |key: &str| v.get(key).and_then(JsonValue::as_str);
        if str_of("kind") != Some("serve-span") || str_of("request_id") != Some(&request) {
            continue;
        }
        let int = |key: &str| v.get(key).and_then(JsonValue::as_u64).unwrap_or(0);
        let phase = str_of("phase").unwrap_or("?");
        let op = str_of("op").unwrap_or("?");
        trace.push(
            TraceEvent::complete(
                phase,
                "serve",
                int("start_us") as f64,
                int("dur_us") as f64,
                0,
                0,
            )
            .arg("op", format!("\"{op}\"")),
        );
        n += 1;
    }
    if n == 0 {
        eprintln!(
            "{path}: no serve-span lines for request_id '{request}' \
             (was the request sent with --trace?)"
        );
        return ExitCode::FAILURE;
    }
    let doc = trace.render();
    match out {
        Some(out_path) => {
            if let Err(e) = fs::write(&out_path, &doc) {
                eprintln!("{out_path}: {e}");
                return ExitCode::FAILURE;
            }
            println!("{out_path}: {n} spans for request '{request}'");
        }
        None => println!("{doc}"),
    }
    ExitCode::SUCCESS
}

/// `promcheck`: Prometheus exposition validation, raw or enveloped.
fn promcheck(files: &[String]) -> ExitCode {
    let mut failed = false;
    for path in files {
        let text = match fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("{path}: {e}");
                failed = true;
                continue;
            }
        };
        // A JSON document (a `metrics` op response line, or its result
        // body) carries the exposition under a "text" field, possibly
        // nested under "result".
        let exposition = if text.trim_start().starts_with('{') {
            match JsonValue::parse(text.trim()) {
                Ok(v) => {
                    let inner = v
                        .get("text")
                        .or_else(|| v.get("result").and_then(|r| r.get("text")))
                        .and_then(JsonValue::as_str)
                        .map(str::to_string);
                    match inner {
                        Some(t) => t,
                        None => {
                            eprintln!("{path}: JSON input has no 'text' field to check");
                            failed = true;
                            continue;
                        }
                    }
                }
                Err(e) => {
                    eprintln!("{path}: invalid JSON envelope: {e}");
                    failed = true;
                    continue;
                }
            }
        } else {
            text
        };
        match parse_prometheus(&exposition) {
            Ok(n) => println!("{path}: {n} samples OK"),
            Err(e) => {
                eprintln!("{path}: invalid exposition: {e}");
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn summarize_trace(path: &str, text: &str) -> ExitCode {
    let v = match JsonValue::parse(text) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("{path}: invalid trace JSON: {e}");
            return ExitCode::FAILURE;
        }
    };
    let Some(events) = v.get("traceEvents").and_then(JsonValue::as_array) else {
        eprintln!("{path}: no traceEvents array");
        return ExitCode::FAILURE;
    };
    // Count and total duration per event name, first-appearance order.
    let mut names: Vec<(String, u64, f64)> = Vec::new();
    let mut truncated: Option<(u64, u64)> = None;
    for ev in events {
        let name = ev
            .get("name")
            .and_then(JsonValue::as_str)
            .unwrap_or("?")
            .to_string();
        if name == "truncated" {
            let arg = |k: &str| {
                ev.get("args")
                    .and_then(|a| a.get(k))
                    .and_then(JsonValue::as_u64)
                    .unwrap_or(0)
            };
            truncated = Some((arg("dropped"), arg("budget")));
        }
        let dur = ev.get("dur").and_then(JsonValue::as_f64).unwrap_or(0.0);
        match names.iter_mut().find(|(n, _, _)| *n == name) {
            Some((_, count, total)) => {
                *count += 1;
                *total += dur;
            }
            None => names.push((name, 1, dur)),
        }
    }
    println!("{path}: {} events", events.len());
    for (name, count, total) in &names {
        if *total > 0.0 {
            println!("  {name:<20}{count:>8} events{total:>12.1} us total");
        } else {
            println!("  {name:<20}{count:>8} events");
        }
    }
    if let Some((dropped, budget)) = truncated {
        println!("  TRUNCATED: {dropped} events dropped (budget {budget})");
    }
    ExitCode::SUCCESS
}
