//! `hetmem-top`: a live terminal dashboard for `hetmem-serve`.
//!
//! ```text
//! hetmem-top [flags] <addr>
//!
//! hetmem-top 127.0.0.1:7711                    # live, 1s refresh
//! hetmem-top --interval-ms 250 127.0.0.1:7711
//! hetmem-top --once 127.0.0.1:7711             # one frame, no clear
//! hetmem-top --once --json --check 127.0.0.1:7711   # CI scrape
//! ```
//!
//! Each frame is one `stats` + one `metrics` round-trip rendered as
//! request rate (with a sparkline over recent intervals), ok/error/
//! shed/restart counters, cache occupancy and hit ratio, per-shard
//! queue depths, and a per-op latency table (count, p50/p95/p99 µs)
//! from the server's `hm_request_duration_us` histograms.
//!
//! Flags:
//!
//! * `--interval-ms <n>` — refresh period (default 1000)
//! * `--once` — print a single frame and exit (no screen clearing)
//! * `--json` — print the frame as one JSON object instead of the
//!   dashboard (implies no screen clearing; with a poll loop, one
//!   JSON line per interval)
//! * `--check` — verify the conservation invariant (Σ per-op
//!   histogram counts == `hm_requests_total`) on every frame; exit 2
//!   with a message on the first violation
//! * `--timeout-ms <n>` — per-poll socket read timeout (default 5000)
//!
//! Exit codes: 0 on success, 1 on a usage error (unknown flag, missing
//! or malformed value) or a transport/parse failure, 2 on a `--check`
//! violation.

use std::process::ExitCode;
use std::time::Duration;

use hetmem_bench::cli::{self, Args};
use hetmem_bench::top::{render, TopSnapshot};

/// Recent request-rate history length (sparkline width).
const HISTORY: usize = 30;

fn main() -> ExitCode {
    let mut interval = Duration::from_millis(1000);
    let mut timeout = Duration::from_millis(5000);
    let mut once = false;
    let mut json = false;
    let mut check = false;
    let mut addr: Option<String> = None;
    cli::parse_or_exit("hetmem-top", 1, Args::from_env(), |arg, args| {
        match arg.as_str() {
            "--interval-ms" => interval = Duration::from_millis(args.parse::<u64>()?.max(1)),
            "--timeout-ms" => timeout = Duration::from_millis(args.parse::<u64>()?.max(1)),
            "--once" => once = true,
            "--json" => json = true,
            "--check" => check = true,
            other if addr.is_none() && !other.starts_with("--") => addr = Some(arg),
            _ => return Err(args.unknown()),
        }
        Ok(())
    });
    let Some(addr) = addr else {
        eprintln!("usage: hetmem-top [--interval-ms n] [--once] [--json] [--check] <addr>");
        return ExitCode::from(1);
    };

    let mut prev_requests: Option<u64> = None;
    let mut rates: Vec<u64> = Vec::new();
    loop {
        let snap = match TopSnapshot::fetch(&addr, timeout) {
            Ok(snap) => snap,
            Err(e) => {
                eprintln!("hetmem-top: {e}");
                return ExitCode::from(1);
            }
        };
        if check {
            if let Err(msg) = snap.check_conservation() {
                eprintln!("hetmem-top: {msg}");
                return ExitCode::from(2);
            }
        }
        rates.push(
            snap.requests
                .saturating_sub(prev_requests.unwrap_or(snap.requests)),
        );
        if rates.len() > HISTORY {
            rates.remove(0);
        }
        prev_requests = Some(snap.requests);
        if json {
            println!("{}", snap.to_json());
        } else if once {
            print!("{}", render(&snap, &rates, interval));
        } else {
            // Clear + home, then the frame: a flicker-free enough
            // refresh without pulling in a terminal library.
            print!("\x1b[2J\x1b[H{}", render(&snap, &rates, interval));
            use std::io::Write;
            let _ = std::io::stdout().flush();
        }
        if once {
            return ExitCode::SUCCESS;
        }
        std::thread::sleep(interval);
    }
}
