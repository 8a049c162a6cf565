//! The `hetmem-fleet` router: fault-tolerant multi-process serving in
//! front of N supervised `hetmem-serve` backends.
//!
//! ```text
//! cargo run --release -p hetmem-bench --bin hetmem-fleet -- \
//!     --addr 127.0.0.1:0 --backends 3 --port-file /tmp/fleet.port
//! ```
//!
//! Flags:
//!
//! * `--addr <host:port>` — router bind address (default `127.0.0.1:0`)
//! * `--backends <n>` — supervised `hetmem-serve` children (default 2)
//! * `--serve-bin <path>` — backend binary (default: the
//!   `hetmem-serve` next to this executable)
//! * `--shards <n>` / `--queue-depth <n>` / `--cache <n>` /
//!   `--max-batch <n>` — passed through to every backend (`--max-batch`
//!   is also enforced at the router)
//! * `--conn-buf <bytes>` — router backpressure threshold (default
//!   262144), same shedding semantics as `hetmem-serve`
//! * `--read-timeout-ms <n>` / `--write-timeout-ms <n>` — client
//!   connection timeouts at the router (defaults 120000 / 30000)
//! * `--backend-timeout-ms <n>` — read timeout per forwarded
//!   round-trip (default 120000)
//! * `--probe-interval-ms <n>` — health-probe cadence (default 200)
//! * `--probe-deadline-ms <n>` — health-probe deadline (default 750)
//! * `--breaker-threshold <n>` — consecutive failures opening a
//!   backend's circuit breaker (default 3)
//! * `--max-restarts <n>` — rapid-crash restart budget per backend
//!   before it is marked gone (default 5)
//! * `--seed <n>` — seeds the deterministic breaker-cooldown and
//!   restart-backoff jitter
//! * `--faults <spec>` — chaos spec passed through to every backend
//!   (checked here first; a bad spec is a usage error)
//! * `--workers <n>` — forwarding threads (default 2 per backend)
//! * `--fwd-queue <n>` — forwarding-queue depth (default 256)
//! * `--port-file <path>` — write the router's bound port (digits only)
//!
//! The router exits after a client sends the `shutdown` op, or on
//! SIGTERM or SIGINT: in-flight requests finish, then every backend is
//! stopped gracefully.
//!
//! Exit codes: 0 after a drained shutdown, 1 startup failure (an
//! address it cannot bind, a backend that does not come up, a
//! `--port-file` it cannot write), 2 usage error (an unknown flag, a
//! missing or malformed value, a bad `--faults` spec).

#[cfg(unix)]
fn main() -> std::process::ExitCode {
    use hetmem_bench::cli::{self, usage_exit, Args};
    use hetmem_bench::fleet::{start, FleetConfig};
    use hetmem_harness::FaultPlan;

    let mut cfg = FleetConfig::default();
    let mut port_file: Option<String> = None;
    cli::parse_or_exit("hetmem-fleet", 2, Args::from_env(), |arg, args| {
        match arg.as_str() {
            "--addr" => cfg.addr = args.value()?,
            "--backends" => cfg.backends = args.parse()?,
            "--serve-bin" => cfg.serve_bin = Some(args.parse()?),
            "--shards" => cfg.shards = args.parse()?,
            "--queue-depth" => cfg.queue_depth = args.parse()?,
            "--cache" => cfg.cache_capacity = args.parse()?,
            "--max-batch" => cfg.max_batch = args.parse()?,
            "--conn-buf" => cfg.conn_buffer = args.parse()?,
            "--read-timeout-ms" => cfg.read_timeout_ms = args.parse()?,
            "--write-timeout-ms" => cfg.write_timeout_ms = args.parse()?,
            "--backend-timeout-ms" => cfg.backend_timeout_ms = args.parse()?,
            "--probe-interval-ms" => cfg.probe_interval_ms = args.parse()?,
            "--probe-deadline-ms" => cfg.probe_deadline_ms = args.parse()?,
            "--breaker-threshold" => cfg.breaker_threshold = args.parse()?,
            "--max-restarts" => cfg.max_restarts = args.parse()?,
            "--seed" => cfg.seed = args.parse()?,
            // Checked here, so a bad spec is a usage error rather
            // than every backend failing at startup; the backends
            // get the original text.
            "--faults" => {
                let spec = args.parse_with(|s| FaultPlan::parse(s).map(|_| s.to_string()))?;
                cfg.backend_faults = Some(spec);
            }
            "--workers" => cfg.workers = args.parse()?,
            "--fwd-queue" => cfg.fwd_queue = args.parse()?,
            "--port-file" => port_file = Some(args.value()?),
            _ => return Err(args.unknown()),
        }
        Ok(())
    });
    let fail = |msg: String| -> ! { usage_exit("hetmem-fleet", 1, &msg) };
    let addr = cfg.addr.clone();
    let mut handle = start(cfg).unwrap_or_else(|e| fail(format!("cannot start on '{addr}': {e}")));
    handle.drain_on_termination_signals();
    println!(
        "hetmem-fleet listening on {} ({} backends)",
        handle.addr(),
        handle.backends()
    );
    if let Some(path) = port_file {
        if let Err(e) = std::fs::write(&path, handle.port().to_string()) {
            // Dropping the handle stops the backends it spawned.
            drop(handle);
            fail(format!("cannot write port file {path}: {e}"));
        }
    }
    handle.wait();
    println!("hetmem-fleet drained, exiting");
    std::process::ExitCode::SUCCESS
}

#[cfg(not(unix))]
fn main() {
    eprintln!("hetmem-fleet requires a unix platform (poll(2) front end and child signalling)");
    std::process::exit(1);
}
