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
//! * `--workers <n>` — forwarding threads (default 2 per backend)
//! * `--fwd-queue <n>` — forwarding-queue depth (default 256)
//! * `--port-file <path>` — write the router's bound port (digits only)
//!
//! The router exits after a client sends the `shutdown` op, or on
//! SIGTERM or SIGINT: in-flight requests finish, then every backend is
//! stopped gracefully.

#[cfg(unix)]
fn main() {
    use hetmem_bench::fleet::{start, FleetConfig};

    let mut cfg = FleetConfig::default();
    let mut port_file: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => cfg.addr = args.next().expect("--addr needs host:port"),
            "--backends" => {
                let v = args.next().expect("--backends needs a value");
                cfg.backends = v.parse().expect("--backends takes an integer");
            }
            "--serve-bin" => {
                let v = args.next().expect("--serve-bin needs a path");
                cfg.serve_bin = Some(std::path::PathBuf::from(v));
            }
            "--shards" => {
                let v = args.next().expect("--shards needs a value");
                cfg.shards = v.parse().expect("--shards takes an integer");
            }
            "--queue-depth" => {
                let v = args.next().expect("--queue-depth needs a value");
                cfg.queue_depth = v.parse().expect("--queue-depth takes an integer");
            }
            "--cache" => {
                let v = args.next().expect("--cache needs a value");
                cfg.cache_capacity = v.parse().expect("--cache takes an integer");
            }
            "--max-batch" => {
                let v = args.next().expect("--max-batch needs a value");
                cfg.max_batch = v.parse().expect("--max-batch takes an integer");
            }
            "--conn-buf" => {
                let v = args.next().expect("--conn-buf needs a value");
                cfg.conn_buffer = v.parse().expect("--conn-buf takes an integer");
            }
            "--read-timeout-ms" => {
                let v = args.next().expect("--read-timeout-ms needs a value");
                cfg.read_timeout_ms = v.parse().expect("--read-timeout-ms takes an integer");
            }
            "--write-timeout-ms" => {
                let v = args.next().expect("--write-timeout-ms needs a value");
                cfg.write_timeout_ms = v.parse().expect("--write-timeout-ms takes an integer");
            }
            "--backend-timeout-ms" => {
                let v = args.next().expect("--backend-timeout-ms needs a value");
                cfg.backend_timeout_ms = v.parse().expect("--backend-timeout-ms takes an integer");
            }
            "--probe-interval-ms" => {
                let v = args.next().expect("--probe-interval-ms needs a value");
                cfg.probe_interval_ms = v.parse().expect("--probe-interval-ms takes an integer");
            }
            "--probe-deadline-ms" => {
                let v = args.next().expect("--probe-deadline-ms needs a value");
                cfg.probe_deadline_ms = v.parse().expect("--probe-deadline-ms takes an integer");
            }
            "--breaker-threshold" => {
                let v = args.next().expect("--breaker-threshold needs a value");
                cfg.breaker_threshold = v.parse().expect("--breaker-threshold takes an integer");
            }
            "--max-restarts" => {
                let v = args.next().expect("--max-restarts needs a value");
                cfg.max_restarts = v.parse().expect("--max-restarts takes an integer");
            }
            "--seed" => {
                let v = args.next().expect("--seed needs a value");
                cfg.seed = v.parse().expect("--seed takes an integer");
            }
            "--faults" => cfg.backend_faults = Some(args.next().expect("--faults needs a spec")),
            "--workers" => {
                let v = args.next().expect("--workers needs a value");
                cfg.workers = v.parse().expect("--workers takes an integer");
            }
            "--fwd-queue" => {
                let v = args.next().expect("--fwd-queue needs a value");
                cfg.fwd_queue = v.parse().expect("--fwd-queue takes an integer");
            }
            "--port-file" => port_file = Some(args.next().expect("--port-file needs a path")),
            other => panic!("unknown flag {other}; see hetmem-fleet docs"),
        }
    }
    let mut handle = start(cfg).unwrap_or_else(|e| panic!("hetmem-fleet failed to start: {e}"));
    handle.drain_on_termination_signals();
    println!(
        "hetmem-fleet listening on {} ({} backends)",
        handle.addr(),
        handle.backends()
    );
    if let Some(path) = port_file {
        std::fs::write(&path, handle.port().to_string())
            .unwrap_or_else(|e| panic!("cannot write port file {path}: {e}"));
    }
    handle.wait();
    println!("hetmem-fleet drained, exiting");
}

#[cfg(not(unix))]
fn main() {
    eprintln!("hetmem-fleet requires a unix platform (poll(2) front end and child signalling)");
    std::process::exit(1);
}
