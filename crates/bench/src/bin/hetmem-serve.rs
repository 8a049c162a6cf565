//! The `hetmem-serve` daemon: the online placement service over JSONL
//! on TCP.
//!
//! ```text
//! cargo run --release -p hetmem-bench --bin hetmem-serve -- \
//!     --addr 127.0.0.1:0 --shards 4 --port-file /tmp/hetmem.port
//! ```
//!
//! Flags:
//!
//! * `--addr <host:port>` — bind address (default `127.0.0.1:0`; port
//!   0 picks an ephemeral port, printed on stdout)
//! * `--shards <n>` — simulation worker shards (default 2)
//! * `--queue-depth <n>` — bounded queue depth per shard (default 32)
//! * `--cache <n>` — result cache capacity in entries (default 128)
//! * `--max-batch <n>` — `batch` sub-request ceiling per envelope
//!   (default 64); beyond it the envelope is refused `batch-too-large`
//! * `--conn-buf <bytes>` — backpressure threshold (default
//!   262144); a connection holding this much unflushed response
//!   backlog has further requests shed with `overloaded`
//! * `--out <dir>` — stream per-request telemetry to `<dir>/serve.jsonl`
//! * `--fsync` — fsync the telemetry file after every append
//! * `--read-timeout-ms <n>` — accepted-connection read timeout
//!   (default 120000)
//! * `--write-timeout-ms <n>` — accepted-connection write timeout
//!   (default 30000)
//! * `--faults <spec>` — deterministic chaos injection, e.g.
//!   `seed=7,panic=0.05,latency=0.2,latency-ms=40,wire=0.1,corrupt=0.1`
//! * `--port-file <path>` — write the bound port (digits only) for
//!   scripts that cannot parse stdout
//!
//! The process exits after a client sends the `shutdown` op; in-flight
//! requests are drained first. The server runs on a poll(2) reactor
//! and is unix-only; elsewhere the binary exits 1.

#[cfg(unix)]
fn main() {
    use std::sync::Arc;

    use hetmem::TelemetrySink;
    use hetmem_bench::serve::{start, ServeConfig};
    use hetmem_harness::FaultPlan;

    let mut cfg = ServeConfig::default();
    let mut port_file: Option<String> = None;
    let mut out_dir: Option<String> = None;
    let mut fsync = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => cfg.addr = args.next().expect("--addr needs host:port"),
            "--max-batch" => {
                let v = args.next().expect("--max-batch needs a value");
                cfg.max_batch = v.parse().expect("--max-batch takes an integer");
            }
            "--conn-buf" => {
                let v = args.next().expect("--conn-buf needs a value");
                cfg.conn_buffer = v.parse().expect("--conn-buf takes an integer");
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
            "--out" => out_dir = Some(args.next().expect("--out needs a directory")),
            "--fsync" => fsync = true,
            "--read-timeout-ms" => {
                let v = args.next().expect("--read-timeout-ms needs a value");
                cfg.read_timeout_ms = v.parse().expect("--read-timeout-ms takes an integer");
            }
            "--write-timeout-ms" => {
                let v = args.next().expect("--write-timeout-ms needs a value");
                cfg.write_timeout_ms = v.parse().expect("--write-timeout-ms takes an integer");
            }
            "--faults" => {
                let spec = args.next().expect("--faults needs a spec");
                let plan = FaultPlan::parse(&spec)
                    .unwrap_or_else(|e| panic!("bad --faults spec '{spec}': {e}"));
                cfg.faults = Some(plan);
            }
            "--port-file" => port_file = Some(args.next().expect("--port-file needs a path")),
            other => panic!("unknown flag {other}; see hetmem-serve docs"),
        }
    }
    if let Some(dir) = out_dir {
        let sink = TelemetrySink::create_with_fsync(&dir, fsync)
            .unwrap_or_else(|e| panic!("cannot create telemetry dir {dir}: {e}"));
        cfg.telemetry = Some(Arc::new(sink));
    }
    let handle = start(cfg).unwrap_or_else(|e| panic!("hetmem-serve failed to start: {e}"));
    println!("hetmem-serve listening on {}", handle.addr());
    if let Some(path) = port_file {
        std::fs::write(&path, handle.port().to_string())
            .unwrap_or_else(|e| panic!("cannot write port file {path}: {e}"));
    }
    handle.wait();
    println!("hetmem-serve drained, exiting");
}

#[cfg(not(unix))]
fn main() {
    eprintln!("hetmem-serve requires a unix platform (poll(2) front end)");
    std::process::exit(1);
}
