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
//! * `--shards <n>` — simulation worker shards, 1..=64 (default 2)
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
//! Every count, size and timeout must be positive. `hetmem-fleet`
//! reads every flag above except `--out` and `--fsync` through the same
//! parser, [`ServeConfig::parse_flag`](hetmem_bench::serve::ServeConfig::parse_flag).
//!
//! The process exits after a client sends the `shutdown` op; in-flight
//! requests are drained first. The server runs on a poll(2) reactor
//! and is unix-only; elsewhere the binary exits 1.
//!
//! Exit codes: 0 after a drained shutdown, 1 startup failure (an
//! address it cannot bind, an `--out` directory it cannot create, a
//! `--port-file` it cannot write), 2 usage error (an unknown flag, a
//! missing or malformed value, a bad `--faults` spec).

#[cfg(unix)]
fn main() -> std::process::ExitCode {
    use std::sync::Arc;

    use hetmem::TelemetrySink;
    use hetmem_bench::cli::{self, usage_exit, Args};
    use hetmem_bench::serve::{start, ServeConfig};

    let mut cfg = ServeConfig::default();
    let mut port_file: Option<String> = None;
    let mut out_dir: Option<String> = None;
    let mut fsync = false;
    cli::parse_or_exit("hetmem-serve", 2, Args::from_env(), |arg, args| {
        match arg.as_str() {
            "--out" => out_dir = Some(args.value()?),
            "--fsync" => fsync = true,
            "--port-file" => port_file = Some(args.value()?),
            _ => cfg.parse_flag(&arg, args)?,
        }
        Ok(())
    });
    let fail = |msg: String| -> ! { usage_exit("hetmem-serve", 1, &msg) };
    if let Some(dir) = out_dir {
        let sink = TelemetrySink::create_with_fsync(&dir, fsync)
            .unwrap_or_else(|e| fail(format!("cannot create telemetry dir {dir}: {e}")));
        cfg.telemetry = Some(Arc::new(sink));
    }
    let addr = cfg.addr.clone();
    let handle = start(cfg).unwrap_or_else(|e| fail(format!("cannot listen on '{addr}': {e}")));
    println!("hetmem-serve listening on {}", handle.addr());
    if let Some(path) = port_file {
        std::fs::write(&path, handle.port().to_string())
            .unwrap_or_else(|e| fail(format!("cannot write port file {path}: {e}")));
    }
    handle.wait();
    println!("hetmem-serve drained, exiting");
    std::process::ExitCode::SUCCESS
}

#[cfg(not(unix))]
fn main() {
    eprintln!("hetmem-serve requires a unix platform (poll(2) front end)");
    std::process::exit(1);
}
