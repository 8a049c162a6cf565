//! Usage errors on the command-line binaries: an unknown flag, a flag
//! missing its value and a malformed value each exit with the binary's
//! documented usage code and a stderr message naming the flag, never
//! with a panic. The network daemons' startup failures (an address they
//! cannot bind, a path they cannot write) exit 1 the same way.
#![cfg(unix)]

use std::path::PathBuf;
use std::process::Command;

/// Runs `bin` with `args` and checks the exit code and that stderr
/// carries `expected` and no panic.
fn refused(bin: &str, args: &[&str], code: i32, expected: &str) {
    let out = Command::new(bin).args(args).output().expect("spawn binary");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(code), "{bin} {args:?}: {stderr}");
    assert!(stderr.contains(expected), "{bin} {args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{bin} {args:?}: {stderr}");
}

/// The three usage errors every binary shares. `lead` comes first (a
/// subcommand), `tail` last (positionals a run needs); `flag` takes an
/// integer.
fn usage_errors(bin: &str, code: i32, lead: &[&str], flag: &str, tail: &[&str]) {
    let unknown = [lead, &["--bogus"], tail].concat();
    refused(bin, &unknown, code, "unknown flag --bogus");
    let missing = [lead, tail, &[flag]].concat();
    refused(bin, &missing, code, &format!("{flag} needs a value"));
    let malformed = [lead, &[flag, "abc"], tail].concat();
    let expected = format!("{flag}: expected an integer, got 'abc'");
    refused(bin, &malformed, code, &expected);
}

#[test]
fn serve_usage_errors_exit_2() {
    let bin = env!("CARGO_BIN_EXE_hetmem-serve");
    usage_errors(bin, 2, &[], "--shards", &[]);
    refused(bin, &["--faults", "panic=2"], 2, "--faults 'panic=2'");
    // Refused while the flag is parsed, before any thread is spawned.
    refused(
        bin,
        &["--shards", "100000"],
        2,
        "--shards: must be in 1..=64",
    );
    refused(
        bin,
        &["--queue-depth", "0"],
        2,
        "--queue-depth: must be positive",
    );
}

#[test]
fn fleet_usage_errors_exit_2() {
    let bin = env!("CARGO_BIN_EXE_hetmem-fleet");
    usage_errors(bin, 2, &[], "--backends", &[]);
    // A bad spec is refused before any backend is spawned.
    refused(bin, &["--faults", "bogus"], 2, "--faults 'bogus'");
    // So are counts outside 1..=64: nothing is spawned for them.
    refused(
        bin,
        &["--backends", "0"],
        2,
        "--backends: must be in 1..=64",
    );
    refused(bin, &["--workers", "0"], 2, "--workers: must be in 1..=64");
    refused(
        bin,
        &["--shards", "100000"],
        2,
        "--shards: must be in 1..=64",
    );
}

/// A path under a regular file, which no one can create or write.
fn unwritable(name: &str) -> (PathBuf, String) {
    let file = std::env::temp_dir().join(format!("hetmem-cli-{}-{name}", std::process::id()));
    std::fs::write(&file, "").unwrap();
    let under = file.join("x").display().to_string();
    (file, under)
}

#[test]
fn serve_startup_failures_exit_1() {
    let bin = env!("CARGO_BIN_EXE_hetmem-serve");
    refused(bin, &["--addr", "256.0.0.1:0"], 1, "256.0.0.1:0");
    let (file, under) = unwritable("serve");
    refused(bin, &["--port-file", &under], 1, &under);
    refused(bin, &["--out", &under], 1, &under);
    std::fs::remove_file(file).unwrap();
}

#[test]
fn fleet_startup_failures_exit_1() {
    let bin = env!("CARGO_BIN_EXE_hetmem-fleet");
    refused(bin, &["--addr", "256.0.0.1:0"], 1, "256.0.0.1:0");
    // The router is up when the write fails; it stops its backend
    // before exiting.
    let (file, under) = unwritable("fleet");
    refused(bin, &["--backends", "1", "--port-file", &under], 1, &under);
    std::fs::remove_file(file).unwrap();
}

#[test]
fn client_usage_errors_exit_1() {
    let bin = env!("CARGO_BIN_EXE_hetmem-client");
    usage_errors(bin, 1, &[], "--retries", &["127.0.0.1:1", "stats"]);
    refused(bin, &["--batch", "0", "127.0.0.1:1", "stats"], 1, "--batch");
    refused(
        bin,
        &["--request-id", "", "127.0.0.1:1", "stats"],
        1,
        "--request-id",
    );
    refused(bin, &["127.0.0.1:1", "simulate", "mem_ops"], 1, "key=value");
}

#[test]
fn top_usage_errors_exit_1() {
    let bin = env!("CARGO_BIN_EXE_hetmem-top");
    usage_errors(bin, 1, &[], "--interval-ms", &["127.0.0.1:1"]);
}

#[test]
fn trace_usage_errors_exit_2() {
    let bin = env!("CARGO_BIN_EXE_hetmem-trace");
    usage_errors(bin, 2, &["summary"], "--top", &["no-such-file.jsonl"]);
}

#[test]
fn figure_usage_errors_exit_2() {
    let bin = env!("CARGO_BIN_EXE_fig3");
    usage_errors(bin, 2, &[], "--sms", &[]);
    refused(bin, &["--sample-cycles", "0"], 2, "--sample-cycles");
    // Refused while the flag is parsed, before any thread starts.
    refused(
        bin,
        &["--threads", "100000"],
        2,
        "--threads: must be in 0..=64",
    );
    refused(
        bin,
        &["--workloads", "lbmm"],
        2,
        "unknown workload \"lbmm\"",
    );
}

#[test]
fn sweep_usage_errors_exit_2() {
    let bin = env!("CARGO_BIN_EXE_hetmem-sweep");
    usage_errors(bin, 2, &[], "--mem-ops", &[]);
    // Refused while the flag is parsed, before any thread starts.
    refused(
        bin,
        &["--threads", "100000"],
        2,
        "--threads: must be in 0..=64",
    );
    // 2^53 and past: a JSON number could not carry the seed exactly.
    for seed in ["9007199254740992", "9007199254740993"] {
        refused(bin, &["--seed", seed], 2, "expected an integer below 2^53");
    }
}
