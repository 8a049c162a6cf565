//! Integration tests for `hetmem-sweep`: local and remote (`--addr`)
//! mode resolve every grid point through serve's `simulate` parser, so
//! the two modes emit the same records, `--seed` reaches every point as
//! its trace seed, and a point `simulate` refuses is a clean setup
//! error rather than a worker panic.
#![cfg(unix)]

use std::process::{Command, Output};

use hetmem_bench::serve::{start, ServeConfig};
use hetmem_harness::json::JsonValue;
use workloads::catalog;

const GRID: [&str; 8] = [
    "--workloads",
    "bfs",
    "--policies",
    "LOCAL,BW-AWARE,30C-70B",
    "--mem-ops",
    "2000",
    "--sms",
    "2",
];

/// `GRID` plus `extra`.
fn grid_with(extra: &[&str]) -> Vec<String> {
    GRID.iter().chain(extra).map(|s| s.to_string()).collect()
}

fn sweep(extra: &[impl AsRef<std::ffi::OsStr>]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_hetmem-sweep"))
        .args(extra)
        .output()
        .expect("spawn hetmem-sweep")
}

/// Each output line as a parsed record, without the two fields that
/// name the producer (`sweep` tag and the `config_hash` derived from it).
fn records(out: &Output) -> Vec<JsonValue> {
    assert!(
        out.status.success(),
        "hetmem-sweep failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout.clone())
        .unwrap()
        .lines()
        .map(|line| match JsonValue::parse(line).unwrap() {
            JsonValue::Object(fields) => JsonValue::Object(
                fields
                    .into_iter()
                    .filter(|(k, _)| k != "sweep" && k != "config_hash")
                    .collect(),
            ),
            other => panic!("record is not an object: {other:?}"),
        })
        .collect()
}

#[test]
fn local_and_remote_sweeps_emit_the_same_records() {
    let (local, remote) = local_and_remote(&grid_with(&[]));
    assert_eq!(local.len(), 3);
    let configs: Vec<_> = local
        .iter()
        .map(|r| r.get("config").and_then(JsonValue::as_str).unwrap())
        .collect();
    assert_eq!(configs, ["LOCAL", "BW-AWARE(29C-71B)", "BW-AWARE(30C-70B)"]);
    assert_eq!(local, remote);
}

/// Local records and the records a live server returns for the same
/// sweep arguments.
fn local_and_remote(args: &[String]) -> (Vec<JsonValue>, Vec<JsonValue>) {
    let local = records(&sweep(args));
    let server = start(ServeConfig::default()).expect("bind loopback");
    let mut remote_args = args.to_vec();
    remote_args.extend(["--addr".to_string(), server.addr().to_string()]);
    let remote = records(&sweep(&remote_args));
    server.shutdown();
    server.wait();
    (local, remote)
}

#[test]
fn seed_is_each_points_trace_seed() {
    let run = |seed: &str| {
        let out = sweep(&grid_with(&["--seed", seed]));
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        out.stdout
    };
    assert_eq!(run("7"), run("7"), "one seed, one set of bytes");
    assert_ne!(
        records(&sweep(&grid_with(&["--seed", "1"]))),
        records(&sweep(&grid_with(&["--seed", "2"]))),
        "two seeds must give different records"
    );
    // Without `--seed` every point keeps its workload's catalog seed.
    let catalog_seed = catalog::by_name("bfs").unwrap().seed.to_string();
    assert_eq!(sweep(&GRID).stdout, run(&catalog_seed));
}

#[test]
fn seeded_local_and_remote_sweeps_emit_the_same_records() {
    let (local, remote) = local_and_remote(&grid_with(&["--seed", "99"]));
    assert_eq!(local.len(), 3);
    assert_eq!(local, remote);
    assert_ne!(local, records(&sweep(&GRID)), "the seed reached the points");
}

#[test]
fn refused_points_exit_2_without_panicking() {
    let cases: [(&[&str], &str); 5] = [
        (&["--mem-ops", "0"], "invalid-request"),
        (&["--sms", "0"], "invalid-request"),
        (
            &["--mem-ops", "abc"],
            "--mem-ops: expected an integer, got 'abc'",
        ),
        (&["--mem-ops"], "--mem-ops needs a value"),
        (&["--seed", "9007199254740993"], "--seed '9007199254740993'"),
    ];
    for (flag, expected) in cases {
        let out = sweep(flag);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag:?}: {stderr}");
        assert!(stderr.contains(expected), "{flag:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{flag:?}: {stderr}");
    }
}
