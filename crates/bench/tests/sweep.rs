//! Integration tests for `hetmem-sweep`: local and remote (`--addr`)
//! mode resolve every grid point through serve's `simulate` parser, so
//! the two modes emit the same records, and a point `simulate` refuses
//! is a clean setup error rather than a worker panic.
#![cfg(unix)]

use std::process::{Command, Output};

use hetmem_bench::serve::{start, ServeConfig};
use hetmem_harness::json::JsonValue;

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

fn sweep(extra: &[&str]) -> Output {
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
    let local = records(&sweep(&GRID));
    assert_eq!(local.len(), 3);
    let configs: Vec<_> = local
        .iter()
        .map(|r| r.get("config").and_then(JsonValue::as_str).unwrap())
        .collect();
    assert_eq!(configs, ["LOCAL", "BW-AWARE(29C-71B)", "BW-AWARE(30C-70B)"]);

    let server = start(ServeConfig::default()).expect("bind loopback");
    let addr = server.addr().to_string();
    let mut args = GRID.to_vec();
    args.extend(["--addr", &addr]);
    let remote = records(&sweep(&args));
    server.shutdown();
    server.wait();
    assert_eq!(local, remote);
}

#[test]
fn refused_points_exit_2_without_panicking() {
    let cases: [(&[&str], &str); 4] = [
        (&["--mem-ops", "0"], "invalid-request"),
        (&["--sms", "0"], "invalid-request"),
        (
            &["--mem-ops", "abc"],
            "--mem-ops: expected an integer, got 'abc'",
        ),
        (&["--mem-ops"], "--mem-ops needs a value"),
    ];
    for (flag, expected) in cases {
        let out = sweep(flag);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag:?}: {stderr}");
        assert!(stderr.contains(expected), "{flag:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{flag:?}: {stderr}");
    }
}
