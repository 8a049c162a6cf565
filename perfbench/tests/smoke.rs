//! Smoke mode: every workload in `BENCHMARK.json`, and the ungated
//! fleet-mix workload, prints every metric it names with its unit and
//! passes its output checks; a second seed changes the generated inputs
//! but not the metric names.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::OnceLock;

use hetmem_harness::JsonValue;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("perfbench sits in the repository root")
        .to_path_buf()
}

fn bench_json() -> JsonValue {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    JsonValue::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in `section` of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    bench_json()
        .get(section)
        .and_then(JsonValue::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k| {
                m.get(k)
                    .and_then(JsonValue::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// The release fleet binaries, built once into this test's own target
/// directory (the outer build holds the lock on the main one).
fn bin_dir() -> &'static Path {
    static DIR: OnceLock<PathBuf> = OnceLock::new();
    DIR.get_or_init(|| {
        let target = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("fleet-bins");
        let status = Command::new(env!("CARGO"))
            .current_dir(repo_root())
            .args([
                "build",
                "--release",
                "--offline",
                "-q",
                "-p",
                "hetmem-bench",
            ])
            .args([
                "--bin",
                "hetmem-fleet",
                "--bin",
                "hetmem-serve",
                "--target-dir",
            ])
            .arg(&target)
            .status()
            .expect("cargo runs");
        assert!(status.success(), "building the fleet binaries failed");
        target.join("release")
    })
}

struct Run {
    inputs: Option<String>,
    result: JsonValue,
}

fn run(workload: &str, seed: u64, trace: bool) -> Run {
    let out_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("bench-out");
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(repo_root())
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--smoke",
        ])
        .args(["--seconds", if trace { "3" } else { "1" }])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--bin-dir")
        .arg(bin_dir())
        .arg("--out-dir")
        .arg(&out_dir)
        .output()
        .expect("perfbench runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} seed {seed}: {stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    let inputs = stdout
        .lines()
        .find_map(|l| l.split_once(" inputs ").map(|(_, fp)| fp.to_string()));
    Run {
        inputs,
        result: JsonValue::parse(last).expect("result line is JSON"),
    }
}

/// Asserts the result is correct and carries exactly the `want` metrics
/// with their units and numeric values; returns the names it printed.
fn check(label: &str, r: &JsonValue, want: &[(String, String)]) -> Vec<String> {
    assert_eq!(
        r.get("correct").and_then(JsonValue::as_bool),
        Some(true),
        "{label}: {}",
        r.render()
    );
    assert_eq!(
        r.get("failed").and_then(JsonValue::as_u64),
        Some(0),
        "{label}"
    );
    assert!(
        r.get("attempted").and_then(JsonValue::as_u64).unwrap_or(0) > 0,
        "{label}"
    );
    let JsonValue::Object(metrics) = r.get("metrics").expect("metrics") else {
        panic!("{label}: metrics is not an object");
    };
    let names: Vec<String> = metrics.iter().map(|(k, _)| k.clone()).collect();
    for (name, unit) in want {
        let m = r.get("metrics").and_then(|m| m.get(name));
        let m = m.unwrap_or_else(|| panic!("{label}: missing metric {name}"));
        assert_eq!(
            m.get("unit").and_then(JsonValue::as_str),
            Some(unit.as_str()),
            "{label}: {name}"
        );
        assert!(
            m.get("value").and_then(JsonValue::as_f64).is_some(),
            "{label}: {name} value"
        );
    }
    assert_eq!(
        names.len(),
        want.len(),
        "{label}: extra metrics in {names:?}"
    );
    names
}

/// The end-to-end metrics fleet-mix prints; it is not in
/// `BENCHMARK.json` because its figures are not steady on a shared host.
const FLEET_MIX: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("place_p50_ms", "ms"),
    ("place_p99_ms", "ms"),
    ("sim_p50_ms", "ms"),
    ("sim_p90_ms", "ms"),
    ("place_rps", "1/s"),
    ("peak_rss_mb", "MB"),
];

fn two_seeds(workload: &str, want: &[(String, String)]) {
    let a = run(workload, 1, false);
    let b = run(workload, 2, false);
    let names_a = check(&format!("{workload} seed 1"), &a.result, want);
    let names_b = check(&format!("{workload} seed 2"), &b.result, want);
    assert_eq!(
        names_a, names_b,
        "{workload}: metric names depend on the seed"
    );
    assert!(a.inputs.is_some(), "{workload}: no inputs fingerprint");
    assert_ne!(
        a.inputs, b.inputs,
        "{workload}: a second seed left the inputs unchanged"
    );
}

#[test]
fn every_gated_workload_prints_every_end_to_end_metric_and_seeds_change_inputs() {
    let e2e = declared("end_to_end");
    let doc = bench_json();
    let workloads = doc
        .get("workloads")
        .and_then(JsonValue::as_array)
        .expect("workloads");
    assert!(workloads.len() >= 2);
    for w in workloads {
        two_seeds(
            w.get("name")
                .and_then(JsonValue::as_str)
                .expect("workload name"),
            &e2e,
        );
    }
}

#[test]
fn fleet_mix_prints_its_metrics_and_seeds_change_inputs() {
    let want: Vec<(String, String)> = FLEET_MIX
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect();
    two_seeds("fleet-mix", &want);
}

#[test]
fn traced_run_prints_every_per_layer_metric() {
    let r = run("sim-full", 1, true);
    check("traced", &r.result, &declared("per_layer"));
}
