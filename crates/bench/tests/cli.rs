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

/// `hetmem-serve` and `hetmem-fleet` read their nine shared serving
/// flags through one parser, so a bad value is refused by both with
/// exit 2 and the same message. Only refusals run: no server binds.
#[test]
fn serve_and_fleet_refuse_shared_flags_alike() {
    let bins = [
        ("hetmem-serve", env!("CARGO_BIN_EXE_hetmem-serve")),
        ("hetmem-fleet", env!("CARGO_BIN_EXE_hetmem-fleet")),
    ];
    let bad: [&[&str]; 9] = [
        &["--addr"],
        &["--shards", "0"],
        &["--queue-depth", "0"],
        &["--cache", "-1"],
        &["--max-batch", "0"],
        &["--conn-buf", "x"],
        &["--read-timeout-ms", "0"],
        &["--write-timeout-ms", "1.5"],
        &["--faults", "panic=2"],
    ];
    for args in bad {
        let messages: Vec<String> = bins
            .iter()
            .map(|(name, bin)| {
                let out = Command::new(bin).args(args).output().expect("spawn binary");
                let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
                assert_eq!(out.status.code(), Some(2), "{name} {args:?}: {stderr}");
                let message = stderr.strip_prefix(&format!("{name}: "));
                message
                    .unwrap_or_else(|| panic!("{name} {args:?}: {stderr}"))
                    .to_string()
            })
            .collect();
        assert!(
            messages[0].starts_with(args[0]),
            "{args:?}: {}",
            messages[0]
        );
        assert_eq!(messages[0], messages[1], "{args:?}");
    }
    // The router writes no telemetry.
    let fleet = bins[1].1;
    refused(fleet, &["--out", "d"], 2, "unknown flag --out");
    refused(fleet, &["--fsync"], 2, "unknown flag --fsync");
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
    // Out-of-range values are refused before any run starts.
    for sms in ["0", "2000"] {
        refused(bin, &["--sms", sms], 2, "--sms: must be in 1..=1024");
    }
    for scale in ["-3", "0", "NaN", "inf"] {
        let expected = "--scale: must be a finite positive number";
        refused(bin, &["--scale", scale], 2, expected);
    }
    // Interval lines go only to `--out`'s files.
    refused(
        bin,
        &["--sample-cycles", "20000"],
        2,
        "--sample-cycles needs --out",
    );
    // A budget without a tracer would be ignored.
    refused(
        bin,
        &["--trace-budget", "5"],
        2,
        "--trace-budget needs --trace",
    );
    // fig1 takes no options but still checks the common flags.
    refused(
        env!("CARGO_BIN_EXE_fig1"),
        &["--bogus"],
        2,
        "unknown flag --bogus",
    );
    // A binary refuses each flag it would ignore, before `--out`'s
    // directory is created.
    let dir = std::env::temp_dir().join(format!("hetmem-cli-{}-unread", std::process::id()));
    let dir_arg = dir.display().to_string();
    let unread = |bin: &str, args: &[&str], flag: &str| {
        refused(bin, args, 2, &format!("{flag} is not read by this binary"));
        assert!(!dir.exists(), "{bin} {args:?} created {}", dir.display());
    };
    let (fig1, table1) = (env!("CARGO_BIN_EXE_fig1"), env!("CARGO_BIN_EXE_table1"));
    let (fig6, fig7) = (env!("CARGO_BIN_EXE_fig6"), env!("CARGO_BIN_EXE_fig7"));
    // fig1 reads no flag and table1 only `--quick` and `--sms`.
    let everything = [
        "--workloads",
        "bfs",
        "--fidelity",
        "sampled",
        "--threads",
        "3",
        "--scale",
        "0.5",
    ];
    unread(fig1, &everything, "--workloads");
    for args in [
        &["--quick"][..],
        &["--threads", "3"],
        &["--scale", "0.5"],
        &["--fidelity", "sampled"],
    ] {
        unread(fig1, args, args[0]);
    }
    unread(
        table1,
        &["--workloads", "bfs", "--scale", "9"],
        "--workloads",
    );
    unread(table1, &["--quick", "--fidelity", "sampled"], "--fidelity");
    unread(table1, &["--sms", "8", "--scale", "9"], "--scale");
    for bin in [fig1, table1] {
        for flag in ["--out", "--trace"] {
            unread(bin, &[flag, &dir_arg], flag);
        }
    }
    // fig6 and fig7 run profiling sweeps: no telemetry, no traces, full
    // fidelity only.
    for bin in [fig6, fig7] {
        for args in [
            &["--out", &dir_arg][..],
            &["--trace", &dir_arg],
            &["--trace-budget", "5"],
            &["--sample-cycles", "1000"],
            &["--fidelity", "sampled"],
        ] {
            unread(bin, args, args[0]);
        }
    }
    let fig7_sampled = [
        "--quick",
        "--quiet",
        "--fidelity",
        "sampled",
        "--sample-cycles",
        "1000",
        "--out",
        &dir_arg,
    ];
    unread(fig7, &fig7_sampled, "--fidelity");
    // fig7, fig11 and ablations run fixed workload sets.
    let fixed = [
        fig7,
        env!("CARGO_BIN_EXE_fig11"),
        env!("CARGO_BIN_EXE_ablations"),
    ];
    for bin in fixed {
        unread(bin, &["--workloads", "lbm"], "--workloads");
    }
    // ext_reactive's MIGRATE runs need full fidelity: refused before
    // any run and before `--out`'s directory is created, not a panic.
    let ext_reactive = env!("CARGO_BIN_EXE_ext_reactive");
    let sampled = ["--quick", "--fidelity", "sampled", "--out", &dir_arg];
    refused(ext_reactive, &sampled, 2, "(unsupported-fidelity)");
    assert!(!dir.exists(), "ext_reactive created {}", dir.display());
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
