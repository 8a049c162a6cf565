//! # hetmem-bench — the benchmark harness
//!
//! One binary per table/figure of the paper (`cargo run --release -p
//! hetmem-bench --bin fig3`) regenerates that experiment's rows at full
//! scale; `--bin ablations` prints the design-choice ablations, and
//! `hetmem-perf` measures simulator and serving throughput.
//!
//! Common flags for the binaries:
//!
//! * `--quick` — 4 SMs, 15% of memory operations, 3 workloads
//! * `--scale <f>` — scale every workload's memory operations
//! * `--sms <n>` — simulate `n` SMs instead of 15
//! * `--workloads a,b,c` — restrict the workload set
//! * `--quiet` — suppress per-run progress
//! * `--threads <n>` — sweep worker threads (0 / omitted = one per core)
//! * `--out <dir>` — stream per-run JSONL telemetry into `<dir>/<figure>.jsonl`
//! * `--sample-cycles <n>` — also emit one `interval` record per
//!   `n`-cycle window into the same JSONL files (needs `--out`)
//! * `--trace <dir>` — write one Chrome `trace_event` JSON per grid
//!   point into `<dir>` (load in Perfetto / `chrome://tracing`)
//! * `--trace-budget <n>` — cap traced events per run (default 100000;
//!   overflow is counted in a `truncated` marker)
//! * `--fidelity full|sampled` — simulation fidelity for every grid
//!   point (default `full`; `sampled` fast-forwards and extrapolates,
//!   tagging each emitted `interval` record with
//!   `mode: detail|extrapolated`)
//!
//! Inspect the emitted files with `cargo run -p hetmem-bench --bin
//! hetmem-trace -- summary <file>`.

pub mod client;
#[cfg(unix)]
pub mod fleet;
#[cfg(unix)]
mod reactor;
pub mod serve;
pub mod top;

use std::sync::Arc;

use hetmem::experiments::ExpOptions;
use hetmem::TelemetrySink;

/// Parses the common experiment flags from `std::env::args`.
///
/// # Panics
///
/// Panics with a usage message on malformed flags, including a
/// `--workloads` name outside the catalog.
pub fn opts_from_args() -> ExpOptions {
    opts_from(std::env::args().skip(1))
}

/// Parses the common experiment flags from `args` (the command line
/// without the program name); see [`opts_from_args`].
fn opts_from(args: impl IntoIterator<Item = String>) -> ExpOptions {
    let mut opts = ExpOptions {
        verbose: true,
        ..ExpOptions::default()
    };
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => {
                let (verbose, threads, telemetry) =
                    (opts.verbose, opts.threads, opts.telemetry.take());
                let (sample_cycles, trace, trace_budget) =
                    (opts.sample_cycles, opts.trace.take(), opts.trace_budget);
                let fidelity = opts.fidelity;
                opts = ExpOptions::quick();
                opts.verbose = verbose;
                opts.threads = threads;
                opts.telemetry = telemetry;
                opts.sample_cycles = sample_cycles;
                opts.trace = trace;
                opts.trace_budget = trace_budget;
                opts.fidelity = fidelity;
            }
            "--scale" => {
                let v = args.next().expect("--scale needs a value");
                opts.ops_scale = v.parse().expect("--scale takes a float");
            }
            "--sms" => {
                let v = args.next().expect("--sms needs a value");
                opts.sim.num_sms = v.parse().expect("--sms takes an integer");
            }
            "--workloads" => {
                let v = args.next().expect("--workloads needs a list");
                opts.workloads = Some(parse_workloads(&v).unwrap_or_else(|e| panic!("{e}")));
            }
            "--quiet" => opts.verbose = false,
            "--threads" => {
                let v = args.next().expect("--threads needs a value");
                opts.threads = v.parse().expect("--threads takes an integer");
            }
            "--out" => {
                let dir = args.next().expect("--out needs a directory");
                let sink = TelemetrySink::create(&dir)
                    .unwrap_or_else(|e| panic!("cannot create telemetry dir {dir}: {e}"));
                opts.telemetry = Some(Arc::new(sink));
            }
            "--sample-cycles" => {
                let v = args.next().expect("--sample-cycles needs a value");
                let n: u64 = v.parse().expect("--sample-cycles takes an integer");
                assert!(n > 0, "--sample-cycles must be positive");
                opts.sample_cycles = Some(n);
            }
            "--trace" => {
                let dir = args.next().expect("--trace needs a directory");
                opts.trace = Some(std::path::PathBuf::from(dir));
            }
            "--trace-budget" => {
                let v = args.next().expect("--trace-budget needs a value");
                opts.trace_budget = v.parse().expect("--trace-budget takes an integer");
            }
            "--fidelity" => {
                let v = args.next().expect("--fidelity needs a value");
                opts.fidelity = match v.as_str() {
                    "full" => gpusim::Fidelity::Full,
                    "sampled" => gpusim::Fidelity::Sampled(gpusim::SampleConfig::default()),
                    other => panic!("unknown fidelity {other:?} (expected full or sampled)"),
                };
            }
            other => panic!("unknown flag {other}; see hetmem-bench docs"),
        }
    }
    opts
}

/// Parses a comma-separated `--workloads` list. Every name must be a
/// catalog workload: an unknown one would otherwise select nothing and
/// leave every table empty.
fn parse_workloads(list: &str) -> Result<Vec<String>, String> {
    let known = workloads::catalog::names();
    let names: Vec<String> = list.split(',').map(str::to_string).collect();
    match names.iter().find(|n| !known.contains(&n.as_str())) {
        Some(bad) => Err(format!(
            "unknown workload {bad:?} in --workloads; known workloads: {}",
            known.join(", ")
        )),
        None => Ok(names),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn workloads_flag_selects_catalog_names() {
        let opts = opts_from(args(&["--quiet", "--workloads", "bfs,xsbench"]));
        let names: Vec<_> = opts.specs().iter().map(|w| w.name).collect();
        assert_eq!(names, ["bfs", "xsbench"]);
    }

    #[test]
    fn unknown_workload_lists_the_catalog() {
        let err = parse_workloads("bfs,no-such-app").unwrap_err();
        assert!(err.contains("\"no-such-app\""), "{err}");
        for name in workloads::catalog::names() {
            assert!(err.contains(name), "{name} missing from: {err}");
        }
        assert!(parse_workloads("").is_err(), "an empty name is unknown too");
    }

    #[test]
    #[should_panic(
        expected = "unknown workload \"lbmm\" in --workloads; known workloads: backprop"
    )]
    fn unknown_workload_flag_fails() {
        opts_from(args(&["--workloads", "lbm,lbmm"]));
    }
}
