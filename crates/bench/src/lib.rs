//! # hetmem-bench — the benchmark harness
//!
//! One binary per table/figure of the paper (`cargo run --release -p
//! hetmem-bench --bin fig3`) regenerates that experiment's rows at full
//! scale; `--bin ablations` prints the design-choice ablations, and
//! `hetmem-serve`, `hetmem-fleet` and `hetmem-client` run the placement
//! service. Simulator and serving throughput are measured by the
//! separate `perfbench` package (`perfbench/README.md`).
//!
//! Common flags for the binaries:
//!
//! * `--quick` — 4 SMs, 15% of memory operations, 3 workloads
//! * `--scale <f>` — scale every workload's memory operations, a
//!   finite number above 0 (runs keep at least 5000 operations)
//! * `--sms <n>` — simulate `n` SMs instead of 15, 1..=1024
//! * `--workloads a,b,c` — restrict the workload set
//! * `--quiet` — suppress per-run progress
//! * `--threads <n>` — sweep worker threads, 0..=64 (0 / omitted = one
//!   per core)
//! * `--out <dir>` — stream per-run JSONL telemetry into `<dir>/<figure>.jsonl`
//! * `--sample-cycles <n>` — also emit one `interval` record per
//!   `n`-cycle window into the same JSONL files (needs `--out`)
//! * `--trace <dir>` — write one Chrome `trace_event` JSON per grid
//!   point into `<dir>` (load in Perfetto / `chrome://tracing`)
//! * `--trace-budget <n>` — cap traced events per run (default 100000;
//!   overflow is counted in a `truncated` marker; needs `--trace`)
//! * `--fidelity full|sampled` — simulation fidelity for every grid
//!   point (default `full`; `sampled` fast-forwards and extrapolates,
//!   tagging each emitted `interval` record with
//!   `mode: detail|extrapolated`)
//!
//! Inspect the emitted files with `cargo run -p hetmem-bench --bin
//! hetmem-trace -- summary <file>`.
//!
//! A binary refuses the flags it would ignore. `fig1` reads none and
//! `table1` only `--quick` and `--sms`. `fig6` and `fig7` run profiling
//! sweeps, which write no telemetry or traces and always run at full
//! fidelity, so they refuse `--out`, `--sample-cycles`, `--trace`,
//! `--trace-budget` and `--fidelity`. `fig7`, `fig11` and `ablations`
//! run fixed workload sets and refuse `--workloads`.
//!
//! Exit codes: 0 success, 2 usage error (an unknown flag, a flag the
//! binary does not read, a missing or malformed value, a value out of
//! its range, a `--workloads` name outside the catalog,
//! `--sample-cycles` without `--out`, `--trace-budget` without
//! `--trace`, `ext_reactive` at sampled fidelity).

pub mod cli;
pub mod client;
#[cfg(unix)]
pub mod fleet;
#[cfg(unix)]
mod front;
#[cfg(unix)]
mod reactor;
pub mod serve;
pub mod top;

use std::sync::Arc;

use hetmem::experiments::ExpOptions;
use hetmem::{HetmemError, TelemetrySink};

use cli::Args;

/// The most SMs one simulation may ask for: the figure binaries'
/// `--sms`, and `simulate`'s `sms` (so `hetmem-sweep --sms` too).
const MAX_SMS: u32 = 1024;

/// Every common experiment flag; `run_all` reads them all.
pub const ALL_FLAGS: &[&str] = &[
    "--quick",
    "--scale",
    "--sms",
    "--workloads",
    "--quiet",
    "--threads",
    "--out",
    "--sample-cycles",
    "--trace",
    "--trace-budget",
    "--fidelity",
];

/// Parses the common experiment flags that `reads` names (a subset of
/// [`ALL_FLAGS`]) from `std::env::args`.
///
/// On a malformed flag, a flag outside `reads`, or a `--workloads` name
/// outside the catalog, prints `<bin>: <message>` on stderr and exits
/// the process with code 2.
pub fn opts_from_args(reads: &[&str]) -> ExpOptions {
    checked_opts_from_args(reads, |_| Ok(()))
}

/// A binary's own refusal of the parsed options.
pub type Check = fn(&ExpOptions) -> Result<(), HetmemError>;

/// [`opts_from_args`] that also refuses, with its error and code, the
/// options `check` refuses, before `--out`'s directory is created.
pub fn checked_opts_from_args(reads: &[&str], check: Check) -> ExpOptions {
    opts_checked(std::env::args().skip(1).collect(), reads, check).unwrap_or_else(|e| {
        let exe = std::env::args().next().unwrap_or_default();
        let bin = std::path::Path::new(&exe)
            .file_stem()
            .and_then(|n| n.to_str());
        cli::usage_exit(bin.unwrap_or("hetmem-bench"), 2, &e)
    })
}

/// Parses the common experiment flags from `args` (the command line
/// without the program name), refusing any flag outside `reads` and
/// the options `check` refuses; see [`checked_opts_from_args`].
/// `--quick` is the base every other flag refines, wherever it appears.
/// Every check runs before `--out`'s directory is created.
fn opts_checked(args: Vec<String>, reads: &[&str], check: Check) -> Result<ExpOptions, String> {
    let mut opts = if args.iter().any(|a| a == "--quick") {
        ExpOptions::quick()
    } else {
        ExpOptions::default()
    };
    opts.verbose = true;
    let mut out = None;
    let mut trace_budget = None;
    let mut args = Args::new(args);
    while let Some(arg) = args.next() {
        if ALL_FLAGS.contains(&arg.as_str()) && !reads.contains(&arg.as_str()) {
            return Err(format!("{arg} is not read by this binary"));
        }
        match arg.as_str() {
            "--quick" => {}
            "--scale" => {
                opts.ops_scale = args.parse()?;
                if !(opts.ops_scale.is_finite() && opts.ops_scale > 0.0) {
                    return Err("--scale: must be a finite positive number".to_string());
                }
            }
            "--sms" => opts.sim.num_sms = args.parse_in(1..=MAX_SMS)?,
            "--workloads" => opts.workloads = Some(parse_workloads(&args.value()?)?),
            "--quiet" => opts.verbose = false,
            "--threads" => opts.threads = args.thread_count()?,
            "--out" => out = Some(args.value()?),
            "--sample-cycles" => opts.sample_cycles = Some(args.positive()?),
            "--trace" => opts.trace = Some(args.parse()?),
            "--trace-budget" => trace_budget = Some(args.parse()?),
            "--fidelity" => {
                opts.fidelity = args.parse_with(|v| match v {
                    "full" => Ok(gpusim::Fidelity::Full),
                    "sampled" => Ok(gpusim::Fidelity::Sampled(gpusim::SampleConfig::default())),
                    _ => Err("expected full or sampled"),
                })?;
            }
            _ => return Err(args.unknown()),
        }
    }
    if opts.sample_cycles.is_some() && out.is_none() {
        // Interval lines are written only into `--out`'s JSONL files.
        return Err("--sample-cycles needs --out".to_string());
    }
    if let Some(budget) = trace_budget {
        if opts.trace.is_none() {
            return Err("--trace-budget needs --trace".to_string());
        }
        opts.trace_budget = budget;
    }
    check(&opts).map_err(|e| format!("{e} ({})", e.code()))?;
    if let Some(dir) = out {
        let sink = TelemetrySink::create(&dir)
            .map_err(|e| format!("cannot create telemetry dir {dir}: {e}"))?;
        opts.telemetry = Some(Arc::new(sink));
    }
    Ok(opts)
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

    fn opts_from(args: Vec<String>, reads: &[&str]) -> Result<ExpOptions, String> {
        opts_checked(args, reads, |_| Ok(()))
    }

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn workloads_flag_selects_catalog_names() {
        let opts = opts_from(args(&["--quiet", "--workloads", "bfs,xsbench"]), ALL_FLAGS).unwrap();
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
    fn unknown_workload_flag_fails() {
        let Err(err) = opts_from(args(&["--workloads", "lbm,lbmm"]), ALL_FLAGS) else {
            panic!("an unknown --workloads name must be refused");
        };
        assert!(
            err.contains("unknown workload \"lbmm\" in --workloads; known workloads: backprop"),
            "{err}"
        );
    }

    #[test]
    fn workloads_before_quick_are_kept() {
        let opts = opts_from(args(&["--workloads", "xsbench", "--quick"]), ALL_FLAGS).unwrap();
        let names: Vec<_> = opts.specs().iter().map(|w| w.name).collect();
        assert_eq!(names, ["xsbench"]);
        assert_eq!(opts.sim.num_sms, ExpOptions::quick().sim.num_sms);
        assert!(opts.verbose, "--quick keeps progress on");
    }

    #[test]
    fn trace_budget_is_kept_before_or_after_trace() {
        for flags in [
            ["--trace-budget", "5", "--trace", "t"],
            ["--trace", "t", "--trace-budget", "5"],
        ] {
            let opts = opts_from(args(&flags), ALL_FLAGS).unwrap();
            assert_eq!(opts.trace_budget, 5, "{flags:?}");
        }
    }

    #[test]
    fn sms_before_quick_are_kept() {
        let opts = opts_from(args(&["--sms", "8", "--quick"]), ALL_FLAGS).unwrap();
        assert_eq!(opts.sim.num_sms, 8);
        assert_eq!(opts.workloads, ExpOptions::quick().workloads);
    }

    #[test]
    fn scale_before_quick_is_kept() {
        let opts = opts_from(args(&["--scale", "0.5", "--quick"]), ALL_FLAGS).unwrap();
        assert_eq!(opts.ops_scale, 0.5);
        assert_eq!(opts.workloads, ExpOptions::quick().workloads);
    }
}
