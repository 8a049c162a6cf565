//! `perfbench`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload <sim-full|sim-sampled|fleet-mix> --seed <n> --seconds <s>
//!           --trace <0|1> [--bin-dir <dir>] [--out-dir <dir>] [--smoke] [--bless]
//! ```
//!
//! * `--trace 0` measures the chosen workload with tracing off and
//!   prints its end-to-end metrics.
//! * `--trace 1` is the traced run: it times calls into every layer,
//!   each on the workload that exercises it, writes the spans as a
//!   Chrome trace under `--out-dir`, and prints the per-layer metrics.
//!   `--workload` then only names the output file.
//! * `--bin-dir` holds the release `hetmem-fleet` and `hetmem-serve`
//!   binaries that fleet-mix spawns.
//! * `--smoke` shrinks every size so a run takes a few seconds; the
//!   committed references are not checked at smoke sizes.
//! * `--bless` rewrites `reference.txt` (sim-full digests at the default
//!   seed and the full-fidelity bandwidths behind the sampled error)
//!   and exits; run it only when a change is meant to alter the model.
//!
//! The last stdout line is one JSON object:
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}`.
//! Lines before it (prefixed `#`) give sample counts, the samples beyond
//! each percentile, the input fingerprint and every check that failed.

mod fleet;
mod report;
mod spans;
mod sweep;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use report::Outcome;

/// The seed the committed sim-full digests were recorded at.
pub const DEFAULT_SEED: u64 = 1;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    pub bin_dir: PathBuf,
    pub out_dir: PathBuf,
    pub smoke: bool,
    pub bless: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: Duration::from_secs(10),
        trace: false,
        bin_dir: PathBuf::from("target/release"),
        out_dir: PathBuf::from(".bench_out"),
        smoke: false,
        bless: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                args.seconds = Duration::from_secs_f64(s);
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--bin-dir" => args.bin_dir = PathBuf::from(value()?),
            "--out-dir" => args.out_dir = PathBuf::from(value()?),
            "--smoke" => args.smoke = true,
            "--bless" => args.bless = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.bless {
        return Ok(args);
    }
    if !sweep::Kind::NAMES.contains(&args.workload.as_str()) && args.workload != fleet::NAME {
        return Err(format!(
            "--workload must be one of sim-full, sim-sampled, fleet-mix (got '{}')",
            args.workload
        ));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.bless {
        return match sweep::bless() {
            Ok(path) => {
                eprintln!("perfbench: wrote {path}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: bless failed: {e}");
                ExitCode::from(1)
            }
        };
    }
    let result: Result<Outcome, String> = if args.trace {
        traced(&args)
    } else if args.workload == fleet::NAME {
        fleet::run(&args, None)
    } else {
        sweep::run(sweep::Kind::parse(&args.workload), &args)
    };
    match result {
        Ok(outcome) => {
            outcome.print();
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

/// The traced run: every layer, each measured on the workload that
/// exercises it, with a third of the run length per workload. Tracing
/// overhead is each workload's traced end-to-end figure against the same
/// figure measured untraced in this process.
fn traced(args: &Args) -> Result<Outcome, String> {
    let mut tracer = spans::Tracer::new();
    let share = args.seconds / 3;
    let mut out = Outcome::default();
    for kind in [sweep::Kind::Full, sweep::Kind::Sampled] {
        out.merge(sweep::run_traced(kind, args, share, &mut tracer)?);
    }
    out.merge(fleet::run(args, Some((&mut tracer, share)))?);
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("cannot create {}: {e}", args.out_dir.display()))?;
    let path = args
        .out_dir
        .join(format!("trace-{}-seed{}.json", args.workload, args.seed));
    std::fs::write(&path, tracer.render())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    out.note(format!(
        "chrome trace: {} ({} spans)",
        path.display(),
        tracer.len()
    ));
    Ok(out)
}
