//! Regenerates Fig. 11: hint robustness across input datasets.
fn main() {
    // Fig. 11's workload families are fixed.
    let opts = hetmem_bench::opts_from_args(&[
        "--quick",
        "--scale",
        "--sms",
        "--quiet",
        "--threads",
        "--out",
        "--sample-cycles",
        "--trace",
        "--trace-budget",
        "--fidelity",
    ]);
    let t = hetmem::experiments::fig11(&opts);
    println!("{t}");
    if let (Some(ann), Some(bwa), Some(orc)) = (
        t.value("geomean", "Annotated"),
        t.value("geomean", "BW-AWARE"),
        t.value("geomean", "Oracle"),
    ) {
        println!(
            "Trained hints vs INTERLEAVE: {:+.1}%   vs BW-AWARE: {:+.1}%   of per-dataset oracle: {:.0}%",
            (ann - 1.0) * 100.0,
            (ann / bwa - 1.0) * 100.0,
            ann / orc * 100.0
        );
    }
}
