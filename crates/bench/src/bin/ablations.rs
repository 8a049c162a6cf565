//! Prints the design-choice ablations: L2 MSHRs, L2 slice size, and
//! random-draw vs exact 30C-70B placement (DESIGN §5).
fn main() {
    // Each ablation runs on its own fixed workload.
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
    for table in hetmem::experiments::ablations(&opts) {
        println!("{table}");
    }
}
