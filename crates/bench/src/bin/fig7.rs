//! Regenerates Fig. 7: CDF vs data-structure layout for bfs, mummergpu,
//! and needle.
fn main() {
    // A profiling sweep writes no telemetry or traces and always runs
    // at full fidelity; Fig. 7's workloads are fixed.
    let opts =
        hetmem_bench::opts_from_args(&["--quick", "--scale", "--sms", "--quiet", "--threads"]);
    for w in hetmem::experiments::fig7(&opts) {
        println!(
            "Fig. 7 — {} (top-10% pages carry {:.1}% of traffic; {:.1}% of pages never touched)",
            w.name,
            w.top10 * 100.0,
            w.untouched_frac * 100.0
        );
        println!(
            "  {:<24}{:>12}{:>12}{:>14}",
            "structure", "footprint%", "traffic%", "hotness/byte"
        );
        for (name, fp, tr, hot) in &w.structures {
            println!(
                "  {:<24}{:>11.1}%{:>11.1}%{:>14.6}",
                name,
                fp * 100.0,
                tr * 100.0,
                hot
            );
        }
        println!();
    }
}
