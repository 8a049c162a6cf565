//! Regenerates Fig. 6: bandwidth CDFs per workload. Prints the summary
//! table and a 10-point CDF series per workload.
fn main() {
    // A profiling sweep writes no telemetry or traces and always runs
    // at full fidelity.
    let opts = hetmem_bench::opts_from_args(&[
        "--quick",
        "--scale",
        "--sms",
        "--workloads",
        "--quiet",
        "--threads",
    ]);
    let (cdfs, table) = hetmem::experiments::fig6(&opts);
    println!("{table}");
    println!("CDF series (traffic fraction at page fraction):");
    print!("{:<22}", "");
    for x in 1..=10 {
        print!("{:>7}%", x * 10);
    }
    println!();
    for (name, cdf) in cdfs {
        print!("{name:<22}");
        for x in 1..=10 {
            print!("{:>8.3}", cdf.traffic_in_top(f64::from(x) / 10.0));
        }
        println!();
    }
}
