//! Regenerates Fig. 8: oracle vs BW-AWARE, unconstrained & 10% capacity.
fn main() {
    let opts = hetmem_bench::opts_from_args(hetmem_bench::ALL_FLAGS);
    let t = hetmem::experiments::fig8(&opts);
    println!("{t}");
    if let (Some(o10), Some(o100)) = (
        t.value("geomean", "Oracle@10%"),
        t.value("geomean", "Oracle@100%"),
    ) {
        println!(
            "Oracle@10% achieves {:.0}% of unconstrained-oracle throughput (paper: ~60%)",
            o10 / o100 * 100.0
        );
    }
}
