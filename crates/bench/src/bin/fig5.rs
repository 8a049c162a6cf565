//! Regenerates Fig. 5: policy comparison across CO-pool bandwidths.
fn main() {
    let opts = hetmem_bench::opts_from_args(hetmem_bench::ALL_FLAGS);
    println!("{}", hetmem::experiments::fig5(&opts));
}
