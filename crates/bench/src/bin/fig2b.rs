//! Regenerates Fig. 2b: performance sensitivity to memory latency.
fn main() {
    let opts = hetmem_bench::opts_from_args(hetmem_bench::ALL_FLAGS);
    println!("{}", hetmem::experiments::fig2b(&opts));
}
