//! Regenerates Fig. 2a: performance sensitivity to memory bandwidth.
fn main() {
    let opts = hetmem_bench::opts_from_args(hetmem_bench::ALL_FLAGS);
    println!("{}", hetmem::experiments::fig2a(&opts));
}
