//! Regenerates Fig. 4: BW-AWARE performance vs BO capacity fraction.
fn main() {
    let opts = hetmem_bench::opts_from_args(hetmem_bench::ALL_FLAGS);
    println!("{}", hetmem::experiments::fig4(&opts));
}
