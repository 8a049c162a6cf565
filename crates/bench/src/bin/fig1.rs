//! Prints Fig. 1: BW-Ratio of BO vs CO pools per system class.
fn main() {
    // Fig. 1 reads no flag, so it refuses them all.
    let _ = hetmem_bench::opts_from_args(&[]);
    println!("{}", hetmem::experiments::fig1());
}
