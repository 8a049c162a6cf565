//! Prints Fig. 1: BW-Ratio of BO vs CO pools per system class.
fn main() {
    // Fig. 1 takes no options, but its flags are checked like every
    // figure binary's.
    let _ = hetmem_bench::no_sweep_opts_from_args();
    println!("{}", hetmem::experiments::fig1());
}
