//! Prints Table 1: the simulated system configuration.
fn main() {
    let opts = hetmem_bench::no_sweep_opts_from_args();
    print!("{}", hetmem::experiments::table1(&opts.sim));
}
