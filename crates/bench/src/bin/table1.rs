//! Prints Table 1: the simulated system configuration.
fn main() {
    let opts = hetmem_bench::opts_from_args(&["--quick", "--sms"]);
    print!("{}", hetmem::experiments::table1(&opts.sim));
}
