//! Prints the design-choice ablations: L2 MSHRs, L2 slice size, and
//! random-draw vs exact 30C-70B placement (DESIGN §5).
fn main() {
    let opts = hetmem_bench::opts_from_args();
    for table in hetmem::experiments::ablations(&opts) {
        println!("{table}");
    }
}
