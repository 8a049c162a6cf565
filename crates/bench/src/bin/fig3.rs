//! Regenerates Fig. 3: the xC-yB placement-ratio sweep vs LOCAL and
//! INTERLEAVE (the BW-AWARE headline result).
fn main() {
    let opts = hetmem_bench::opts_from_args(hetmem_bench::ALL_FLAGS);
    let t = hetmem::experiments::fig3(&opts);
    println!("{t}");
    if let (Some(bwa), Some(inter)) = (
        t.value("geomean", "30C-70B"),
        t.value("geomean", "INTERLEAVE"),
    ) {
        println!(
            "BW-AWARE(30C-70B) vs LOCAL: {:+.1}%   vs INTERLEAVE: {:+.1}%",
            (bwa - 1.0) * 100.0,
            (bwa / inter - 1.0) * 100.0
        );
    }
}
