//! Regenerates Fig. 10: annotated placement vs policies at 10% capacity.
fn main() {
    let opts = hetmem_bench::opts_from_args(hetmem_bench::ALL_FLAGS);
    let t = hetmem::experiments::fig10(&opts);
    println!("{t}");
    if let (Some(ann), Some(bwa), Some(orc)) = (
        t.value("geomean", "Annotated"),
        t.value("geomean", "BW-AWARE"),
        t.value("geomean", "Oracle"),
    ) {
        println!(
            "Annotated vs INTERLEAVE: {:+.1}%   vs BW-AWARE: {:+.1}%   of oracle: {:.0}%",
            (ann - 1.0) * 100.0,
            (ann / bwa - 1.0) * 100.0,
            ann / orc * 100.0
        );
    }
}
