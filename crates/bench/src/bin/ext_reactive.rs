//! Extension experiment: the cycle-level `MIGRATE` policy vs the
//! constrained oracle at 10% BO capacity — how much of the oracle's
//! bandwidth can a purely reactive engine recover?
fn main() {
    let opts = hetmem_bench::opts_from_args(hetmem_bench::ALL_FLAGS);
    let table = hetmem::experiments::ext_reactive(&opts).unwrap_or_else(|e| {
        let msg = format!("{e} ({})", e.code());
        hetmem_bench::cli::usage_exit("ext_reactive", 2, &msg)
    });
    println!("{table}");
    println!(
        "bw-eff is demand bandwidth (copy traffic excluded) relative to the\n\
         oracle's; BW-AWARE is the no-migration floor. Reactive migration\n\
         falls below that floor: its copy bursts and remap stalls cost more\n\
         than its promotions recover, so it loses even to doing nothing —\n\
         initial placement matters most (paper §5.5)."
    );
}
