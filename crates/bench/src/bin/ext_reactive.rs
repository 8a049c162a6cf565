//! Extension experiment: the cycle-level `MIGRATE` policy vs the
//! constrained oracle at 10% BO capacity — how much of the oracle's
//! bandwidth can a purely reactive engine recover?
use hetmem::experiments::{ext_reactive, ext_reactive_policy};

fn main() {
    // Sampled fidelity is refused before `--out`'s directory is created.
    let opts = hetmem_bench::checked_opts_from_args(hetmem_bench::ALL_FLAGS, |opts| {
        ext_reactive_policy(opts).map(drop)
    });
    let table = ext_reactive(&opts).expect("fidelity checked");
    println!("{table}");
    println!(
        "bw-eff is demand bandwidth (copy traffic excluded) relative to the\n\
         oracle's; BW-AWARE is the no-migration floor. Reactive migration\n\
         falls below that floor: its copy bursts and remap stalls cost more\n\
         than its promotions recover, so it loses even to doing nothing —\n\
         initial placement matters most (paper §5.5)."
    );
}
