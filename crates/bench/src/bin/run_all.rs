//! Runs every experiment in order, printing each table — the one-shot
//! reproduction of the paper's whole evaluation section.
fn main() {
    use hetmem::experiments as exp;
    let opts = hetmem_bench::opts_from_args(hetmem_bench::ALL_FLAGS);
    print!("{}", exp::table1(&opts.sim));
    println!();
    println!("{}", exp::fig1());
    for (name, table) in [
        ("fig2a", exp::fig2a(&opts)),
        ("fig2b", exp::fig2b(&opts)),
        ("fig3", exp::fig3(&opts)),
        ("fig4", exp::fig4(&opts)),
        ("fig5", exp::fig5(&opts)),
    ] {
        eprintln!("== {name} done ==");
        println!("{table}");
    }
    let (_, t6) = exp::fig6(&opts);
    println!("{t6}");
    for w in exp::fig7(&opts) {
        println!(
            "fig7 {}: top10% {:.2}, untouched {:.2}",
            w.name, w.top10, w.untouched_frac
        );
    }
    println!();
    for (name, table) in [
        ("fig8", exp::fig8(&opts)),
        ("fig10", exp::fig10(&opts)),
        ("fig11", exp::fig11(&opts)),
    ] {
        eprintln!("== {name} done ==");
        println!("{table}");
    }
    if let Some(sink) = &opts.telemetry {
        println!("{}", sink.summary());
        eprintln!("telemetry JSONL written under {}", sink.dir().display());
    }
}
