//! Regenerates the paper's §5 tables and figures (see
//! `cgselect_bench::figs`): `paper <experiment> [--quick]`, where
//! `<experiment>` is one of the names below or `all`.

use cgselect_bench::figs;

/// A named experiment: `run(quick)` writes its `results/` files.
type Experiment = (&'static str, fn(bool));

/// Every experiment by name; `all` runs the ten above it.
const EXPERIMENTS: [Experiment; 11] = [
    ("fig1", figs::fig1),
    ("fig2", figs::fig2),
    ("fig3", figs::fig3),
    ("fig4", figs::fig4),
    ("fig5", figs::fig5),
    ("fig6", figs::fig6),
    ("table1", figs::table1),
    ("table2", figs::table2),
    ("hybrid", figs::hybrid),
    ("headline", figs::headline),
    ("all", figs::all),
];

fn main() {
    let name = std::env::args().nth(1).unwrap_or_default();
    match EXPERIMENTS.iter().find(|(n, _)| *n == name) {
        Some((_, run)) => run(cgselect_bench::quick_mode()),
        None => {
            let names: Vec<&str> = EXPERIMENTS.iter().map(|(n, _)| *n).collect();
            eprintln!("usage: paper <experiment> [--quick]\nexperiments: {}", names.join(" "));
            std::process::exit(2);
        }
    }
}
