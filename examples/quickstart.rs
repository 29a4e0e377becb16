//! Quickstart: find the median of 1M keys spread over 8 virtual processors,
//! and check every algorithm's answer against a sorted oracle.
//!
//! Run with: `cargo run --release --example quickstart`

use cgselect::{median_on_machine, Algorithm, Distribution, MachineModel, SelectionConfig};

fn main() {
    let p = 8;
    let n = 1 << 20; // 1M keys

    // The paper's "random" input: n/p uniformly random keys per processor.
    let parts = cgselect::generate(Distribution::Random, n, p, 42);

    println!("Finding the median of {n} keys on a {p}-processor CM-5-like machine\n");

    // The oracle: a plain sort of the whole input.
    let mut all: Vec<u64> = parts.iter().flatten().copied().collect();
    all.sort_unstable();
    let median = all[(n - 1) / 2];

    for algo in Algorithm::ALL {
        let cfg = SelectionConfig::default();
        let sel = median_on_machine(p, MachineModel::cm5(), &parts, algo, &cfg)
            .expect("selection run failed");
        println!(
            "{:>18}: median = {:>20}  virtual time = {:>8.4}s  iterations = {:>2}",
            algo.name(),
            sel.value,
            sel.makespan(),
            sel.iterations(),
        );
        assert_eq!(sel.value, median, "{} disagrees with the sorted oracle", algo.name());
    }

    println!("\nsort-based oracle: median = {median} (all four agree)");
    println!(
        "\nNote how both randomized algorithms beat both deterministic ones by\n\
         roughly an order of magnitude — the paper's headline result."
    );
}
