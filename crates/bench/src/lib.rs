//! # cgselect-bench — the paper's evaluation, regenerated
//!
//! The paper's §5 tables and figures are subcommands of one binary,
//! `paper <experiment> [--quick]`; the engine-era experiments keep their
//! own binaries (see `src/bin/`). All are built from the shared experiment
//! runner in this library:
//!
//! | Invocation | Regenerates |
//! |---|---|
//! | `paper fig1` | Figure 1 — four algorithms, random data, p ∈ {2..128}, n ∈ {128k, 512k, 2M} |
//! | `paper fig2` | Figure 2 — randomized selection × load balancers × {random, sorted} |
//! | `paper fig3` | Figure 3 — fast randomized × load balancers × {random, sorted} |
//! | `paper fig4` | Figure 4 — the two randomized algorithms on sorted data, best balancers |
//! | `paper fig5` | Figure 5 — randomized: total vs load-balance time, n = 2M |
//! | `paper fig6` | Figure 6 — fast randomized: total vs load-balance time, n = 2M |
//! | `paper table1` | Table 1 — expected run-time terms + measured iteration counts |
//! | `paper table2` | Table 2 — worst-case run-time terms + sorted-input measurements |
//! | `paper hybrid` | §5's hybrid experiment (deterministic algorithms, randomized kernels) |
//! | `paper headline` | §5's headline ratios, checked against the paper's claims |
//! | `paper all` | everything above, writing `results/*.csv` and `results/*.txt` |
//! | `engine` | batched vs per-query, the bucket index, mixed kinds, observability, sketch rung, standing queries (`--check` gates CI) |
//! | `ablation` | ε / δ / sample-sort / threshold sweeps (incl. the paper's ε = 0.6 tuning) |
//! | `whatif` | the headline comparisons under modern / high-latency cost models |
//! | `topology` | the §2.1 crossbar assumption vs hypercube & mesh with per-hop costs |
//! | `wallclock` | branchless kernels timed against their scalar `*_reference` twins, host wall time (`results/engine_wall.*`, `BENCH_wall.json`) |
//!
//! Pass `--quick` to any binary for a reduced grid (1 seed, smaller n).
//!
//! Times are **virtual CM-5 seconds** under the machine model
//! (`MachineModel::cm5()`); host wall time belongs to the benchmark in
//! `perf/` (and `wallclock`'s kernel ratios).

#![forbid(unsafe_code)]

pub mod chart;
pub mod experiment;
pub mod figs;

/// Returns true if `--quick` was passed on the command line.
pub fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--quick")
}

/// The directory experiment outputs are written to (`results/` at the
/// workspace root), created on demand.
pub fn results_dir() -> std::path::PathBuf {
    // CARGO_MANIFEST_DIR = crates/bench; results live at the workspace root.
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").join("results");
    std::fs::create_dir_all(&dir).expect("cannot create results directory");
    dir.canonicalize().expect("results directory must resolve")
}
