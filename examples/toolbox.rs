//! The extension toolbox: top-k extraction and weighted quantiles — the
//! features this library adds beyond the paper's four algorithms. Each
//! answer is asserted against a sequential oracle.
//!
//! Run with: `cargo run --release --example toolbox`

use cgselect::{
    parallel_top_k, parallel_weighted_select, Algorithm, Machine, MachineModel, SelectionConfig,
};
use cgselect_seqsel::KernelRng;

/// One processor's response times.
fn response_times(rank: usize) -> Vec<u64> {
    let mut rng = KernelRng::derive(77, rank as u64);
    (0..1000).map(|_| rng.below(1_000_000)).collect()
}

/// One processor's `(request size, bytes transferred)` pairs; a request
/// transfers its own size, so the weight is the key itself.
fn request_sizes(rank: usize) -> Vec<(u64, u64)> {
    let mut rng = KernelRng::derive(88, rank as u64);
    (0..5000)
        .map(|_| {
            let size = 1 + rng.below(4096);
            (size, size)
        })
        .collect()
}

fn main() {
    let p = 4;
    let machine = Machine::with_model(p, MachineModel::cm5());
    let cfg = SelectionConfig::with_seed(31);

    // ------------------------------------------------------------------
    // 1. Distributed top-k: keep the 10 smallest response times in place.
    // ------------------------------------------------------------------
    println!("== top-k: the 10 smallest of 4000 distributed values ==");
    let shares = machine
        .run(|proc| {
            let mine = response_times(proc.rank());
            parallel_top_k(proc, mine, 10, Algorithm::FastRandomized, &cfg).0
        })
        .expect("top-k failed");
    for (rank, share) in shares.iter().enumerate() {
        println!("  P{rank} keeps {:?}", share);
    }
    let mut kept: Vec<u64> = shares.into_iter().flatten().collect();
    kept.sort_unstable();
    let mut all: Vec<u64> = (0..p).flat_map(response_times).collect();
    all.sort_unstable();
    assert_eq!(kept, all[..10], "top-k must keep the 10 smallest of the sorted union");
    println!("  kept exactly the 10 smallest of the sorted union\n");

    // ------------------------------------------------------------------
    // 2. Weighted quantile: request sizes weighted by byte count — find
    //    the size below which half of all *bytes* (not requests) fall.
    // ------------------------------------------------------------------
    println!("== weighted quantile: half-of-bytes request size ==");
    let results = machine
        .run(|proc| {
            let mine = request_sizes(proc.rank());
            let total_bytes: u64 =
                proc.combine(mine.iter().map(|(_, w)| *w).sum::<u64>(), |a, b| a + b);
            let half = total_bytes.div_ceil(2);
            (parallel_weighted_select(proc, mine, half, &cfg), total_bytes)
        })
        .expect("weighted select failed");
    let (median_size, total_bytes) = results[0];
    println!("  half of the {total_bytes} total bytes come from requests <= {median_size} bytes");

    // Sequential weighted median: the smallest size whose cumulative byte
    // count reaches half of the total.
    let mut pairs: Vec<(u64, u64)> = (0..p).flat_map(request_sizes).collect();
    pairs.sort_unstable();
    let half = total_bytes.div_ceil(2);
    let mut cumulative = 0;
    let oracle = pairs
        .iter()
        .find(|&&(_, w)| {
            cumulative += w;
            cumulative >= half
        })
        .map(|&(size, _)| size)
        .expect("the total weight reaches its own half");
    assert!(results.iter().all(|r| *r == (oracle, total_bytes)));
    println!("  matches the sequential weighted median on every processor");
}
