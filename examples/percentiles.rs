//! Distributed tail-latency percentiles.
//!
//! A realistic use of distributed selection: each of 16 "ingest nodes"
//! holds a shard of request-latency samples (log-normal-ish, heavy tailed);
//! we compute p50/p90/p99/p99.9 *without* gathering or sorting the full
//! data set.
//!
//! Two ways are shown: one parallel selection per percentile (the paper's
//! algorithm), and this library's multi-rank extension that answers all
//! four in a single collective pass. Both are checked against a sort of
//! the whole data set.
//!
//! Run with: `cargo run --release --example percentiles`

use cgselect::{
    parallel_multi_select, parallel_select, Algorithm, Machine, MachineModel, OrdF64,
    SelectionConfig,
};
use cgselect_seqsel::KernelRng;

/// Synthesizes heavy-tailed latencies (milliseconds) for one shard.
fn shard_latencies(rank: usize, per_shard: usize) -> Vec<OrdF64> {
    let mut rng = KernelRng::derive(2024, rank as u64);
    (0..per_shard)
        .map(|_| {
            // Product of uniforms ~ log-normal-ish; occasionally a straggler.
            let base = 2.0 + 30.0 * rng.unit_f64() * rng.unit_f64();
            let straggler = if rng.below(1000) < 3 { 500.0 * rng.unit_f64() } else { 0.0 };
            OrdF64(base + straggler)
        })
        .collect()
}

fn main() {
    let p = 16;
    let per_shard = 200_000;
    let n = (p * per_shard) as u64;

    println!("Latency percentiles over {n} samples on {p} ingest nodes\n");

    let percentiles = [(50.0, "p50"), (90.0, "p90"), (99.0, "p99"), (99.9, "p99.9")];
    let ranks: Vec<u64> = percentiles
        .iter()
        .map(|(pct, _)| (((n - 1) as f64) * pct / 100.0).round() as u64)
        .collect();
    let machine = Machine::with_model(p, MachineModel::modern());
    let cfg = SelectionConfig::with_seed(7);

    // Each node's shard, generated once: a selection only borrows it.
    let shards: Vec<Vec<OrdF64>> = (0..p).map(|rank| shard_latencies(rank, per_shard)).collect();

    // The oracle: every sample, sorted.
    let mut all: Vec<OrdF64> = shards.concat();
    all.sort_unstable();

    // One selection per percentile (paper's Algorithm 4 each time), every
    // node reading its own shard in place.
    println!("-- one fast-randomized selection per percentile --");
    let mut single_total = 0.0f64;
    for ((_, label), &k) in percentiles.iter().zip(&ranks) {
        let outs = machine
            .run_distributed(&shards, |proc, mine| {
                parallel_select(proc, mine, k, Algorithm::FastRandomized, &cfg)
            })
            .expect("selection failed");
        let t = outs.iter().map(|o| o.total_seconds).fold(0.0, f64::max);
        single_total += t;
        println!(
            "{label:>6} = {:>8.3} ms   (rank {k}, {} iterations, {:.2} ms virtual)",
            outs[0].value.get(),
            outs[0].iterations,
            t * 1e3,
        );
        assert_eq!(outs[0].value, all[k as usize], "{label} disagrees with the sorted oracle");
    }

    // All four percentiles in one multi-select pass (library extension),
    // which works on its own copy of each shard.
    println!("\n-- all four percentiles in one multi-select pass --");
    let outs = machine
        .run_distributed(&shards, |proc, mine| {
            let t0 = proc.now();
            let values = parallel_multi_select(proc, mine.to_vec(), &ranks, &cfg);
            (values, proc.now() - t0)
        })
        .expect("multi-select failed");
    let (values, _) = &outs[0];
    let multi_time = outs.iter().map(|(_, t)| *t).fold(0.0, f64::max);
    for (((_, label), v), &k) in percentiles.iter().zip(values).zip(&ranks) {
        println!("{label:>6} = {:>8.3} ms", v.get());
        assert_eq!(*v, all[k as usize], "multi-select {label} disagrees with the sorted oracle");
    }
    println!(
        "\nvirtual time: {:.2} ms for all four (vs {:.2} ms for four separate \
         selections — one data pass instead of four)",
        multi_time * 1e3,
        single_total * 1e3,
    );
}
