//! Query language tour: typed requests, inverse queries, accuracy
//! contracts, provenance and per-query cost attribution.
//!
//! ```text
//! cargo run --release --example query_api
//! ```
//!
//! The scenario: a latency-monitoring service keeps 2 million samples
//! resident and serves three families of questions —
//!
//! 1. *forward* — "what is p99?" (rank → element),
//! 2. *inverse* — "what fraction of requests beat our 250 µs SLO?"
//!    (element → rank: the CDF at a value), and
//! 3. *range* — "how many samples landed in the 100–200 µs bucket?"
//!
//! all through one typed surface, with every answer reporting which
//! subsystem produced it (histogram / sketch / index / scan) and its
//! share of the batch's collective work.

use cgselect::{Accuracy, Bounds, Engine, EngineConfig, Request, Served};

fn main() {
    let p = 8;
    let n: u64 = 2_000_000;
    println!("== Query language tour: {n} resident samples on {p} shards ==\n");

    let mut engine: Engine<u64> = Engine::new(EngineConfig::new(p)).unwrap();
    // Synthetic latency samples, microseconds, heavy right tail.
    let data: Vec<u64> = (0..n)
        .map(|i| {
            let x = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 44;
            50 + x % 400 + if x % 97 == 0 { x % 9000 } else { 0 }
        })
        .collect();
    engine.ingest(data).unwrap();

    // -- One mixed batch: ranks, CDF probes and range counts together.
    let slo = 250u64;
    let report = engine
        .run(&[
            Request::median(),
            Request::<u64>::quantiles([0.9, 0.99, 0.999]),
            Request::rank_of(slo),
            Request::count_between(Bounds::closed(100, 200)),
            Request::max(),
        ])
        .unwrap();
    let labels = ["median", "p90/p99/p99.9", &format!("rank_of({slo}us)"), "in 100..=200us", "max"];
    for (label, o) in labels.iter().zip(&report.outcomes) {
        println!(
            "{label:>16}: {:<40} served={:<9} cost={:.2} collective ops",
            format!("{:?}", o.response),
            o.served.to_string(),
            o.cost.collective_ops
        );
    }
    let below = report.outcomes[2].response.count().unwrap();
    println!(
        "\n  {:.2}% of requests beat the {slo}us SLO; batch paid {} collective ops total\n",
        100.0 * below as f64 / n as f64,
        report.collective_ops
    );

    // -- Steady state: repeat the same probes — answer refinement has
    // carved equality-class buckets, so the histogram alone serves them.
    let hot = engine.run(&[Request::median(), Request::rank_of(slo).histogram_ok()]).unwrap();
    println!("repeat of the same probes:");
    for o in &hot.outcomes {
        assert_eq!(o.served, Served::Histogram);
        println!("  {:?} served={} (zero scans, zero collectives)", o.response, o.served);
    }
    assert_eq!(hot.collective_ops, 0);

    // -- Accuracy contracts: the sketches serve a 2%-tolerance CDF probe
    // without touching the full data (a 1% contract would be tighter than
    // the resident sketches' bound, falling back to exact — contracts are
    // floors, not obligations to be sloppy).
    let sketchy = engine.run(&[Request::rank_of(170).within_rank(0.02)]).unwrap();
    let o = &sketchy.outcomes[0];
    assert_eq!(o.served, Served::Sketch);
    println!(
        "\nwithin_rank(0.02): {:?} served={} (contract {:?})",
        o.response,
        o.served,
        Accuracy::WithinRank(0.02)
    );

    // -- The async frontend's one-admission bulk submission.
    let queue = engine.into_frontend(cgselect::FrontendConfig::new());
    let tickets = queue
        .submit_many(vec![Request::rank_of(300), Request::count_between(Bounds::above(1000))])
        .unwrap();
    let outcomes: Vec<_> = tickets.into_iter().map(|t| t.wait().unwrap()).collect();
    println!(
        "\nsubmit_many: rank_of(300)={:?}, tail(>1000us)={:?}",
        outcomes[0].response.count().unwrap(),
        outcomes[1].response.count().unwrap()
    );
    drop(queue);
    println!("\nDone.");
}
