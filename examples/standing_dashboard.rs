//! Standing queries: a live percentile dashboard over an ingest storm.
//!
//! Run with: `cargo run --release --example standing_dashboard`
//!
//! Three standing subscriptions — p50, p99, p999 — ride a skewed (Zipf)
//! ingest storm through the async frontend. Each demonstrates one
//! [`RefreshPolicy`]: the p50 refreshes on every executed batch, the p99
//! only once 2% of the multiset has churned, and the p999 on a wall-clock
//! deadline served from the batcher's idle ticks. Every update carries a
//! gap-free sequence number, a freshness stamp (mutation version + element
//! count), and per-query attributed collective cost — so the dashboard can
//! show *how stale* each tile is and *what it cost* to keep fresh.

use std::time::Duration;

use cgselect::{
    Distribution, Engine, EngineConfig, FrontendConfig, RefreshPolicy, Request, Response,
    StandingHandle, StandingUpdate,
};

fn value(update: &StandingUpdate<u64>) -> u64 {
    match update.outcome.response {
        Response::Element(v) => v,
        ref other => panic!("quantile answers are single elements, got {other:?}"),
    }
}

fn show(label: &str, update: &StandingUpdate<u64>) {
    let zero = update.outcome.cost.collective_ops == 0.0;
    println!(
        "  {label:>5}  seq={:<3} value={:<8} v{} n={:<8} {}",
        update.seq,
        value(update),
        update.outcome.freshness.version,
        update.outcome.freshness.elements,
        if zero { "zero-collective" } else { "collective" },
    );
}

fn drain_into(label: &str, handle: &StandingHandle<u64>, latest: &mut Option<StandingUpdate<u64>>) {
    for update in handle.drain() {
        show(label, &update);
        *latest = Some(update);
    }
}

fn main() {
    let p = 8;
    let mut engine: Engine<u64> = Engine::new(EngineConfig::new(p)).expect("engine");
    // Seed the engine so the inaugural updates have something to report.
    let seed: Vec<u64> =
        cgselect::generate(Distribution::Zipf, 50_000, p, 11).into_iter().flatten().collect();
    engine.ingest(seed).expect("seed ingest");

    let queue = engine
        .into_frontend(FrontendConfig::new().window(Duration::from_millis(1)).queue_capacity(4096));

    // One subscription per dashboard tile, one policy each. Registration is
    // FIFO with mutations: each handle's first update reflects exactly the
    // data ingested before the subscribe.
    let p50 = queue
        .submit_standing(Request::median(), RefreshPolicy::EveryBatch)
        .expect("admit p50")
        .wait()
        .expect("subscribe p50");
    let p99 = queue
        .submit_standing(Request::quantile(0.99), RefreshPolicy::OnDelta(0.02))
        .expect("admit p99")
        .wait()
        .expect("subscribe p99");
    let p999 = queue
        .submit_standing(Request::quantile(0.999), RefreshPolicy::Deadline(5))
        .expect("admit p999")
        .wait()
        .expect("subscribe p999");

    println!("inaugural updates (seq 0, delivered at subscribe):");
    let (mut last50, mut last99, mut last999) = (None, None, None);
    drain_into("p50", &p50, &mut last50);
    drain_into("p99", &p99, &mut last99);
    drain_into("p999", &p999, &mut last999);

    // The storm: 40 skewed bursts. Every applied burst bumps the mutation
    // version; the batcher piggybacks due refreshes on each one.
    println!("\ningest storm (40 bursts x 5000 Zipf-skewed elements):");
    for burst in 0..40u64 {
        let chunk: Vec<u64> = cgselect::generate(Distribution::Zipf, 5_000, p, 100 + burst)
            .into_iter()
            .flatten()
            .collect();
        queue.submit_ingest(chunk).expect("admit burst").wait().expect("apply burst");
        drain_into("p50", &p50, &mut last50);
        drain_into("p99", &p99, &mut last99);
        drain_into("p999", &p999, &mut last999);
    }
    // Let the idle ticks serve any Deadline refresh still pending.
    std::thread::sleep(Duration::from_millis(20));
    drain_into("p999", &p999, &mut last999);

    let stats = queue.stats();
    println!("\nfinal dashboard:");
    for (label, last) in [("p50", &last50), ("p99", &last99), ("p999", &last999)] {
        let update = last.as_ref().expect("every tile saw at least the inaugural update");
        println!(
            "  {label:>5} = {:<8} (seq {}, {} elements at version {})",
            value(update),
            update.seq,
            update.outcome.freshness.elements,
            update.outcome.freshness.version,
        );
    }
    println!(
        "\n{} standing updates delivered, {} of them zero-collective ({:.0}%)",
        stats.standing_updates,
        stats.standing_zero_collective,
        100.0 * stats.standing_zero_collective as f64 / stats.standing_updates.max(1) as f64,
    );

    queue.cancel_standing(p50.id()).expect("admit").wait().expect("cancel");
    queue.cancel_standing(p99.id()).expect("admit").wait().expect("cancel");
    queue.cancel_standing(p999.id()).expect("admit").wait().expect("cancel");
    queue.shutdown();
}
