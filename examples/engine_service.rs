//! The persistent query engine as a service: one long-lived sharded session
//! absorbs ingest bursts, re-balances itself when a hot shard trips the
//! imbalance watermark, and answers large mixed query batches — exact
//! queries through one coalesced multi-select pass, toleranced quantiles
//! from the resident sketches.
//!
//! Everything is asserted against a sorted-vector oracle, so this example
//! doubles as an end-to-end check:
//!
//! ```text
//! cargo run --release --example engine_service
//! ```

use cgselect::{BackendKind, Engine, EngineConfig, QueryKind, Request, Response, RunReport};

/// The answer halves of a report's outcomes (provenance and attributed cost
/// legitimately differ between a cold and a hot run of the same batch).
fn responses(report: &RunReport<u64>) -> Vec<&Response<u64>> {
    report.outcomes.iter().map(|o| &o.response).collect()
}

fn main() {
    let p = 8;
    let mut engine: Engine<u64> =
        Engine::new(EngineConfig::new(p).imbalance_watermark(1.5).sketch_capacity(2048)).unwrap();
    assert_eq!(engine.backend_kind(), BackendKind::LocalSpmd);

    // ---- Ingest: a steady stream, tracked by a client-side oracle ------
    let mut oracle: Vec<u64> = Vec::new();
    let next = |i: u64| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 20;
    for burst in 0..4 {
        let items: Vec<u64> = (0..50_000u64).map(|i| next(burst * 50_000 + i)).collect();
        oracle.extend(&items);
        let rep = engine.ingest(items).unwrap();
        assert!(!rep.rebalanced, "round-robin ingest must stay balanced");
    }
    oracle.sort_unstable();
    let n = oracle.len() as u64;
    println!(
        "ingested {n} keys over {p} shards (sizes {:?}, max/mean {:.3})",
        engine.shard_sizes(),
        engine.imbalance_ratio()
    );

    // ---- One mixed batch of 120 queries, answered in one session ------
    let mut queries = Vec::new();
    for i in 0..60 {
        queries.push(Request::rank(i * (n / 60) + i % 7)); // 60 rank queries
    }
    for i in 1..=40 {
        queries.push(Request::quantile(i as f64 / 41.0)); // 40 exact quantiles
    }
    for _ in 0..10 {
        queries.push(Request::median()); // 10 medians
    }
    for k in [1u64, 5, 25, 100, 500, 1000, 2500, 5000, 7500, 10_000] {
        queries.push(Request::top_k(k)); // 10 top-k queries
    }
    assert!(queries.len() >= 100, "the service demo batches at least 100 queries");

    let report = engine.run(&queries).unwrap();
    let mut checked = 0;
    for (query, outcome) in queries.iter().zip(&report.outcomes) {
        match (&query.kind, &outcome.response) {
            (&QueryKind::Rank(k), Response::Element(v)) => {
                assert_eq!(*v, oracle[k as usize], "rank {k}");
                checked += 1;
            }
            (&QueryKind::Quantile(q), Response::Element(v)) => {
                let k = cgselect::quantile_rank(q, n);
                assert_eq!(*v, oracle[k as usize], "quantile {q}");
                checked += 1;
            }
            (QueryKind::Median, Response::Element(v)) => {
                assert_eq!(*v, oracle[(n as usize - 1) / 2], "median");
                checked += 1;
            }
            (&QueryKind::TopK(k), Response::Elements(vs)) => {
                assert_eq!(vs.as_slice(), &oracle[..k as usize], "top-{k}");
                checked += 1;
            }
            (q, a) => panic!("unexpected answer shape for {q:?}: {a:?}"),
        }
    }
    println!(
        "batch of {} queries ({checked} exact answers match the oracle): \
         {} coalesced ranks in ONE multi-select pass, {} collective ops/proc, \
         {:.4}s virtual makespan, {} messages",
        queries.len(),
        report.exact_ranks,
        report.collective_ops,
        report.makespan,
        report.comm.msgs_sent
    );

    // Batched vs one-at-a-time, on the same engine: the whole point.
    // (The singles use fresh ranks — repeats of the batch's ranks would be
    // answered from the bucket index's histogram for free, see below.)
    let solo_ranks: Vec<Request<u64>> = (0..16).map(|i| Request::rank(i * (n / 16))).collect();
    let batched = engine.run(&solo_ranks).unwrap();
    let mut single_ops = 0;
    for i in 0..16 {
        let fresh = Request::rank(i * (n / 16) + 137);
        single_ops += engine.run(&[fresh]).unwrap().collective_ops;
    }
    assert!(batched.collective_ops < single_ops);
    println!(
        "16 rank queries: {} collective ops batched vs {single_ops} executed one-by-one \
         ({:.1}x fewer)",
        batched.collective_ops,
        single_ops as f64 / batched.collective_ops as f64
    );

    // Re-running the same batch hits the resident bucket index: the first
    // pass refined the splitters around its answers, so every repeat is
    // answered from the cached histogram — zero scans, zero collectives.
    let repeat = engine.run(&solo_ranks).unwrap();
    assert_eq!(responses(&repeat), responses(&batched));
    assert_eq!(repeat.histogram_answers, repeat.exact_ranks);
    println!(
        "the same 16 ranks again: {} collective ops, {} of {} answered from the \
         cached histogram (index health: {:?})",
        repeat.collective_ops,
        repeat.histogram_answers,
        repeat.exact_ranks,
        engine.index_health()
    );

    // ---- Approximate quantiles from the resident sketches --------------
    let tol = 0.02; // promise: rank error <= 2% of n
    let approx = engine
        .run(&[Request::quantile(0.5).within_rank(tol), Request::quantile(0.95).within_rank(tol)])
        .unwrap();
    assert_eq!(approx.sketch_answers, 2, "the sketches must serve these");
    for outcome in &approx.outcomes {
        let Response::Approximate { value, target_rank, max_rank_error } = outcome.response else {
            panic!("expected an approximate answer, got {:?}", outcome.response);
        };
        // The value's TRUE rank, from the oracle.
        let true_rank = oracle.partition_point(|&x| x < value) as u64;
        let err = true_rank.abs_diff(target_rank);
        assert!(
            err <= max_rank_error,
            "sketch broke its promise: true rank {true_rank} vs target {target_rank} \
             (err {err} > bound {max_rank_error})"
        );
        println!(
            "approx quantile: value {value} at true rank {true_rank}, target {target_rank} \
             (err {err} <= promised {max_rank_error}) — answered from sketches, \
             {} msgs",
            approx.comm.msgs_sent
        );
    }

    // ---- A hot shard trips the watermark exactly once -------------------
    let before = engine.rebalances();
    assert_eq!(before, 0);
    let hot: Vec<u64> = (0..150_000u64).map(|i| next(1_000_000 + i)).collect();
    oracle.extend(&hot);
    oracle.sort_unstable();
    let rep = engine.ingest_pinned(0, hot).unwrap(); // everything lands on shard 0
    assert!(rep.rebalanced, "the pinned burst must trip the watermark");
    assert_eq!(engine.rebalances(), 1, "exactly one re-balance");
    println!(
        "hot-shard burst absorbed: exactly one re-balance, shard sizes now {:?} \
         (max/mean {:.3})",
        engine.shard_sizes(),
        engine.imbalance_ratio()
    );

    // And the engine still answers correctly over the merged population.
    let n = oracle.len() as u64;
    let after = engine
        .run(&[Request::median(), Request::rank(0), Request::rank(n - 1), Request::top_k(3)])
        .unwrap();
    assert_eq!(after.outcomes[0].response, Response::Element(oracle[(n as usize - 1) / 2]));
    assert_eq!(after.outcomes[1].response, Response::Element(oracle[0]));
    assert_eq!(after.outcomes[2].response, Response::Element(oracle[n as usize - 1]));
    assert_eq!(after.outcomes[3].response, Response::Elements(oracle[..3].to_vec()));

    // ---- Deletes keep everything coherent -------------------------------
    let victims: Vec<u64> = oracle.iter().copied().step_by(1000).take(50).collect();
    let removed = engine.delete(&victims).unwrap().elements;
    oracle.retain(|x| !victims.contains(x));
    assert_eq!(removed as usize + oracle.len(), n as usize);
    let n = oracle.len() as u64;
    let post = engine.run(&[Request::median()]).unwrap();
    assert_eq!(post.outcomes[0].response, Response::Element(oracle[(n as usize - 1) / 2]));
    println!("deleted {removed} elements; median still matches the oracle");

    println!(
        "service summary: {} batches executed against one persistent session, \
         {} resident keys, {} re-balance(s)",
        engine.batches(),
        engine.len(),
        engine.rebalances()
    );

    // ---- The same service on the message-passing backend ----------------
    // One config knob moves every shard onto its own worker thread, with all
    // commands and replies crossing channels as serialized byte frames (the
    // dress rehearsal for out-of-process shards). Answers AND the
    // collective-round budget must be identical to the in-process session.
    let mut reference: Engine<u64> = Engine::new(EngineConfig::new(p)).unwrap();
    let mut mp: Engine<u64> = Engine::new(EngineConfig::new(p).channel_mp()).unwrap();
    assert_eq!(mp.backend_kind(), BackendKind::ChannelMp);
    let sample: Vec<u64> = (0..40_000u64).map(|i| next(7_000_000 + i)).collect();
    reference.ingest(sample.clone()).unwrap();
    mp.ingest(sample).unwrap();
    let batch: Vec<Request<u64>> =
        (1..=20).map(|i| Request::quantile(i as f64 / 21.0)).chain([Request::top_k(5)]).collect();
    let a = reference.run(&batch).unwrap();
    let b = mp.run(&batch).unwrap();
    assert_eq!(responses(&a), responses(&b), "backends must agree on every answer");
    assert_eq!(
        a.collective_ops, b.collective_ops,
        "backends must agree on the collective-round budget"
    );
    println!(
        "channel-mp backend: {} queries answered identically to local-spmd \
         at the same {} collective ops/proc ({} shard worker threads, \
         serialized command frames)",
        batch.len(),
        b.collective_ops,
        mp.nprocs()
    );
}
