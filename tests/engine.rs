//! End-to-end tests of the persistent query engine through the facade:
//! mixed batches checked against a sorted-vector oracle over every workload
//! distribution, batching's collective-round advantage, and session
//! persistence across the whole ingest/query/re-balance/delete lifecycle.

use cgselect::{
    measure_rounds, quantile_rank, Distribution, Engine, EngineConfig, ExecutionMode, MachineModel,
    Request, Response,
};

fn free_engine(p: usize) -> Engine<u64> {
    Engine::new(EngineConfig::new(p).model(MachineModel::free())).unwrap()
}

/// Ingests `data`, runs one mixed batch (ranks + quantiles + median +
/// top-k), and checks every exact answer against the sorted oracle.
fn check_mixed_batch(engine: &mut Engine<u64>, data: Vec<u64>) {
    let mut oracle = data.clone();
    oracle.sort_unstable();
    let n = oracle.len() as u64;
    engine.ingest(data).unwrap();
    assert_eq!(engine.len(), n);

    let queries = vec![
        Request::rank(0),
        Request::rank(n / 3),
        Request::rank(n - 1),
        Request::quantile(0.1),
        Request::quantile(0.5),
        Request::quantile(0.9),
        Request::median(),
        Request::top_k(7.min(n)),
    ];
    let report = engine.run(&queries).unwrap();
    assert_eq!(report.outcomes.len(), queries.len());
    assert_eq!(report.sketch_answers, 0, "exact batch must not touch the sketches");

    assert_eq!(report.outcomes[0].response, Response::Element(oracle[0]));
    assert_eq!(report.outcomes[1].response, Response::Element(oracle[(n / 3) as usize]));
    assert_eq!(report.outcomes[2].response, Response::Element(oracle[(n - 1) as usize]));
    for (i, q) in [0.1, 0.5, 0.9].into_iter().enumerate() {
        assert_eq!(
            report.outcomes[3 + i].response,
            Response::Element(oracle[quantile_rank(q, n) as usize]),
            "quantile {q}"
        );
    }
    assert_eq!(report.outcomes[6].response, Response::Element(oracle[((n - 1) / 2) as usize]));
    assert_eq!(
        report.outcomes[7].response,
        Response::Elements(oracle[..7.min(n as usize)].to_vec())
    );
}

#[test]
fn mixed_batches_match_oracle_on_every_distribution() {
    let p = 4;
    let n = 6000;
    let all = [
        Distribution::Random,
        Distribution::Sorted,
        Distribution::ReverseSorted,
        Distribution::FewDistinct(17),
        Distribution::Gaussian,
        Distribution::Zipf,
        Distribution::OrganPipe,
        Distribution::AllEqual,
    ];
    for dist in all {
        let data: Vec<u64> = cgselect::generate(dist, n, p, 23).into_iter().flatten().collect();
        let mut engine = free_engine(p);
        check_mixed_batch(&mut engine, data);
    }
}

#[test]
fn batched_ranks_use_strictly_fewer_collective_rounds_than_single_calls() {
    let p = 4;
    let data: Vec<u64> =
        cgselect::generate(Distribution::Random, 50_000, p, 31).into_iter().flatten().collect();
    // Baseline path (bucket index off): with the index, the repeated ranks
    // below would be answered from the cached histogram for free and this
    // test would measure the cache, not batching. The indexed counterpart
    // lives in tests/engine_indexed.rs.
    let mut engine: Engine<u64> =
        Engine::new(EngineConfig::new(p).model(MachineModel::free()).index_buckets(0)).unwrap();
    engine.ingest(data).unwrap();
    let n = engine.len();

    let r = 12;
    let ranks: Vec<u64> = (0..r).map(|i| (i * n) / r).collect();
    let batch: Vec<Request<u64>> = ranks.iter().map(|&k| Request::rank(k)).collect();

    // The planner must resolve all 12 distinct ranks on the exact path.
    let report = engine.run(&batch).unwrap();
    assert_eq!(report.exact_ranks, ranks.len());

    // The same accounting the `engine` bench binary reports — the shared
    // helper is the single definition of "collective rounds per query".
    let batched = measure_rounds(&mut engine, &batch, ExecutionMode::Batched).unwrap();
    let single = measure_rounds(&mut engine, &batch, ExecutionMode::PerQuery).unwrap();
    assert!(
        batched.collective_ops < single.collective_ops,
        "a batch of {r} rank queries must use strictly fewer collective rounds \
         ({}) than {r} single-rank calls ({})",
        batched.collective_ops,
        single.collective_ops
    );
    assert!(batched.rounds_per_query() < single.rounds_per_query());
    // The advantage must also show in message counts.
    assert!(batched.msgs_sent > 0 && batched.msgs_sent < single.msgs_sent);
}

#[test]
fn lifecycle_ingest_query_rebalance_delete_in_one_session() {
    let p = 4;
    let mut engine: Engine<u64> =
        Engine::new(EngineConfig::new(p).model(MachineModel::free()).imbalance_watermark(1.25))
            .unwrap();

    let mut oracle: Vec<u64> = Vec::new();

    // Balanced ingest.
    let a: Vec<u64> = (0..8000u64).map(|i| i.wrapping_mul(48271) % 65536).collect();
    oracle.extend(&a);
    assert!(!engine.ingest(a).unwrap().rebalanced);

    // Hot shard trips the watermark once.
    let b: Vec<u64> = (0..6000u64).map(|i| i.wrapping_mul(16807) % 65536).collect();
    oracle.extend(&b);
    let rep = engine.ingest_pinned(1, b).unwrap();
    assert!(rep.rebalanced);
    assert_eq!(engine.rebalances(), 1);
    assert!(engine.imbalance_ratio() <= 1.25);

    // Queries agree with the oracle after the move.
    oracle.sort_unstable();
    let n = oracle.len() as u64;
    let report = engine.run(&[Request::median(), Request::top_k(5)]).unwrap();
    assert_eq!(report.outcomes[0].response, Response::Element(oracle[((n - 1) / 2) as usize]));
    assert_eq!(report.outcomes[1].response, Response::Elements(oracle[..5].to_vec()));

    // Delete a value class entirely.
    let removed = engine.delete(&[42]).unwrap().elements;
    let expect_removed = oracle.iter().filter(|&&x| x == 42).count() as u64;
    assert_eq!(removed, expect_removed);
    oracle.retain(|&x| x != 42);
    let n = oracle.len() as u64;
    assert_eq!(engine.len(), n);
    let report = engine.run(&[Request::quantile(0.5)]).unwrap();
    assert_eq!(
        report.outcomes[0].response,
        Response::Element(oracle[quantile_rank(0.5, n) as usize])
    );
}

#[test]
fn approximate_quantiles_honor_their_tolerance_against_the_oracle() {
    let p = 8;
    let mut engine: Engine<u64> =
        Engine::new(EngineConfig::new(p).model(MachineModel::free()).sketch_capacity(2048))
            .unwrap();
    let data: Vec<u64> =
        cgselect::generate(Distribution::Gaussian, 120_000, p, 77).into_iter().flatten().collect();
    let mut oracle = data.clone();
    oracle.sort_unstable();
    engine.ingest(data).unwrap();

    let tol = 0.03;
    let qs = [0.25, 0.5, 0.75, 0.99];
    let batch: Vec<Request<u64>> =
        qs.iter().map(|&q| Request::quantile(q).within_rank(tol)).collect();
    let report = engine.run(&batch).unwrap();
    assert_eq!(report.sketch_answers, qs.len(), "all four must be sketch-served");
    for outcome in &report.outcomes {
        let Response::Approximate { value, target_rank, max_rank_error } = outcome.response else {
            panic!("expected approximate answer, got {:?}", outcome.response);
        };
        // Rank window of `value` in the oracle: duplicates span `[lo, hi]`,
        // a value with no resident copy sits at its insertion position.
        let lo = oracle.partition_point(|&x| x < value) as u64;
        let hi = (oracle.partition_point(|&x| x <= value) as u64).saturating_sub(1).max(lo);
        let err = if target_rank < lo { lo - target_rank } else { target_rank.saturating_sub(hi) };
        assert!(
            err <= max_rank_error,
            "rank window [{lo}, {hi}] vs target {target_rank}: err {err} > {max_rank_error}"
        );
    }
}
