//! The query language: typed requests, inverse queries, accuracy contracts
//! and provenance.
//!
//! The acceptance bar for the request surface:
//!
//! * `RankOf` / `CountBetween` match the sequential oracle across all 8
//!   workload distributions, on both execution backends, with identical
//!   answers *and identical collective-round counts*;
//! * when the resident index's splitters bound a probe, the answer is
//!   served with **zero data scans** (provenance = `Histogram`, zero
//!   collectives — the backend is never consulted);
//! * otherwise the whole probe batch costs **one collective Combine
//!   round**, no matter how many probes it carries.

use cgselect::{
    generate, quantile_rank, BackendChoice, Bounds, ChannelMpTuning, Distribution, Engine,
    EngineConfig, MachineModel, Request, Response, Served,
};

const ALL_DISTRIBUTIONS: [Distribution; 8] = [
    Distribution::Random,
    Distribution::Sorted,
    Distribution::ReverseSorted,
    Distribution::FewDistinct(17),
    Distribution::Gaussian,
    Distribution::Zipf,
    Distribution::OrganPipe,
    Distribution::AllEqual,
];

fn backends() -> [BackendChoice; 2] {
    [BackendChoice::LocalSpmd, BackendChoice::ChannelMp(ChannelMpTuning::default())]
}

fn cfg(p: usize, backend: BackendChoice) -> EngineConfig {
    EngineConfig::new(p).model(MachineModel::free()).backend(backend)
}

/// The sequential oracle for one prefix probe.
fn oracle_count(sorted: &[u64], v: u64, inclusive: bool) -> u64 {
    if inclusive {
        sorted.partition_point(|&x| x <= v) as u64
    } else {
        sorted.partition_point(|&x| x < v) as u64
    }
}

fn oracle_between(sorted: &[u64], b: &Bounds<u64>) -> u64 {
    let hi = match b.hi {
        Some((v, incl)) => oracle_count(sorted, v, incl),
        None => sorted.len() as u64,
    };
    let lo = match b.lo {
        Some((v, incl)) => oracle_count(sorted, v, !incl),
        None => 0,
    };
    hi.saturating_sub(lo)
}

// ---------------------------------------------------------------------------
// The inverse pair against the oracle: all 8 distributions × both backends.
// ---------------------------------------------------------------------------

#[test]
fn inverse_queries_match_oracle_across_distributions_and_backends() {
    for dist in ALL_DISTRIBUTIONS {
        let data: Vec<u64> = generate(dist, 4000, 4, 31).into_iter().flatten().collect();
        let mut sorted = data.clone();
        sorted.sort_unstable();
        let n = sorted.len() as u64;

        // Probe values drawn from the data (hit equality classes) and
        // around it (miss), plus assorted intervals.
        let probe_values: Vec<u64> = vec![
            sorted[0],
            sorted[(n / 3) as usize],
            sorted[(n / 2) as usize],
            sorted[(n - 1) as usize],
            sorted[(n - 1) as usize].saturating_add(1),
            sorted[0].wrapping_add(7) % sorted[(n - 1) as usize].max(1),
        ];
        let intervals = [
            Bounds::closed(sorted[(n / 4) as usize], sorted[(3 * n / 4) as usize]),
            Bounds::open(sorted[0], sorted[(n - 1) as usize]),
            Bounds::at_most(sorted[(n / 2) as usize]),
            Bounds::at_least(sorted[(n / 2) as usize]),
            Bounds::below(sorted[0]),
            Bounds::open(5, 5), // empty
        ];

        let mut per_backend: Vec<(Vec<Response<u64>>, u64)> = Vec::new();
        for backend in backends() {
            let mut engine: Engine<u64> = Engine::new(cfg(4, backend)).unwrap();
            engine.ingest(data.clone()).unwrap();
            let requests: Vec<Request<u64>> = probe_values
                .iter()
                .map(|&v| Request::rank_of(v))
                .chain(intervals.iter().map(|&b| Request::count_between(b)))
                .collect();
            let report = engine.run(&requests).unwrap();
            for (i, &v) in probe_values.iter().enumerate() {
                assert_eq!(
                    report.outcomes[i].response.count(),
                    Some(oracle_count(&sorted, v, false)),
                    "{dist:?}: RankOf({v})"
                );
                assert_eq!(report.outcomes[i].response.max_error(), 0, "{dist:?}: exact contract");
            }
            for (j, b) in intervals.iter().enumerate() {
                assert_eq!(
                    report.outcomes[probe_values.len() + j].response.count(),
                    Some(oracle_between(&sorted, b)),
                    "{dist:?}: CountBetween({b:?})"
                );
            }
            let responses = report.outcomes.iter().map(|o| o.response.clone()).collect();
            per_backend.push((responses, report.collective_ops));
        }
        let (a, b) = (&per_backend[0], &per_backend[1]);
        assert_eq!(a.0, b.0, "{dist:?}: backends must agree on inverse answers");
        assert_eq!(a.1, b.1, "{dist:?}: backends must agree on inverse-round counts");
    }
}

/// The inverse pair is consistent with forward selection: for the element
/// `v` at rank `k`, `RankOf(v) ≤ k < RankOf(v) + multiplicity(v)` — on
/// both backends, over random multisets and random ranks.
mod inverse_consistency {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        #[test]
        fn rank_of_select_k_is_k_consistent(
            seed in 1u64..1_000_000_000,
            p in 2usize..5,
        ) {
            let data: Vec<u64> =
                (0..3000u64).map(|i| i.wrapping_mul(seed | 1) % 997).collect();
            let mut sorted = data.clone();
            sorted.sort_unstable();
            let n = sorted.len() as u64;
            for backend in backends() {
                let mut engine: Engine<u64> = Engine::new(cfg(p, backend)).unwrap();
                engine.ingest(data.clone()).unwrap();
                for k in [0, seed % n, n / 2, n - 1] {
                    let v = engine
                        .run(&[Request::rank(k)])
                        .unwrap()
                        .outcomes[0]
                        .response
                        .element()
                        .expect("rank answer");
                    prop_assert_eq!(v, sorted[k as usize]);
                    let report = engine
                        .run(&[
                            Request::rank_of(v),
                            Request::count_between(Bounds::closed(v, v)),
                        ])
                        .unwrap();
                    let rank_of = report.outcomes[0].response.count().expect("count answer");
                    let multiplicity =
                        report.outcomes[1].response.count().expect("count answer");
                    prop_assert!(
                        rank_of <= k && k < rank_of + multiplicity,
                        "RankOf(select({})) = {} with multiplicity {} is not {}-consistent",
                        k, rank_of, multiplicity, k
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Zero scans when the splitters bound the answer; one Combine round
// otherwise — on both backends, with identical answers and rounds.
// ---------------------------------------------------------------------------

#[test]
fn bounded_probes_are_histogram_served_with_zero_collectives() {
    for backend in backends() {
        let mut engine: Engine<u64> = Engine::new(cfg(4, backend)).unwrap();
        let data: Vec<u64> = (0..20_000u64).rev().collect();
        engine.ingest(data).unwrap();
        // Warm: resolving the median refines an equality-class bucket
        // around its value, so the splitters now bound probes at it.
        let median = engine.run(&[Request::median()]).unwrap().outcomes[0]
            .response
            .element()
            .expect("median");
        assert_eq!(median, 9999);
        let report = engine
            .run(&[
                Request::rank_of(median),
                Request::count_between(Bounds::closed(median, median)),
            ])
            .unwrap();
        assert_eq!(report.outcomes[0].response.count(), Some(9999));
        assert_eq!(report.outcomes[1].response.count(), Some(1));
        for o in &report.outcomes {
            assert_eq!(o.served, Served::Histogram, "splitters bound the probe: zero scans");
            assert_eq!(o.cost.collective_ops, 0.0);
        }
        assert_eq!(report.collective_ops, 0, "histogram-served batch starts no collectives");
        assert_eq!(report.value_probes, 0, "no probe reached the backend");
        assert_eq!(report.histogram_answers, 2);
    }
}

#[test]
fn probe_batch_costs_one_combine_round_regardless_of_size() {
    let data: Vec<u64> = (0..30_000u64).map(|i| i.wrapping_mul(2654435761) % 1_000_000).collect();
    let mut per_backend: Vec<(u64, u64, Vec<Option<u64>>)> = Vec::new();
    for backend in backends() {
        // Two identically-built engines: a resolved probe refines the
        // splitters (its equality pair is carved into the index), so
        // running the big batch after the single probe on one engine
        // would let the carve serve some probes from the histogram —
        // fresh engines keep all 16 on the backend path.
        let mut engine: Engine<u64> = Engine::new(cfg(4, backend.clone())).unwrap();
        engine.ingest(data.clone()).unwrap();
        engine.run(&[Request::median()]).unwrap(); // builds the index
        let mut engine_many: Engine<u64> = Engine::new(cfg(4, backend)).unwrap();
        engine_many.ingest(data.clone()).unwrap();
        engine_many.run(&[Request::median()]).unwrap();

        // Fresh probe values strictly inside buckets: the histogram
        // brackets but cannot bound them, so they go to the backend.
        let one = engine.run(&[Request::rank_of(123_457)]).unwrap();
        let many: Vec<Request<u64>> =
            (0..16u64).map(|i| Request::rank_of(123_461 + i * 53_077)).collect();
        let many_report = engine_many.run(&many).unwrap();
        assert!(one.value_probes >= 1);
        assert_eq!(many_report.value_probes, 16, "all 16 probes must reach the backend");
        assert_eq!(
            one.collective_ops,
            many_report.collective_ops,
            "{:?}: 16 probes must cost exactly the rounds of 1 (one vectorized Combine)",
            engine.backend_kind()
        );
        per_backend.push((
            one.collective_ops,
            many_report.collective_ops,
            many_report.outcomes.iter().map(|o| o.response.count()).collect(),
        ));
    }
    assert_eq!(per_backend[0], per_backend[1], "backends must agree on answers and rounds");
}

// ---------------------------------------------------------------------------
// Accuracy contracts.
// ---------------------------------------------------------------------------

#[test]
fn within_rank_contract_serves_inverse_queries_from_sketches() {
    let n = 80_000u64;
    let data: Vec<u64> = {
        // 0..n shuffled deterministically: value == rank.
        let mut v: Vec<u64> = (0..n).collect();
        let mut rng = cgselect::seqsel::KernelRng::new(9);
        for i in (1..v.len()).rev() {
            v.swap(i, rng.below(i as u64 + 1) as usize);
        }
        v
    };
    let mut engine: Engine<u64> =
        Engine::new(cfg(4, BackendChoice::LocalSpmd).sketch_capacity(2048)).unwrap();
    engine.ingest(data).unwrap();
    let tol = 0.05;
    let report = engine
        .run(&[
            Request::rank_of(40_000).within_rank(tol),
            Request::count_between(Bounds::closed(10_000u64, 29_999)).within_rank(tol),
        ])
        .unwrap();
    assert_eq!(report.sketch_answers, 2);
    // The sketch rung is served from the host-global ε-sketch: the batch
    // starts zero collectives and attributes zero backend cost.
    assert_eq!(report.collective_ops, 0, "sketch serving must start no collectives");
    assert_eq!(report.value_probes, 0, "no probe may reach the backend");
    let budget = (tol * n as f64).ceil() as u64;
    for (o, truth) in report.outcomes.iter().zip([40_000u64, 20_000]) {
        assert_eq!(o.served, Served::Sketch);
        assert_eq!(o.cost.collective_ops, 0.0, "no backend phase to attribute");
        let Response::Count { count, max_error } = o.response else {
            panic!("expected a count, got {:?}", o.response)
        };
        // The reported error is the sketch's deterministic *guarantee*,
        // which must honor (and here beats) the ⌈t·n⌉ contract.
        assert!(max_error <= budget, "guarantee {max_error} exceeds the contract {budget}");
        assert!(max_error > 0, "a compacted sketch is not exact");
        assert!(
            count.abs_diff(truth) <= max_error,
            "sketch count {count} vs truth {truth} exceeds the promised error {max_error}"
        );
    }
    // A tolerance tighter than the sketch's guarantee falls back to exact.
    let report = engine.run(&[Request::rank_of(40_000).within_rank(1e-9)]).unwrap();
    assert_eq!(report.sketch_answers, 0);
    assert_eq!(report.outcomes[0].response.count(), Some(40_000));
    assert_eq!(report.outcomes[0].response.max_error(), 0);
}

#[test]
fn mixed_batches_attribute_zero_cost_to_the_sketch_rung() {
    // One batch, two rungs: the exact member pays the backend collectives,
    // the sketch member rides the host-global ε-sketch for free.
    let mut engine: Engine<u64> =
        Engine::new(cfg(4, BackendChoice::LocalSpmd).sketch_capacity(1024)).unwrap();
    engine.ingest((0..50_000u64).rev().collect()).unwrap();
    let report = engine
        .run(&[
            Request::<u64>::quantile(0.5).within_rank(0.05),
            Request::<u64>::quantile(0.9), // exact: must reach the backend
        ])
        .unwrap();
    assert!(report.collective_ops > 0, "the exact member pays collectives");
    assert_eq!(report.outcomes[0].served, Served::Sketch);
    assert_eq!(
        report.outcomes[0].cost.collective_ops, 0.0,
        "the sketch rung is host-side even when the batch hits the backend"
    );
    // value == rank in this dataset, so the exact answer is its own rank.
    assert_eq!(report.outcomes[1].response.element(), Some(quantile_rank(0.9, 50_000)));
    let attributed: f64 = report.outcomes.iter().map(|o| o.cost.collective_ops).sum();
    assert!(
        (attributed - report.collective_ops as f64).abs() < 1e-6,
        "attribution must still reproduce the batch total"
    );
}

#[test]
fn histogram_ok_contract_brackets_within_the_bucket_resolution() {
    let mut engine: Engine<u64> = Engine::new(cfg(4, BackendChoice::LocalSpmd)).unwrap();
    let data: Vec<u64> = (0..40_000u64).map(|i| i.wrapping_mul(48271) % 500_000).collect();
    let mut sorted = data.clone();
    sorted.sort_unstable();
    engine.ingest(data).unwrap();
    engine.run(&[Request::median()]).unwrap(); // builds the index

    // Inverse direction: the bracket midpoint must be within its own
    // promised error of the truth, at zero collective cost.
    let probe = 250_123u64;
    let report = engine.run(&[Request::rank_of(probe).histogram_ok()]).unwrap();
    let o = &report.outcomes[0];
    assert_eq!(o.served, Served::Histogram);
    assert_eq!(report.collective_ops, 0);
    let Response::Count { count, max_error } = o.response else {
        panic!("expected a count, got {:?}", o.response)
    };
    let truth = oracle_count(&sorted, probe, false);
    assert!(
        count.abs_diff(truth) <= max_error,
        "histogram count {count} vs truth {truth} exceeds the promised error {max_error}"
    );
    assert!(
        max_error < sorted.len() as u64 / 16,
        "bucket-resolution error {max_error} should be far below n"
    );

    // Rank direction: a HistogramOk quantile is answered from the bucket
    // alone with a rank-error bound.
    let report = engine.run(&[Request::<u64>::quantile(0.77).histogram_ok()]).unwrap();
    let o = &report.outcomes[0];
    assert_eq!(o.served, Served::Histogram);
    match o.response {
        Response::Element(v) => {
            // Exact: the target sat in an equality-class bucket.
            assert_eq!(v, sorted[quantile_rank(0.77, sorted.len() as u64) as usize]);
        }
        Response::Approximate { value, target_rank, max_rank_error } => {
            let lo = target_rank.saturating_sub(max_rank_error) as usize;
            let hi = (target_rank + max_rank_error).min(sorted.len() as u64 - 1) as usize;
            assert!(
                (sorted[lo]..=sorted[hi]).contains(&value),
                "histogram answer {value} outside the promised rank window"
            );
        }
        ref other => panic!("unexpected response {other:?}"),
    }
}

// ---------------------------------------------------------------------------
// Rank-direction kinds beyond rank/quantile, and cost attribution.
// ---------------------------------------------------------------------------

#[test]
fn min_max_and_multi_quantile_kinds() {
    let mut engine: Engine<u64> = Engine::new(cfg(3, BackendChoice::LocalSpmd)).unwrap();
    let data: Vec<u64> = (0..5000u64).map(|i| i.wrapping_mul(0x9E3779B9) % 77_777).collect();
    let mut sorted = data.clone();
    sorted.sort_unstable();
    let n = sorted.len() as u64;
    engine.ingest(data).unwrap();
    let report = engine
        .run(&[
            Request::min(),
            Request::max(),
            Request::quantiles([0.1, 0.5, 0.9]),
            Request::top_k(4),
        ])
        .unwrap();
    assert_eq!(report.outcomes[0].response.element(), Some(sorted[0]));
    assert_eq!(report.outcomes[1].response.element(), Some(sorted[(n - 1) as usize]));
    let expect: Vec<u64> =
        [0.1, 0.5, 0.9].iter().map(|&q| sorted[quantile_rank(q, n) as usize]).collect();
    assert_eq!(report.outcomes[2].response.elements(), Some(expect.as_slice()));
    assert_eq!(report.outcomes[3].response.elements(), Some(&sorted[..4]));
    // Cost attribution: the per-query shares reproduce the batch total.
    let attributed: f64 = report.outcomes.iter().map(|o| o.cost.collective_ops).sum();
    assert!(
        (attributed - report.collective_ops as f64).abs() < 1e-6,
        "attributed {attributed} vs batch total {}",
        report.collective_ops
    );
}

#[test]
fn provenance_distinguishes_index_and_histogram() {
    let data: Vec<u64> = (0..10_000u64).rev().collect();
    // The first resolution localizes through the index (Index); repeats
    // are histogram-served.
    let mut indexed: Engine<u64> = Engine::new(cfg(2, BackendChoice::LocalSpmd)).unwrap();
    indexed.ingest(data).unwrap();
    let cold = indexed.run(&[Request::median(), Request::rank_of(17)]).unwrap();
    assert_eq!(cold.outcomes[0].served, Served::Index);
    assert_eq!(cold.outcomes[1].served, Served::Index);
    assert!(cold.outcomes[0].cost.collective_ops > 0.0);
    let hot = indexed.run(&[Request::median()]).unwrap();
    assert_eq!(hot.outcomes[0].served, Served::Histogram);
    assert_eq!(hot.outcomes[0].cost.collective_ops, 0.0);
}

// ---------------------------------------------------------------------------
// The async frontend.
// ---------------------------------------------------------------------------

#[test]
fn submit_many_returns_aligned_outcome_tickets() {
    let mut engine: Engine<u64> = Engine::new(cfg(3, BackendChoice::LocalSpmd)).unwrap();
    let data: Vec<u64> = (0..6000u64).map(|i| i.wrapping_mul(2654435761) % 50_000).collect();
    let mut sorted = data.clone();
    sorted.sort_unstable();
    engine.ingest(data).unwrap();
    let queue = engine
        .into_frontend(cgselect::FrontendConfig::new().window(std::time::Duration::from_millis(2)));

    let requests: Vec<Request<u64>> = vec![
        Request::median(),
        Request::rank_of(25_000),
        Request::count_between(Bounds::at_most(10_000)),
        Request::rank(9_999_999), // invalid: fails alone
        Request::top_k(2),
    ];
    let tickets = queue.submit_many(requests).unwrap();
    assert_eq!(tickets.len(), 5);
    let mut results: Vec<_> = Vec::new();
    for t in tickets {
        results.push(t.wait());
    }
    let n = sorted.len() as u64;
    assert_eq!(
        results[0].as_ref().unwrap().response.element(),
        Some(sorted[((n - 1) / 2) as usize])
    );
    assert_eq!(
        results[1].as_ref().unwrap().response.count(),
        Some(oracle_count(&sorted, 25_000, false))
    );
    assert_eq!(
        results[2].as_ref().unwrap().response.count(),
        Some(oracle_count(&sorted, 10_000, true))
    );
    assert!(
        matches!(
            results[3],
            Err(cgselect::AsyncError::Engine(cgselect::EngineError::RankOutOfRange { .. }))
        ),
        "the invalid request must fail its own ticket, got {:?}",
        results[3]
    );
    assert_eq!(results[4].as_ref().unwrap().response.elements(), Some(&sorted[..2]));

    let engine = queue.shutdown().expect("first shutdown claims the engine");
    assert_eq!(engine.len(), n);
}

#[test]
fn submit_request_resolves_one_typed_outcome() {
    let mut engine: Engine<u64> = Engine::new(cfg(2, BackendChoice::LocalSpmd)).unwrap();
    engine.ingest((0..100u64).collect()).unwrap();
    let queue = engine.into_frontend(cgselect::FrontendConfig::new());
    let outcome = queue.submit_request(Request::rank_of(40)).unwrap().wait().unwrap();
    assert_eq!(outcome.response.count(), Some(40));
    assert!(outcome.served <= Served::Index);
    drop(queue);
}
