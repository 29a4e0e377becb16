//! The resident bucket index, end to end: the indexed exact path must
//! answer identically to the unindexed baseline (and to a sorted-vector
//! oracle) across every workload distribution and through the whole
//! mutation lifecycle — ingest bursts riding the unindexed delta run,
//! threshold-triggered delta merges, deletes through the index, and
//! watermark rebalances that rebuild the splitters — and it must pay for
//! itself: a repeated-quantile workload has to cost at least 2× fewer
//! collective operations per query than the pre-index baseline, with
//! steady-state repeats answered from the cached histogram alone.

use cgselect::{
    quantile_rank, Distribution, Engine, EngineConfig, MachineModel, QueryKind, Request, Response,
    RunReport,
};

fn engine_with(p: usize, index_buckets: usize, delta_threshold: f64) -> Engine<u64> {
    Engine::new(
        EngineConfig::new(p)
            .model(MachineModel::free())
            .index_buckets(index_buckets)
            .delta_threshold(delta_threshold),
    )
    .unwrap()
}

/// The mixed batch every lifecycle step is checked with.
fn mixed_batch(n: u64) -> Vec<Request<u64>> {
    vec![
        Request::rank(0),
        Request::rank(n / 3),
        Request::rank(n - 1),
        Request::quantile(0.1),
        Request::quantile(0.5),
        Request::quantile(0.9),
        Request::median(),
        Request::top_k(5.min(n)),
    ]
}

fn oracle_answers(sorted: &[u64], queries: &[Request<u64>]) -> Vec<Response<u64>> {
    let n = sorted.len() as u64;
    queries
        .iter()
        .map(|q| match q.kind {
            QueryKind::Rank(k) => Response::Element(sorted[k as usize]),
            QueryKind::Median => Response::Element(sorted[((n - 1) / 2) as usize]),
            QueryKind::Quantile(q) => Response::Element(sorted[quantile_rank(q, n) as usize]),
            QueryKind::TopK(k) => Response::Elements(sorted[..k as usize].to_vec()),
            ref other => panic!("no oracle for {other:?} in this file's batches"),
        })
        .collect()
}

/// The answer halves of a report: the two engines' provenance and
/// attributed cost legitimately differ, their responses must not.
fn responses(report: &RunReport<u64>) -> Vec<Response<u64>> {
    report.outcomes.iter().map(|o| o.response.clone()).collect()
}

/// Executes the mixed batch on both engines and checks both against the
/// oracle (and hence against each other).
fn check_step(label: &str, indexed: &mut Engine<u64>, baseline: &mut Engine<u64>, all: &[u64]) {
    let mut sorted = all.to_vec();
    sorted.sort_unstable();
    let n = sorted.len() as u64;
    let queries = mixed_batch(n);
    let expect = oracle_answers(&sorted, &queries);
    let got_indexed = indexed.run(&queries).unwrap();
    let got_baseline = baseline.run(&queries).unwrap();
    assert_eq!(responses(&got_indexed), expect, "indexed path diverged: {label}");
    assert_eq!(responses(&got_baseline), expect, "baseline path diverged: {label}");
    assert_eq!(indexed.len(), n, "{label}");
    assert_eq!(baseline.len(), n, "{label}");
}

#[test]
fn indexed_path_matches_baseline_and_oracle_through_the_lifecycle() {
    let p = 4;
    let n = 6000;
    let all_dists = [
        Distribution::Random,
        Distribution::Sorted,
        Distribution::ReverseSorted,
        Distribution::FewDistinct(17),
        Distribution::Gaussian,
        Distribution::Zipf,
        Distribution::OrganPipe,
        Distribution::AllEqual,
    ];
    for dist in all_dists {
        let data: Vec<u64> = cgselect::generate(dist, n, p, 23).into_iter().flatten().collect();
        // A tight delta threshold so the ingest bursts below cross merge
        // boundaries; a small bucket target keeps refinement visible.
        let mut indexed = engine_with(p, 16, 0.03);
        let mut baseline = engine_with(p, 0, 0.03);

        // Phase 1: bulk ingest of two thirds, first mixed batch (builds the
        // index on the indexed engine).
        let (bulk, tail) = data.split_at(2 * n / 3);
        let mut all = bulk.to_vec();
        indexed.ingest(bulk.to_vec()).unwrap();
        baseline.ingest(bulk.to_vec()).unwrap();
        check_step("bulk", &mut indexed, &mut baseline, &all);
        assert!(indexed.index_health().buckets > 0, "{dist:?}: index must build");

        // Phase 2: the remaining third arrives in bursts that ride the
        // delta run and trip merges at the threshold boundary.
        for (i, burst) in tail.chunks(n / 9).enumerate() {
            all.extend_from_slice(burst);
            indexed.ingest(burst.to_vec()).unwrap();
            baseline.ingest(burst.to_vec()).unwrap();
            check_step(&format!("burst {i}"), &mut indexed, &mut baseline, &all);
        }
        assert!(
            indexed.index_health().delta_merges >= 1,
            "{dist:?}: bursts of {} over threshold {} must have merged (health {:?})",
            n / 9,
            (0.03 * all.len() as f64).max(64.0),
            indexed.index_health()
        );

        // Phase 3: delete two resident value classes through the index
        // (skipped for the single-value distribution, which it would empty).
        if all.iter().any(|&x| x != all[0]) {
            let mut sorted = all.clone();
            sorted.sort_unstable();
            let victims = vec![sorted[n / 4], sorted[(3 * n) / 4]];
            let a = indexed.delete(&victims).unwrap();
            let b = baseline.delete(&victims).unwrap();
            assert_eq!(a.elements, b.elements, "{dist:?}");
            all.retain(|x| !victims.contains(x));
            check_step("delete", &mut indexed, &mut baseline, &all);
        }

        // Phase 4: a hot-shard burst trips the watermark; the rebalance
        // drops the splitters and the next batch rebuilds them.
        let rebuilds_before = indexed.index_health().rebuilds;
        let hot: Vec<u64> = (0..all.len() as u64).map(|i| i.wrapping_mul(2654435761)).collect();
        all.extend(&hot);
        let rep_i = indexed.ingest_pinned(1, hot.clone()).unwrap();
        let rep_b = baseline.ingest_pinned(1, hot).unwrap();
        assert!(rep_i.rebalanced && rep_b.rebalanced, "{dist:?}: watermark must trip");
        check_step("rebalance", &mut indexed, &mut baseline, &all);
        assert!(
            indexed.index_health().rebuilds > rebuilds_before,
            "{dist:?}: rebalance must force a splitter rebuild"
        );
    }
}

#[test]
fn repeated_quantile_workload_needs_half_the_collective_ops() {
    let p = 4;
    let data: Vec<u64> =
        cgselect::generate(Distribution::Random, 60_000, p, 7).into_iter().flatten().collect();
    let batch: Vec<Request<u64>> = [0.1, 0.25, 0.5, 0.75, 0.9, 0.99]
        .into_iter()
        .map(Request::quantile)
        .chain([Request::median()])
        .collect();
    let rounds = 6;

    let run = |mut engine: Engine<u64>| {
        engine.ingest(data.clone()).unwrap();
        let mut total_ops = 0u64;
        let mut answers = Vec::new();
        for _ in 0..rounds {
            let report = engine.run(&batch).unwrap();
            total_ops += report.collective_ops;
            answers.push(responses(&report));
        }
        (total_ops, answers, engine.index_health())
    };

    let (base_ops, base_answers, _) = run(engine_with(p, 0, 0.05));
    let (idx_ops, idx_answers, health) = run(engine_with(p, 64, 0.05));

    assert_eq!(idx_answers, base_answers, "indexed answers must match the baseline");
    assert!(
        2 * idx_ops <= base_ops,
        "repeated-quantile workload: indexed {idx_ops} vs baseline {base_ops} collective ops \
         — the acceptance bar is at least 2x fewer"
    );
    // Steady state: every repeat after the first batch is histogram-only.
    let distinct = idx_answers[0].len() as u64 - 1; // median == q0.5 coalesce? keep loose:
    assert!(
        health.histogram_hits >= (rounds as u64 - 1) * distinct.min(6),
        "expected histogram steady state, got {health:?}"
    );
}

#[test]
fn steady_state_repeats_are_scan_free() {
    let p = 4;
    let mut engine = engine_with(p, 64, 0.05);
    let data: Vec<u64> =
        cgselect::generate(Distribution::Zipf, 30_000, p, 3).into_iter().flatten().collect();
    let mut sorted = data.clone();
    sorted.sort_unstable();
    engine.ingest(data).unwrap();

    let batch = vec![Request::quantile(0.5), Request::quantile(0.99), Request::rank(41)];
    let warm = engine.run(&batch).unwrap();
    let hot = engine.run(&batch).unwrap();
    assert_eq!(responses(&hot), responses(&warm));
    assert_eq!(responses(&hot), oracle_answers(&sorted, &batch));
    assert_eq!(
        hot.histogram_answers, hot.exact_ranks,
        "every repeated rank must come from the histogram"
    );
    assert_eq!(hot.collective_ops, 0, "a histogram-only batch starts no collectives");
    assert_eq!(hot.makespan, 0.0, "and does no measured work");

    // A *nearby* quantile after refinement localizes to a refined window:
    // no costlier than the warm batch (strictly cheaper on large windows),
    // exact nonetheless.
    let near = vec![Request::quantile(0.501)];
    let report = engine.run(&near).unwrap();
    assert_eq!(responses(&report), oracle_answers(&sorted, &near));
    assert!(
        report.collective_ops <= warm.collective_ops,
        "near-quantile {} vs warm {} collective ops",
        report.collective_ops,
        warm.collective_ops
    );
}

#[test]
fn delta_boundary_interleaving_stays_exact() {
    // Drive the delta run right at its merge boundary with interleaved
    // ingests and deletes, checking exactness at every step.
    let p = 3;
    let mut engine = engine_with(p, 16, 0.04);
    let mut baseline = engine_with(p, 0, 0.04);
    let base: Vec<u64> = (0..4000u64).map(|i| i.wrapping_mul(48271) % 10_007).collect();
    let mut all = base.clone();
    engine.ingest(base.clone()).unwrap();
    baseline.ingest(base).unwrap();
    check_step("seed", &mut engine, &mut baseline, &all);

    for round in 0..6u64 {
        // Threshold is max(0.04·n, 64) ≈ 165; bursts of 90 straddle it.
        let burst: Vec<u64> = (0..90u64).map(|i| (round * 977 + i * 13) % 10_007).collect();
        all.extend(&burst);
        engine.ingest(burst.clone()).unwrap();
        baseline.ingest(burst.clone()).unwrap();
        check_step(&format!("ingest {round}"), &mut engine, &mut baseline, &all);

        if round % 2 == 1 {
            // Delete part of the *most recent* burst: removals must come out
            // of the delta run too, not just the indexed buckets.
            let victims: Vec<u64> = burst[..30].to_vec();
            let a = engine.delete(&victims).unwrap();
            let b = baseline.delete(&victims).unwrap();
            assert_eq!(a.elements, b.elements, "round {round}");
            all.retain(|x| !victims.contains(x));
            check_step(&format!("delete {round}"), &mut engine, &mut baseline, &all);
        }
    }
    let health = engine.index_health();
    assert!(health.delta_merges >= 1, "boundary bursts must have merged: {health:?}");
}
