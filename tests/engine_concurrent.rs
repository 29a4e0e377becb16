//! Concurrency harness for the engine's async frontend: N client threads
//! submitting interleaved rank/quantile/top-k queries (and mutations)
//! through the `SubmissionQueue`, every answer oracle-checked; admission
//! control under saturation; and the micro-batching coalescing claim —
//! collective rounds per query drop as the window widens.
//!
//! Determinism notes:
//! * Static-data tests check answers against an exact sorted oracle.
//! * The mutation test confines concurrent ingests/deletes to values
//!   strictly above the base data's maximum, which leaves every rank below
//!   the base population invariant — so exact oracle checks survive
//!   arbitrary interleavings, and quantile answers are checked against the
//!   rank interval induced by the population bounds.
//! * The coalescing tests come in two flavours: a paused-prefill test whose
//!   batch boundaries are scheduling-independent, and a paced-producer test
//!   whose window sweep is given wide margins (windows 0 / 20 ms / 150 ms
//!   against a ~2 ms submission pace).

use std::time::Duration;

use cgselect::seqsel::KernelRng;
use cgselect::{
    quantile_rank, Distribution, Engine, EngineConfig, FrontendConfig, MachineModel, QueryKind,
    Request, Response, SubmitError,
};

/// Generous ticket deadline: a lost wakeup or dropped ticket fails the test
/// instead of hanging the suite.
const TICKET_TIMEOUT: Duration = Duration::from_secs(60);

fn free_engine(p: usize) -> Engine<u64> {
    Engine::new(EngineConfig::new(p).model(MachineModel::free())).unwrap()
}

fn sorted(mut v: Vec<u64>) -> Vec<u64> {
    v.sort_unstable();
    v
}

/// The expected exact answer for `query` over static sorted data.
fn oracle_answer(oracle: &[u64], query: &Request<u64>) -> Response<u64> {
    let n = oracle.len() as u64;
    match query.kind {
        QueryKind::Rank(k) => Response::Element(oracle[k as usize]),
        QueryKind::Median => Response::Element(oracle[((n - 1) / 2) as usize]),
        QueryKind::Quantile(q) => Response::Element(oracle[quantile_rank(q, n) as usize]),
        QueryKind::TopK(k) => Response::Elements(oracle[..k as usize].to_vec()),
        ref other => panic!("no oracle for {other:?} in this file's mixes"),
    }
}

/// A deterministic per-thread query mix over `n` resident elements.
fn query_mix(seed: u64, count: usize, n: u64) -> Vec<Request<u64>> {
    let mut rng = KernelRng::new(seed);
    (0..count)
        .map(|_| match rng.below(4) {
            0 => Request::rank(rng.below(n)),
            1 => Request::quantile(rng.below(1000) as f64 / 999.0),
            2 => Request::median(),
            _ => Request::top_k(1 + rng.below(32.min(n))),
        })
        .collect()
}

#[test]
fn concurrent_clients_match_oracle_on_three_distributions() {
    let p = 4;
    let n = 20_000;
    let clients = 4;
    let queries_per_client = 40;
    for (di, dist) in
        [Distribution::Random, Distribution::Zipf, Distribution::OrganPipe].into_iter().enumerate()
    {
        let data: Vec<u64> =
            cgselect::generate(dist, n, p, 41 + di as u64).into_iter().flatten().collect();
        let oracle = sorted(data.clone());
        let mut engine = free_engine(p);
        engine.ingest(data).unwrap();
        let queue = engine.into_frontend(
            FrontendConfig::new().window(Duration::from_millis(2)).queue_capacity(4096),
        );

        std::thread::scope(|s| {
            for c in 0..clients {
                let queue = queue.clone();
                let oracle = &oracle;
                s.spawn(move || {
                    let queries =
                        query_mix(1000 * (di as u64 + 1) + c as u64, queries_per_client, n as u64);
                    // Fire everything, then await: maximizes interleaving
                    // across the client threads.
                    let tickets: Vec<_> = queries
                        .iter()
                        .map(|q| {
                            let t = queue.submit_request(q.clone());
                            (q, t.expect("queue sized for the test"))
                        })
                        .collect();
                    for (q, t) in tickets {
                        let got = t
                            .wait_for(TICKET_TIMEOUT)
                            .unwrap_or_else(|| panic!("ticket timed out for {q:?}"))
                            .unwrap_or_else(|e| panic!("{q:?} failed: {e}"));
                        assert_eq!(got.response, oracle_answer(oracle, q), "{dist:?}: {q:?}");
                    }
                });
            }
        });

        let stats = queue.stats();
        let expected = (clients * queries_per_client) as u64;
        assert_eq!(stats.submitted, expected, "{dist:?}");
        assert_eq!(stats.queries_executed, expected, "{dist:?}");
        assert_eq!(stats.failures, 0, "{dist:?}");
        assert_eq!(stats.rejected, 0, "{dist:?}");
        assert!(stats.batches <= expected, "{dist:?}");
        assert!(stats.collective_ops > 0, "{dist:?}");
        // Hand the engine back: the session must still be healthy.
        let mut engine = queue.shutdown().expect("first shutdown claims the engine");
        let report = engine.run(&[Request::median()]).unwrap();
        assert_eq!(report.outcomes[0].response, oracle_answer(&oracle, &Request::median()));
    }
}

#[test]
fn queries_interleaved_with_ingest_delete_stay_correct() {
    let p = 4;
    let n_base = 30_000usize;
    let burst = 400u64; // mutator in-flight bound
    let bursts = 12;
    for (di, dist) in [Distribution::Random, Distribution::FewDistinct(17)].into_iter().enumerate()
    {
        let data: Vec<u64> =
            cgselect::generate(dist, n_base, p, 97 + di as u64).into_iter().flatten().collect();
        let oracle = sorted(data.clone());
        // Mutations live strictly above the base maximum: every rank below
        // n_base is invariant under them, whatever the interleaving.
        let hot_base = oracle[n_base - 1] + 1;
        let (n_lo, n_hi) = (n_base as u64, n_base as u64 + burst);

        let mut engine = free_engine(p);
        engine.ingest(data).unwrap();
        let queue = engine.into_frontend(
            FrontendConfig::new().window(Duration::from_millis(1)).queue_capacity(4096),
        );

        std::thread::scope(|s| {
            // The mutator: ingest a burst of fresh values, await it, delete
            // exactly that burst, await it — so at most `burst` foreign
            // elements are ever resident.
            {
                let queue = queue.clone();
                s.spawn(move || {
                    for round in 0..bursts {
                        let values: Vec<u64> =
                            (0..burst).map(|i| hot_base + round * burst + i).collect();
                        let rep = queue
                            .submit_ingest(values.clone())
                            .expect("queue sized for the test")
                            .wait_for(TICKET_TIMEOUT)
                            .expect("ingest ticket timed out")
                            .expect("ingest failed");
                        assert_eq!(rep.elements, burst);
                        let rep = queue
                            .submit_delete(values)
                            .expect("queue sized for the test")
                            .wait_for(TICKET_TIMEOUT)
                            .expect("delete ticket timed out")
                            .expect("delete failed");
                        assert_eq!(rep.elements, burst, "mutator values are unique");
                    }
                });
            }
            // Query clients, concurrent with the mutator.
            for c in 0..3u64 {
                let queue = queue.clone();
                let oracle = &oracle;
                s.spawn(move || {
                    let mut rng = KernelRng::new(500 + 77 * c + di as u64);
                    for _ in 0..60 {
                        match rng.below(3) {
                            0 => {
                                // Exact: ranks below the base population
                                // are invariant under the mutator.
                                let k = rng.below(n_lo);
                                let got = queue
                                    .submit_request(Request::rank(k))
                                    .expect("queue sized for the test")
                                    .wait_for(TICKET_TIMEOUT)
                                    .expect("rank ticket timed out")
                                    .expect("rank query failed")
                                    .response;
                                assert_eq!(got, Response::Element(oracle[k as usize]), "rank {k}");
                            }
                            1 => {
                                // Exact: the k smallest never change.
                                let k = 1 + rng.below(64);
                                let got = queue
                                    .submit_request(Request::top_k(k))
                                    .expect("queue sized for the test")
                                    .wait_for(TICKET_TIMEOUT)
                                    .expect("top-k ticket timed out")
                                    .expect("top-k query failed")
                                    .response;
                                assert_eq!(got, Response::Elements(oracle[..k as usize].to_vec()));
                            }
                            _ => {
                                // Interval-checked: the population is
                                // somewhere in [n_lo, n_hi], so the answer
                                // must fall in the induced rank interval.
                                let q = rng.below(900) as f64 / 999.0;
                                let got = queue
                                    .submit_request(Request::quantile(q))
                                    .expect("queue sized for the test")
                                    .wait_for(TICKET_TIMEOUT)
                                    .expect("quantile ticket timed out")
                                    .expect("quantile query failed")
                                    .response;
                                let (r_lo, r_hi) = (quantile_rank(q, n_lo), quantile_rank(q, n_hi));
                                assert!(
                                    r_hi < n_lo,
                                    "test invariant: quantile targets stay in the base prefix"
                                );
                                let Response::Element(v) = got else {
                                    panic!("expected a value answer, got {got:?}");
                                };
                                assert!(
                                    (oracle[r_lo as usize]..=oracle[r_hi as usize]).contains(&v),
                                    "quantile {q}: {v} outside oracle[{r_lo}..={r_hi}] = \
                                     [{}, {}]",
                                    oracle[r_lo as usize],
                                    oracle[r_hi as usize]
                                );
                            }
                        }
                    }
                });
            }
        });

        let stats = queue.stats();
        assert_eq!(stats.mutations, 2 * bursts, "{dist:?}");
        assert_eq!(stats.queries_executed, 3 * 60, "{dist:?}");
        assert_eq!(stats.failures, 0, "{dist:?}");
        // All mutator values were deleted again: the engine is back to the
        // base population, bit-for-bit checkable.
        let engine = queue.shutdown().expect("first shutdown claims the engine");
        assert_eq!(engine.len(), n_base as u64, "{dist:?}");
    }
}

#[test]
fn saturation_rejects_with_typed_error_then_recovers() {
    let capacity = 8;
    let mut engine = free_engine(2);
    engine.ingest((0..1000u64).collect()).unwrap();
    // Paused start: the batcher provably pops nothing while we fill the
    // queue, making the saturation point exact.
    let queue =
        engine.into_frontend(FrontendConfig::new().queue_capacity(capacity).start_paused(true));

    let tickets: Vec<_> =
        (0..capacity as u64).map(|i| queue.submit_request(Request::rank(i)).unwrap()).collect();
    assert_eq!(queue.queue_depth(), capacity);

    // The queue is full: admission control must reject, not block or panic.
    match queue.submit_request(Request::median()) {
        Err(SubmitError::Saturated { capacity: c }) => assert_eq!(c, capacity),
        other => panic!("expected Saturated, got {other:?}"),
    }
    match queue.submit_ingest(vec![1, 2, 3]) {
        Err(SubmitError::Saturated { .. }) => {}
        other => panic!("expected Saturated for mutations too, got {other:?}"),
    }
    assert_eq!(queue.stats().rejected, 2);

    // Drain: everything accepted before saturation is answered correctly.
    queue.resume();
    for (i, t) in tickets.into_iter().enumerate() {
        let got = t
            .wait_for(TICKET_TIMEOUT)
            .expect("drained ticket timed out")
            .expect("drained query failed")
            .response;
        assert_eq!(got, Response::Element(i as u64));
    }

    // Recovered: new submissions are accepted and answered again.
    let t = queue.submit_request(Request::median()).expect("queue must recover after draining");
    let got = t.wait_for(TICKET_TIMEOUT).unwrap().map(|o| o.response);
    assert_eq!(got, Ok(Response::Element(499)));
    let stats = queue.stats();
    assert_eq!(stats.queue_depth, 0);
    assert_eq!(stats.submitted, capacity as u64 + 1);
    assert_eq!(stats.rejected, 2);
}

#[test]
fn prefilled_queue_coalesces_into_size_capped_batches() {
    // Scheduling-independent coalescing proof: 32 queries staged while
    // paused must form exactly ceil(32/8) = 4 batches of occupancy 8.
    let max_batch = 8;
    let submissions = 32u64;
    let mut engine = free_engine(4);
    engine.ingest((0..10_000u64).collect()).unwrap();
    let queue = engine.into_frontend(
        FrontendConfig::new()
            .queue_capacity(64)
            .max_batch(max_batch)
            .window(Duration::from_millis(5))
            .start_paused(true),
    );
    let tickets: Vec<_> =
        (0..submissions).map(|i| queue.submit_request(Request::rank(i * 100)).unwrap()).collect();
    queue.resume();
    for (i, t) in tickets.into_iter().enumerate() {
        assert_eq!(
            t.wait_for(TICKET_TIMEOUT).expect("ticket timed out").map(|o| o.response),
            Ok(Response::Element(i as u64 * 100))
        );
    }
    let stats = queue.stats();
    assert_eq!(stats.batches, submissions / max_batch as u64);
    assert_eq!(stats.max_occupancy, max_batch);
    assert_eq!(stats.mean_occupancy(), max_batch as f64);
    assert_eq!(stats.queries_executed, submissions);
}

#[test]
fn rounds_per_query_drop_monotonically_as_the_window_widens() {
    // The acceptance claim: with a paced stream of single-query
    // submissions, widening the micro-batch window strictly increases
    // coalescing and strictly decreases collective rounds per query
    // (measured via CommStats.collective_ops accumulated per batch).
    // Windows are separated by ~an order of magnitude against a ~2 ms
    // submission pace, so the ordering survives scheduler noise.
    let windows = [Duration::ZERO, Duration::from_millis(20), Duration::from_millis(150)];
    let submissions = 56u64;
    let pace = Duration::from_millis(2);

    let mut rounds_per_query = Vec::new();
    let mut occupancy = Vec::new();
    for window in windows {
        let mut engine = free_engine(4);
        engine.ingest((0..20_000u64).collect()).unwrap();
        let queue = engine.into_frontend(FrontendConfig::new().window(window).queue_capacity(4096));
        let tickets: Vec<_> = (0..submissions)
            .map(|i| {
                let t = queue.submit_request(Request::rank((i * 311) % 20_000)).unwrap();
                std::thread::sleep(pace);
                t
            })
            .collect();
        for t in tickets {
            t.wait_for(TICKET_TIMEOUT).expect("ticket timed out").expect("query failed");
        }
        let stats = queue.stats();
        assert_eq!(stats.queries_executed, submissions);
        rounds_per_query.push(stats.rounds_per_query());
        occupancy.push(stats.mean_occupancy());
    }

    println!(
        "windows {:?} -> rounds/query {rounds_per_query:?}, occupancy {occupancy:?}",
        windows.map(|w| w.as_millis())
    );
    for i in 1..windows.len() {
        assert!(
            occupancy[i] > occupancy[i - 1],
            "occupancy must rise with the window: {occupancy:?} for windows {windows:?}"
        );
        assert!(
            rounds_per_query[i] < rounds_per_query[i - 1],
            "collective rounds per query must drop as the window widens: \
             {rounds_per_query:?} for windows {windows:?}"
        );
    }
}
