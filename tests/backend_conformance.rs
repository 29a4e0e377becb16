//! Cross-backend conformance and fault-injection harness.
//!
//! The engine's execution seam ([`cgselect::ExecBackend`]) promises that
//! *where* the shards live — the in-process `LocalSpmd` session or the
//! message-passing backend's worker threads (`ChannelMp`) or worker
//! processes (`SocketMp`) — is unobservable: every
//! scenario family (all 8 workload distributions × the full
//! ingest-burst/delta-merge/delete/rebalance lifecycle) must produce
//! answers identical to the sequential oracle **and** identical
//! collective-round counts on both backends. The fault-injection half pins
//! down the failure contract at the same boundary: a worker panic
//! mid-batch, a lost reply, or a straggling shard must surface typed
//! errors (never hangs), poison the backend, and reject subsequent work
//! fast — mirroring `RunError::SessionPoisoned` semantics.

use std::time::{Duration, Instant};

use cgselect::{
    quantile_rank, BackendChoice, BackendError, BackendKind, ChannelMpTuning, Distribution, Engine,
    EngineConfig, EngineError, Fault, FrontendConfig, IndexHealth, MachineModel, QueryKind,
    Request, Response, RunReport, SocketMpTuning, SubmitError,
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

fn cfg(p: usize, backend: BackendChoice) -> EngineConfig {
    // A tight delta threshold so ingest bursts cross merge boundaries and a
    // small bucket target so refinement stays visible.
    EngineConfig::new(p)
        .model(MachineModel::free())
        .index_buckets(16)
        .delta_threshold(0.03)
        .backend(backend)
}

fn channel_mp() -> BackendChoice {
    BackendChoice::ChannelMp(ChannelMpTuning::default())
}

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
            ref other => panic!("no oracle for {other:?} in the mixed batch"),
        })
        .collect()
}

/// The answer halves of a report's outcomes.
fn responses(report: &RunReport<u64>) -> Vec<Response<u64>> {
    report.outcomes.iter().map(|o| o.response.clone()).collect()
}

/// What one lifecycle step observed — everything that must be identical
/// across backends, including the collective-round budget.
#[derive(Debug, Clone, PartialEq)]
struct Step {
    label: String,
    answers: Vec<Response<u64>>,
    collective_ops: u64,
    histogram_answers: usize,
    len: u64,
    health: IndexHealth,
}

impl Step {
    /// What `engine` shows right after the batch that produced `report`.
    fn record(label: String, report: &RunReport<u64>, engine: &Engine<u64>) -> Step {
        Step {
            label,
            answers: responses(report),
            collective_ops: report.collective_ops,
            histogram_answers: report.histogram_answers,
            len: engine.len(),
            health: engine.index_health(),
        }
    }
}

/// Drives one engine through the full mutation lifecycle for one
/// distribution, oracle-checking every step, and records what the backend
/// did. The op sequence is identical for every backend by construction.
fn run_lifecycle(backend: BackendChoice, dist: Distribution) -> Vec<Step> {
    let p = 4;
    let n = 3000usize;
    let data: Vec<u64> = cgselect::generate(dist, n, p, 23).into_iter().flatten().collect();
    let mut engine: Engine<u64> = Engine::new(cfg(p, backend)).unwrap();
    let mut all: Vec<u64> = Vec::new();
    let mut steps = Vec::new();

    let mut check = |engine: &mut Engine<u64>, all: &[u64], label: String| {
        let mut sorted = all.to_vec();
        sorted.sort_unstable();
        let queries = mixed_batch(sorted.len() as u64);
        let report = engine.run(&queries).unwrap();
        assert_eq!(
            responses(&report),
            oracle_answers(&sorted, &queries),
            "{} diverged from the oracle at step {label} ({dist:?})",
            engine.backend_kind(),
        );
        steps.push(Step::record(label, &report, engine));
    };

    // Phase 1: bulk ingest of two thirds; the first batch builds the index.
    let (bulk, tail) = data.split_at(2 * n / 3);
    all.extend_from_slice(bulk);
    engine.ingest(bulk.to_vec()).unwrap();
    check(&mut engine, &all, "bulk".into());
    assert!(engine.index_health().buckets > 0, "{dist:?}: index must build");

    // Phase 2: the remaining third arrives in bursts that ride the delta
    // run and trip amortized merges at the threshold boundary.
    for (i, burst) in tail.chunks(n / 9).enumerate() {
        all.extend_from_slice(burst);
        engine.ingest(burst.to_vec()).unwrap();
        check(&mut engine, &all, format!("burst {i}"));
    }
    assert!(
        engine.index_health().delta_merges >= 1,
        "{dist:?}: bursts must have crossed the merge threshold ({:?})",
        engine.index_health()
    );

    // Phase 3: delete two resident value classes through the index
    // (skipped for the single-value distribution, which it would empty).
    if all.iter().any(|&x| x != all[0]) {
        let mut sorted = all.clone();
        sorted.sort_unstable();
        let victims = vec![sorted[n / 4], sorted[(3 * n) / 4]];
        engine.delete(&victims).unwrap();
        all.retain(|x| !victims.contains(x));
        check(&mut engine, &all, "delete".into());
    }

    // Phase 4: a hot-shard burst trips the watermark; the rebalance drops
    // the splitters and the next batch rebuilds them.
    let rebuilds_before = engine.index_health().rebuilds;
    let hot: Vec<u64> = (0..all.len() as u64).map(|i| i.wrapping_mul(2654435761)).collect();
    all.extend(&hot);
    let rep = engine.ingest_pinned(1, hot).unwrap();
    assert!(rep.rebalanced, "{dist:?}: watermark must trip");
    check(&mut engine, &all, "rebalance".into());
    assert!(
        engine.index_health().rebuilds > rebuilds_before,
        "{dist:?}: rebalance must force a splitter rebuild"
    );
    steps
}

// ---------------------------------------------------------------------------
// Conformance: each backend against the oracle, then differentially.
// ---------------------------------------------------------------------------

#[test]
fn conformance_local_spmd_all_distributions() {
    for dist in ALL_DISTRIBUTIONS {
        let steps = run_lifecycle(BackendChoice::LocalSpmd, dist);
        assert!(steps.len() >= 5, "{dist:?}: lifecycle must cover every phase");
    }
}

#[test]
fn conformance_channel_mp_all_distributions() {
    for dist in ALL_DISTRIBUTIONS {
        let steps = run_lifecycle(channel_mp(), dist);
        assert!(steps.len() >= 5, "{dist:?}: lifecycle must cover every phase");
    }
}

#[test]
fn backends_agree_on_answers_and_collective_rounds() {
    for dist in ALL_DISTRIBUTIONS {
        let local = run_lifecycle(BackendChoice::LocalSpmd, dist);
        let mp = run_lifecycle(channel_mp(), dist);
        assert_eq!(local.len(), mp.len(), "{dist:?}: lifecycle shapes diverged");
        for (a, b) in local.iter().zip(&mp) {
            assert_eq!(
                a, b,
                "{dist:?} step {}: backends must agree on answers, collective-round \
                 counts and index health",
                a.label
            );
        }
    }
}

// ---------------------------------------------------------------------------
// The v2 inverse op (`count_below` probe Combine): equal answers and equal
// round counts on both backends, through the mutation lifecycle.
// ---------------------------------------------------------------------------

/// Drives inverse-query batches (rank-of + range counts) through
/// ingest-burst / delete phases on one backend, oracle-checking every
/// answer and recording the per-batch collective-round counts.
fn run_inverse_lifecycle(backend: BackendChoice, dist: Distribution) -> Vec<(Vec<u64>, u64)> {
    use cgselect::Bounds;
    let p = 4;
    let n = 3000usize;
    let data: Vec<u64> = cgselect::generate(dist, n, p, 41).into_iter().flatten().collect();
    let mut engine: Engine<u64> = Engine::new(cfg(p, backend)).unwrap();
    let mut all: Vec<u64> = Vec::new();
    let mut steps: Vec<(Vec<u64>, u64)> = Vec::new();

    let mut check = |engine: &mut Engine<u64>, all: &[u64], label: &str| {
        let mut sorted = all.to_vec();
        sorted.sort_unstable();
        let lo = sorted[sorted.len() / 4];
        let hi = sorted[(3 * sorted.len()) / 4];
        let requests = vec![
            Request::rank_of(sorted[sorted.len() / 2]),
            Request::rank_of(hi.saturating_add(1)),
            Request::count_between(Bounds::closed(lo, hi)),
            Request::count_between(Bounds::below(lo)),
            Request::count_between(Bounds::at_least(hi)),
        ];
        let report = engine.run(&requests).unwrap();
        let counts: Vec<u64> =
            report.outcomes.iter().map(|o| o.response.count().expect("count answer")).collect();
        let oracle = |v: u64, incl: bool| {
            if incl {
                sorted.partition_point(|&x| x <= v) as u64
            } else {
                sorted.partition_point(|&x| x < v) as u64
            }
        };
        let expect = vec![
            oracle(sorted[sorted.len() / 2], false),
            oracle(hi.saturating_add(1), false),
            oracle(hi, true) - oracle(lo, false),
            oracle(lo, false),
            sorted.len() as u64 - oracle(hi, false),
        ];
        assert_eq!(
            counts,
            expect,
            "{} diverged from the inverse oracle at step {label} ({dist:?})",
            engine.backend_kind()
        );
        steps.push((counts, report.collective_ops));
    };

    // Bulk ingest, then an exact batch to build (and refine) the index.
    let (bulk, tail) = data.split_at(2 * n / 3);
    all.extend_from_slice(bulk);
    engine.ingest(bulk.to_vec()).unwrap();
    engine.run(&[Request::median()]).unwrap();
    check(&mut engine, &all, "bulk");
    // A burst rides the delta run: probes must fold it in exactly.
    all.extend_from_slice(tail);
    engine.ingest(tail.to_vec()).unwrap();
    check(&mut engine, &all, "delta");
    // Delete a value class through the index.
    if all.iter().any(|&x| x != all[0]) {
        let mut sorted = all.clone();
        sorted.sort_unstable();
        let victim = sorted[n / 3];
        engine.delete(&[victim]).unwrap();
        all.retain(|&x| x != victim);
        check(&mut engine, &all, "delete");
    }
    steps
}

#[test]
fn inverse_ops_agree_on_answers_and_rounds_across_backends() {
    for dist in ALL_DISTRIBUTIONS {
        let local = run_inverse_lifecycle(BackendChoice::LocalSpmd, dist);
        let mp = run_inverse_lifecycle(channel_mp(), dist);
        assert_eq!(
            local, mp,
            "{dist:?}: backends must agree on inverse answers and collective-round counts"
        );
    }
}

#[test]
fn probe_round_count_is_independent_of_probe_batch_size_on_both_backends() {
    // The acceptance bar for the new op: the whole probe batch rides ONE
    // vectorized Combine, so 12 probes cost exactly the rounds of 1 — on
    // both backends, with identical counts.
    let data: Vec<u64> = (0..20_000u64).map(|i| i.wrapping_mul(48271) % 1_000_003).collect();
    let mut measured = Vec::new();
    for backend in backends() {
        let mut engine: Engine<u64> = Engine::new(cfg(4, backend)).unwrap();
        engine.ingest(data.clone()).unwrap();
        engine.run(&[Request::median()]).unwrap(); // builds the index
        let one = engine.run(&[Request::rank_of(500_001)]).unwrap();
        let batch: Vec<Request<u64>> =
            (0..12u64).map(|i| Request::rank_of(500_003 + i * 39_119)).collect();
        let many = engine.run(&batch).unwrap();
        assert_eq!(
            one.collective_ops,
            many.collective_ops,
            "{}: probe batches must share one Combine round",
            engine.backend_kind()
        );
        measured.push((one.collective_ops, many.collective_ops));
    }
    assert_eq!(measured[0], measured[1], "backends must agree on probe round counts");
}

/// Short timeouts so injected faults resolve in milliseconds, not the 30 s
/// production defaults.
fn faulty(faults: &[Fault]) -> BackendChoice {
    let mut tuning = ChannelMpTuning::new()
        .reply_timeout(Duration::from_millis(2000))
        .proc_timeout(Duration::from_millis(300));
    for f in faults {
        tuning = tuning.fault(f.clone());
    }
    BackendChoice::ChannelMp(tuning)
}

#[test]
fn worker_panic_mid_batch_surfaces_typed_error_and_poisons() {
    let mut engine: Engine<u64> =
        Engine::new(cfg(3, faulty(&[Fault::PanicOnExecute { rank: 1, nth: 1 }]))).unwrap();
    engine.ingest((0..3000u64).rev().collect()).unwrap();

    // Execute 0 is healthy; execute 1 hits the injected mid-batch panic.
    let ok = engine.run(&[Request::median()]).unwrap();
    assert_eq!(ok.outcomes[0].response, Response::Element(1499));
    let err = engine.run(&[Request::quantile(0.25)]).unwrap_err();
    match err {
        EngineError::Backend(BackendError::WorkerPanicked { rank, ref message }) => {
            assert_eq!(rank, 1, "the injected faulty rank must be reported, got {err:?}");
            assert!(message.contains("injected fault"), "root cause lost: {message}");
        }
        other => panic!("expected a typed worker panic, got {other:?}"),
    }

    // Poisoned: subsequent batches are rejected fast (no collective work,
    // no timeout waits), as are mutations.
    let t0 = Instant::now();
    let err = engine.run(&[Request::median()]).unwrap_err();
    assert_eq!(err, EngineError::Backend(BackendError::Poisoned));
    assert!(
        t0.elapsed() < Duration::from_millis(100),
        "poisoned rejection must be fast, took {:?}",
        t0.elapsed()
    );
    let err = engine.ingest(vec![1, 2, 3]).unwrap_err();
    assert_eq!(err, EngineError::Backend(BackendError::Poisoned));
    // Dropping the poisoned engine must still join every worker (covered
    // again by the thread-leak test below).
    drop(engine);
}

#[test]
fn dropped_reply_surfaces_worker_unresponsive_and_poisons() {
    let mut engine: Engine<u64> =
        Engine::new(cfg(3, faulty(&[Fault::DropReplyOnExecute { rank: 2, nth: 0 }]))).unwrap();
    engine.ingest((0..2000u64).collect()).unwrap();
    let err = engine.run(&[Request::median()]).unwrap_err();
    assert_eq!(
        err,
        EngineError::Backend(BackendError::WorkerUnresponsive { rank: 2 }),
        "a lost reply must surface as a typed timeout on the silent rank"
    );
    let err = engine.run(&[Request::median()]).unwrap_err();
    assert_eq!(err, EngineError::Backend(BackendError::Poisoned));
}

#[test]
fn slow_shard_stays_correct_within_timeouts() {
    let choice = BackendChoice::ChannelMp(
        ChannelMpTuning::new()
            .fault(Fault::SlowShard { rank: 0, delay: Duration::from_millis(40) }),
    );
    let mut slow: Engine<u64> = Engine::new(cfg(3, choice)).unwrap();
    let mut reference: Engine<u64> = Engine::new(cfg(3, BackendChoice::LocalSpmd)).unwrap();
    let data: Vec<u64> = (0..2000u64).map(|i| i.wrapping_mul(48271) % 9973).collect();
    slow.ingest(data.clone()).unwrap();
    reference.ingest(data).unwrap();
    let queries = mixed_batch(2000);
    let a = slow.run(&queries).unwrap();
    let b = reference.run(&queries).unwrap();
    // A straggler changes wall-clock latency, never results or rounds.
    assert_eq!(responses(&a), responses(&b));
    assert_eq!(a.collective_ops, b.collective_ops);
}

// ---------------------------------------------------------------------------
// Frontend shutdown hands the engine back intact on both backends.
// ---------------------------------------------------------------------------

fn backends() -> [BackendChoice; 2] {
    [BackendChoice::LocalSpmd, channel_mp()]
}

#[test]
fn frontend_shutdown_mid_window_hands_engine_back_on_both_backends() {
    for backend in backends() {
        let kind = backend.kind();
        let mut engine: Engine<u64> = Engine::new(cfg(2, backend)).unwrap();
        engine.ingest((0..500u64).collect()).unwrap();
        // A very wide window: the submitted queries hold the batch open, so
        // shutdown lands while a micro-batch window is collecting.
        let queue = engine.into_frontend(FrontendConfig::new().window(Duration::from_secs(5)));
        let t1 = queue.submit_request(Request::median()).unwrap();
        let t2 = queue.submit_request(Request::rank(0)).unwrap();
        let mut engine = queue.shutdown().expect("first shutdown claims the engine");
        // Accepted submissions were drained before the hand-off.
        assert_eq!(t1.wait().map(|o| o.response), Ok(Response::Element(249)), "{kind}");
        assert_eq!(t2.wait().map(|o| o.response), Ok(Response::Element(0)), "{kind}");
        // The engine comes back intact and serviceable.
        assert_eq!(engine.len(), 500, "{kind}");
        let report = engine.run(&[Request::top_k(2)]).unwrap();
        assert_eq!(report.outcomes[0].response, Response::Elements(vec![0, 1]), "{kind}");
    }
}

#[test]
fn frontend_shutdown_under_saturation_keeps_engine_intact_on_both_backends() {
    for backend in backends() {
        let kind = backend.kind();
        let mut engine: Engine<u64> = Engine::new(cfg(2, backend)).unwrap();
        engine.ingest((0..500u64).collect()).unwrap();
        // Paused + tiny capacity: saturate the queue, then shut down with
        // the backlog still parked.
        let queue =
            engine.into_frontend(FrontendConfig::new().queue_capacity(2).start_paused(true));
        let parked: Vec<_> =
            (0..2).map(|_| queue.submit_request(Request::median()).unwrap()).collect();
        match queue.submit_request(Request::median()) {
            Err(SubmitError::Saturated { capacity: 2 }) => {}
            other => panic!("{kind}: expected saturation, got {other:?}"),
        }
        let mut engine = queue.shutdown().expect("first shutdown claims the engine");
        // The parked backlog was drained (closing overrides the pause).
        for t in parked {
            assert_eq!(t.wait().map(|o| o.response), Ok(Response::Element(249)), "{kind}");
        }
        assert_eq!(engine.len(), 500, "{kind}");
        assert_eq!(
            engine.run(&[Request::median()]).unwrap().outcomes[0].response,
            Response::Element(249)
        );
    }
}

// ---------------------------------------------------------------------------
// Join-on-drop: no leaked worker threads, even mid-lifecycle.
// ---------------------------------------------------------------------------

fn live_threads() -> Option<usize> {
    // Linux-only thread census; fine for CI (ubuntu) and this container.
    std::fs::read_dir("/proc/self/task").ok().map(|d| d.count())
}

#[test]
fn dropping_engine_mid_lifecycle_leaks_no_threads_on_both_backends() {
    if live_threads().is_none() {
        eprintln!("no /proc/self/task; skipping thread-leak check");
        return;
    }
    for backend in backends() {
        let kind = backend.kind();
        // The census races against sibling tests spawning their own engine
        // threads, so a single noisy sample may over-count; a genuine leak
        // (join-on-drop broken) raises the count on *every* attempt.
        let mut leak = None;
        for _ in 0..5 {
            let before = live_threads().unwrap();
            let mut engine: Engine<u64> =
                Engine::new(cfg(4, backend.clone()).delta_threshold(10.0)).unwrap();
            engine.ingest((0..4000u64).collect()).unwrap();
            if engine.supports_membership() {
                // Membership moves spawn and reap workers of their own:
                // 4 -> 5 -> 4 shards (the empty newcomer retires again, so
                // the ring stays balanced and no rebalance drops the index).
                assert_eq!(engine.join_worker().unwrap(), 5, "{kind}");
                assert_eq!(engine.retire_worker(4).unwrap(), 4, "{kind}");
            }
            engine.run(&[Request::median()]).unwrap(); // builds the index
            engine.ingest((0..100u64).collect()).unwrap(); // populates the delta run
            assert!(
                engine.index_health().delta_len > 0,
                "{kind}: drop must land mid-lifecycle, with a non-empty delta run"
            );
            drop(engine); // join-on-drop: all worker threads must exit here
            let after = live_threads().unwrap();
            if after <= before {
                leak = None;
                break;
            }
            leak = Some((before, after));
        }
        if let Some((before, after)) = leak {
            panic!("{kind}: dropping the engine leaked worker threads ({before} -> {after})");
        }
    }
}

// ---------------------------------------------------------------------------
// Property test: random interleavings are byte-identical across backends.
// ---------------------------------------------------------------------------

mod interleavings {
    use super::*;
    use proptest::prelude::*;

    /// One deterministic op stream derived from the seeds: interleaved
    /// ingest / delete / query batches (queries drawn from a small pool so
    /// histogram fast paths and refinement both engage).
    fn apply_ops(backend: BackendChoice, seeds: &[u64]) -> (Vec<String>, IndexHealth) {
        let mut engine: Engine<u64> = Engine::new(cfg(3, backend)).unwrap();
        let mut resident: Vec<u64> = Vec::new();
        let mut transcript = Vec::new();
        for (i, &seed) in seeds.iter().enumerate() {
            match seed % 4 {
                0 | 3 if !resident.is_empty() => {
                    // A query batch: two quantiles + a rank derived from the seed.
                    let n = resident.len() as u64;
                    let queries = vec![
                        Request::quantile((seed % 101) as f64 / 100.0),
                        Request::median(),
                        Request::rank(seed % n),
                    ];
                    let report = engine.run(&queries).unwrap();
                    // "Byte-identical answer sequences": compare the full
                    // rendered answers, not just values.
                    transcript.push(format!(
                        "{i}: {:?} ops={}",
                        responses(&report),
                        report.collective_ops
                    ));
                }
                1 | 0 | 3 => {
                    // Ingest a burst derived from the seed.
                    let burst: Vec<u64> =
                        (0..40 + seed % 60).map(|j| (seed.wrapping_mul(j + 1)) % 10_007).collect();
                    resident.extend(&burst);
                    engine.ingest(burst).unwrap();
                    transcript.push(format!("{i}: ingest -> {}", engine.len()));
                }
                _ => {
                    // Delete a value class (possibly absent).
                    let victim = seed % 10_007;
                    let rep = engine.delete(&[victim]).unwrap();
                    resident.retain(|&x| x != victim);
                    transcript.push(format!("{i}: delete {} -> {}", rep.elements, engine.len()));
                }
            }
            assert_eq!(engine.len(), resident.len() as u64);
        }
        (transcript, engine.index_health())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Any interleaving of query/ingest/delete batches produces
        /// byte-identical answer sequences on LocalSpmd vs ChannelMp, with
        /// the index health counters (histogram hits, merges, rebuilds) in
        /// agreement.
        #[test]
        fn random_interleavings_agree(
            seeds in prop::collection::vec(1u64..1_000_000_000, 4..14),
        ) {
            let (local_log, local_health) = apply_ops(BackendChoice::LocalSpmd, &seeds);
            let (mp_log, mp_health) = apply_ops(super::channel_mp(), &seeds);
            prop_assert_eq!(
                local_log.join("\n").into_bytes(),
                mp_log.join("\n").into_bytes(),
                "backends diverged under interleaving {:?}", seeds
            );
            prop_assert_eq!(local_health, mp_health);
        }
    }
}

// ---------------------------------------------------------------------------
// Observability: span trees are part of the conformance surface.
// ---------------------------------------------------------------------------

#[test]
fn span_trees_agree_across_backends() {
    use cgselect::Bounds;
    // Phase brackets ride the deterministic virtual clock and the comm
    // counters, so with observability on, both backends must produce the
    // SAME span tree: same phases in the same order, same per-phase
    // collective counts, comm volumes and virtual times. Trace IDs are
    // process-global and excluded from the comparison by stamping them.
    let data: Vec<u64> = (0..6000u64).map(|i| i.wrapping_mul(48271) % 99_991).collect();
    let mut trees = Vec::new();
    for backend in backends() {
        let mut engine: Engine<u64> = Engine::new(cfg(4, backend).observe(true)).unwrap();
        engine.ingest(data.clone()).unwrap();
        engine.run(&[Request::median()]).unwrap(); // builds the index
        let requests: Vec<Request<u64>> = vec![
            Request::quantile(0.25),
            Request::rank(17),
            Request::rank_of(50_000),
            Request::count_between(Bounds::closed(10_000, 20_000)),
            Request::top_k(3),
        ]
        .into_iter()
        .enumerate()
        .map(|(i, r)| r.traced(cgselect::TraceId(100 + i as u64)))
        .collect();
        let report = engine.run(&requests).unwrap();
        let span = report.span.expect("observing engines must attach a batch span");
        assert_eq!(span.requests.len(), requests.len());
        for (req_span, req) in span.requests.iter().zip(&requests) {
            assert_eq!(Some(req_span.trace), req.trace, "spans must link back to their request");
        }
        trees.push((span.requests, span.phases));
    }
    assert_eq!(
        trees[0], trees[1],
        "backends must agree on the span tree: phases, collective counts, comm, virtual time"
    );
}

#[test]
fn observing_engines_answer_identically_with_identical_rounds() {
    // The zero-cost contract: observability must not perturb execution.
    // Same data, same batch — obs-on and obs-off engines must agree on
    // every answer AND every collective-round count, on both backends.
    let data: Vec<u64> = (0..4000u64).map(|i| i.wrapping_mul(2654435761) % 65_521).collect();
    for backend in backends() {
        let kind = backend.kind();
        let mut plain: Engine<u64> = Engine::new(cfg(4, backend.clone())).unwrap();
        let mut observed: Engine<u64> = Engine::new(cfg(4, backend).observe(true)).unwrap();
        plain.ingest(data.clone()).unwrap();
        observed.ingest(data.clone()).unwrap();
        let requests = mixed_batch(data.len() as u64);
        for label in ["build", "steady"] {
            let a = plain.run(&requests).unwrap();
            let b = observed.run(&requests).unwrap();
            let (va, vb): (Vec<_>, Vec<_>) = (
                a.outcomes.iter().map(|o| &o.response).collect(),
                b.outcomes.iter().map(|o| &o.response).collect(),
            );
            assert_eq!(va, vb, "{kind}/{label}: observability changed answers");
            assert_eq!(
                a.collective_ops, b.collective_ops,
                "{kind}/{label}: observability changed the collective-round count"
            );
            assert_eq!(a.makespan, b.makespan, "{kind}/{label}: observability charged time");
            assert!(a.span.is_none() && b.span.is_some());
        }
    }
}

#[test]
fn backend_kind_is_reported() {
    let local: Engine<u64> = Engine::new(cfg(2, BackendChoice::LocalSpmd)).unwrap();
    assert_eq!(local.backend_kind(), BackendKind::LocalSpmd);
    assert_eq!(local.backend_kind().to_string(), "local-spmd");
    let mp: Engine<u64> = Engine::new(cfg(2, channel_mp())).unwrap();
    assert_eq!(mp.backend_kind(), BackendKind::ChannelMp);
    assert_eq!(mp.backend_kind().to_string(), "channel-mp");
}

// ---------------------------------------------------------------------------
// SocketMp: shard workers as real child processes over Unix-domain sockets.
// Same conformance bar (oracle answers + collective-round parity), plus the
// process-only contracts: SIGKILL surfaces typed errors and drop reaps every
// child. Membership moves (migrate / join / retire / recover) live in the
// shared message-passing host, so their scenarios take the backend as an
// input and run over both transports.
// ---------------------------------------------------------------------------

/// Builds the worker binary once if this test target was invoked without it
/// (e.g. `cargo test --test backend_conformance`, which only builds hashed
/// `deps/` artifacts). No-op when `target/<profile>/cgselect-shard-worker`
/// already exists — the CI socket-mp leg builds it explicitly.
fn ensure_worker_bin() {
    use std::sync::Once;
    static BUILD: Once = Once::new();
    BUILD.call_once(|| {
        let exe = std::env::current_exe().expect("current_exe");
        let profile_dir = exe
            .parent()
            .and_then(|deps| deps.parent())
            .expect("test executable must live under target/<profile>/deps");
        if profile_dir.join("cgselect-shard-worker").is_file() {
            return;
        }
        let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
        let mut cmd = std::process::Command::new(cargo);
        cmd.args(["build", "-p", "cgselect-engine", "--bin", "cgselect-shard-worker"]);
        if profile_dir.file_name().and_then(|n| n.to_str()) == Some("release") {
            cmd.arg("--release");
        }
        let status = cmd.status().expect("spawn cargo to build the shard worker");
        assert!(status.success(), "building cgselect-shard-worker failed");
    });
}

fn socket_mp() -> BackendChoice {
    ensure_worker_bin();
    BackendChoice::SocketMp(SocketMpTuning::default())
}

/// Short proc timeout so survivors of a killed peer self-release in
/// milliseconds (production default: 30 s), with a generous reply window
/// above it so slow CI machines never misreport a healthy worker.
fn socket_mp_faulty() -> BackendChoice {
    ensure_worker_bin();
    BackendChoice::SocketMp(
        SocketMpTuning::new()
            .reply_timeout(Duration::from_secs(10))
            .proc_timeout(Duration::from_millis(500)),
    )
}

fn process_alive(pid: u32) -> bool {
    std::path::Path::new(&format!("/proc/{pid}")).exists()
}

fn kill9(pid: u32) {
    let status = std::process::Command::new("kill")
        .args(["-9", &pid.to_string()])
        .status()
        .expect("spawn kill");
    assert!(status.success(), "kill -9 {pid} failed");
}

#[test]
fn conformance_socket_mp_all_distributions_with_in_process_round_parity() {
    for dist in ALL_DISTRIBUTIONS {
        let sock = run_lifecycle(socket_mp(), dist);
        assert!(sock.len() >= 5, "{dist:?}: lifecycle must cover every phase");
        // The process boundary must be unobservable: identical answers,
        // collective-round counts and index health, step for step, against
        // both in-process backends.
        let local = run_lifecycle(BackendChoice::LocalSpmd, dist);
        let mp = run_lifecycle(channel_mp(), dist);
        assert_eq!(sock, local, "{dist:?}: socket workers diverged from LocalSpmd");
        assert_eq!(sock, mp, "{dist:?}: socket workers diverged from ChannelMp");
    }
}

#[test]
fn socket_mp_inverse_ops_match_in_process_answers_and_rounds() {
    for dist in [Distribution::Random, Distribution::Zipf, Distribution::AllEqual] {
        let local = run_inverse_lifecycle(BackendChoice::LocalSpmd, dist);
        let sock = run_inverse_lifecycle(socket_mp(), dist);
        assert_eq!(
            local, sock,
            "{dist:?}: inverse answers / round counts must survive the process boundary"
        );
    }
}

#[test]
fn socket_mp_sigkill_mid_batch_surfaces_typed_error_and_poisons() {
    let mut engine: Engine<u64> = Engine::new(cfg(3, socket_mp_faulty())).unwrap();
    engine.ingest((0..3000u64).map(|i| i.wrapping_mul(2654435761)).collect()).unwrap();
    engine.run(&[Request::median()]).unwrap();

    let pids = engine.worker_pids();
    assert_eq!(pids.len(), 3, "one OS process per shard");
    kill9(pids[1]);
    // SIGKILL closes rank 1's sockets; the next batch's collective wedges on
    // the dead peer and must resolve to a *typed* error on the killed rank —
    // never a hang (survivors self-release via the proc timeout, and their
    // disconnect fallout is triaged as secondary).
    let t0 = Instant::now();
    let err = engine.run(&mixed_batch(3000)).unwrap_err();
    assert!(
        t0.elapsed() < Duration::from_secs(8),
        "a killed worker must fail the batch fast, took {:?}",
        t0.elapsed()
    );
    match err {
        EngineError::Backend(BackendError::WorkerUnresponsive { rank })
        | EngineError::Backend(BackendError::WorkerPanicked { rank, .. }) => {
            assert_eq!(rank, 1, "the killed rank must be reported, got {err:?}");
        }
        other => panic!("expected a typed rank-1 worker failure, got {other:?}"),
    }

    // Poisoned: subsequent work is rejected without touching the ring.
    let t0 = Instant::now();
    let err = engine.run(&[Request::median()]).unwrap_err();
    assert_eq!(err, EngineError::Backend(BackendError::Poisoned));
    assert!(t0.elapsed() < Duration::from_millis(100), "poisoned rejection must be fast");
    drop(engine); // must still reap the two survivors (checked below)
}

#[test]
fn socket_mp_drop_reaps_every_worker_process() {
    let mut engine: Engine<u64> = Engine::new(cfg(4, socket_mp())).unwrap();
    engine.ingest((0..1000u64).rev().collect()).unwrap();
    engine.run(&[Request::median()]).unwrap();
    let pids = engine.worker_pids();
    assert_eq!(pids.len(), 4);
    for &pid in &pids {
        assert!(process_alive(pid), "worker {pid} should be running");
    }
    drop(engine);
    // Drop sends EXIT and waits on every child: no orphans, no zombies (a
    // zombie still has a /proc entry, so this catches unreaped children too).
    for &pid in &pids {
        assert!(!process_alive(pid), "worker {pid} leaked past engine drop");
    }
}

#[test]
fn socket_mp_migration_mid_query_stream_is_invisible() {
    migration_mid_query_stream_is_invisible(socket_mp());
}

#[test]
fn channel_mp_migration_mid_query_stream_is_invisible() {
    migration_mid_query_stream_is_invisible(channel_mp());
}

fn migration_mid_query_stream_is_invisible(backend: BackendChoice) {
    let p = 4;
    let n = 3000usize;
    let data: Vec<u64> =
        cgselect::generate(Distribution::Zipf, n, p, 77).into_iter().flatten().collect();
    let mut migrating: Engine<u64> = Engine::new(cfg(p, backend.clone())).unwrap();
    let mut reference: Engine<u64> = Engine::new(cfg(p, backend.clone())).unwrap();
    let mut all: Vec<u64> = Vec::new();

    let check = |migrating: &mut Engine<u64>,
                 reference: &mut Engine<u64>,
                 all: &[u64],
                 label: &str| {
        let mut sorted = all.to_vec();
        sorted.sort_unstable();
        let queries = mixed_batch(sorted.len() as u64);
        let a = migrating.run(&queries).unwrap();
        let b = reference.run(&queries).unwrap();
        assert_eq!(responses(&a), oracle_answers(&sorted, &queries), "{label}: oracle divergence");
        assert_eq!(responses(&a), responses(&b), "{label}: migration changed answers");
        assert_eq!(a.collective_ops, b.collective_ops, "{label}: migration changed round counts");
        assert_eq!(
            migrating.index_health(),
            reference.index_health(),
            "{label}: migration must keep the histogram warm (no extra rebuilds/merges)"
        );
    };

    // Build the index, then migrate two shards mid-stream and keep serving.
    let (bulk, tail) = data.split_at(2 * n / 3);
    all.extend_from_slice(bulk);
    migrating.ingest(bulk.to_vec()).unwrap();
    reference.ingest(bulk.to_vec()).unwrap();
    check(&mut migrating, &mut reference, &all, "before migration");

    let before = migrating.worker_pids();
    migrating.migrate_shard(1).unwrap();
    migrating.migrate_shard(3).unwrap();
    let after = migrating.worker_pids();
    if backend.kind() == BackendKind::SocketMp {
        assert_ne!(before[1], after[1], "migration must move the shard to a fresh process");
        assert_ne!(before[3], after[3], "migration must move the shard to a fresh process");
        assert_eq!(before[0], after[0], "unmigrated shards must keep their process");
        assert!(!process_alive(before[1]), "the migrated-away worker must be reaped");
    } else {
        assert!(before.is_empty() && after.is_empty(), "worker threads have no pids");
    }
    check(&mut migrating, &mut reference, &all, "after migration");

    // The rest of the stream rides the delta run and a delete, still in step.
    all.extend_from_slice(tail);
    migrating.ingest(tail.to_vec()).unwrap();
    reference.ingest(tail.to_vec()).unwrap();
    check(&mut migrating, &mut reference, &all, "delta after migration");
    let victim = {
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted[n / 3]
    };
    migrating.delete(&[victim]).unwrap();
    reference.delete(&[victim]).unwrap();
    all.retain(|&x| x != victim);
    check(&mut migrating, &mut reference, &all, "delete after migration");
}

#[test]
fn socket_mp_join_and_retire_keep_serving_exact_answers() {
    join_and_retire_keep_serving_exact_answers(socket_mp());
}

#[test]
fn channel_mp_join_and_retire_keep_serving_exact_answers() {
    join_and_retire_keep_serving_exact_answers(channel_mp());
}

fn join_and_retire_keep_serving_exact_answers(backend: BackendChoice) {
    let processes = backend.kind() == BackendKind::SocketMp;
    let mut engine: Engine<u64> = Engine::new(cfg(3, backend)).unwrap();
    let mut all: Vec<u64> = (0..2000u64).map(|i| i.wrapping_mul(48271) % 100_003).collect();
    engine.ingest(all.clone()).unwrap();

    let check = |engine: &mut Engine<u64>, all: &[u64], label: &str| {
        let mut sorted = all.to_vec();
        sorted.sort_unstable();
        let queries = mixed_batch(sorted.len() as u64);
        let report = engine.run(&queries).unwrap();
        assert_eq!(responses(&report), oracle_answers(&sorted, &queries), "{label}: wrong answers");
        assert_eq!(engine.len(), all.len() as u64, "{label}: population drifted");
    };
    check(&mut engine, &all, "initial p=3");

    // Grow: a fresh empty worker joins at the top rank.
    assert_eq!(engine.join_worker().unwrap(), 4);
    assert_eq!(engine.nprocs(), 4);
    assert_eq!(engine.worker_pids().len(), if processes { 4 } else { 0 });
    check(&mut engine, &all, "after join");
    let burst: Vec<u64> = (0..500u64).map(|i| i.wrapping_mul(69621) % 99_991).collect();
    all.extend_from_slice(&burst);
    engine.ingest(burst).unwrap();
    check(&mut engine, &all, "ingest over the grown ring");

    // Shrink: retiring merges the leaver's shard into a survivor — no data
    // is lost, ranks above shift down, and the ring keeps serving all the
    // way to a single worker (the degenerate one-process fabric).
    assert_eq!(engine.retire_worker(0).unwrap(), 3);
    check(&mut engine, &all, "after retiring rank 0");
    assert_eq!(engine.retire_worker(1).unwrap(), 2);
    assert_eq!(engine.retire_worker(0).unwrap(), 1);
    assert_eq!(engine.nprocs(), 1);
    assert_eq!(engine.worker_pids().len(), usize::from(processes));
    check(&mut engine, &all, "single surviving worker");

    // The last shard refuses to retire.
    let err = engine.retire_worker(0).unwrap_err();
    assert!(
        matches!(err, EngineError::Backend(BackendError::Unsupported { .. })),
        "retiring the last shard must be a typed refusal, got {err:?}"
    );
    check(&mut engine, &all, "still serving after the refusal");
}

// ---------------------------------------------------------------------------
// Refinement-growth rebuilds. Fresh exact ranks insert splitter pairs until
// the bucket count passes the cap and the next batch rebuilds the index; a
// shard that still holds its index *re-cuts its resident runs* instead of
// partitioning from nothing, so the rebuild is part of the conformance
// surface: same answers, same rounds, same `IndexHealth` at the same batches
// on every backend — with a delta pending, after deletes left min/max stale
// and buckets empty, over an index that arrived by migration, next to a
// joiner that has none, and after a retire or a recovery dropped it.
// ---------------------------------------------------------------------------

/// A bucket target small enough (cap = 20 buckets) that eight fresh ranks
/// per batch cross the cap every other batch.
const CAP_TRIP_BUCKETS: usize = 4;

/// Eight exact ranks nobody asked for before (an odd multiplier permutes
/// `u64`), so every batch reaches the shards and refines the splitters.
fn fresh_ranks(batch: u64, n: u64) -> Vec<Request<u64>> {
    (0..8)
        .map(|j| Request::rank((batch * 8 + j + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) % n))
        .collect()
}

/// What the cap-trip lifecycle saw besides its steps: rebuilds by cause.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct RebuildCensus {
    /// Rebuilds after the initial build.
    total: u64,
    /// … with a delta run pending on the shards.
    with_delta: u64,
    /// … after a delete went through the index.
    after_delete: u64,
    /// … right after a shard migrated (message passing only).
    after_migration: u64,
}

/// Fresh-rank batches over a fixed mutation schedule — small ingests that
/// stay under the merge threshold before batches 3–5, deletes of every fifth
/// resident value plus every earlier answer (emptying their equality-class
/// buckets) before batches 7 and 10 — and, on membership-capable backends, a
/// shard migration before batches 12–14. Every answer is oracle-checked.
/// `buckets = 0` is the index-free reference: same ops, same answers.
fn run_cap_trip_lifecycle(
    backend: BackendChoice,
    dist: Distribution,
    buckets: usize,
) -> (Vec<Step>, RebuildCensus) {
    let p = 3;
    let mut all: Vec<u64> = cgselect::generate(dist, 3000, p, 61).into_iter().flatten().collect();
    let mut engine: Engine<u64> = Engine::new(cfg(p, backend).index_buckets(buckets)).unwrap();
    engine.ingest(all.clone()).unwrap();
    let mut steps = Vec::new();
    let mut census = RebuildCensus::default();
    let mut answered: Vec<u64> = Vec::new();
    let mut deleted = false;
    for batch in 0..16u64 {
        if (3..=5).contains(&batch) {
            let burst: Vec<u64> =
                (0..20).map(|i| (batch * 20 + i).wrapping_mul(2654435761)).collect();
            all.extend(&burst);
            engine.ingest(burst).unwrap();
        }
        if (batch == 7 || batch == 10) && all.iter().any(|&x| x != all[0]) {
            let mut sorted = all.clone();
            sorted.sort_unstable();
            let mut victims: Vec<u64> = sorted.iter().copied().step_by(5).collect();
            victims.append(&mut answered);
            victims.sort_unstable();
            engine.delete(&victims).unwrap();
            all.retain(|x| victims.binary_search(x).is_err());
            deleted = true;
        }
        let migrated = (12..=14).contains(&batch) && engine.supports_membership();
        if migrated {
            engine.migrate_shard(batch as usize % p).unwrap();
        }

        let mut sorted = all.clone();
        sorted.sort_unstable();
        let queries = fresh_ranks(batch, sorted.len() as u64);
        let before = engine.index_health();
        let report = engine.run(&queries).unwrap();
        let step = Step::record(format!("fresh {batch}"), &report, &engine);
        assert_eq!(
            step.answers,
            oracle_answers(&sorted, &queries),
            "{} diverged from the oracle at fresh batch {batch} ({dist:?}, {buckets} buckets)",
            engine.backend_kind(),
        );
        answered.extend(step.answers.iter().filter_map(|r| r.element()));
        if batch > 0 && step.health.rebuilds > before.rebuilds {
            census.total += 1;
            census.with_delta += u64::from(before.delta_len > 0);
            census.after_delete += u64::from(deleted);
            census.after_migration += u64::from(migrated);
        }
        steps.push(step);
    }
    (steps, census)
}

/// The distributions whose values are (nearly) all distinct: fresh ranks keep
/// finding new splitters, so the cap keeps tripping. On the few-valued ones
/// the equality classes are soon all carved and the histogram answers alone.
const CAP_TRIPPING: [Distribution; 4] =
    [Distribution::Random, Distribution::Sorted, Distribution::Gaussian, Distribution::OrganPipe];

fn assert_cap_trips_covered(dist: Distribution, census: RebuildCensus, membership: bool) {
    if !CAP_TRIPPING.contains(&dist) {
        return;
    }
    assert!(census.total >= 3, "{dist:?}: the stream must cross the cap repeatedly: {census:?}");
    assert!(census.with_delta >= 1, "{dist:?}: a rebuild must find a delta pending: {census:?}");
    assert!(census.after_delete >= 1, "{dist:?}: a rebuild must follow the deletes: {census:?}");
    assert!(
        !membership || census.after_migration >= 1,
        "{dist:?}: a rebuild must re-cut a migrated index: {census:?}"
    );
}

#[test]
fn cap_trip_rebuilds_agree_across_in_process_backends_and_the_index_free_reference() {
    for dist in ALL_DISTRIBUTIONS {
        let (local, local_census) =
            run_cap_trip_lifecycle(BackendChoice::LocalSpmd, dist, CAP_TRIP_BUCKETS);
        let (mp, mp_census) = run_cap_trip_lifecycle(channel_mp(), dist, CAP_TRIP_BUCKETS);
        assert_cap_trips_covered(dist, local_census, false);
        assert_cap_trips_covered(dist, mp_census, true);
        // The migrations are invisible: steps agree bit for bit, rebuilds
        // advance at the same batches.
        assert_eq!(local, mp, "{dist:?}: backends diverged across cap-trip rebuilds");
        let (reference, _) = run_cap_trip_lifecycle(BackendChoice::LocalSpmd, dist, 0);
        for (step, free) in local.iter().zip(&reference) {
            assert_eq!(
                step.answers, free.answers,
                "{dist:?} {}: index changed an answer",
                step.label
            );
        }
    }
}

#[test]
fn socket_mp_cap_trip_rebuilds_match_in_process_through_migration() {
    for dist in [Distribution::Random, Distribution::Zipf, Distribution::OrganPipe] {
        let (local, _) = run_cap_trip_lifecycle(BackendChoice::LocalSpmd, dist, CAP_TRIP_BUCKETS);
        let (sock, census) = run_cap_trip_lifecycle(socket_mp(), dist, CAP_TRIP_BUCKETS);
        assert_cap_trips_covered(dist, census, true);
        assert_eq!(local, sock, "{dist:?}: the process boundary showed across cap-trip rebuilds");
    }
}

/// Rebuilds forced by membership moves: after a join the old shards re-cut
/// their runs (folding the delta the grown ring's first ingest left) while
/// the joiner builds from nothing; after a retire the survivor that absorbed
/// the leaver has no index and the others re-cut theirs.
fn run_membership_rebuilds(backend: BackendChoice) -> Vec<Step> {
    let mut all: Vec<u64> =
        cgselect::generate(Distribution::Random, 3000, 3, 67).into_iter().flatten().collect();
    let mut engine: Engine<u64> =
        Engine::new(cfg(3, backend).index_buckets(CAP_TRIP_BUCKETS)).unwrap();
    engine.ingest(all.clone()).unwrap();
    let mut steps = Vec::new();
    let mut batch = 0u64;
    let mut check = |engine: &mut Engine<u64>, all: &[u64], label: &str| {
        let mut sorted = all.to_vec();
        sorted.sort_unstable();
        let queries = fresh_ranks(batch, sorted.len() as u64);
        batch += 1;
        let report = engine.run(&queries).unwrap();
        assert_eq!(responses(&report), oracle_answers(&sorted, &queries), "{label}");
        steps.push(Step::record(label.to_string(), &report, engine));
    };
    check(&mut engine, &all, "build");
    check(&mut engine, &all, "refined");

    assert_eq!(engine.join_worker().unwrap(), 4);
    let burst: Vec<u64> = (0..400u64).map(|i| i.wrapping_mul(69621) % 99_991).collect();
    all.extend(&burst);
    engine.ingest(burst).unwrap();
    let rebuilds = engine.index_health().rebuilds;
    check(&mut engine, &all, "rebuild after join");
    assert_eq!(engine.index_health().rebuilds, rebuilds + 1);
    check(&mut engine, &all, "refined on four shards");

    assert_eq!(engine.retire_worker(0).unwrap(), 3);
    check(&mut engine, &all, "rebuild after retire");
    assert_eq!(engine.index_health().rebuilds, rebuilds + 2);
    let victims: Vec<u64> = all.iter().copied().step_by(7).collect();
    engine.delete(&victims).unwrap();
    all.retain(|x| !victims.contains(x));
    for label in ["after delete", "across the next cap trip", "and the one after"] {
        check(&mut engine, &all, label);
    }
    assert!(engine.index_health().rebuilds > rebuilds + 2, "{:?}", engine.index_health());
    steps
}

#[test]
fn membership_moves_force_rebuilds_that_agree_across_transports() {
    let channel = run_membership_rebuilds(channel_mp());
    let socket = run_membership_rebuilds(socket_mp());
    assert_eq!(channel, socket, "transports diverged across membership-forced rebuilds");
}

#[test]
fn channel_mp_recovery_resets_the_index_so_the_rebuild_starts_from_nothing() {
    // Rank 1 dies inside its fifth execute, after the peers have entered the
    // batch: their windows may be half permuted under an index that was never
    // refined. Recovery resets every survivor's index, so the next build
    // partitions from nothing instead of re-cutting runs it cannot trust.
    let backend = faulty(&[Fault::PanicOnExecute { rank: 1, nth: 4 }]);
    let mut engine: Engine<u64> =
        Engine::new(cfg(3, backend).index_buckets(CAP_TRIP_BUCKETS)).unwrap();
    let all: Vec<u64> =
        cgselect::generate(Distribution::Random, 3000, 3, 71).into_iter().flatten().collect();
    engine.ingest(all.clone()).unwrap();
    let mut sorted = all;
    sorted.sort_unstable();
    let n = sorted.len() as u64;
    for batch in 0..4 {
        let queries = fresh_ranks(batch, n);
        assert_eq!(responses(&engine.run(&queries).unwrap()), oracle_answers(&sorted, &queries));
    }
    let err = engine.run(&fresh_ranks(4, n)).unwrap_err();
    assert!(
        matches!(err, EngineError::Backend(BackendError::WorkerPanicked { rank: 1, .. })),
        "{err:?}"
    );
    let rebuilds = engine.index_health().rebuilds;
    let report = engine.recover().unwrap();
    assert!(report.replaced.is_empty(), "a panicked worker thread keeps its shard");
    assert_eq!(engine.len(), n, "recovery must not lose an element");
    for batch in 4..10 {
        let queries = fresh_ranks(batch, n);
        assert_eq!(
            responses(&engine.run(&queries).unwrap()),
            oracle_answers(&sorted, &queries),
            "fresh batch {batch} after recovery"
        );
    }
    assert!(engine.index_health().rebuilds >= rebuilds + 3, "{:?}", engine.index_health());
}

// ---------------------------------------------------------------------------
// The ε-sketch rung is part of the conformance surface: a WithinRank-tolerant
// stream must be served from the host-global deterministic sketch with ZERO
// collectives, and — because the sketch is RNG-free — with bit-identical
// answers, guarantees and `Served` routing on every backend, through the
// full ingest / delete / migrate / rebalance lifecycle and a sliding window
// that crosses the shards' re-sketch rule.
// ---------------------------------------------------------------------------

/// What one tolerant-batch step observed — everything that must be
/// identical across backends for the sketch rung.
#[derive(Debug, Clone, PartialEq)]
struct SketchStep {
    label: String,
    outcomes: Vec<(cgselect::Served, String)>,
    collective_ops: u64,
    /// Shard re-sketches so far (`sketch_rebuilds_total`): which deletes
    /// tipped how many shards over the rule is part of the surface.
    sketch_rebuilds: u64,
}

/// Drives a WithinRank-tolerant mixed stream (rank→value quantiles plus
/// value→rank and range-count probes) through the mutation lifecycle,
/// asserting at every step that the whole batch rides the sketch rung at
/// zero collectives and every answer honors its reported guarantee.
fn run_sketch_lifecycle(backend: BackendChoice, dist: Distribution) -> Vec<SketchStep> {
    use cgselect::{Bounds, Served};
    let p = 4;
    let n = 3000usize;
    // The tolerance of the request stream; the sliding window asks for
    // twice as much, because between re-sketches a signed sketch's bound may
    // drift up to 2 × a fresh one's.
    let tol = 0.05;
    let data: Vec<u64> = cgselect::generate(dist, n, p, 59).into_iter().flatten().collect();
    let mut engine: Engine<u64> =
        Engine::new(cfg(p, backend).sketch_capacity(256).observe(true)).unwrap();
    let mut all: Vec<u64> = Vec::new();
    let mut steps: Vec<SketchStep> = Vec::new();
    let sketch_rebuilds = |engine: &Engine<u64>| {
        let counters = engine.metrics().expect("observing engine").snapshot().counters;
        counters.iter().find(|(name, _)| *name == "sketch_rebuilds_total").map_or(0, |&(_, v)| v)
    };

    let check = |engine: &mut Engine<u64>, all: &[u64], label: &str, tol: f64| -> SketchStep {
        let mut sorted = all.to_vec();
        sorted.sort_unstable();
        let m = sorted.len();
        let (lo, hi) = (sorted[m / 4], sorted[(3 * m) / 4]);
        let fracs = [0.1, 0.5, 0.9];
        let mut requests: Vec<Request<u64>> =
            fracs.iter().map(|&q| Request::<u64>::quantile(q).within_rank(tol)).collect();
        requests.push(Request::rank_of(sorted[m / 2]).within_rank(tol));
        requests.push(Request::count_between(Bounds::closed(lo, hi)).within_rank(tol));
        let report = engine.run(&requests).unwrap();
        let kind = engine.backend_kind();

        // The whole tolerant batch is served host-side: no collectives, no
        // backend phases, every request routed to the sketch rung.
        assert_eq!(
            report.collective_ops, 0,
            "{kind} {label} ({dist:?}): tolerant batches must be collective-free"
        );
        let budget = (tol * m as f64).ceil() as u64;
        let oracle = |v: u64, incl: bool| {
            if incl {
                sorted.partition_point(|&x| x <= v) as u64
            } else {
                sorted.partition_point(|&x| x < v) as u64
            }
        };
        for (i, outcome) in report.outcomes.iter().enumerate() {
            // The sketch rung serves every tolerant request unless the
            // cached histogram can answer it exactly (still host-side, and
            // step equality pins the routing choice across backends).
            assert!(
                matches!(outcome.served, Served::Sketch | Served::Histogram),
                "{kind} {label} ({dist:?}): request {i} must be served host-side, got {:?}",
                outcome.served
            );
            let max_error = outcome.response.max_error();
            assert!(
                max_error <= budget,
                "{kind} {label} ({dist:?}): request {i} guarantee {max_error} > budget {budget}"
            );
            if let Some(&q) = fracs.get(i) {
                // Rank→value: the answer's true rank interval must be
                // within the reported guarantee of the target.
                let target = quantile_rank(q, m as u64);
                let v = outcome.response.element().expect("value answer");
                let lo_r = oracle(v, false);
                let hi_r = oracle(v, true).saturating_sub(1).max(lo_r);
                let dist_to =
                    if target < lo_r { lo_r - target } else { target.saturating_sub(hi_r) };
                assert!(
                    dist_to <= max_error,
                    "{kind} {label} ({dist:?}): quantile {q} answer {v} off by {dist_to} \
                     > guarantee {max_error}"
                );
            } else {
                // Value→rank / range count: within the reported guarantee
                // of the exact count.
                let truth = if i == 3 {
                    oracle(sorted[m / 2], false)
                } else {
                    oracle(hi, true) - oracle(lo, false)
                };
                let count = outcome.response.count().expect("count answer");
                assert!(
                    count.abs_diff(truth) <= max_error,
                    "{kind} {label} ({dist:?}): count {count} vs {truth} \
                     > guarantee {max_error}"
                );
            }
        }
        SketchStep {
            label: label.to_string(),
            outcomes: report
                .outcomes
                .iter()
                .map(|o| (o.served, format!("{:?}", o.response)))
                .collect(),
            collective_ops: report.collective_ops,
            sketch_rebuilds: sketch_rebuilds(engine),
        }
    };

    // Bulk + delta bursts feed the host sketch incrementally at ingest.
    let (bulk, tail) = data.split_at(2 * n / 3);
    all.extend_from_slice(bulk);
    engine.ingest(bulk.to_vec()).unwrap();
    steps.push(check(&mut engine, &all, "bulk", tol));
    all.extend_from_slice(tail);
    engine.ingest(tail.to_vec()).unwrap();
    steps.push(check(&mut engine, &all, "delta", tol));

    // A delete re-merges the host sketch from the shards' exports, removed
    // sides included (skipped for the single-value distribution, which it
    // would empty).
    if all.iter().any(|&x| x != all[0]) {
        let victims = {
            let mut sorted = all.clone();
            sorted.sort_unstable();
            vec![sorted[n / 4], sorted[(3 * n) / 4]]
        };
        engine.delete(&victims).unwrap();
        all.retain(|x| !victims.contains(x));
        steps.push(check(&mut engine, &all, "delete", tol));
    }

    // Migration moves a shard — and its sketch, inside the snapshot — to a
    // fresh worker without changing the multiset: the rung must answer
    // identically before and after (message passing only; LocalSpmd has no
    // migration verb).
    if engine.supports_membership() {
        let before = steps.last().expect("at least one step recorded").clone();
        engine.migrate_shard(1).unwrap();
        let after = check(&mut engine, &all, "migrate", tol);
        assert_eq!(
            after.outcomes, before.outcomes,
            "{dist:?}: migration must be invisible to the sketch rung"
        );
    }

    // A hot burst trips the rebalance watermark; the sketch absorbs the
    // burst at ingest and the shard shuffle leaves it untouched.
    let hot: Vec<u64> = (0..all.len() as u64).map(|i| i.wrapping_mul(2654435761)).collect();
    all.extend(&hot);
    let rep = engine.ingest_pinned(1, hot).unwrap();
    assert!(rep.rebalanced, "{dist:?}: watermark must trip");
    steps.push(check(&mut engine, &all, "rebalance", tol));

    // A sliding window: every slide ingests fresh keys and deletes the
    // slide that entered `WINDOW` slides earlier. Each delete lands on the
    // shard sketches' removed sides; only when those outweigh a quarter of
    // a shard does it re-sketch — a pure function of shard state, so every
    // backend rebuilds at the same delete. Mid-cycle, with removals pending,
    // an exact batch builds the bucket index from the signed shard sketches
    // (later deletes compact bucket by bucket) and, on the message-passing
    // legs, a shard migrates with its signed sketch inside the snapshot.
    const SLIDES: u64 = 12;
    const WINDOW: u64 = 3;
    const SLIDE_KEYS: u64 = 480;
    let slide_keys = |slide: u64| -> Vec<u64> {
        // An odd multiplier permutes u64: keys are distinct across slides.
        let key = |i: u64| (slide * SLIDE_KEYS + i + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (0..SLIDE_KEYS).map(key).collect()
    };
    let rebuilds_before = sketch_rebuilds(&engine);
    for slide in 0..SLIDES {
        let fresh = slide_keys(slide);
        all.extend(&fresh);
        engine.ingest(fresh).unwrap();
        steps.push(check(&mut engine, &all, &format!("slide {slide} ingest"), 2.0 * tol));
        if slide >= WINDOW {
            let mut oldest = slide_keys(slide - WINDOW);
            engine.delete(&oldest).unwrap();
            oldest.sort_unstable();
            all.retain(|x| oldest.binary_search(x).is_err());
            steps.push(check(&mut engine, &all, &format!("slide {slide} delete"), 2.0 * tol));
        }
        if slide == 5 {
            let mut sorted = all.clone();
            sorted.sort_unstable();
            let report = engine.run(&[Request::median()]).unwrap();
            assert_eq!(responses(&report), vec![Response::Element(sorted[(sorted.len() - 1) / 2])]);
            steps.push(SketchStep {
                label: "exact median builds the index".to_string(),
                outcomes: vec![(
                    report.outcomes[0].served,
                    format!("{:?}", report.outcomes[0].response),
                )],
                collective_ops: report.collective_ops,
                sketch_rebuilds: sketch_rebuilds(&engine),
            });
        }
        if slide == 8 && engine.supports_membership() {
            let before = steps.last().expect("slide recorded").clone();
            engine.migrate_shard(2).unwrap();
            let after = check(&mut engine, &all, &before.label, 2.0 * tol);
            assert_eq!(after, before, "{dist:?}: a signed sketch must survive migration exactly");
        }
    }
    let rebuilds = sketch_rebuilds(&engine) - rebuilds_before;
    let deletes = SLIDES - WINDOW;
    assert!(
        rebuilds >= p as u64 && rebuilds <= p as u64 * deletes / 2,
        "{dist:?}: {rebuilds} shard re-sketches over {deletes} deletes on {p} shards — the \
         window must cross the rule, and the rule must skip most deletes"
    );
    steps
}

#[test]
fn sketch_rung_agrees_across_in_process_backends_all_distributions() {
    for dist in ALL_DISTRIBUTIONS {
        let local = run_sketch_lifecycle(BackendChoice::LocalSpmd, dist);
        let mp = run_sketch_lifecycle(channel_mp(), dist);
        assert_eq!(
            local, mp,
            "{dist:?}: sketch-rung answers, guarantees and routing must be bit-identical"
        );
    }
}

#[test]
fn socket_mp_sketch_rung_matches_in_process_through_migration() {
    for dist in ALL_DISTRIBUTIONS {
        let local = run_sketch_lifecycle(BackendChoice::LocalSpmd, dist);
        let sock = run_sketch_lifecycle(socket_mp(), dist);
        assert_eq!(
            local, sock,
            "{dist:?}: the process boundary (and migration) must be invisible to the \
             sketch rung"
        );
    }
}

#[test]
fn socket_mp_self_heal_replaces_killed_worker_and_serves_survivors() {
    use cgselect::Bounds;
    let p = 4;
    let mut engine: Engine<u64> = Engine::new(cfg(p, socket_mp_faulty()).self_heal(true)).unwrap();
    let data: Vec<u64> = (0..2000u64).map(|i| i.wrapping_mul(2654435761) % 1_000_003).collect();
    engine.ingest(data.clone()).unwrap();
    engine.run(&[Request::median()]).unwrap();

    // One ingest from a fresh engine round-robins element i onto shard
    // i % p, so the post-crash surviving multiset is computable exactly.
    let killed = 2usize;
    let pids = engine.worker_pids();
    kill9(pids[killed]);
    let mut surviving: Vec<u64> =
        data.iter().enumerate().filter_map(|(i, &x)| (i % p != killed).then_some(x)).collect();
    surviving.sort_unstable();

    // "Detect, re-shard, keep serving": the run hits the dead worker,
    // recovers (respawn empty + fabric rewire + size resync) and retries —
    // the caller sees zero failed queries.
    let median = surviving[surviving.len() / 2];
    let lo = surviving[surviving.len() / 4];
    let hi = surviving[(3 * surviving.len()) / 4];
    let requests = vec![Request::rank_of(median), Request::count_between(Bounds::closed(lo, hi))];
    let report = engine.run(&requests).unwrap();
    let counts: Vec<u64> =
        report.outcomes.iter().map(|o| o.response.count().expect("count answer")).collect();
    let below = |v: u64| surviving.partition_point(|&x| x < v) as u64;
    let through = |v: u64| surviving.partition_point(|&x| x <= v) as u64;
    assert_eq!(counts, vec![below(median), through(hi) - below(lo)]);
    assert_eq!(engine.len(), surviving.len() as u64, "survivors' population must be exact");

    // The dead rank runs in a fresh process; the ring is back to full width
    // and exact batches serve the surviving multiset.
    let after = engine.worker_pids();
    assert_eq!(after.len(), p);
    assert_ne!(after[killed], pids[killed], "the killed rank must have been respawned");
    let queries = mixed_batch(surviving.len() as u64);
    let exact = engine.run(&queries).unwrap();
    assert_eq!(responses(&exact), oracle_answers(&surviving, &queries));
}

#[test]
fn channel_mp_self_heal_retries_a_panicked_batch_and_loses_nothing() {
    // The deterministic recovery drill: rank 1 dies mid-collective on its
    // very first execute. A panicked worker thread keeps its shard and
    // keeps serving control verbs, so recovery finds nobody dead, rewires
    // the fabric and the retry serves the FULL multiset — one recovery,
    // one retry, zero failed queries, zero lost elements.
    let p = 3;
    let backend = faulty(&[Fault::PanicOnExecute { rank: 1, nth: 0 }]);
    let mut engine: Engine<u64> =
        Engine::new(cfg(p, backend).self_heal(true).observe(true)).unwrap();
    let data: Vec<u64> = (0..3000u64).map(|i| i.wrapping_mul(2654435761) % 1_000_003).collect();
    engine.ingest(data.clone()).unwrap();
    let mut sorted = data;
    sorted.sort_unstable();

    let queries = mixed_batch(sorted.len() as u64);
    let report = engine.run(&queries).unwrap();
    assert_eq!(responses(&report), oracle_answers(&sorted, &queries));
    assert_eq!(engine.len(), sorted.len() as u64, "recovery must not lose an element");
    let recoveries = |engine: &Engine<u64>| {
        let snapshot = engine.metrics().expect("observing engine").snapshot();
        snapshot.counters.iter().find(|(name, _)| *name == "recoveries_total").map(|&(_, v)| v)
    };
    assert_eq!(recoveries(&engine), Some(1), "the batch must be retried exactly once");

    // The fault was one-shot: the healed ring keeps serving without
    // another recovery, mutations included.
    engine.ingest(vec![7, 8, 9]).unwrap();
    sorted.extend([7, 8, 9]);
    sorted.sort_unstable();
    let queries = mixed_batch(sorted.len() as u64);
    assert_eq!(responses(&engine.run(&queries).unwrap()), oracle_answers(&sorted, &queries));
    assert_eq!(recoveries(&engine), Some(1));
}
