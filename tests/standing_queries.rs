//! Standing-query subsystem tests: oracle-checked freshness across every
//! workload distribution, cross-backend conformance of the update streams
//! (identical answers AND identical per-update collective costs on
//! `LocalSpmd`, `ChannelMp` and `SocketMp`), clean unsubscribe/shutdown
//! drains, membership-change invalidation, and a property-test wall
//! guaranteeing gap-free monotone sequence stamps under arbitrary
//! ingest/delete interleavings.

use std::time::Duration;

use cgselect::{
    quantile_rank, BackendChoice, Bounds, ChannelMpTuning, Distribution, Engine, EngineConfig,
    FrontendConfig, MachineModel, RefreshPolicy, Request, Response, SocketMpTuning, StandingUpdate,
};
use proptest::prelude::*;

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
    EngineConfig::new(p)
        .model(MachineModel::free())
        .index_buckets(16)
        .delta_threshold(0.05)
        .backend(backend)
}

fn channel_mp() -> BackendChoice {
    BackendChoice::ChannelMp(ChannelMpTuning::default())
}

/// Builds the shard-worker binary once so `SocketMp` engines can spawn
/// their out-of-process shards from any test binary.
fn socket_mp() -> BackendChoice {
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
    BackendChoice::SocketMp(SocketMpTuning::default())
}

fn oracle_quantile(sorted: &[u64], q: f64) -> u64 {
    sorted[quantile_rank(q, sorted.len() as u64) as usize]
}

/// Every update a standing quantile delivers must equal the from-scratch
/// answer over exactly the ingested prefix it claims freshness for — for
/// all 8 workload distributions.
#[test]
fn standing_updates_match_the_oracle_at_every_prefix() {
    for dist in ALL_DISTRIBUTIONS {
        let data: Vec<u64> = cgselect::generate(dist, 4000, 4, 13).into_iter().flatten().collect();
        let mut engine: Engine<u64> = Engine::new(cfg(4, BackendChoice::LocalSpmd)).unwrap();
        let p50 = engine.subscribe(Request::quantile(0.5), RefreshPolicy::EveryBatch);
        let p99 = engine.subscribe(Request::quantile(0.99), RefreshPolicy::EveryBatch);

        let mut prefix: Vec<u64> = Vec::new();
        let mut expected = Vec::new();
        for chunk in data.chunks(500) {
            prefix.extend_from_slice(chunk);
            engine.ingest(chunk.to_vec()).unwrap();
            let delivered = engine.refresh_standing().unwrap();
            assert_eq!(delivered, 2, "{}: both subscriptions refresh per ingest", dist.name());
            let mut sorted = prefix.clone();
            sorted.sort_unstable();
            expected.push((
                prefix.len() as u64,
                oracle_quantile(&sorted, 0.5),
                oracle_quantile(&sorted, 0.99),
            ));
        }

        for (handle, col) in [(&p50, 1), (&p99, 2)] {
            let updates = handle.drain();
            assert_eq!(updates.len(), expected.len(), "{}", dist.name());
            let mut last_version = 0;
            for (i, u) in updates.iter().enumerate() {
                let (elements, o50, o99) = expected[i];
                let want = if col == 1 { o50 } else { o99 };
                assert_eq!(u.seq, i as u64, "{}: gap-free sequence", dist.name());
                assert_eq!(
                    u.outcome.response,
                    Response::Element(want),
                    "{}: update {i} must match the prefix oracle",
                    dist.name()
                );
                assert_eq!(u.outcome.freshness.elements, elements, "{}", dist.name());
                assert!(
                    u.outcome.freshness.version > last_version,
                    "{}: versions must strictly increase across updates",
                    dist.name()
                );
                last_version = u.outcome.freshness.version;
            }
        }
    }
}

/// The execution seam stays unobservable for standing queries too: the
/// full update stream — answers, sequence stamps, freshness, and the
/// per-update attributed collective cost — is identical on the in-process,
/// channel message-passing and out-of-process socket backends.
#[test]
fn standing_streams_conform_across_all_three_backends() {
    let data: Vec<u64> =
        cgselect::generate(Distribution::Zipf, 6000, 3, 29).into_iter().flatten().collect();

    let run = |backend: BackendChoice| -> (Vec<StandingUpdate<u64>>, u64, u64) {
        let mut engine: Engine<u64> = Engine::new(cfg(3, backend)).unwrap();
        let handle = engine.subscribe(Request::quantile(0.9), RefreshPolicy::EveryBatch);
        for chunk in data.chunks(1000) {
            engine.ingest(chunk.to_vec()).unwrap();
            engine.refresh_standing().unwrap();
        }
        engine.delete(&[data[0], data[100]]).unwrap();
        engine.refresh_standing().unwrap();
        (handle.drain(), engine.standing_refreshes(), engine.standing_zero_collective())
    };

    let (local, local_refreshes, local_zero) = run(BackendChoice::LocalSpmd);
    assert_eq!(local_refreshes as usize, local.len());
    for (name, backend) in [("channel-mp", channel_mp()), ("socket-mp", socket_mp())] {
        let (other, refreshes, zero) = run(backend);
        assert_eq!(local.len(), other.len(), "{name}: update count");
        for (a, b) in local.iter().zip(&other) {
            assert_eq!(a.seq, b.seq, "{name}");
            assert_eq!(a.outcome.response, b.outcome.response, "{name}");
            assert_eq!(a.outcome.served, b.outcome.served, "{name}");
            assert_eq!(a.outcome.freshness, b.outcome.freshness, "{name}");
            assert_eq!(
                a.outcome.cost.collective_ops, b.outcome.cost.collective_ops,
                "{name}: per-update collective cost"
            );
        }
        assert_eq!(local_refreshes, refreshes, "{name}");
        assert_eq!(local_zero, zero, "{name}: zero-collective refresh count");
    }
}

/// Unsubscribing ends the stream; dropping the handle auto-unsubscribes on
/// the next delivery; a frontend shutdown drains pending work cleanly.
#[test]
fn unsubscribe_and_shutdown_drain_cleanly() {
    let mut engine: Engine<u64> = Engine::new(cfg(2, BackendChoice::LocalSpmd)).unwrap();
    engine.ingest((0..500u64).collect()).unwrap();

    // Explicit unsubscribe: stream ends after the delivered updates.
    let h = engine.subscribe(Request::median(), RefreshPolicy::EveryBatch);
    engine.refresh_standing().unwrap();
    assert!(engine.unsubscribe(h.id()));
    assert!(!engine.unsubscribe(h.id()), "second unsubscribe is a no-op");
    assert_eq!(engine.standing_active(), 0);
    let updates = h.drain();
    assert_eq!(updates.len(), 1);
    assert!(h.recv().is_none(), "stream ends once the engine side is gone");

    // Dropped handle: the engine notices at the next delivery attempt and
    // removes the subscription instead of accumulating updates forever.
    let dropped = engine.subscribe(Request::median(), RefreshPolicy::EveryBatch);
    drop(dropped);
    assert_eq!(engine.standing_active(), 1);
    engine.ingest(vec![7]).unwrap();
    engine.refresh_standing().unwrap();
    assert_eq!(engine.standing_active(), 0, "dropped handle auto-unsubscribes");

    // Frontend shutdown: the handle's stream terminates, the engine comes
    // back with the subscription still registered and resumable.
    let queue = engine.into_frontend(FrontendConfig::new());
    let handle = queue
        .submit_standing(Request::quantile(0.25), RefreshPolicy::EveryBatch)
        .unwrap()
        .wait()
        .unwrap();
    let first = handle.recv_timeout(Duration::from_secs(5)).expect("inaugural update");
    assert_eq!(first.seq, 0);
    let mut engine = queue.shutdown().expect("first shutdown claims the engine");
    assert_eq!(engine.standing_active(), 1, "subscription survives the frontend");
    engine.ingest(vec![1000]).unwrap();
    engine.refresh_standing().unwrap();
    let second = handle.recv_timeout(Duration::from_secs(5)).expect("post-shutdown update");
    assert_eq!(second.seq, 1, "sequence continues gap-free across the frontend boundary");
}

/// Membership changes (migrate / join / retire) invalidate every cached
/// window: the next refresh is forced even though the multiset (and so the
/// mutation version) did not change, and its answer equals the
/// from-scratch oracle.
#[test]
fn membership_changes_force_full_re_resolution() {
    let data: Vec<u64> =
        cgselect::generate(Distribution::Gaussian, 3000, 3, 47).into_iter().flatten().collect();
    let mut sorted = data.clone();
    sorted.sort_unstable();
    let want = oracle_quantile(&sorted, 0.5);

    let mut engine: Engine<u64> = Engine::new(cfg(3, socket_mp())).unwrap();
    engine.ingest(data).unwrap();
    let handle = engine.subscribe(Request::quantile(0.5), RefreshPolicy::EveryBatch);
    engine.refresh_standing().unwrap();
    let baseline = handle.drain();
    assert_eq!(baseline.len(), 1);
    assert_eq!(baseline[0].outcome.response, Response::Element(want));

    // Idempotence check first: with no mutation and no membership change,
    // nothing is due.
    assert_eq!(engine.refresh_standing().unwrap(), 0);

    engine.migrate_shard(0).unwrap();
    assert_eq!(engine.refresh_standing().unwrap(), 1, "migration invalidates the subscription");
    engine.join_worker().unwrap();
    assert_eq!(engine.refresh_standing().unwrap(), 1, "join invalidates the subscription");
    let survivors = engine.retire_worker(1).unwrap();
    assert!(survivors >= 2);
    assert_eq!(engine.refresh_standing().unwrap(), 1, "retire invalidates the subscription");

    for (i, u) in handle.drain().iter().enumerate() {
        assert_eq!(u.seq, 1 + i as u64, "gap-free across membership changes");
        assert_eq!(
            u.outcome.response,
            Response::Element(want),
            "forced re-resolution must reproduce the oracle answer"
        );
        assert_eq!(u.outcome.freshness.elements, sorted.len() as u64, "no data was lost");
    }
}

/// `OnDelta` refreshes only once the churn crosses the configured fraction
/// of the resident population — small ingests accumulate silently.
#[test]
fn on_delta_policy_batches_small_churn() {
    let mut engine: Engine<u64> = Engine::new(cfg(2, BackendChoice::LocalSpmd)).unwrap();
    engine.ingest((0..1000u64).collect()).unwrap();
    let handle = engine.subscribe(Request::median(), RefreshPolicy::OnDelta(0.10));
    // Inaugural refresh always happens.
    assert_eq!(engine.refresh_standing().unwrap(), 1);
    // 3 × 30 = 90 new elements < 10% of ~1000: no refresh yet.
    for i in 0..3u64 {
        engine.ingest((2000 + i * 100..2030 + i * 100).collect()).unwrap();
        assert_eq!(engine.refresh_standing().unwrap(), 0, "ingest {i} stays below the fraction");
    }
    // The fourth crosses the threshold: exactly one refresh covers all four.
    engine.ingest((9000..9040u64).collect()).unwrap();
    assert_eq!(engine.refresh_standing().unwrap(), 1);
    let updates = handle.drain();
    assert_eq!(updates.len(), 2);
    assert_eq!(updates[1].outcome.freshness.elements, 1130);
}

/// A rider's cost is part of the batch totals, not of the caller's
/// outcomes: attribution sums to `collective_ops` only once the delivered
/// updates are counted in, and riding along changes nothing the caller sees.
#[test]
fn batch_totals_cover_the_riders_and_user_outcomes_ignore_them() {
    let data: Vec<u64> = (0..20_000u64).map(|i| i.wrapping_mul(2654435761) % 50_000).collect();
    let mut engine: Engine<u64> = Engine::new(cfg(3, BackendChoice::LocalSpmd)).unwrap();
    let mut twin: Engine<u64> = Engine::new(cfg(3, BackendChoice::LocalSpmd)).unwrap();
    let handle = engine.subscribe(Request::quantile(0.99), RefreshPolicy::EveryBatch);
    engine.ingest(data.clone()).unwrap();
    twin.ingest(data).unwrap();

    // The caller's requests pay only the probe phase, the rider only the
    // exact phase, so the caller's attributed shares are undiluted.
    let user = [Request::rank_of(25_000), Request::count_between(Bounds::closed(10_000, 30_000))];
    let report = engine.run(&user).unwrap();
    let plain = twin.run(&user).unwrap();
    assert_eq!(report.outcomes, plain.outcomes);

    let updates = handle.drain();
    assert_eq!(updates.len(), 1);
    let cost = |o: &cgselect::Outcome<u64>| o.cost.collective_ops;
    let user_cost: f64 = report.outcomes.iter().map(cost).sum();
    let rider_cost: f64 = updates.iter().map(|u| cost(&u.outcome)).sum();
    assert!(rider_cost > 0.0, "the exact rider must have paid for its rank");
    assert!(report.collective_ops > plain.collective_ops);
    assert_eq!(report.exact_ranks, 1, "the rider's rank is in the batch totals");
    assert!((user_cost + rider_cost - report.collective_ops as f64).abs() < 1e-9);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Under any interleaving of ingests and deletes, the update stream
    /// carries gap-free sequence numbers from 0, strictly increasing
    /// freshness versions, and an exact `elements` stamp per update — one
    /// update per multiset-changing operation (refreshes over an emptied
    /// engine are skipped without burning sequence numbers).
    #[test]
    fn sequence_stamps_stay_gap_free_under_random_interleavings(
        ops in prop::collection::vec(
            (0u64..4, prop::collection::vec(0u64..40, 1..30)),
            1..14,
        ).prop_map(|raw| raw
            .into_iter()
            .map(|(kind, mut vals)| {
                // ~25% deletes (of a few value classes), ~75% ingests.
                if kind == 0 {
                    vals.truncate(5);
                    Ops::Delete(vals)
                } else {
                    Ops::Ingest(vals)
                }
            })
            .collect::<Vec<_>>()),
    ) {
        let mut engine: Engine<u64> =
            Engine::new(cfg(2, BackendChoice::LocalSpmd)).unwrap();
        let handle = engine.subscribe(Request::quantile(0.5), RefreshPolicy::EveryBatch);
        let mut resident: Vec<u64> = Vec::new();
        let mut expected_elements: Vec<u64> = Vec::new();
        for op in &ops {
            let changed = match op {
                Ops::Ingest(vals) => {
                    resident.extend(vals);
                    engine.ingest(vals.clone()).unwrap();
                    true
                }
                Ops::Delete(vals) => {
                    let before = resident.len();
                    resident.retain(|x| !vals.contains(x));
                    engine.delete(vals.as_slice()).unwrap();
                    resident.len() != before
                }
            };
            let delivered = engine.refresh_standing().unwrap();
            if changed && !resident.is_empty() {
                prop_assert_eq!(delivered, 1, "multiset changed: one update due");
                expected_elements.push(resident.len() as u64);
            } else {
                prop_assert_eq!(delivered, 0, "no change or empty engine: no update");
            }
            prop_assert_eq!(engine.len(), resident.len() as u64);
        }
        let updates = handle.drain();
        prop_assert_eq!(updates.len(), expected_elements.len());
        let mut last_version = 0;
        for (i, u) in updates.iter().enumerate() {
            prop_assert_eq!(u.seq, i as u64, "gap-free from 0");
            prop_assert_eq!(u.outcome.freshness.elements, expected_elements[i]);
            prop_assert!(u.outcome.freshness.version > last_version);
            last_version = u.outcome.freshness.version;
        }
        if let Some(last) = updates.last() {
            let mut sorted = resident.clone();
            sorted.sort_unstable();
            if !sorted.is_empty() {
                prop_assert_eq!(
                    &last.outcome.response,
                    &Response::Element(oracle_quantile(&sorted, 0.5)),
                    "final update matches the oracle over the surviving multiset"
                );
            }
        }
    }
}

#[derive(Debug, Clone)]
enum Ops {
    Ingest(Vec<u64>),
    Delete(Vec<u64>),
}
