//! End-to-end observability: request-scoped spans, the metrics registry,
//! and SLO reports, exercised through the public facade on both backends.
//!
//! The contract under test: an observing engine attaches a [`BatchSpan`]
//! to every `RunReport` that links each `Outcome` back to the shard-side
//! phases that served it; the metrics registry computes its own latency
//! percentiles with the engine's quantile machinery; and the SLO
//! accumulator folds run reports into the line the bench bins emit into
//! `results/` for the CI gate.

use std::time::Duration;

use cgselect::{
    BackendChoice, Bounds, ChannelMpTuning, Engine, EngineConfig, FrontendConfig, MachineModel,
    Phase, Request, Response, Served, SloAccumulator, SloPolicy, TraceId,
};

fn cfg(p: usize, backend: BackendChoice) -> EngineConfig {
    EngineConfig::new(p)
        .model(MachineModel::free())
        .index_buckets(16)
        .delta_threshold(0.03)
        .backend(backend)
        .observe(true)
}

fn backends() -> [BackendChoice; 2] {
    [BackendChoice::LocalSpmd, BackendChoice::ChannelMp(ChannelMpTuning::default())]
}

fn data(n: u64) -> Vec<u64> {
    (0..n).map(|i| i.wrapping_mul(48271) % 99_991).collect()
}

fn mixed_requests() -> Vec<Request<u64>> {
    vec![
        Request::median(),
        Request::quantile(0.9),
        Request::rank(12),
        Request::rank_of(40_000),
        Request::count_between(Bounds::closed(5_000, 25_000)),
        Request::top_k(4),
    ]
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

#[test]
fn span_links_every_outcome_to_its_phases_on_both_backends() {
    for backend in backends() {
        let mut engine: Engine<u64> = Engine::new(cfg(4, backend)).unwrap();
        engine.ingest(data(6000)).unwrap();
        engine.run(&[Request::median()]).unwrap(); // builds the index

        let requests: Vec<Request<u64>> = mixed_requests()
            .into_iter()
            .enumerate()
            .map(|(i, r)| r.traced(TraceId(500 + i as u64)))
            .collect();
        let report = engine.run(&requests).unwrap();
        let span = report.span.as_ref().expect("observing engines attach a span");
        let kind = engine.backend_kind();

        // One request span per outcome, linked by the stamped trace ID and
        // carrying the query-kind label.
        assert_eq!(span.requests.len(), report.outcomes.len(), "{kind}");
        for (i, (rs, req)) in span.requests.iter().zip(&requests).enumerate() {
            assert_eq!(Some(rs.trace), req.trace, "{kind}: span {i} lost its trace ID");
            assert_eq!(rs.kind, req.kind.label(), "{kind}");
            assert_eq!(rs.served, report.outcomes[i].served, "{kind}");
        }

        // Host-served requests touch no shard phases; backend-served ones
        // name the phases that did the work, in canonical order.
        for rs in &span.requests {
            match rs.served {
                Served::Histogram => assert!(rs.phases.is_empty(), "{kind}: {rs:?}"),
                _ => assert!(!rs.phases.is_empty(), "{kind}: {rs:?}"),
            }
            let canon: Vec<Phase> =
                Phase::ALL.into_iter().filter(|p| rs.phases.contains(p)).collect();
            assert_eq!(rs.phases, canon, "{kind}: phases must follow Phase::ALL order");
        }

        // The shard-side phase summaries cover the batch and carry the
        // collective rounds the batch actually spent.
        assert!(!span.phases.is_empty(), "{kind}: backend work must produce phase summaries");
        let span_ops: u64 = span.phases.iter().map(|p| p.collective_ops).sum();
        assert_eq!(span_ops, report.collective_ops, "{kind}: spans must account for every round");

        // The rendered tree names every request and phase.
        let rendered = span.render();
        for rs in &span.requests {
            assert!(rendered.contains(&format!("{}", rs.trace)), "{kind}:\n{rendered}");
            assert!(rendered.contains(rs.kind), "{kind}:\n{rendered}");
        }
        for ps in &span.phases {
            assert!(rendered.contains(ps.phase.as_str()), "{kind}:\n{rendered}");
        }
    }
}

#[test]
fn unstamped_requests_get_engine_assigned_trace_ids() {
    let mut engine: Engine<u64> = Engine::new(cfg(3, BackendChoice::LocalSpmd)).unwrap();
    engine.ingest(data(2000)).unwrap();
    let report = engine.run(&mixed_requests()).unwrap();
    let span = report.span.unwrap();
    let mut ids: Vec<u64> = span.requests.iter().map(|r| r.trace.0).collect();
    let unique = {
        let mut v = ids.clone();
        v.sort_unstable();
        v.dedup();
        v.len()
    };
    assert_eq!(unique, ids.len(), "every request must get a distinct trace ID: {ids:?}");
    ids.sort_unstable();
    assert!(ids[0] > 0, "trace IDs start at 1");
}

#[test]
fn disabled_observability_attaches_no_span() {
    let mut engine: Engine<u64> =
        Engine::new(EngineConfig::new(3).model(MachineModel::free())).unwrap();
    engine.ingest(data(2000)).unwrap();
    let report = engine.run(&mixed_requests()).unwrap();
    assert!(report.span.is_none(), "observe is off by default");
    assert!(engine.metrics().is_none());
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

#[test]
fn metrics_snapshot_tracks_batches_and_serves_latency_percentiles() {
    let mut engine: Engine<u64> = Engine::new(cfg(4, BackendChoice::LocalSpmd)).unwrap();
    engine.ingest(data(6000)).unwrap();
    let batches = 8u64;
    for _ in 0..batches {
        engine.run(&mixed_requests()).unwrap();
    }
    let metrics = engine.metrics().expect("observing engines expose a registry");
    let snap = metrics.snapshot();

    let counter = |name: &str| {
        snap.counters
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("missing counter {name}:\n{}", snap.to_text()))
            .1
    };
    assert_eq!(counter("batches_total"), batches);
    assert_eq!(counter("requests_total"), batches * mixed_requests().len() as u64);
    assert!(counter("collective_ops_total") > 0);
    let served: u64 = ["served_histogram", "served_sketch", "served_index", "served_scan"]
        .iter()
        .map(|n| snap.counters.iter().find(|(m, _)| m == n).map_or(0, |(_, v)| *v))
        .sum();
    assert_eq!(served, counter("requests_total"), "every request lands in a served_* bucket");

    // The latency tracks are served by the engine's own ε-sketch
    // machinery and must be ordered like percentiles.
    for name in ["batch_wall", "batch_virtual"] {
        let lat = snap
            .latencies
            .iter()
            .find(|l| l.name == name)
            .unwrap_or_else(|| panic!("missing latency {name}:\n{}", snap.to_text()));
        assert_eq!(lat.count, batches);
        assert!(lat.p50 <= lat.p95 && lat.p95 <= lat.p99, "{name}: {lat:?}");
    }

    // Both exporters carry the same names.
    let text = snap.to_text();
    let json = snap.to_json();
    for name in ["batches_total", "batch_occupancy", "batch_wall", "delta_occupancy"] {
        assert!(text.contains(name), "text export missing {name}:\n{text}");
        assert!(json.contains(name), "json export missing {name}:\n{json}");
    }
}

#[test]
fn delete_counters_light_up_the_mutation_path_on_both_backends() {
    for backend in backends() {
        let p = 2;
        let mut engine: Engine<u64> = Engine::new(cfg(p, backend)).unwrap();
        let resident = data(4000);
        engine.ingest(resident.clone()).unwrap();
        let counters = |engine: &Engine<u64>| {
            let snap = engine.metrics().expect("observing engine").snapshot();
            ["deletes_total", "elements_deleted_total", "sketch_rebuilds_total"]
                .map(|name| snap.counters.iter().find(|(n, _)| *n == name).map(|&(_, v)| v))
        };
        assert_eq!(counters(&engine), [None; 3], "nothing is recorded before the first delete");

        // A delete that finds nothing still counts as a delete.
        assert_eq!(engine.delete(&[u64::MAX]).unwrap().elements, 0);
        assert_eq!(counters(&engine), [Some(1), Some(0), Some(0)]);

        // A small delete lands on the shard sketches' removed sides only.
        let few = engine.delete(&resident[..100]).unwrap().elements;
        assert!(few >= 100);
        assert_eq!(counters(&engine), [Some(2), Some(few), Some(0)]);

        // Removing most of every shard tips each one into a re-sketch.
        let most = engine.delete(&resident[100..3000]).unwrap().elements;
        assert_eq!(counters(&engine), [Some(3), Some(few + most), Some(p as u64)]);
    }
}

#[test]
fn index_rebuilds_are_counted_and_timed_on_both_backends() {
    for backend in backends() {
        // A small bucket target: fresh ranks refine past the cap every few
        // batches, so the stream crosses several rebuilds.
        let mut engine: Engine<u64> =
            Engine::new(cfg(2, backend.clone()).index_buckets(4)).unwrap();
        let mut plain: Engine<u64> =
            Engine::new(cfg(2, backend).index_buckets(4).observe(false)).unwrap();
        engine.ingest(data(4000)).unwrap();
        plain.ingest(data(4000)).unwrap();
        let rebuilds = |engine: &Engine<u64>| {
            let snap = engine.metrics().expect("observing engine").snapshot();
            let counted =
                snap.counters.iter().find(|(n, _)| *n == "index_rebuilds_total").map(|&(_, v)| v);
            let timed = snap.latencies.iter().find(|l| l.name == "index_rebuild_wall");
            (counted, timed.map(|l| l.count))
        };
        assert_eq!(rebuilds(&engine), (None, None), "nothing is recorded before the first build");
        for batch in 0..12u64 {
            let fresh: Vec<Request<u64>> =
                (0..6).map(|i| Request::rank(37 + batch * 331 + i * 53)).collect();
            let observed = engine.run(&fresh).unwrap();
            let unobserved = plain.run(&fresh).unwrap();
            // Off: nothing recorded, and nothing about the batch changes.
            let answers = |r: &cgselect::RunReport<u64>| {
                r.outcomes.iter().map(|o| o.response.clone()).collect::<Vec<_>>()
            };
            assert_eq!(answers(&observed), answers(&unobserved));
            assert_eq!(observed.collective_ops, unobserved.collective_ops);
            assert_eq!(engine.index_health(), plain.index_health());
            let n = engine.index_health().rebuilds;
            assert_eq!(rebuilds(&engine), (Some(n), Some(n)), "batch {batch}");
        }
        assert!(engine.index_health().rebuilds >= 3, "{:?}", engine.index_health());
        assert!(plain.metrics().is_none());
    }
}

#[test]
fn frontend_stamps_traces_and_records_request_wall_latency() {
    let mut engine: Engine<u64> = Engine::new(cfg(3, BackendChoice::LocalSpmd)).unwrap();
    engine.ingest(data(3000)).unwrap();
    let metrics = engine.metrics().unwrap();
    let queue = engine.into_frontend(FrontendConfig::new().window(Duration::from_millis(1)));
    let median = {
        let mut v = data(3000);
        v.sort_unstable();
        v[(v.len() - 1) / 2]
    };
    let tickets: Vec<_> =
        (0..6).map(|_| queue.submit_request(Request::median()).unwrap()).collect();
    for t in tickets {
        assert_eq!(t.wait().unwrap().response, Response::Element(median));
    }
    queue.shutdown().unwrap();
    let snap = metrics.snapshot();
    let lat = snap
        .latencies
        .iter()
        .find(|l| l.name == "request_wall")
        .unwrap_or_else(|| panic!("missing request_wall:\n{}", snap.to_text()));
    assert_eq!(lat.count, 6, "every answered query must record an end-to-end latency");
    assert!(snap.gauges.iter().any(|(n, _)| *n == "queue_depth"), "{}", snap.to_text());
}

// ---------------------------------------------------------------------------
// SLO reports
// ---------------------------------------------------------------------------

#[test]
fn slo_accumulator_folds_runs_into_the_ci_gated_line() {
    let mut engine: Engine<u64> = Engine::new(cfg(4, BackendChoice::LocalSpmd)).unwrap();
    engine.ingest(data(6000)).unwrap();
    engine.run(&[Request::median()]).unwrap();

    let mut acc = SloAccumulator::new();
    for _ in 0..4 {
        let report = engine.run(&mixed_requests()).unwrap();
        acc.observe(&report);
    }
    let slo = acc.report();
    assert_eq!(slo.queries, 4 * mixed_requests().len() as u64);
    assert!(slo.host_served_fraction > 0.0 && slo.host_served_fraction <= 1.0);
    assert_eq!(slo.max_rank_error, 0, "exact serving paths must report zero rank error");

    let line = slo.render_line();
    assert!(line.starts_with("slo queries="), "{line}");
    for field in ["host_served=", "sketch_served=", "max_rank_error=", "rounds_per_query="] {
        assert!(line.contains(field), "{line}");
    }

    // A permissive policy passes; an impossible one names every violation.
    let permissive = SloPolicy {
        min_host_served_fraction: 0.0,
        min_sketch_served_fraction: 0.0,
        max_rank_error: u64::MAX,
        max_rounds_per_query: f64::INFINITY,
    };
    assert!(permissive.evaluate(&slo).is_empty(), "{slo:?}");
    let strict = SloPolicy {
        min_host_served_fraction: 1.1,
        min_sketch_served_fraction: 1.1,
        max_rank_error: 0,
        max_rounds_per_query: 0.0,
    };
    let violations = strict.evaluate(&slo);
    assert!(!violations.is_empty(), "an impossible policy must flag violations");
}
