//! Modeled-cost snapshot: the virtual clocks and communication counters of
//! four seeded debug-size scenarios, one canonical line per row, compared
//! byte for byte against the tracked `results/modeled_costs.txt`.
//!
//! The paper's analysis prices an algorithm by its rounds, messages, bytes
//! and local work; this file pins what the implementation charges for each.
//! A change meant to leave the model alone (a transport swap, a refactor)
//! must leave the file identical, and a change that moves the model shows
//! the moved rows in its diff. Regenerate with
//! `UPDATE_MODELED_SNAPSHOT=1 cargo test --test modeled_costs` and commit the
//! file with the change.
//!
//! The scenarios:
//! * a fresh exact batch stream on a small bucket target, long enough for
//!   refinement to cross the bucket cap and the next batch to re-cut;
//! * a host-served stream: histogram-served and sketch-served reads on a
//!   warm index, with exact probes between them;
//! * an ingest/delete window slide with two standing queries;
//! * the paper's four algorithms on random and sorted input.
//!
//! Every engine scenario runs on `LocalSpmd` and `ChannelMp`, and on
//! `SocketMp` once the worker binary is built (this test builds it on
//! demand, as `backend_conformance` does); the three must print the same
//! lines. The paper's algorithms run below the engine, so they run on the
//! one-shot [`Machine`] and on a persistent [`cgselect::Session`] (the
//! in-process transport under `LocalSpmd`) instead, and those must agree.
//! Virtual time is printed in whole nanoseconds: backends start a batch's
//! clock at offsets that differ in the last bits of an `f64`.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Arc;

use cgselect::{
    generate, parallel_select, Algorithm, BackendChoice, Bounds, ChannelMpTuning, CommStats,
    Distribution, Engine, EngineConfig, Machine, MachineModel, Outcome, RefreshPolicy, Request,
    Response, RunReport, SelectionConfig, SelectionOutcome, Served, SocketMpTuning, StandingHandle,
};

const GOLDEN: &str = "results/modeled_costs.txt";

/// Seconds of virtual time in whole nanoseconds.
fn ns(seconds: f64) -> u64 {
    (seconds * 1e9).round() as u64
}

fn answer(response: &Response<u64>) -> String {
    match response {
        Response::Element(v) => v.to_string(),
        Response::Approximate { value, max_rank_error, .. } => format!("{value}~{max_rank_error}"),
        Response::Count { count, max_error } => format!("#{count}~{max_error}"),
        Response::Elements(vs) => format!("{vs:?}"),
    }
}

fn served(outcome: &Outcome<u64>) -> &'static str {
    match outcome.served {
        Served::Histogram => "H",
        Served::Sketch => "S",
        Served::Index => "I",
        Served::Scan => "X",
    }
}

fn comm(c: &CommStats) -> String {
    format!("coll={} msgs={} bytes={}", c.collective_ops, c.msgs_sent, c.bytes_sent)
}

/// One batch: what it cost, how each request was served and answered, and
/// the index it left behind.
fn batch_line(label: &str, report: &RunReport<u64>, engine: &Engine<u64>) -> String {
    let health = engine.index_health();
    let routes: String = report.outcomes.iter().map(served).collect();
    let answers: Vec<String> = report.outcomes.iter().map(|o| answer(&o.response)).collect();
    format!(
        "{label}: rounds={} {} makespan_ns={} exact={} hist={} sketch={} probes={} \
         served={routes} buckets={} rebuilds={} merges={} answers=[{}]",
        report.collective_ops,
        comm(&report.comm),
        ns(report.makespan),
        report.exact_ranks,
        report.histogram_answers,
        report.sketch_answers,
        report.value_probes,
        health.buckets,
        health.rebuilds,
        health.delta_merges,
        answers.join(" "),
    )
}

fn config(p: usize, backend: BackendChoice) -> EngineConfig {
    EngineConfig::new(p).model(MachineModel::cm5()).backend(backend)
}

fn data(dist: Distribution, n: usize, p: usize, seed: u64) -> Vec<u64> {
    generate(dist, n, p, seed).into_iter().flatten().collect()
}

/// Eight scattered fresh ranks per batch, none repeated across batches.
fn fresh_ranks(batch: u64, n: u64) -> Vec<Request<u64>> {
    (0..8)
        .map(|j| Request::rank((batch * 8 + j + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) % n))
        .collect()
}

/// Fresh exact batches on a target of 4 buckets with a finish threshold of
/// 16, so the cap is `⌈2000 / 16⌉ = 125` buckets: refinement crosses it
/// within a few batches, and the histogram rank after each batch is where
/// the tripped cap re-cuts the index.
fn exact_cap_trip(backend: BackendChoice) -> Vec<String> {
    let p = 2;
    let mut config = config(p, backend).index_buckets(4);
    config.selection.min_sequential = 16;
    let mut engine: Engine<u64> = Engine::new(config).unwrap();
    let all = data(Distribution::Random, 2000, p, 101);
    let n = all.len() as u64;
    engine.ingest(all).unwrap();
    let mut lines = Vec::new();
    for batch in 0..10 {
        let report = engine.run(&fresh_ranks(batch, n)).unwrap();
        lines.push(batch_line(&format!("exact fresh {batch}"), &report, &engine));
        let report = engine.run(&[Request::rank(n / 2 + batch).histogram_ok()]).unwrap();
        lines.push(batch_line(&format!("exact histogram {batch}"), &report, &engine));
    }
    assert!(engine.index_health().rebuilds >= 2, "the stream must re-cut a warm index");
    lines
}

/// Histogram-served and sketch-served reads on a warm index, with one
/// exact batch before each round so the histogram keeps learning.
fn host_served(backend: BackendChoice) -> Vec<String> {
    let p = 4;
    let mut engine: Engine<u64> =
        Engine::new(config(p, backend).index_buckets(16).sketch_capacity(256)).unwrap();
    let all = data(Distribution::Gaussian, 3000, p, 59);
    let mut sorted = all.clone();
    sorted.sort_unstable();
    engine.ingest(all).unwrap();
    let quantiles: Vec<f64> = (1..=9).map(|i| f64::from(i) / 10.0).collect();
    let mut lines = Vec::new();
    for round in 0..4 {
        let exact: Vec<Request<u64>> = quantiles.iter().map(|&q| Request::quantile(q)).collect();
        let report = engine.run(&exact).unwrap();
        lines.push(batch_line(&format!("served exact {round}"), &report, &engine));

        let probe = sorted[sorted.len() * (round + 1) / 5];
        let (lo, hi) = (sorted[sorted.len() / 4], sorted[3 * sorted.len() / 4]);
        let mut hist: Vec<Request<u64>> =
            quantiles.iter().map(|&q| Request::quantile(q).histogram_ok()).collect();
        hist.push(Request::rank_of(probe).histogram_ok());
        let report = engine.run(&hist).unwrap();
        lines.push(batch_line(&format!("served histogram {round}"), &report, &engine));

        let mut tolerant: Vec<Request<u64>> =
            [0.05, 0.5, 0.95].iter().map(|&q| Request::quantile(q).within_rank(0.05)).collect();
        tolerant.push(Request::rank_of(probe).within_rank(0.05));
        tolerant.push(Request::count_between(Bounds::closed(lo, hi)).within_rank(0.05));
        let report = engine.run(&tolerant).unwrap();
        lines.push(batch_line(&format!("served sketch {round}"), &report, &engine));
    }
    lines
}

fn standing_lines(label: &str, handle: &StandingHandle<u64>, lines: &mut Vec<String>) {
    for update in handle.drain() {
        let o = &update.outcome;
        lines.push(format!(
            "{label} update {}: served={} coll={} answer={} version={} elements={}",
            update.seq,
            served(o),
            o.cost.collective_ops,
            answer(&o.response),
            o.freshness.version,
            o.freshness.elements,
        ));
    }
}

/// A sliding window: each slide ingests a fresh block, deletes the oldest
/// block and reads a pair, while a median (every batch) and a p90 (after
/// 5 % churn) stand.
fn ingest_delete_slide(backend: BackendChoice) -> Vec<String> {
    let p = 4;
    let block = 400;
    let mut engine: Engine<u64> =
        Engine::new(config(p, backend).index_buckets(16).delta_threshold(0.05)).unwrap();
    let stream = data(Distribution::Random, 10 * block, p, 83);
    let blocks: Vec<&[u64]> = stream.chunks(block).collect();
    for b in &blocks[..5] {
        engine.ingest(b.to_vec()).unwrap();
    }
    let median = engine.subscribe(Request::median(), RefreshPolicy::EveryBatch);
    let p90 = engine.subscribe(Request::quantile(0.9), RefreshPolicy::OnDelta(0.05));
    let mut lines = Vec::new();
    for slide in 0..5 {
        let added = engine.ingest(blocks[5 + slide].to_vec()).unwrap();
        let removed = engine.delete(blocks[slide]).unwrap();
        lines.push(format!(
            "slide {slide}: ingested={} rebalanced={} deleted={} rebalanced={} len={}",
            added.elements,
            added.rebalanced,
            removed.elements,
            removed.rebalanced,
            engine.len(),
        ));
        let probe = blocks[5 + slide][0];
        let report = engine.run(&[Request::rank_of(probe), Request::quantile(0.25)]).unwrap();
        lines.push(batch_line(&format!("slide {slide} read"), &report, &engine));
        standing_lines(&format!("slide {slide} median"), &median, &mut lines);
        standing_lines(&format!("slide {slide} p90"), &p90, &mut lines);
    }
    lines
}

/// Every engine scenario on one backend.
fn engine_scenarios(backend: BackendChoice) -> Vec<String> {
    let mut lines = exact_cap_trip(backend.clone());
    lines.extend(host_served(backend.clone()));
    lines.extend(ingest_delete_slide(backend));
    lines
}

fn selection_line(alg: Algorithm, dist: Distribution, outs: &[SelectionOutcome<u64>]) -> String {
    let total = outs.iter().fold(CommStats::default(), |t, o| t.merged(&o.comm));
    let max_ns = |f: fn(&SelectionOutcome<u64>) -> f64| {
        outs.iter().map(|o| ns(f(o))).max().expect("at least one processor")
    };
    format!(
        "paper {} {dist:?}: value={} iterations={} unsuccessful={} {} ops={} \
         makespan_ns={} lb_ns={} sort_ns={} finish_ns={}",
        alg.name(),
        outs[0].value,
        outs[0].iterations,
        outs[0].unsuccessful_iterations,
        comm(&total),
        outs.iter().map(|o| o.ops).sum::<u64>(),
        max_ns(|o| o.total_seconds),
        max_ns(|o| o.lb_seconds),
        max_ns(|o| o.sort_seconds),
        max_ns(|o| o.finish_seconds),
    )
}

/// The paper's four algorithms, each selecting the median of 8,192
/// elements on 4 processors: on the one-shot machine, and on one
/// persistent session that serves all eight selections in turn.
fn paper_algorithms() -> (Vec<String>, Vec<String>) {
    let p = 4;
    let cfg = SelectionConfig::default();
    let machine = Machine::with_model(p, MachineModel::cm5());
    let mut session = machine.session();
    let (mut one_shot, mut persistent) = (Vec::new(), Vec::new());
    for dist in [Distribution::Random, Distribution::Sorted] {
        let parts = Arc::new(generate(dist, 8192, p, 7));
        let k = cgselect::median_rank(8192) as u64;
        for alg in Algorithm::ALL {
            let (parts, cfg) = (parts.clone(), cfg.clone());
            let select = move |proc: &mut cgselect::Proc| {
                parallel_select(proc, &parts[proc.rank()], k, alg, &cfg)
            };
            let outs = machine.run(&select).unwrap();
            one_shot.push(selection_line(alg, dist, &outs));
            let outs = session.run(move |proc, _| select(proc)).unwrap();
            persistent.push(selection_line(alg, dist, &outs));
        }
    }
    (one_shot, persistent)
}

/// Builds the worker binary once if this test target was invoked without
/// it. No-op when `target/<profile>/cgselect-shard-worker` already exists.
fn ensure_worker_bin() {
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
}

fn assert_same_lines(reference: &[String], other: &[String], what: &str) {
    assert_eq!(reference.len(), other.len(), "{what}: row counts differ");
    for (a, b) in reference.iter().zip(other) {
        assert_eq!(a, b, "{what} diverged");
    }
}

fn snapshot() -> String {
    let local = engine_scenarios(BackendChoice::LocalSpmd);
    let channel = engine_scenarios(BackendChoice::ChannelMp(ChannelMpTuning::default()));
    assert_same_lines(&local, &channel, "ChannelMp against LocalSpmd");
    ensure_worker_bin();
    let socket = engine_scenarios(BackendChoice::SocketMp(SocketMpTuning::default()));
    assert_same_lines(&local, &socket, "SocketMp against LocalSpmd");
    let (one_shot, persistent) = paper_algorithms();
    assert_same_lines(&one_shot, &persistent, "the session against the one-shot machine");

    let mut out = String::from(
        "# Modeled costs of four seeded scenarios (virtual time in ns). Regenerate with\n\
         # UPDATE_MODELED_SNAPSHOT=1 cargo test --test modeled_costs\n",
    );
    for line in local.iter().chain(&one_shot) {
        let _ = writeln!(out, "{line}");
    }
    out
}

#[test]
fn modeled_costs_match_the_golden_snapshot() {
    let current = snapshot();
    let golden_path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(GOLDEN);
    if std::env::var_os("UPDATE_MODELED_SNAPSHOT").is_some() {
        std::fs::write(&golden_path, &current).expect("write modeled-cost snapshot");
        eprintln!("modeled_costs: regenerated {GOLDEN}");
        return;
    }
    let golden = std::fs::read_to_string(&golden_path).unwrap_or_else(|e| {
        panic!("{GOLDEN} missing ({e}); regenerate with UPDATE_MODELED_SNAPSHOT=1")
    });
    let drift: Vec<String> = golden
        .lines()
        .zip(current.lines())
        .filter(|(old, new)| old != new)
        .map(|(old, new)| format!("- {old}\n+ {new}"))
        .collect();
    assert!(
        golden == current,
        "modeled costs drifted from {GOLDEN} ({} vs {} lines) — if deliberate, regenerate with \
         UPDATE_MODELED_SNAPSHOT=1 cargo test --test modeled_costs and commit the diff:\n{}",
        golden.lines().count(),
        current.lines().count(),
        drift.join("\n")
    );
}
