//! The traced run: the workload's own slice with spans around every call
//! into the frontend, a twin engine replaying the same ops through direct
//! `Engine` calls, and the layer probes. End-to-end metrics never come from
//! here — they are measured with tracing off.

use std::time::Instant;

use cgselect_engine::RefreshPolicy;

use crate::engine_run::{engine_config, Backend, EngineSpec, FrontendRun, SetupTimes, Twin};
use crate::oneshot::OneshotRun;
use crate::oracle::Verdict;
use crate::spans::Recorder;
use crate::stats::{median, percentile_sorted, sorted};
use crate::stream::{OpStream, StreamKind, WINDOW_SLIDES};
use crate::{out_dir, probes, procfs, Workload};

/// The engine slice traced on behalf of `oneshot_select`, which has no
/// engine of its own: a small `exact_local`, so that the frontend, engine
/// and index rows are measured (not blank) on every workload. None of them
/// is predicted to move with `oneshot_select`'s end-to-end metrics.
const REFERENCE_SPEC: EngineSpec = EngineSpec {
    backend: Backend::Local,
    n: 1 << 20,
    stream: StreamKind::ExactRanks,
    standing: false,
};
const REFERENCE_WARMUP: usize = 20;
const REFERENCE_SLICE: usize = 100;

#[derive(Default)]
pub struct Metrics(Vec<(String, f64)>);

impl Metrics {
    pub fn push(&mut self, name: impl Into<String>, value: f64) {
        self.0.push((name.into(), value));
    }

    fn get(&self, name: &str) -> f64 {
        self.0.iter().find(|(n, _)| *n == name).expect("row measured before it is combined").1
    }
}

pub struct Traced {
    pub metrics: Vec<(String, f64)>,
    pub verdict: Verdict,
}

/// Rows taken from the workload's own slice whatever its kind.
struct ProcessRows {
    overhead_ratio: f64,
    cpu_s_per_kop: f64,
    ctx_switches_per_op: f64,
}

/// Op latencies in stream order, each flagged with whether it was traced.
#[derive(Default)]
struct Samples(Vec<(f64, bool)>);

impl Samples {
    fn select(&self, traced: bool) -> Vec<f64> {
        self.0.iter().filter(|(_, t)| *t == traced).map(|(us, _)| *us).collect()
    }
}

/// Runs `2 × slice` ops (rounded up to whole blocks), alternating blocks with
/// the recorder off and on. Per-op cost drifts as answers refine the index,
/// so the two halves must sample the same stretch of the stream for their
/// ratio to be the tracing overhead.
fn alternating(
    mut op: impl FnMut(&mut Recorder) -> f64,
    rec: &mut Recorder,
    slice: usize,
) -> Samples {
    let block = (slice / 8).clamp(1, 50);
    let mut samples = Samples::default();
    let mut traced = false;
    while samples.0.len() < 2 * slice || traced {
        rec.set_enabled(traced);
        for _ in 0..block {
            samples.0.push((op(rec), traced));
        }
        traced = !traced;
    }
    rec.set_enabled(false);
    samples
}

/// Measures the process-level rows around `body`, which runs the alternating
/// slices and returns their samples.
fn process_rows(workers: &[u32], body: impl FnOnce() -> Samples) -> (Samples, ProcessRows) {
    let pids: Vec<u32> = workers.iter().copied().chain([std::process::id()]).collect();
    let cpu = procfs::cpu_seconds_of(&pids);
    let ctx = procfs::voluntary_ctx_switches();
    let samples = body();
    let ops = samples.0.len() as f64;
    let rows = ProcessRows {
        overhead_ratio: median(&samples.select(true)) / median(&samples.select(false)),
        cpu_s_per_kop: (procfs::cpu_seconds_of(&pids) - cpu) / ops * 1e3,
        ctx_switches_per_op: (procfs::voluntary_ctx_switches() - ctx) / ops,
    };
    (samples, rows)
}

struct EngineRows {
    process: ProcessRows,
    /// Collective ops per direct `Engine::run`, for `runtime.sync_share`.
    collectives_per_run: f64,
}

/// The frontend, engine, index and standing rows of one engine spec.
fn engine_layers(
    spec: &EngineSpec,
    seed: u64,
    warmup: usize,
    slice: usize,
    rec: &mut Recorder,
    m: &mut Metrics,
    verdict: &mut Verdict,
) -> EngineRows {
    // The workload as its client sees it, through the async frontend.
    let mut base = None;
    let (mut run, front_setup) = FrontendRun::setup(spec, seed, &mut base);
    for _ in 0..warmup {
        run.run_op(rec);
    }
    let updates_before = run.standing_updates();
    let workers = run.worker_pids().to_vec();
    let (samples, process) =
        process_rows(&workers, || alternating(|rec| run.run_op(rec), rec, slice));
    let ops = samples.0.len();

    let stats = run.stats();
    m.push("frontend.submit_us", median(&rec.durations_us("frontend.submit")));
    m.push("frontend.wait_us", median(&rec.durations_us("frontend.wait")));
    m.push("frontend.queue_wait_us", stats.mean_wait().as_secs_f64() * 1e6);
    m.push("frontend.batch_occupancy", stats.mean_occupancy());
    m.push("frontend.split_groups", run.split_groups());
    m.push("frontend.rejected", stats.rejected as f64);
    let all = sorted(&samples.0.iter().map(|(us, _)| *us).collect::<Vec<_>>());
    m.push("frontend.op_p99_us", percentile_sorted(&all, 0.99));
    m.push("frontend.op_max_us", percentile_sorted(&all, 1.0));
    m.push(
        "standing.updates_per_op",
        (run.standing_updates() - updates_before) as f64 / ops as f64,
    );
    verdict.absorb(std::mem::take(&mut run.checker.verdict));
    run.shutdown();

    // The same ops on a twin engine, by direct calls.
    let mut twin_setup = SetupTimes::default();
    let mut twin = Twin::setup(spec, engine_config(spec.backend), seed, &mut base, &mut twin_setup);
    for _ in 0..warmup {
        twin.run_op(rec);
    }
    rec.set_enabled(true);
    twin.counting = true;
    let direct: Vec<f64> = (0..ops).map(|_| twin.run_op(rec)).collect();
    // Hand-off = what the frontend adds to the same op run directly. Op cost
    // is bimodal, so the ops are compared pairwise, untraced ones only.
    let added: Vec<f64> = samples
        .0
        .iter()
        .zip(&direct)
        .filter(|((_, traced), _)| !traced)
        .map(|((via_frontend, _), direct)| via_frontend - direct)
        .collect();
    m.push("frontend.handoff_us", median(&added));
    m.push("engine.run_us", median(&rec.durations_us("engine.run")));

    let c = twin.counts.clone();
    let health = twin.engine.index_health();
    let per_op = |total: f64| total / c.ops as f64;
    m.push("engine.collectives_per_op", per_op(c.collective_ops as f64));
    m.push("engine.msgs_per_op", per_op(c.msgs_sent as f64));
    m.push("engine.comm_bytes_per_op", per_op(c.bytes_sent as f64));
    m.push("engine.makespan_virtual_us_per_op", per_op(c.makespan_s * 1e6));
    m.push("engine.zero_collective_ratio", c.zero_collective_runs as f64 / c.runs as f64);
    // In the order of `DirectCounts::served`.
    let served_rows = [
        "engine.served_histogram_ratio",
        "engine.served_sketch_ratio",
        "engine.served_index_ratio",
        "engine.served_scan_ratio",
    ];
    for (name, served) in served_rows.into_iter().zip(c.served) {
        m.push(name, served as f64 / c.outcomes as f64);
    }
    m.push("index.buckets", health.buckets as f64);
    m.push("index.histogram_hits", health.histogram_hits as f64);
    m.push("index.rebuilds", health.rebuilds as f64);
    m.push("index.delta_merges", health.delta_merges as f64);
    m.push("index.delta_occupancy_mean", c.delta_occupancy_sum / c.runs as f64);

    // Workloads that never mutate get their write-side rows from a probe:
    // one full ingest window (enough to force a delta merge) and one delete.
    if rec.durations_us("engine.delete").is_empty() {
        if twin.engine.standing_active() == 0 {
            twin.subscribe(vec![(cgselect_engine::Request::median(), RefreshPolicy::EveryBatch)]);
        }
        let mut slides = OpStream::new(StreamKind::WindowSlide, 0, seed);
        for _ in 0..=WINDOW_SLIDES {
            twin.replay(&slides.next_op(), rec);
        }
    }
    rec.set_enabled(false);
    m.push("engine.ingest_us", median(&rec.durations_us("engine.ingest")));
    m.push("engine.delete_us", median(&rec.durations_us("engine.delete")));
    m.push("standing.refresh_us", median(&rec.durations_us("standing.refresh")));
    m.push(
        "standing.zero_collective_ratio",
        twin.engine.standing_zero_collective() as f64 / twin.engine.standing_refreshes() as f64,
    );
    let merging = &twin.counts.ingest_us_merging;
    let extra = if merging.is_empty() {
        0.0
    } else {
        median(merging) - median(&twin.counts.ingest_us_plain)
    };
    m.push("index.merge_op_extra_us", extra);
    m.push("engine.bulk_ingest_ms", (front_setup.bulk_ingest + twin_setup.bulk_ingest) / 2.0 * 1e3);
    m.push(
        "engine.cold_first_batch_ms",
        (front_setup.cold_first_batch + twin_setup.cold_first_batch) / 2.0 * 1e3,
    );
    verdict.absorb(twin.checker.verdict);
    EngineRows { process, collectives_per_run: c.collective_ops as f64 / c.runs as f64 }
}

fn oneshot_slices(
    seed: u64,
    warmup: usize,
    slice: usize,
    rec: &mut Recorder,
    verdict: &mut Verdict,
) -> ProcessRows {
    let (mut run, _) = OneshotRun::setup(seed);
    for _ in 0..warmup {
        run.run_op(rec);
    }
    let (_, process) = process_rows(&[], || alternating(|rec| run.run_op(rec), rec, slice));
    verdict.absorb(run.verdict);
    process
}

pub fn run(workload: Workload, seed: u64, seconds: f64) -> Traced {
    let started = Instant::now();
    let mut m = Metrics::default();
    let mut verdict = Verdict::default();
    let mut rec = Recorder::new();
    let timed_ops = workload.timed_ops(seconds);
    let slice = (timed_ops / 10).max(10);
    let warmup = workload.warmup_ops(timed_ops);

    let rows = match workload.engine_spec() {
        Some(spec) => engine_layers(&spec, seed, warmup, slice, &mut rec, &mut m, &mut verdict),
        None => {
            let process = oneshot_slices(seed, warmup, slice, &mut rec, &mut verdict);
            // The reference slice's spans stay out of this workload's file.
            let mut scratch = Recorder::new();
            let reference = engine_layers(
                &REFERENCE_SPEC,
                seed,
                REFERENCE_WARMUP,
                REFERENCE_SLICE,
                &mut scratch,
                &mut m,
                &mut verdict,
            );
            EngineRows { process, ..reference }
        }
    };
    m.push("trace.overhead_ratio", rows.process.overhead_ratio);
    m.push("process.cpu_s_per_kop", rows.process.cpu_s_per_kop);
    m.push("process.voluntary_ctx_switches_per_op", rows.process.ctx_switches_per_op);
    println!("trace: workload slices done at {:.1}s", started.elapsed().as_secs_f64());

    probes::run_all(seed, &mut m, &mut verdict);
    // Share of a direct batch the collective fabric's synchronisation
    // explains: rounds per batch × one Combine ÷ batch wall time.
    let sync_share =
        rows.collectives_per_run * m.get("runtime.combine_us") / m.get("engine.run_us");
    m.push("runtime.sync_share", sync_share);
    println!("trace: layer probes done at {:.1}s", started.elapsed().as_secs_f64());

    let path = out_dir().join(format!("trace.{}.jsonl", workload.name()));
    match rec.write_jsonl(&path) {
        Ok(()) => println!("trace: {} spans written to {}", rec.spans().len(), path.display()),
        Err(e) => eprintln!("perf: could not write {}: {e}", path.display()),
    }
    Traced { metrics: m.0, verdict }
}
