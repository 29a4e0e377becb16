//! `perf` — the wall-clock ledger.
//!
//! `perf --workload <name> --seed <n> --seconds <s> --trace <0|1>` runs one
//! closed-loop workload, checks every answer against a sorted-vector oracle
//! and prints its metrics, ending with one JSON object on the last line of
//! standard output. `--trace 0` prints the end-to-end metrics; `--trace 1`
//! runs the traced slice, the twin engine and the layer probes and prints the
//! per-layer metrics instead. See `perf/README.md`.

mod engine_run;
mod metrics;
mod oneshot;
mod oracle;
mod probes;
mod procfs;
mod spans;
mod stats;
mod stream;
mod trace;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use engine_run::{Backend, EngineSpec, FrontendRun};
use metrics::{MetricDef, E2E, LAYERS};
use oneshot::OneshotRun;
use oracle::Verdict;
use spans::Recorder;
use stats::Block;
use stream::StreamKind;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;
/// Blocks the timed ops are cut into for the interference filter; the
/// latency metrics are taken over the quieter half of them.
const BLOCKS: usize = 20;
/// A block the hypervisor disturbed does not count towards `BLOCKS`; the loop
/// runs on until enough undisturbed ones are in, up to this many in total.
const MAX_BLOCKS: usize = 30;
/// A run stops early once its timed loop has taken this many times the
/// requested seconds, so a much slower machine still finishes in bounded time.
const OVERRUN_FACTOR: f64 = 2.5;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    ExactLocal,
    ExactSocket,
    HostServed,
    IngestChurn,
    OneshotSelect,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::ExactLocal,
        Workload::ExactSocket,
        Workload::HostServed,
        Workload::IngestChurn,
        Workload::OneshotSelect,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ExactLocal => "exact_local",
            Workload::ExactSocket => "exact_socket",
            Workload::HostServed => "host_served",
            Workload::IngestChurn => "ingest_churn",
            Workload::OneshotSelect => "oneshot_select",
        }
    }

    /// The engine behind the workload; `None` for `oneshot_select`, which
    /// bypasses the engine.
    pub fn engine_spec(self) -> Option<EngineSpec> {
        let spec = |backend, n, stream, standing| Some(EngineSpec { backend, n, stream, standing });
        match self {
            Workload::ExactLocal => spec(Backend::Local, 1 << 22, StreamKind::ExactRanks, false),
            Workload::ExactSocket => spec(Backend::Socket, 1 << 22, StreamKind::ExactRanks, false),
            Workload::HostServed => spec(Backend::Local, 1 << 22, StreamKind::HostServed, false),
            Workload::IngestChurn => spec(Backend::Channel, 1 << 20, StreamKind::WindowSlide, true),
            Workload::OneshotSelect => None,
        }
    }

    /// Timed ops per requested second. Op counts are constants of the
    /// command line, never derived from the clock: the same `--seconds`
    /// always runs the same ops. The rates were sized on a 2-vCPU sandbox so
    /// that the timed loop takes about the requested time there.
    fn ops_per_second(self) -> f64 {
        match self {
            Workload::ExactLocal => 110.0,
            Workload::ExactSocket => 90.0,
            Workload::HostServed => 7_000.0,
            Workload::IngestChurn => 15.0,
            Workload::OneshotSelect => 21.0,
        }
    }

    pub fn timed_ops(self, seconds: f64) -> usize {
        ((self.ops_per_second() * seconds).round() as usize).max(20)
    }

    /// Untimed ops after set-up: 5 % of the timed count. The churn workload
    /// needs at least a full window of slides so that every timed op deletes.
    pub fn warmup_ops(self, timed_ops: usize) -> usize {
        let five_percent = timed_ops.div_ceil(20);
        match self {
            Workload::IngestChurn => five_percent.max(stream::WINDOW_SLIDES + 2),
            _ => five_percent,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> ! {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    eprintln!(
        "usage: perf --workload <{}> [--seed <n>] [--seconds <s>] [--trace <0|1>]\n       perf --list-metrics",
        names.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 15.0f64;
    let mut trace = false;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        if flag == "--list-metrics" {
            list_metrics();
            std::process::exit(0);
        }
        let Some(value) = argv.next() else { usage() };
        match flag.as_str() {
            "--workload" => workload = Workload::ALL.into_iter().find(|w| w.name() == value),
            "--seed" => seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => seconds = value.parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            _ => usage(),
        }
    }
    if !(seconds.is_finite() && seconds > 0.0) {
        usage();
    }
    Args { workload: workload.unwrap_or_else(|| usage()), seed, seconds, trace }
}

fn list_metrics() {
    for (group, defs) in [("end_to_end", &E2E[..]), ("per_layer", LAYERS)] {
        for d in defs {
            let exact = if metrics::EXACT.contains(&d.name) { "exact" } else { "measured" };
            println!("{group}\t{}\t{}\t{}\t{exact}", d.name, d.unit, d.better);
        }
    }
}

/// Where the span files go: `perf/out/` beside the package, which the driver
/// script names through `PERF_OUT_DIR`.
pub fn out_dir() -> PathBuf {
    std::env::var_os("PERF_OUT_DIR").map_or_else(|| PathBuf::from("perf/out"), PathBuf::from)
}

/// `SocketMp` binds its Unix sockets under the system temporary directory.
/// Point that inside the benchmark's own output directory so nothing is
/// written outside the checkout — unless the resulting socket paths would
/// not fit `sockaddr_un` (108 bytes), in which case the default stays.
fn confine_temp_dir() {
    let dir = out_dir().join("tmp");
    let Ok(abs) = std::fs::create_dir_all(&dir).and_then(|()| dir.canonicalize()) else { return };
    // "<dir>/cgselect-mp-<pid>-<n>/fab-e<epoch>-r<rank>.sock"
    if abs.as_os_str().len() + 48 < 108 {
        std::env::set_var("TMPDIR", abs);
    }
}

/// Everything one untraced run measured.
pub struct EndToEnd {
    pub setup_s: f64,
    pub blocks: Vec<Block>,
    pub peak_rss_mib: f64,
    pub verdict: Verdict,
    pub stream_hash: u64,
}

/// Runs `warmup` untimed ops, then timed blocks of `timed / BLOCKS` ops until
/// `BLOCKS` of them ran undisturbed.
fn closed_loop(
    mut op: impl FnMut() -> f64,
    warmup: usize,
    timed: usize,
    seconds: f64,
) -> Vec<Block> {
    for _ in 0..warmup {
        op();
    }
    let deadline = Instant::now() + Duration::from_secs_f64(seconds * OVERRUN_FACTOR);
    let block_ops = timed.div_ceil(BLOCKS);
    let mut blocks: Vec<Block> = Vec::with_capacity(MAX_BLOCKS);
    let undisturbed = |blocks: &[Block]| blocks.iter().filter(|b| !b.disturbed()).count();
    while undisturbed(&blocks) < BLOCKS && blocks.len() < MAX_BLOCKS && Instant::now() < deadline {
        let (steal, total) = procfs::machine_ticks();
        let latencies_us = (0..block_ops).map(|_| op()).collect();
        let (steal_after, total_after) = procfs::machine_ticks();
        let steal_share = (steal_after - steal) / (total_after - total).max(1.0);
        blocks.push(Block { latencies_us, steal_share });
    }
    blocks
}

fn run_end_to_end(workload: Workload, seed: u64, seconds: f64) -> EndToEnd {
    let timed = workload.timed_ops(seconds);
    let warmup = workload.warmup_ops(timed);
    let mut rec = Recorder::new();
    // The first set-up feeds the measured run. The repeats that steady
    // `setup_s` come after the peak-RSS reading, so that reading covers one
    // clean process life: one set-up, the warm-up and the timed loop.
    match workload.engine_spec() {
        Some(spec) => {
            let mut base = None;
            let (mut run, first) = FrontendRun::setup(&spec, seed, &mut base);
            let blocks = closed_loop(|| run.run_op(&mut rec), warmup, timed, seconds);
            let peak_rss_mib = procfs::peak_rss_mib_with(run.worker_pids());
            let verdict = std::mem::take(&mut run.checker.verdict);
            let stream_hash = run.stream_hash();
            run.shutdown();
            let mut setups = vec![first.total()];
            for _ in 1..SETUP_REPEATS {
                let (again, times) = FrontendRun::setup(&spec, seed, &mut base);
                setups.push(times.total());
                again.shutdown();
            }
            EndToEnd { setup_s: stats::median(&setups), blocks, peak_rss_mib, verdict, stream_hash }
        }
        None => {
            let (mut run, first) = OneshotRun::setup(seed);
            let blocks = closed_loop(|| run.run_op(&mut rec), warmup, timed, seconds);
            let peak_rss_mib = procfs::peak_rss_mib_with(&[]);
            let mut setups = vec![first];
            setups.extend((1..SETUP_REPEATS).map(|_| OneshotRun::setup(seed).1));
            EndToEnd {
                setup_s: stats::median(&setups),
                blocks,
                peak_rss_mib,
                verdict: run.verdict,
                stream_hash: 0,
            }
        }
    }
}

/// `(p50 µs, p90 µs, ops per second of summed latency)` of a latency sample.
fn latency_summary(latencies_us: &[f64]) -> (f64, f64, f64) {
    let sorted = stats::sorted(latencies_us);
    (
        stats::percentile_sorted(&sorted, 0.5),
        stats::percentile_sorted(&sorted, 0.9),
        1e6 / stats::mean(latencies_us),
    )
}

/// The gated metrics: latencies over the quieter half of the nominal blocks
/// (see [`stats::quietest`]); the unfiltered figures are printed beside them
/// for the record.
fn end_to_end_metrics(e: &EndToEnd) -> Vec<(String, f64)> {
    let all: Vec<f64> = e.blocks.iter().flat_map(|b| b.latencies_us.iter().copied()).collect();
    let (p50, p90, throughput) = latency_summary(&all);
    println!(
        "all_ops: samples={} blocks={} disturbed={} op_p50_us={p50:.1} op_p90_us={p90:.1} throughput_ops_s={throughput:.2}",
        all.len(),
        e.blocks.len(),
        e.blocks.iter().filter(|b| b.disturbed()).count(),
    );
    let (p50, p90, throughput) = latency_summary(&stats::quietest(&e.blocks, BLOCKS / 2));
    [
        ("setup_s", e.setup_s),
        ("op_p50_us", p50),
        ("op_p90_us", p90),
        ("throughput_ops_s", throughput),
        ("peak_rss_mib", e.peak_rss_mib),
    ]
    .map(|(name, value)| (name.to_string(), value))
    .to_vec()
}

/// Prints the table and the closing JSON line; every metric of `defs` must
/// have been measured, and nothing else.
fn report(defs: &[MetricDef], values: &[(String, f64)], verdict: &Verdict) {
    let mut json = Vec::with_capacity(defs.len());
    for d in defs {
        let value = values
            .iter()
            .find(|(name, _)| *name == d.name)
            .unwrap_or_else(|| panic!("metric {} was not measured", d.name))
            .1;
        assert!(value.is_finite(), "metric {} is not a finite number: {value}", d.name);
        println!("{:<46} {:>16.4} {}", d.name, value, d.unit);
        json.push(format!("\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}", d.name, d.unit));
    }
    for (name, _) in values {
        assert!(defs.iter().any(|d| d.name == *name), "metric {name} is not declared");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        verdict.failed == 0,
        verdict.attempted,
        verdict.failed,
        json.join(", ")
    );
}

fn main() {
    let args = parse_args();
    confine_temp_dir();
    println!(
        "perf: workload={} seed={} seconds={} trace={} nproc={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace as u8,
        procfs::nproc()
    );
    let verdict = if args.trace {
        let t = trace::run(args.workload, args.seed, args.seconds);
        report(LAYERS, &t.metrics, &t.verdict);
        t.verdict
    } else {
        let e = run_end_to_end(args.workload, args.seed, args.seconds);
        println!(
            "ops_attempted={} ops_failed={} stream_hash={:016x}",
            e.verdict.attempted, e.verdict.failed, e.stream_hash
        );
        report(&E2E, &end_to_end_metrics(&e), &e.verdict);
        e.verdict
    };
    if verdict.failed > 0 {
        eprintln!("perf: {} of {} ops failed verification:", verdict.failed, verdict.attempted);
        for note in verdict.notes {
            eprintln!("  {note}");
        }
        std::process::exit(1);
    }
}
