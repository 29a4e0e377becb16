//! Wall-clock hot-path benchmark: the branchless kernels vs the scalar
//! reference loops they replaced, measured as **host wall time** — the one
//! axis the kernels are allowed to move.
//!
//! Two layers, both run in kernel mode and in scalar-reference mode (the
//! in-binary pre-PR baseline, toggled with
//! `cgselect_seqsel::with_scalar_reference_mode`):
//!
//! * **Microbenches** — `count_below` over `u64`/`u32`/`i64` and
//!   `partition_by_bounds` (64 splitters), per-element hot loops timed in
//!   isolation at n = 2^20 (2^18 under `--quick`).
//! * **End-to-end** — a probe-heavy batched request stream (ranks,
//!   rank-of-value probes, range counts) on the index-free engine at
//!   n = 2^20, on both `LocalSpmd` and `ChannelMp`, query-phase wall time
//!   only. Answers from the two modes are compared on the fly: a kernel
//!   that changes an answer fails the run outright.
//!
//! Outputs `results/engine_wall.{csv,txt}` plus machine-readable
//! `BENCH_wall.json` at the workspace root. Pass `--check` to gate:
//! absolute speedup floors (count_below u64 and partition >= 1.5x, e2e
//! LocalSpmd >= 1.1x) and, when a committed `BENCH_wall.json` exists from
//! a previous run, no speedup ratio may fall below 75% of its committed
//! value — the noise-tolerant CI wall-time regression guard. Ratios (not
//! absolute times) are gated so the guard is portable across machines.

use std::time::Instant;

use cgselect_bench::chart::{markdown_table, write_csv, write_text};
use cgselect_bench::{quick_mode, results_dir};
use cgselect_engine::{
    BackendChoice, Bounds, ChannelMpTuning, Engine, EngineConfig, Request, Response,
};
use cgselect_seqsel::{
    count_below_kernel, count_below_reference, partition_by_bounds, with_scalar_reference_mode,
    OpCount, SepBound,
};
use cgselect_workloads::{generate, Distribution};

fn check_mode() -> bool {
    std::env::args().any(|a| a == "--check")
}

/// Wall seconds of the best (minimum) of `reps` runs of `f` — minimum, not
/// mean, because scheduler noise only ever adds time.
fn best_of(reps: usize, mut f: impl FnMut() -> f64) -> f64 {
    (0..reps).map(|_| f()).fold(f64::INFINITY, f64::min)
}

/// One named speedup measurement: the scalar-reference wall over the
/// kernel wall for the same work.
struct Measure {
    key: &'static str,
    reference_s: f64,
    kernel_s: f64,
}

impl Measure {
    fn speedup(&self) -> f64 {
        self.reference_s / self.kernel_s.max(1e-12)
    }
}

/// `count_below` microbench for one key type: `iters` scans over `n`
/// elements, reference loop vs branchless kernel.
fn micro_count<T: Copy + Ord + From<u16>>(
    key: &'static str,
    reps: usize,
    iters: usize,
    raw: &[u64],
) -> Measure {
    let data: Vec<T> = raw.iter().map(|&x| T::from((x % 60_000) as u16)).collect();
    let value = T::from(30_000u16);
    let time = |kernel: bool| {
        best_of(reps, || {
            let mut cmps = 0u64;
            let mut acc = 0u64;
            let wall0 = Instant::now();
            for i in 0..iters {
                let inclusive = i % 2 == 0;
                acc += if kernel {
                    count_below_kernel(&data, value, inclusive, &mut cmps)
                } else {
                    count_below_reference(&data, value, inclusive, &mut cmps)
                };
            }
            let wall = wall0.elapsed().as_secs_f64();
            std::hint::black_box((acc, cmps));
            wall / iters as f64
        })
    };
    Measure { key, reference_s: time(false), kernel_s: time(true) }
}

/// `partition_by_bounds` microbench: 64 splitters over `n` elements,
/// scalar two-pointer reference vs the branchless block-partition kernel.
/// The clone feeding each run is excluded from the timed region.
fn micro_partition(reps: usize, raw: &[u64]) -> Measure {
    // Bounds spanning the generator's value range (uniform in [0, 2^63)),
    // so every recursion level splits its segment near the middle — the
    // worst case for the reference walk's branch predictor.
    let bounds: Vec<SepBound<u64>> =
        (1..=64u64).map(|i| SepBound::le((u64::MAX >> 1) / 65 * i)).collect();
    let time = |reference: bool| {
        best_of(reps, || {
            let mut scratch = raw.to_vec();
            let mut ops = OpCount::new();
            let (offsets, wall) = with_scalar_reference_mode(reference, || {
                let wall0 = Instant::now();
                let offsets = partition_by_bounds(&mut scratch, &bounds, &mut ops);
                (offsets, wall0.elapsed().as_secs_f64())
            });
            std::hint::black_box((offsets, ops));
            wall
        })
    };
    Measure { key: "micro.partition_by_bounds.u64", reference_s: time(true), kernel_s: time(false) }
}

/// The probe-heavy e2e batches: every batch mixes exact ranks (the
/// multi-select partition path) with rank-of-value probes and range counts
/// (the per-shard count-scan path).
fn e2e_batches(data: &[u64], batches: u64) -> Vec<Vec<Request<u64>>> {
    let total = data.len() as u64;
    (0..batches)
        .map(|b| {
            (0..8u64)
                .flat_map(|i| {
                    let rank = (i * total / 8 + b * 131 + i) % total;
                    let v = data[((b * 7919 + i * 104_729) as usize) % data.len()] ^ 1;
                    vec![
                        Request::rank(rank),
                        Request::rank_of(v),
                        Request::rank_of(v.wrapping_mul(3) % (4 * total)),
                        Request::count_between(Bounds::closed(v, v.saturating_add(total))),
                    ]
                })
                .collect()
        })
        .collect()
}

/// Query-phase wall seconds (ingest excluded) of the batch stream on a
/// fresh index-free engine, plus the answers for cross-mode conformance.
fn e2e_run(
    backend: BackendChoice,
    data: &[u64],
    p: usize,
    batches: &[Vec<Request<u64>>],
) -> (f64, Vec<Response<u64>>) {
    let mut engine: Engine<u64> =
        Engine::new(EngineConfig::new(p).index_buckets(0).backend(backend)).expect("engine start");
    engine.ingest(data.to_vec()).expect("ingest");
    let wall0 = Instant::now();
    let mut answers = Vec::new();
    for batch in batches {
        let report = engine.run(batch).expect("run");
        answers.extend(report.outcomes.into_iter().map(|o| o.response));
    }
    (wall0.elapsed().as_secs_f64(), answers)
}

/// E2e measurement on one backend: best-of-`reps` wall per mode, with the
/// two modes' answers required to be identical.
fn e2e(
    key: &'static str,
    backend: impl Fn() -> BackendChoice,
    data: &[u64],
    p: usize,
    batches: &[Vec<Request<u64>>],
    reps: usize,
) -> Measure {
    let mut walls = [f64::INFINITY; 2];
    let mut answers: [Option<Vec<Response<u64>>>; 2] = [None, None];
    for _ in 0..reps {
        for (slot, reference) in [(0usize, false), (1usize, true)] {
            let (wall, ans) =
                with_scalar_reference_mode(reference, || e2e_run(backend(), data, p, batches));
            walls[slot] = walls[slot].min(wall);
            match &answers[slot] {
                None => answers[slot] = Some(ans),
                Some(prev) => assert_eq!(prev, &ans, "{key}: answers drifted between reps"),
            }
        }
    }
    assert_eq!(
        answers[0], answers[1],
        "{key}: kernel and scalar-reference answers must be identical"
    );
    Measure { key, reference_s: walls[1], kernel_s: walls[0] }
}

/// Reads the flat `"metrics"` map out of a committed `BENCH_wall.json`
/// (the format [`write_json`] emits): one `"key": value` pair per line.
fn read_baseline(path: &std::path::Path) -> Vec<(String, f64)> {
    let Ok(text) = std::fs::read_to_string(path) else { return Vec::new() };
    let mut out = Vec::new();
    for line in text.lines() {
        let line = line.trim().trim_end_matches(',');
        let Some(rest) = line.strip_prefix('"') else { continue };
        let Some((key, value)) = rest.split_once("\": ") else { continue };
        if let Ok(v) = value.parse::<f64>() {
            out.push((key.to_string(), v));
        }
    }
    out
}

/// Hand-written flat JSON (no serde in the workspace): header fields plus
/// one `"key": value` metric per line, parseable by [`read_baseline`].
fn write_json(path: &std::path::Path, n: usize, quick: bool, measures: &[Measure]) {
    let mut body = String::new();
    body.push_str("{\n");
    body.push_str("  \"bench\": \"wallclock\",\n");
    body.push_str(&format!("  \"n\": {n},\n"));
    body.push_str(&format!("  \"quick\": {quick},\n"));
    body.push_str("  \"metrics\": {\n");
    for (i, m) in measures.iter().enumerate() {
        let comma = if i + 1 == measures.len() { "" } else { "," };
        body.push_str(&format!(
            "    \"{}.reference_s\": {:.6},\n    \"{}.kernel_s\": {:.6},\n    \
             \"{}.speedup\": {:.4}{comma}\n",
            m.key,
            m.reference_s,
            m.key,
            m.kernel_s,
            m.key,
            m.speedup()
        ));
    }
    body.push_str("  }\n}\n");
    std::fs::write(path, body).expect("write BENCH_wall.json");
}

fn main() {
    let quick = quick_mode();
    let dir = results_dir();
    let json_path = dir.join("..").join("BENCH_wall.json");
    let baseline = read_baseline(&json_path);

    let n: usize = if quick { 1 << 18 } else { 1 << 20 };
    let reps = if quick { 3 } else { 5 };
    let p = 8;
    let raw: Vec<u64> = generate(Distribution::Random, n, p, 23).into_iter().flatten().collect();

    // Microbenches: the per-element hot loops in isolation.
    let iters = if quick { 8 } else { 16 };
    let mut measures = vec![
        micro_count::<u64>("micro.count_below.u64", reps, iters, &raw),
        micro_count::<u32>("micro.count_below.u32", reps, iters, &raw),
        micro_count::<i64>("micro.count_below.i64", reps, iters, &raw),
        micro_partition(reps, &raw),
    ];

    // End-to-end: the probe-heavy batched stream, query-phase wall only.
    let batches = e2e_batches(&raw, if quick { 3 } else { 6 });
    let e2e_reps = if quick { 2 } else { 3 };
    measures.push(e2e(
        "e2e.local_spmd.batched",
        || BackendChoice::LocalSpmd,
        &raw,
        p,
        &batches,
        e2e_reps,
    ));
    measures.push(e2e(
        "e2e.channel_mp.batched",
        || BackendChoice::ChannelMp(ChannelMpTuning::default()),
        &raw,
        p,
        &batches,
        e2e_reps,
    ));

    let mut rows = Vec::new();
    let mut table = Vec::new();
    for m in &measures {
        println!(
            "{:<32} reference {:>9.4}s  kernel {:>9.4}s  speedup {:.2}x",
            m.key,
            m.reference_s,
            m.kernel_s,
            m.speedup()
        );
        rows.push(format!(
            "{},{n},{:.6},{:.6},{:.4}",
            m.key,
            m.reference_s,
            m.kernel_s,
            m.speedup()
        ));
        table.push(vec![
            m.key.to_string(),
            format!("{:.4}", m.reference_s),
            format!("{:.4}", m.kernel_s),
            format!("{:.2}x", m.speedup()),
        ]);
    }

    let out = format!(
        "Wall-clock hot paths: branchless kernels vs the scalar reference loops\n\
         (n = {n}, p = {p}, random data; times are host wall seconds, best of {reps};\n\
         e2e = probe-heavy batched requests on the index-free engine, query phase only;\n\
         the reference column is the pre-kernel scalar baseline, toggled in-binary)\n\n{}\n\
         The kernels charge bit-identical measured ops and return bit-identical\n\
         answers (asserted during this run) — wall time is the only axis moved.\n",
        markdown_table(&["measurement", "reference s", "kernel s", "speedup"], &table)
    );
    write_csv(&dir.join("engine_wall.csv"), "measurement,n,reference_s,kernel_s,speedup", &rows);
    write_text(&dir.join("engine_wall.txt"), &out);
    print!("{out}");

    write_json(&json_path, n, quick, &measures);
    println!("wallclock -> {}/engine_wall.{{csv,txt}} + BENCH_wall.json", dir.display());

    if check_mode() {
        let mut ok = true;
        let find = |key: &str| measures.iter().find(|m| m.key == key).expect("measured");
        // Absolute, machine-portable floors.
        for (key, floor) in [
            ("micro.count_below.u64", 1.5),
            ("micro.partition_by_bounds.u64", 1.5),
            ("e2e.local_spmd.batched", 1.1),
        ] {
            let s = find(key).speedup();
            if s < floor {
                eprintln!("WALL REGRESSION: {key} speedup {s:.2}x below floor {floor:.1}x");
                ok = false;
            }
        }
        // Relative guard vs the committed baseline: a kernel may not lose
        // more than 25% of its committed speedup (noise tolerance). Only
        // same-size runs are comparable — speedups shift with the working
        // set, so a `--quick` run is never judged against a full baseline.
        let same_n = baseline.iter().any(|(k, v)| k == "n" && *v == n as f64);
        if !same_n && !baseline.is_empty() {
            println!("perf smoke: no committed baseline at n = {n}; floors only");
        }
        for (key, committed) in baseline.iter().filter(|_| same_n) {
            let Some(key) = key.strip_suffix(".speedup") else { continue };
            let Some(m) = measures.iter().find(|m| m.key == key) else { continue };
            if m.speedup() < 0.75 * committed {
                eprintln!(
                    "WALL REGRESSION: {key} speedup {:.2}x fell below 75% of committed {committed:.2}x",
                    m.speedup()
                );
                ok = false;
            }
        }
        if !ok {
            std::process::exit(1);
        }
        println!(
            "perf smoke: kernel speedup floors held (count_below >= 1.5x, partition >= 1.5x, \
             e2e >= 1.1x) and no speedup fell below 75% of the committed baseline"
        );
    }
}
