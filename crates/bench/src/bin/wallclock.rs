//! Wall-clock hot-path benchmark: the branchless kernels vs the scalar
//! reference loops they replaced, measured as **host wall time** — the one
//! axis the kernels are allowed to move.
//!
//! Microbenches, each timing a kernel against its scalar `*_reference`
//! twin over the same data (the pre-kernel baseline; the reference
//! functions are plain functions that only tests and this bin call):
//! `count_below_kernel` vs `count_below_reference` over `u64`/`u32`/`i64`,
//! `partition_by_bounds` vs `partition_by_bounds_reference` (64
//! splitters), and `retain_absent` vs `retain_absent_reference` (a delete's
//! compaction against 170 wanted values), per-element hot loops timed in
//! isolation at n = 2^20 (2^18 under `--quick`). End-to-end wall time
//! belongs to the benchmark in `perf/`; that each kernel returns the same
//! answer, permutation and measured ops as its reference is pinned by the
//! seqsel differential tests.
//!
//! Outputs `results/engine_wall.{csv,txt}` plus machine-readable
//! `BENCH_wall.json` at the workspace root. Pass `--check` to gate:
//! absolute speedup floors (1.5x for count_below u64, partition and
//! retain_absent) and, when a committed `BENCH_wall.json` exists from a
//! previous run, no speedup ratio may fall below 75% of its committed
//! value — the noise-tolerant CI wall-time regression guard. Ratios (not
//! absolute times) are gated so the guard is portable across machines.

use std::time::Instant;

use cgselect_bench::chart::{markdown_table, write_csv, write_text};
use cgselect_bench::{quick_mode, results_dir};
use cgselect_seqsel::{
    count_below_kernel, count_below_reference, partition_by_bounds, partition_by_bounds_reference,
    retain_absent, retain_absent_reference, OpCount, SepBound,
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
    let time = |kernel: bool| {
        best_of(reps, || {
            let mut scratch = raw.to_vec();
            let mut ops = OpCount::new();
            let wall0 = Instant::now();
            let offsets = if kernel {
                partition_by_bounds(&mut scratch, &bounds, &mut ops)
            } else {
                partition_by_bounds_reference(&mut scratch, &bounds, &mut ops)
            };
            let wall = wall0.elapsed().as_secs_f64();
            std::hint::black_box((offsets, ops));
            wall
        })
    };
    Measure { key: "micro.partition_by_bounds.u64", reference_s: time(false), kernel_s: time(true) }
}

/// Values a delete wants gone per compacted run: about what each bucket
/// run of a shard gets from the 32,768-key delete of `perf`'s
/// `ingest_churn` workload.
const RETAIN_WANTED: usize = 170;

/// `retain_absent` microbench: one delete compaction of `n` elements
/// against [`RETAIN_WANTED`] values drawn from them (so some elements go),
/// the scalar one-binary-search-per-element reference vs the lockstep
/// kernel. The clone feeding each run is excluded from the timed region.
fn micro_retain(reps: usize, raw: &[u64]) -> Measure {
    let mut wanted: Vec<u64> = raw.iter().step_by(raw.len() / RETAIN_WANTED).copied().collect();
    wanted.sort_unstable();
    wanted.dedup();
    let time = |kernel: bool| {
        best_of(reps, || {
            let mut scratch = raw.to_vec();
            let mut ops = OpCount::new();
            let mut gone = 0u64;
            let run = 0..scratch.len();
            let wall0 = Instant::now();
            let kept = if kernel {
                retain_absent(&mut scratch, 0, run, &wanted, |_| gone += 1, &mut ops)
            } else {
                retain_absent_reference(&mut scratch, 0, run, &wanted, |_| gone += 1, &mut ops)
            };
            let wall = wall0.elapsed().as_secs_f64();
            std::hint::black_box((kept, gone, ops));
            wall
        })
    };
    Measure { key: "micro.retain_absent.u64", reference_s: time(false), kernel_s: time(true) }
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
    let measures = [
        micro_count::<u64>("micro.count_below.u64", reps, iters, &raw),
        micro_count::<u32>("micro.count_below.u32", reps, iters, &raw),
        micro_count::<i64>("micro.count_below.i64", reps, iters, &raw),
        micro_partition(reps, &raw),
        micro_retain(reps, &raw),
    ];

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
         (n = {n}, random data; times are host wall seconds, best of {reps};\n\
         the reference column times the scalar *_reference functions, the\n\
         pre-kernel baseline that production code never calls)\n\n{}\n\
         The kernels charge bit-identical measured ops and return bit-identical\n\
         answers (the seqsel differential tests) — wall time is the only axis moved.\n",
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
            ("micro.retain_absent.u64", 1.5),
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
            "perf smoke: kernel speedup floors held (count_below, partition and retain_absent \
             >= 1.5x) and no speedup fell below 75% of the committed baseline"
        );
    }
}
