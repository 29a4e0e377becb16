//! The persistent engine's amortization experiments. They are numbered 2
//! to 7 because the docs and CI comments cite them by those numbers.
//!
//! **Experiment 2 — the resident bucket index**
//! (`results/engine_indexed.{csv,txt}`): the indexed engine vs the paper's
//! multi-select on bare data (`cgselect_core::parallel_multi_select`, one
//! call per batch over the same parts, nothing carried between batches) on
//! two workloads — fresh distinct-rank batches (localization pays) and a
//! repeated-quantile stream (the histogram fast path pays) — reporting
//! collective ops/query, virtual makespan and histogram hit counts. The
//! indexed engine pays 3.1× fewer collective ops per query on the distinct
//! ranks and 43× fewer on the repeated quantiles at `--quick` size
//! (n = 2^17, p = 8); 1.6× and 32× at full size (n = 2^20). Host wall time
//! is not reported here: it belongs to the benchmark in `perf/`, and every
//! column below is deterministic.
//!
//! **Experiment 3 — mixed-kind workloads**
//! (`results/engine_api_v2.{csv,txt}`): batches mixing forward ranks with
//! the inverse direction (rank-of-value CDF probes + range counts) on
//! the indexed engine, per-query vs batched and cold vs histogram-warm,
//! on both backends — the whole probe batch rides one vectorized Combine
//! round, and probes the refined splitters bound are served from the
//! cached histogram with zero collectives.
//!
//! **Experiment 4 — observability** (`results/engine_slo.txt`): the same
//! request stream on twin engines, one observing and one not, on both
//! backends. The obs-off twin is the overhead guard — observation must
//! not change a single answer, collective-round count or virtual
//! makespan — and the obs-on twin's `SloAccumulator` emits the SLO line
//! (host-served fraction, max rank error, rounds/query) that
//! `SloPolicy` gates in CI.
//!
//! **Experiment 5 — the ε-sketch serving rung**
//! (`results/engine_sketch.{csv,txt}`): a mixed million-request stream
//! (full mode) that is overwhelmingly `WithinRank`-tolerant, over data
//! whose values equal their ranks so every answer's true error is
//! directly observable. Measures the fraction of the tolerant stream
//! served from the host-global deterministic sketch, pins the sketch
//! rung's attributed collective cost to zero, and checks every sketch
//! answer's *measured* error against the *guarantee* it reported.
//!
//! **Experiment 6 — standing queries vs dashboard re-submission**
//! (`results/engine_standing.{csv,txt}`): a standing p50/p99/p999
//! dashboard over a million-event skewed ingest stream with ordinary
//! query traffic riding alongside. The standing subscriptions piggyback
//! on each tick's user batch (EveryBatch policy); the twin engine serves
//! the identical stream but re-submits the same three quantiles as its
//! own poll batch every tick. Measures the fraction of standing refreshes
//! served at zero collectives from the rebased histogram, the attributed
//! collective ops per refresh on both sides, and that every standing
//! update is bit-equal to the poller's from-scratch answer at the same
//! prefix.
//!
//! **Experiment 7 — what a delete costs** (`results/engine_churn.txt`): a
//! sliding window over uniformly fresh keys — each slide ingests a
//! fortieth of the resident data and deletes the slide that entered eight
//! slides earlier — with a `WithinRank(0.01)` read after every delete.
//! Counts, not times: how many deletes tipped a shard into re-sketching
//! its resident data (the rest only note the removed elements on the
//! signed sketch's removed side), and how many of those reads were served
//! from the sketch at zero collectives.
//!
//! Pass `--quick` for a reduced grid. Pass `--check` to exit non-zero
//! unless the indexed engine uses no more collective ops/query than the
//! bare multi-select on both workloads *and* at least 2× fewer on the
//! repeated-quantile workload, the mixed-kind workload batches at least 2×
//! fewer ops/query than per-query execution with ChannelMp round-parity,
//! the histogram-warm inverse stream costs zero collectives, the
//! observability twin-run and SLO thresholds above hold, the sketch
//! rung serves >= 90% of the tolerant stream at zero collectives with
//! measured error within every reported guarantee, and the standing
//! dashboard serves >= 80% of refreshes at zero collectives while
//! beating re-submission >= 3x on collective ops per refresh, and a
//! 24-slide churn re-sketches each shard at most every fourth delete —
//! equally often on LocalSpmd and ChannelMp — with every read after a
//! delete sketch-served at zero collectives, and a fresh 16-rank exact
//! batch on a warm index (n = 2^20, p = 2) costs at most 24 collective ops
//! and 0.44 s of virtual time on LocalSpmd and the identical count and time
//! on ChannelMp and SocketMp — the CI perf-smoke regression guard.

use cgselect_bench::chart::{markdown_table, write_csv, write_text};
use cgselect_bench::{quick_mode, results_dir};
use cgselect_core::{parallel_multi_select, SelectionConfig};
use cgselect_engine::{
    quantile_rank, BackendChoice, Bounds, ChannelMpTuning, Engine, EngineConfig, IndexHealth,
    QueryKind, RefreshPolicy, Request, Served, SloAccumulator, SloPolicy, SocketMpTuning,
};
use cgselect_runtime::{Machine, MachineModel};
use cgselect_workloads::{generate, Distribution};

/// Gate on the virtual makespan of the fresh 16-rank exact batch of
/// experiment 2, in seconds under `MachineModel::cm5()` (deterministic). The
/// commit whose refinement partitioned and scanned every window again read
/// 0.58623 s; re-cutting the select pass's carve reads 0.41295 s, of which
/// the refinement is 0.010 s and the select pass 0.403 s. The gate is 0.75 x
/// the former: one more pass over the 131 k window elements a shard holds
/// (0.065 s at 0.5 us per op) trips it.
const FRESH_EXACT_MAKESPAN_GATE: f64 = 0.44;

fn check_mode() -> bool {
    std::env::args().any(|a| a == "--check")
}

/// One mode × workload measurement of experiments 2 and 3.
struct Run {
    workload: &'static str,
    mode: &'static str,
    batches: usize,
    queries: usize,
    collective_ops: u64,
    makespan: f64,
    histogram_served: u64,
    health: IndexHealth,
}

impl Run {
    fn ops_per_query(&self) -> f64 {
        self.collective_ops as f64 / self.queries as f64
    }
}

/// Runs one request stream on a fresh engine built from `cfg`, warmed by
/// `warmup` first (outside the measurement); the "per-query" mode executes
/// every request as its own single-element batch.
fn drive(
    workload: &'static str,
    mode: &'static str,
    cfg: EngineConfig,
    data: &[u64],
    warmup: &[Request<u64>],
    batches: &[Vec<Request<u64>>],
) -> Run {
    let per_request = mode == "per-query";
    let mut engine: Engine<u64> = Engine::new(cfg).expect("engine start");
    engine.ingest(data.to_vec()).expect("ingest");
    if !warmup.is_empty() {
        engine.run(warmup).expect("warmup");
    }
    let mut collective_ops = 0u64;
    let mut makespan = 0.0f64;
    let mut queries = 0usize;
    let mut histogram_served = 0u64;
    for batch in batches {
        // Per-request mode runs the same stream as 1-element batches; the
        // measurement body is shared so the two modes can never drift.
        let chunk = if per_request { 1 } else { batch.len() };
        for unit in batch.chunks(chunk) {
            let report = engine.run(unit).expect("run");
            collective_ops += report.collective_ops;
            makespan += report.makespan;
            queries += unit.len();
            histogram_served +=
                report.outcomes.iter().filter(|o| o.served == Served::Histogram).count() as u64;
        }
    }
    Run {
        workload,
        mode,
        batches: batches.len(),
        queries,
        collective_ops,
        makespan,
        histogram_served,
        health: engine.index_health(),
    }
}

/// Experiment 2's baseline: the paper's multi-select on bare data — one
/// `parallel_multi_select` call per batch over the same `generate` parts,
/// with no engine and no index carried between the calls.
fn bare_multi_select(
    workload: &'static str,
    parts: &[Vec<u64>],
    batches: &[Vec<Request<u64>>],
) -> Run {
    let n: u64 = parts.iter().map(|part| part.len() as u64).sum();
    let rank = |r: &Request<u64>| match r.kind {
        QueryKind::Rank(k) => k,
        QueryKind::Quantile(q) => quantile_rank(q, n),
        QueryKind::Median => (n - 1) / 2,
        ref other => unreachable!("experiment 2 asks no {other:?}"),
    };
    let cfg = SelectionConfig::default();
    let outs = Machine::with_model(parts.len(), MachineModel::cm5())
        .run(|proc| {
            for batch in batches {
                let ranks: Vec<u64> = batch.iter().map(rank).collect();
                parallel_multi_select(proc, parts[proc.rank()].clone(), &ranks, &cfg);
            }
            (proc.comm_stats().collective_ops, proc.now())
        })
        .expect("bare multi-select");
    Run {
        workload,
        mode: "baseline",
        batches: batches.len(),
        queries: batches.iter().map(Vec::len).sum(),
        collective_ops: outs[0].0,
        makespan: outs.iter().map(|o| o.1).fold(0.0, f64::max),
        histogram_served: 0,
        health: IndexHealth::default(),
    }
}

/// Experiment 2: resident bucket index vs the paper's bare multi-select.
fn index_experiment(quick: bool, dir: &std::path::Path) -> bool {
    let p = 8;
    let n: usize = if quick { 1 << 17 } else { 1 << 20 };
    let parts = generate(Distribution::Random, n, p, 11);
    let data: Vec<u64> = parts.iter().flatten().copied().collect();
    let total = data.len() as u64;

    // Workload A: fresh distinct ranks every batch (no repeats to cache).
    let distinct_batches: Vec<Vec<Request<u64>>> = (0..8u64)
        .map(|b| (0..32u64).map(|i| Request::rank((i * total / 32 + b * 97 + i) % total)).collect())
        .collect();
    // Workload B: the same quantile set, batch after batch (a dashboard).
    let quantiles: Vec<Request<u64>> = [0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99]
        .into_iter()
        .map(Request::quantile)
        .chain([Request::median()])
        .collect();
    let repeated_batches: Vec<Vec<Request<u64>>> = (0..16).map(|_| quantiles.clone()).collect();

    let local = BackendChoice::LocalSpmd;
    let mp = || BackendChoice::ChannelMp(ChannelMpTuning::default());
    let sock = || BackendChoice::SocketMp(SocketMpTuning::default());
    let cfg = |backend: BackendChoice| EngineConfig::new(p).backend(backend);
    let runs = vec![
        bare_multi_select("distinct-ranks", &parts, &distinct_batches),
        drive("distinct-ranks", "indexed", cfg(local.clone()), &data, &[], &distinct_batches),
        drive("distinct-ranks", "indexed-mp", cfg(mp()), &data, &[], &distinct_batches),
        drive("distinct-ranks", "indexed-sock", cfg(sock()), &data, &[], &distinct_batches),
        bare_multi_select("repeated-quantiles", &parts, &repeated_batches),
        drive("repeated-quantiles", "indexed", cfg(local), &data, &[], &repeated_batches),
        drive("repeated-quantiles", "indexed-mp", cfg(mp()), &data, &[], &repeated_batches),
        drive("repeated-quantiles", "indexed-sock", cfg(sock()), &data, &[], &repeated_batches),
    ];

    let mut rows = Vec::new();
    let mut table = Vec::new();
    for run in &runs {
        rows.push(format!(
            "{},{},{n},{p},{},{},{},{:.4},{:.6},{},{},{}",
            run.workload,
            run.mode,
            run.batches,
            run.queries,
            run.collective_ops,
            run.ops_per_query(),
            run.makespan,
            run.health.histogram_hits,
            run.health.rebuilds,
            run.health.buckets,
        ));
        table.push(vec![
            run.workload.to_string(),
            run.mode.to_string(),
            run.queries.to_string(),
            run.collective_ops.to_string(),
            format!("{:.2}", run.ops_per_query()),
            format!("{:.5}", run.makespan),
            run.health.histogram_hits.to_string(),
        ]);
        println!(
            "{:>18} | {:>8}: {:>6} coll. ops over {} queries ({:.2}/query); \
             virtual {:.5}s; histogram hits {}",
            run.workload,
            run.mode,
            run.collective_ops,
            run.queries,
            run.ops_per_query(),
            run.makespan,
            run.health.histogram_hits
        );
    }

    let find = |w: &str, m: &str| {
        runs.iter().find(|r| r.workload == w && r.mode == m).expect("run recorded")
    };
    let ratio = |w: &str| {
        find(w, "baseline").ops_per_query() / find(w, "indexed").ops_per_query().max(1e-12)
    };
    let out = format!(
        "Resident bucket index vs the paper's multi-select on bare data\n\
         (n = {n}, p = {p}, random resident data; virtual times under the CM-5 model;\n\
         baseline = one parallel_multi_select call per batch over the same parts;\n\
         indexed-mp = the same indexed engine on the message-passing ChannelMp backend;\n\
         indexed-sock = on SocketMp, shard workers as child processes over Unix sockets)\n\n{}\n\
         Localization against the cached per-bucket histogram confines each\n\
         rank to a candidate-bucket window, and answer-refined splitters turn\n\
         repeated quantiles into histogram-only lookups; the baseline carries\n\
         nothing from one batch to the next. Collective-ops ratios:\n\
         distinct-ranks {:.1}x, repeated-quantiles {:.1}x.\n",
        markdown_table(
            &[
                "workload",
                "mode",
                "queries",
                "coll. ops",
                "ops/query",
                "virtual s",
                "histogram hits"
            ],
            &table
        ),
        ratio("distinct-ranks"),
        ratio("repeated-quantiles"),
    );
    write_csv(
        &dir.join("engine_indexed.csv"),
        "workload,mode,n,p,batches,queries,collective_ops,ops_per_query,makespan,\
         histogram_hits,index_rebuilds,buckets",
        &rows,
    );
    write_text(&dir.join("engine_indexed.txt"), &out);
    print!("{out}");

    // The regression guard CI asserts on.
    let mut ok = true;
    for w in ["distinct-ranks", "repeated-quantiles"] {
        if ratio(w) < 1.0 {
            eprintln!("PERF REGRESSION: indexed ops/query exceeds the bare multi-select on {w}");
            ok = false;
        }
        // Backend-neutrality guard: the message-passing backend must pay
        // exactly the collective-round budget of the in-process session on
        // the engine_indexed workload — a drift means a backend diverged
        // from the shared per-shard ops.
        let (spmd, chan) = (find(w, "indexed"), find(w, "indexed-mp"));
        if spmd.collective_ops != chan.collective_ops {
            eprintln!(
                "BACKEND REGRESSION: ChannelMp used {} collective ops on {w}, \
                 LocalSpmd used {}",
                chan.collective_ops, spmd.collective_ops
            );
            ok = false;
        }
        // The same pin for the out-of-process workers: modeled message
        // sizes are computed before wire encoding, so crossing a real
        // socket must cost identical collective rounds.
        let sock = find(w, "indexed-sock");
        if sock.collective_ops != chan.collective_ops {
            eprintln!(
                "BACKEND REGRESSION: SocketMp used {} collective ops on {w}, \
                 ChannelMp used {}",
                sock.collective_ops, chan.collective_ops
            );
            ok = false;
        }
    }
    if ratio("repeated-quantiles") < 2.0 {
        eprintln!(
            "PERF REGRESSION: repeated-quantile ops/query ratio {:.2} < 2.0",
            ratio("repeated-quantiles")
        );
        ok = false;
    }

    // Count gate on the exact pass itself, at the size the wall-clock
    // benchmark runs it (so not reduced by --quick): one fresh 16-rank
    // batch on a warm index, n = 2^20, p = 2. Sampled brackets take each
    // window under the finish threshold in about three rounds of four
    // collective ops; shared-pivot rounds alone took 88. Counts repeat
    // exactly, so this holds on a shared runner where wall time would not.
    let exact_n = 1u64 << 20;
    let exact_data: Vec<u64> =
        generate(Distribution::Random, exact_n as usize, 2, 11).into_iter().flatten().collect();
    let fresh = |shift: u64| -> Vec<Request<u64>> {
        (0..16u64).map(|i| Request::rank(i * exact_n / 16 + shift)).collect()
    };
    let exact_run = |mode: &'static str, backend: BackendChoice| {
        let cfg = EngineConfig::new(2).backend(backend);
        drive("fresh-exact", mode, cfg, &exact_data, &fresh(101), &[fresh(30_011)])
    };
    let spmd = exact_run("indexed", BackendChoice::LocalSpmd);
    println!(
        "fresh 16-rank exact batch, n = 2^20, p = 2: {} collective ops, virtual {:.5}s",
        spmd.collective_ops, spmd.makespan
    );
    if spmd.collective_ops > 24 {
        eprintln!(
            "PERF REGRESSION: a fresh 16-rank exact batch cost {} collective ops (> 24)",
            spmd.collective_ops
        );
        ok = false;
    }
    // The same batch's virtual makespan: what the shards charged for the
    // select pass and the refinement that re-cuts its carve.
    if spmd.makespan > FRESH_EXACT_MAKESPAN_GATE {
        eprintln!(
            "PERF REGRESSION: a fresh 16-rank exact batch took {:.5}s of virtual time (> {})",
            spmd.makespan, FRESH_EXACT_MAKESPAN_GATE
        );
        ok = false;
    }
    for (mode, backend) in [("indexed-mp", mp()), ("indexed-sock", sock())] {
        let run = exact_run(mode, backend);
        if (run.collective_ops, run.makespan) != (spmd.collective_ops, spmd.makespan) {
            eprintln!(
                "BACKEND REGRESSION: {mode} took {} collective ops and {:.5}s of virtual time \
                 on the fresh exact batch, LocalSpmd {} and {:.5}s",
                run.collective_ops, run.makespan, spmd.collective_ops, spmd.makespan
            );
            ok = false;
        }
    }
    ok
}

/// Experiment 3: the mixed-kind workload (forward ranks + rank-of +
/// range counts).
fn mixed_kinds_experiment(quick: bool, dir: &std::path::Path) -> bool {
    let p = 8;
    let n: usize = if quick { 1 << 16 } else { 1 << 19 };
    let data: Vec<u64> = generate(Distribution::Random, n, p, 13).into_iter().flatten().collect();
    let total = data.len() as u64;
    let max = *data.iter().max().expect("nonempty");

    // Mixed-kind batches: fresh ranks, CDF probes and range counts each
    // batch (nothing for the histogram to have cached).
    let rounds = if quick { 4u64 } else { 8 };
    let mixed: Vec<Vec<Request<u64>>> = (0..rounds)
        .map(|b| {
            (0..8u64)
                .flat_map(|i| {
                    let rank = (i * total / 8 + b * 131 + i) % total;
                    // Probe values drawn from the data itself (perturbed so
                    // they sit strictly inside buckets, not on refined
                    // boundaries): the histogram brackets but cannot bound
                    // them, so they exercise the collective probe round.
                    let v = data[((b * 7919 + i * 104_729) as usize) % data.len()] ^ 1;
                    let w = v.saturating_add(max >> 4);
                    vec![
                        Request::rank(rank),
                        Request::rank_of(v),
                        Request::count_between(Bounds::closed(v, w)),
                    ]
                })
                .collect()
        })
        .collect();

    // Warm inverse stream: probes at values the warmup already resolved —
    // the refined splitters bound every one of them.
    let warm_quantiles: Vec<Request<u64>> =
        [0.1, 0.25, 0.5, 0.75, 0.9].into_iter().map(Request::quantile).collect();
    let warm_probe_batch = |engine_answers: &[u64]| -> Vec<Request<u64>> {
        engine_answers
            .iter()
            .flat_map(|&v| vec![Request::rank_of(v), Request::count_between(Bounds::closed(v, v))])
            .collect()
    };
    // Resolve the warm answer values once, host-side.
    let warm_values: Vec<u64> = {
        let mut engine: Engine<u64> = Engine::new(EngineConfig::new(p)).expect("engine start");
        engine.ingest(data.clone()).expect("ingest");
        let report = engine.run(&warm_quantiles).expect("warmup answers");
        report.outcomes.iter().filter_map(|o| o.response.element()).collect()
    };
    let warm_batches: Vec<Vec<Request<u64>>> =
        (0..if quick { 8 } else { 16 }).map(|_| warm_probe_batch(&warm_values)).collect();

    let local = BackendChoice::LocalSpmd;
    let mp = || BackendChoice::ChannelMp(ChannelMpTuning::default());
    let cfg = |backend: BackendChoice| EngineConfig::new(p).backend(backend);
    let runs = vec![
        drive("mixed-kinds", "per-query", cfg(local.clone()), &data, &[], &mixed),
        drive("mixed-kinds", "batched", cfg(local.clone()), &data, &[], &mixed),
        drive("mixed-kinds", "batched-mp", cfg(mp()), &data, &[], &mixed),
        drive("inverse-warm", "batched", cfg(local), &data, &warm_quantiles, &warm_batches),
        drive("inverse-warm", "batched-mp", cfg(mp()), &data, &warm_quantiles, &warm_batches),
    ];

    let mut rows = Vec::new();
    let mut table = Vec::new();
    for run in &runs {
        rows.push(format!(
            "{},{},{n},{p},{},{},{:.4},{:.6},{}",
            run.workload,
            run.mode,
            run.queries,
            run.collective_ops,
            run.ops_per_query(),
            run.makespan,
            run.histogram_served,
        ));
        table.push(vec![
            run.workload.to_string(),
            run.mode.to_string(),
            run.queries.to_string(),
            run.collective_ops.to_string(),
            format!("{:.2}", run.ops_per_query()),
            format!("{:.5}", run.makespan),
            run.histogram_served.to_string(),
        ]);
        println!(
            "{:>12} | {:>10}: {:>6} coll. ops over {} queries ({:.2}/query); \
             virtual {:.5}s; histogram-served {}",
            run.workload,
            run.mode,
            run.collective_ops,
            run.queries,
            run.ops_per_query(),
            run.makespan,
            run.histogram_served
        );
    }

    let find = |w: &str, m: &str| {
        runs.iter().find(|r| r.workload == w && r.mode == m).expect("run recorded")
    };
    let batching_ratio = find("mixed-kinds", "per-query").ops_per_query()
        / find("mixed-kinds", "batched").ops_per_query().max(1e-12);
    let out = format!(
        "Mixed-kind workloads (ranks + rank-of + range counts)\n\
         (n = {n}, p = {p}, random resident data, indexed engine; virtual times under\n\
         the CM-5 model; batched-mp = the same workload on the ChannelMp backend)\n\n{}\n\
         A batch's value probes share ONE vectorized count-below Combine round and\n\
         its ranks share one multi-select pass, so batching the mixed workload pays\n\
         {batching_ratio:.1}x fewer collective ops per query than per-query execution.\n\
         The warm inverse stream probes values the refined splitters bound, so every\n\
         answer is served from the cached histogram: zero collectives, zero scans.\n",
        markdown_table(
            &[
                "workload",
                "mode",
                "queries",
                "coll. ops",
                "ops/query",
                "virtual s",
                "histogram served"
            ],
            &table
        ),
    );
    write_csv(
        &dir.join("engine_api_v2.csv"),
        "workload,mode,n,p,queries,collective_ops,ops_per_query,makespan,histogram_served",
        &rows,
    );
    write_text(&dir.join("engine_api_v2.txt"), &out);
    print!("{out}");

    // The regression guard CI asserts on.
    let mut ok = true;
    if batching_ratio < 2.0 {
        eprintln!("PERF REGRESSION: mixed-kind batching ratio {batching_ratio:.2} < 2.0");
        ok = false;
    }
    let (spmd, chan) = (find("mixed-kinds", "batched"), find("mixed-kinds", "batched-mp"));
    if spmd.collective_ops != chan.collective_ops {
        eprintln!(
            "BACKEND REGRESSION: ChannelMp used {} collective ops on the mixed-kind workload, \
             LocalSpmd used {}",
            chan.collective_ops, spmd.collective_ops
        );
        ok = false;
    }
    for mode in ["batched", "batched-mp"] {
        let warm = find("inverse-warm", mode);
        if warm.collective_ops != 0 {
            eprintln!(
                "PERF REGRESSION: histogram-warm inverse stream ({mode}) started {} \
                 collectives, expected 0",
                warm.collective_ops
            );
            ok = false;
        }
        if warm.histogram_served != warm.queries as u64 {
            eprintln!(
                "PERF REGRESSION: only {}/{} warm inverse queries were histogram-served",
                warm.histogram_served, warm.queries
            );
            ok = false;
        }
    }
    ok
}

/// Experiment 4: the observability twin-run and SLO gate.
fn obs_experiment(quick: bool, dir: &std::path::Path) -> bool {
    let p = 8;
    let n: usize = if quick { 1 << 16 } else { 1 << 19 };
    let data: Vec<u64> = generate(Distribution::Random, n, p, 17).into_iter().flatten().collect();
    let total = data.len() as u64;

    // The measured stream: mixed forward/inverse batches that exercise the
    // backend, then a repeated-quantile tail the refined splitters serve
    // host-side — the SLO's host-served fraction comes from there.
    let quantiles: Vec<Request<u64>> =
        [0.05, 0.25, 0.5, 0.75, 0.95].into_iter().map(Request::quantile).collect();
    let mut batches: Vec<Vec<Request<u64>>> = (0..if quick { 4u64 } else { 8 })
        .map(|i| {
            (0..6u64)
                .flat_map(|j| {
                    let rank = (j * total / 6 + i * 211 + j) % total;
                    let v = data[((i * 6361 + j * 9973) as usize) % data.len()];
                    vec![
                        Request::rank(rank),
                        Request::rank_of(v ^ 1),
                        Request::count_between(Bounds::closed(v, v.saturating_add(1 << 20))),
                    ]
                })
                .collect()
        })
        .collect();
    batches.extend((0..if quick { 8 } else { 16 }).map(|_| quantiles.clone()));

    let mut ok = true;
    let mut lines = Vec::new();
    for backend in [BackendChoice::LocalSpmd, BackendChoice::ChannelMp(ChannelMpTuning::default())]
    {
        let mut plain: Engine<u64> =
            Engine::new(EngineConfig::new(p).backend(backend.clone())).expect("engine start");
        let mut observed: Engine<u64> =
            Engine::new(EngineConfig::new(p).backend(backend).observe(true)).expect("engine start");
        let kind = observed.backend_kind();
        plain.ingest(data.clone()).expect("ingest");
        observed.ingest(data.clone()).expect("ingest");

        let mut slo = SloAccumulator::new();
        for batch in &batches {
            let a = plain.run(batch).expect("run");
            let b = observed.run(batch).expect("run");
            slo.observe(&b);
            // The zero-cost guard: observation may not perturb execution —
            // not one answer, round or virtual second.
            let same_answers = a
                .outcomes
                .iter()
                .zip(&b.outcomes)
                .all(|(x, y)| x.response == y.response && x.served == y.served);
            if !same_answers || a.collective_ops != b.collective_ops || a.makespan != b.makespan {
                eprintln!("OBS REGRESSION: observability perturbed execution on {kind}");
                ok = false;
            }
            if b.span.is_none() {
                eprintln!("OBS REGRESSION: observing run on {kind} carried no span");
                ok = false;
            }
        }

        let report = slo.report();
        let line = format!("{kind} {}", report.render_line());
        println!("{line}");
        lines.push(line);

        // The CI contract: thresholds the steady-state engine must hold.
        let policy = SloPolicy {
            min_host_served_fraction: 0.25,
            min_sketch_served_fraction: 0.0, // this stream has no tolerant queries
            max_rank_error: 0,
            max_rounds_per_query: 16.0,
        };
        for v in policy.evaluate(&report) {
            eprintln!("SLO REGRESSION ({kind}): {v}");
            ok = false;
        }

        // The registry must have self-served a latency percentile per batch.
        let snap = observed.metrics().expect("observing engine").snapshot();
        if !snap.latencies.iter().any(|l| l.name == "batch_wall" && l.count == batches.len() as u64)
        {
            eprintln!("OBS REGRESSION: batch_wall latency track incomplete on {kind}");
            ok = false;
        }
    }

    write_text(
        &dir.join("engine_slo.txt"),
        &format!(
            "SLO report: twin-run (observed vs unobserved) engine, n = {n}, p = {p}\n\
             policy: host_served >= 0.25, sketch_served >= 0 (no tolerant queries in this\n\
             stream), max_rank_error = 0, rounds_per_query <= 16\n\n{}\n",
            lines.join("\n")
        ),
    );
    ok
}

/// Experiment 5: the deterministic ε-sketch serving rung under a
/// tolerant-dominated mixed stream.
fn sketch_experiment(quick: bool, dir: &std::path::Path) -> bool {
    let p = 8;
    let n: usize = if quick { 1 << 17 } else { 1 << 20 };
    let tol = 0.01;
    // Distinct values equal to their ranks: the true rank of any answered
    // element — and the true count below any probe — is the value itself,
    // so the measured error of every sketch answer is directly observable.
    let data: Vec<u64> = (0..n as u64).rev().collect();
    let total = n as u64;
    let batch_count: usize = if quick { 200 } else { 10_000 };
    let per_batch = 100u64;
    let budget = (tol * total as f64).ceil() as u64;

    let mut rows = Vec::new();
    let mut lines = Vec::new();
    let mut ok = true;
    for backend in [BackendChoice::LocalSpmd, BackendChoice::ChannelMp(ChannelMpTuning::default())]
    {
        // Capacity 4096 keeps the count guarantee comfortably inside the
        // two-probe range-count budget at n = 2^20.
        let mut engine: Engine<u64> =
            Engine::new(EngineConfig::new(p).backend(backend).sketch_capacity(4096))
                .expect("engine start");
        engine.ingest(data.clone()).expect("ingest");
        let kind = engine.backend_kind();

        let mut slo = SloAccumulator::new();
        let mut tolerant = 0u64;
        let mut sketch_served = 0u64;
        let mut sketch_cost = 0.0f64;
        let mut max_guarantee = 0u64;
        let mut max_measured = 0u64;
        let mut violations = 0u64;
        for b in 0..batch_count as u64 {
            let mut requests: Vec<Request<u64>> = Vec::with_capacity(per_batch as usize);
            // The exact oracle for each tolerant request (None = exact
            // minority request, not part of the sketch measurement).
            let mut truths: Vec<Option<u64>> = Vec::with_capacity(per_batch as usize);
            for i in 0..per_batch {
                let x = (b.wrapping_mul(104_729) + i.wrapping_mul(7919)) % total;
                if b % 10 == 0 && i < 10 {
                    // The exact minority (~1% of the stream): keeps the
                    // stream mixed and the backend path exercised.
                    requests.push(Request::rank(x));
                    truths.push(None);
                    continue;
                }
                tolerant += 1;
                match i % 3 {
                    0 => {
                        let q = (x % 1000) as f64 / 999.0;
                        requests.push(Request::<u64>::quantile(q).within_rank(tol));
                        truths.push(Some(cgselect_engine::quantile_rank(q, total)));
                    }
                    1 => {
                        requests.push(Request::rank_of(x).within_rank(tol));
                        truths.push(Some(x));
                    }
                    _ => {
                        let lo = x.min(total - 1);
                        let hi = (lo + total / 50).min(total - 1);
                        requests
                            .push(Request::count_between(Bounds::closed(lo, hi)).within_rank(tol));
                        truths.push(Some(hi - lo + 1));
                    }
                }
            }
            let report = engine.run(&requests).expect("run");
            slo.observe(&report);
            for (outcome, truth) in report.outcomes.iter().zip(&truths) {
                let Some(truth) = *truth else { continue };
                if outcome.served != Served::Sketch {
                    continue;
                }
                sketch_served += 1;
                sketch_cost += outcome.cost.collective_ops;
                let guarantee = outcome.response.max_error();
                let answer = outcome
                    .response
                    .element()
                    .or_else(|| outcome.response.count())
                    .expect("sketch answers carry a value or a count");
                let measured = answer.abs_diff(truth);
                max_guarantee = max_guarantee.max(guarantee);
                max_measured = max_measured.max(measured);
                if measured > guarantee || guarantee > budget {
                    violations += 1;
                }
            }
        }
        let report = slo.report();
        let frac = sketch_served as f64 / tolerant.max(1) as f64;

        let line = format!(
            "{kind} {} | tolerant {tolerant}, sketch-served {sketch_served} ({:.4}), \
             max measured error {max_measured} <= max guarantee {max_guarantee} \
             (budget {budget})",
            report.render_line(),
            frac
        );
        println!("{line}");
        lines.push(line);
        rows.push(format!(
            "{kind},{n},{p},{},{tolerant},{sketch_served},{:.6},{max_guarantee},{max_measured},\
             {violations},{},{:.6}",
            report.queries, frac, report.max_rank_error, report.rounds_per_query,
        ));

        // The regression guard CI asserts on.
        if frac < 0.9 {
            eprintln!(
                "SKETCH REGRESSION ({kind}): only {:.4} of the tolerant stream rode the \
                 sketch rung (floor 0.9)",
                frac
            );
            ok = false;
        }
        if violations > 0 {
            eprintln!(
                "SKETCH REGRESSION ({kind}): {violations} answers exceeded their reported \
                 guarantee (or a guarantee exceeded the {budget} budget)"
            );
            ok = false;
        }
        if sketch_cost != 0.0 {
            eprintln!(
                "SKETCH REGRESSION ({kind}): sketch-served answers were attributed \
                 {sketch_cost} collective ops, expected 0"
            );
            ok = false;
        }
        let policy = SloPolicy {
            min_host_served_fraction: 0.9,
            min_sketch_served_fraction: 0.85,
            max_rank_error: budget,
            max_rounds_per_query: 4.0,
        };
        for v in policy.evaluate(&report) {
            eprintln!("SKETCH SLO REGRESSION ({kind}): {v}");
            ok = false;
        }
    }

    write_csv(
        &dir.join("engine_sketch.csv"),
        "backend,n,p,queries,tolerant,sketch_served,sketch_fraction,max_guarantee,\
         max_measured_error,violations,slo_max_rank_error,rounds_per_query",
        &rows,
    );
    write_text(
        &dir.join("engine_sketch.txt"),
        &format!(
            "Deterministic ε-sketch serving rung: tolerant-dominated mixed stream\n\
             (n = {n}, p = {p}, values equal ranks so measured error is exact;\n\
             tolerance {tol} -> rank budget {budget}; sketch capacity 4096;\n\
             policy: host_served >= 0.9, sketch_served >= 0.85, max_rank_error <= budget,\n\
             rounds_per_query <= 4; gate: sketch serves >= 90% of the tolerant stream at\n\
             zero attributed collectives, every measured error within its guarantee)\n\n{}\n",
            lines.join("\n")
        ),
    );
    ok
}

/// One backend's measurement of experiment 6.
struct StandingRun {
    backend: String,
    refreshes: u64,
    zero_collective: u64,
    standing_cost: f64,
    poll_cost: f64,
    polls: u64,
    mismatches: u64,
}

impl StandingRun {
    fn zero_fraction(&self) -> f64 {
        self.zero_collective as f64 / self.refreshes.max(1) as f64
    }
    fn ops_per_refresh(&self) -> f64 {
        self.standing_cost / self.refreshes.max(1) as f64
    }
    fn ops_per_poll(&self) -> f64 {
        self.poll_cost / self.polls.max(1) as f64
    }
    fn advantage(&self) -> f64 {
        self.ops_per_poll() / self.ops_per_refresh().max(1e-12)
    }
}

/// Experiment 6: standing p50/p99/p999 vs per-tick re-submission over a
/// skewed million-event ingest stream with user traffic riding alongside.
fn standing_experiment(quick: bool, dir: &std::path::Path) -> bool {
    let p = 8;
    let seed_n = 10_000usize;
    let chunk = 500usize;
    // 2000 ticks x 500 events + the seed = a ~10^6-event stream.
    let ticks: usize = if quick { 200 } else { 2_000 };
    // A skewed small domain: equality-class buckets absorb rank drift, so
    // most refreshes re-serve from the rebased histogram.
    let dist = Distribution::FewDistinct(4096);
    let buckets = 256usize;
    let quantiles = [0.5, 0.99, 0.999];

    let mut runs: Vec<StandingRun> = Vec::new();
    let mut ok = true;
    for backend in [BackendChoice::LocalSpmd, BackendChoice::ChannelMp(ChannelMpTuning::default())]
    {
        let cfg = || EngineConfig::new(p).index_buckets(buckets).backend(backend.clone());
        let mut standing: Engine<u64> = Engine::new(cfg()).expect("engine start");
        let mut poller: Engine<u64> = Engine::new(cfg()).expect("engine start");
        let kind = standing.backend_kind().to_string();

        let seed: Vec<u64> = generate(dist, seed_n, p, 3).into_iter().flatten().collect();
        standing.ingest(seed.clone()).expect("ingest");
        poller.ingest(seed).expect("ingest");

        let reqs: Vec<Request<u64>> = quantiles.into_iter().map(Request::quantile).collect();
        let handles: Vec<_> =
            reqs.iter().map(|r| standing.subscribe(r.clone(), RefreshPolicy::EveryBatch)).collect();

        let mut standing_cost = 0.0f64;
        let mut poll_cost = 0.0f64;
        let mut mismatches = 0u64;
        let mut total = seed_n as u64;
        for t in 0..ticks as u64 {
            let burst: Vec<u64> = generate(dist, chunk, p, 100 + t).into_iter().flatten().collect();
            standing.ingest(burst.clone()).expect("ingest");
            poller.ingest(burst).expect("ingest");
            total += chunk as u64;
            // The ordinary traffic both engines serve: fresh distinct ranks
            // each tick. On the standing engine the due refreshes ride this
            // batch and share its collective passes.
            let user: Vec<Request<u64>> =
                (0..16u64).map(|i| Request::rank((i * total / 16 + t * 97 + i) % total)).collect();
            standing.run(&user).expect("user batch");
            poller.run(&user).expect("user batch");
            // The poller re-submits the dashboard set as its own batch
            // (generous to the twin: one coalesced poll, not 3 calls).
            let poll = poller.run(&reqs).expect("poll");
            poll_cost += poll.collective_ops as f64;
            for (handle, polled) in handles.iter().zip(&poll.outcomes) {
                let mut updates = handle.drain();
                assert_eq!(updates.len(), 1, "every tick's ingest makes each sub due once");
                let update = updates.pop().expect("one update");
                standing_cost += update.outcome.cost.collective_ops;
                // The freshness contract: the pushed update is bit-equal to
                // a from-scratch evaluation at the same prefix.
                if update.outcome.response != polled.response {
                    mismatches += 1;
                }
            }
        }
        runs.push(StandingRun {
            backend: kind,
            refreshes: standing.standing_refreshes(),
            zero_collective: standing.standing_zero_collective(),
            standing_cost,
            poll_cost,
            polls: (ticks * reqs.len()) as u64,
            mismatches,
        });
    }

    let mut rows = Vec::new();
    let mut table = Vec::new();
    for run in &runs {
        rows.push(format!(
            "{},{},{p},{ticks},{},{},{},{:.4},{:.6},{:.6},{:.2},{}",
            run.backend,
            seed_n + ticks * chunk,
            quantiles.len(),
            run.refreshes,
            run.zero_collective,
            run.zero_fraction(),
            run.ops_per_refresh(),
            run.ops_per_poll(),
            run.advantage(),
            run.mismatches,
        ));
        table.push(vec![
            run.backend.to_string(),
            run.refreshes.to_string(),
            format!("{:.4}", run.zero_fraction()),
            format!("{:.4}", run.ops_per_refresh()),
            format!("{:.4}", run.ops_per_poll()),
            format!("{:.1}x", run.advantage()),
            run.mismatches.to_string(),
        ]);
        println!(
            "{:>10}: {} refreshes, {:.4} zero-collective; {:.4} ops/refresh standing vs \
             {:.4} re-submitted ({:.1}x); {} mismatches",
            run.backend,
            run.refreshes,
            run.zero_fraction(),
            run.ops_per_refresh(),
            run.ops_per_poll(),
            run.advantage(),
            run.mismatches
        );

        // The regression guard CI asserts on.
        if run.zero_fraction() < 0.8 {
            eprintln!(
                "STANDING REGRESSION ({}): only {:.4} of refreshes were zero-collective \
                 (floor 0.8)",
                run.backend,
                run.zero_fraction()
            );
            ok = false;
        }
        if run.advantage() < 3.0 {
            eprintln!(
                "STANDING REGRESSION ({}): standing beat re-submission only {:.2}x on \
                 collective ops/refresh (floor 3.0)",
                run.backend,
                run.advantage()
            );
            ok = false;
        }
        if run.mismatches > 0 {
            eprintln!(
                "STANDING REGRESSION ({}): {} updates diverged from the from-scratch \
                 answer at the same prefix",
                run.backend, run.mismatches
            );
            ok = false;
        }
    }
    // Backend-neutrality: the standing refresh economy must be identical
    // on the message-passing backend — same refresh count, same number
    // served collective-free.
    let (spmd, chan) = (&runs[0], &runs[1]);
    if spmd.refreshes != chan.refreshes || spmd.zero_collective != chan.zero_collective {
        eprintln!(
            "BACKEND REGRESSION: standing counters diverged — LocalSpmd {}/{} \
             zero-collective, ChannelMp {}/{}",
            spmd.zero_collective, spmd.refreshes, chan.zero_collective, chan.refreshes
        );
        ok = false;
    }

    let out = format!(
        "Standing queries vs dashboard re-submission\n\
         (p50/p99/p999 standing under EveryBatch over a {}-event few-distinct(4096)\n\
         stream, p = {p}, {buckets} index buckets; each tick ingests {chunk} events and\n\
         serves 16 fresh user ranks that the standing refreshes ride; the twin engine\n\
         serves the identical stream but re-submits the same three quantiles as its own\n\
         poll batch each tick; ops are per-outcome attributed collective ops)\n\n{}\n\
         A due standing quantile is appended to the tick's ordinary batch, so it\n\
         shares that batch's collective passes and usually re-serves from the\n\
         delta-rebased histogram at zero collectives; the re-submitting dashboard\n\
         pays its own localization round-trips for the same answers every tick.\n",
        seed_n + ticks * chunk,
        markdown_table(
            &[
                "backend",
                "refreshes",
                "zero-collective frac",
                "ops/refresh (standing)",
                "ops/refresh (re-submit)",
                "advantage",
                "mismatches"
            ],
            &table
        ),
    );
    write_csv(
        &dir.join("engine_standing.csv"),
        "backend,events,p,ticks,subscriptions,refreshes,zero_collective,zero_fraction,\
         ops_per_refresh_standing,ops_per_refresh_resubmit,advantage,mismatches",
        &rows,
    );
    write_text(&dir.join("engine_standing.txt"), &out);
    print!("{out}");
    ok
}

/// Experiment 7: exact counts over a sliding-window churn (see the module
/// docs). Nothing here is timed, so the gate holds on a shared runner.
fn churn_experiment(quick: bool, dir: &std::path::Path) -> bool {
    let p = 2usize;
    let base: u64 = if quick { 1 << 16 } else { 1 << 20 };
    let slide = base / 32;
    let (window, slides) = (8u64, 24u64);
    let tol = 0.01;
    // An odd multiplier permutes u64: every key of the stream is distinct.
    let keys = |from: u64, count: u64| -> Vec<u64> {
        (from..from + count).map(|i| (i + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)).collect()
    };
    let slide_keys = |j: u64| keys(base + j * slide, slide);

    let mut ok = true;
    let mut lines = Vec::new();
    let mut rebuild_counts = Vec::new();
    for backend in [BackendChoice::LocalSpmd, BackendChoice::ChannelMp(ChannelMpTuning::default())]
    {
        let mut engine: Engine<u64> =
            Engine::new(EngineConfig::new(p).backend(backend).observe(true)).expect("engine start");
        let kind = engine.backend_kind();
        engine.ingest(keys(0, base)).expect("ingest");
        let mut sketch_reads = 0u64;
        for j in 0..window + slides {
            for part in slide_keys(j).chunks((slide / 8) as usize) {
                engine.ingest(part.to_vec()).expect("ingest");
            }
            if j < window {
                continue;
            }
            engine.delete(&slide_keys(j - window)).expect("delete");
            let read = [Request::median(), Request::<u64>::quantile(0.99).within_rank(tol)];
            let report = engine.run(&read).expect("run");
            let tolerant = &report.outcomes[1];
            sketch_reads +=
                u64::from(tolerant.served == Served::Sketch && tolerant.cost.collective_ops == 0.0);
        }
        let counters = engine.metrics().expect("observing engine").snapshot().counters;
        let counter = |name: &str| counters.iter().find(|(n, _)| *n == name).map_or(0, |&(_, v)| v);
        let (deletes, rebuilds) = (counter("deletes_total"), counter("sketch_rebuilds_total"));
        let line = format!(
            "{kind} churn: {deletes} deletes of {slide} keys over {} resident on {p} shards, \
             {rebuilds} shard re-sketches ({:.2} per shard, ceiling {}), \
             {sketch_reads}/{slides} reads after a delete sketch-served at zero collectives",
            engine.len(),
            rebuilds as f64 / p as f64,
            slides / 4,
        );
        println!("{line}");
        lines.push(line);
        if deletes != slides || rebuilds > p as u64 * (slides / 4) {
            eprintln!(
                "CHURN REGRESSION ({kind}): {rebuilds} shard re-sketches over {deletes} deletes \
                 on {p} shards (ceiling: one per shard every fourth of {slides} deletes)"
            );
            ok = false;
        }
        if sketch_reads != slides {
            eprintln!(
                "CHURN REGRESSION ({kind}): only {sketch_reads} of {slides} tolerant reads after \
                 a delete were served from the sketch at zero collectives"
            );
            ok = false;
        }
        rebuild_counts.push(rebuilds);
    }
    if rebuild_counts.windows(2).any(|w| w[0] != w[1]) {
        eprintln!("CHURN REGRESSION: backends disagree on shard re-sketches: {rebuild_counts:?}");
        ok = false;
    }
    write_text(
        &dir.join("engine_churn.txt"),
        &format!(
            "What a delete costs: sliding-window churn, exact counts\n\
             (base {base} keys, {window}-slide window of {slide}-key slides, p = {p}, default\n\
             sketch capacity; gate: <= {} re-sketches per shard over {slides} deletes, equal on\n\
             both backends, every WithinRank({tol}) read after a delete sketch-served at zero\n\
             collectives)\n\n{}\n",
            slides / 4,
            lines.join("\n")
        ),
    );
    ok
}

fn main() {
    let quick = quick_mode();
    let dir = results_dir();
    let index_ok = index_experiment(quick, &dir);
    let mixed_ok = mixed_kinds_experiment(quick, &dir);
    let obs_ok = obs_experiment(quick, &dir);
    let sketch_ok = sketch_experiment(quick, &dir);
    let standing_ok = standing_experiment(quick, &dir);
    let churn_ok = churn_experiment(quick, &dir);
    println!(
        "engine -> {}/engine_indexed.{{csv,txt}} + engine_api_v2.{{csv,txt}} \
         + engine_slo.txt + engine_sketch.{{csv,txt}} + engine_standing.{{csv,txt}} \
         + engine_churn.txt",
        dir.display()
    );
    if check_mode() && !(index_ok && mixed_ok && obs_ok && sketch_ok && standing_ok && churn_ok) {
        std::process::exit(1);
    }
    if check_mode() {
        println!(
            "perf smoke: indexed engine within bounds vs the bare multi-select (distinct <=, \
             repeated >= 2x fewer ops/query), \
             mixed-kind batching >= 2x with zero-collective warm inverse serving, \
             ChannelMp and SocketMp collective-round counts equal LocalSpmd's, \
             a fresh 16-rank exact batch <= 24 collective ops and <= 0.44 s of virtual time on \
             all three backends, \
             observability zero-cost (identical answers, rounds and makespan), SLO \
             thresholds held, the sketch rung served >= 90% of the tolerant stream \
             at zero collectives within every reported guarantee, and the standing \
             dashboard served >= 80% of refreshes zero-collective while beating \
             re-submission >= 3x on collective ops/refresh, and the churn re-sketched each \
             shard at most every fourth delete with every read after a delete sketch-served"
        );
    }
}
