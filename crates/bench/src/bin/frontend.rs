//! Latency vs throughput across micro-batch window sizes on the engine's
//! async frontend.
//!
//! Concurrent producer threads submit single rank queries at a fixed pace;
//! the batcher coalesces whatever lands inside the window into one
//! multi-select pass. Widening the window raises batch occupancy (fewer
//! collective rounds per query, higher throughput) at the price of queue
//! wait time (worse single-query latency) — this binary sweeps that
//! trade-off and writes `results/frontend.{csv,txt}`.
//!
//! Pass `--quick` for a reduced grid.

use std::time::{Duration, Instant};

use cgselect_bench::chart::{markdown_table, write_csv, write_text};
use cgselect_bench::{quick_mode, results_dir};
use cgselect_engine::{Engine, EngineConfig, FrontendConfig, Request};
use cgselect_workloads::{generate, Distribution};

fn main() {
    let quick = quick_mode();
    let dir = results_dir();
    let p = 8;
    let n: usize = if quick { 1 << 16 } else { 1 << 19 };
    let clients: u64 = if quick { 4 } else { 8 };
    let per_client: u64 = if quick { 32 } else { 64 };
    let pace = Duration::from_micros(500);
    let windows_ms: &[u64] = if quick { &[0, 4] } else { &[0, 1, 4, 16] };

    println!(
        "async frontend sweep: n = {n}, p = {p}, {clients} clients x {per_client} queries, \
         {}us pace",
        pace.as_micros()
    );

    let mut rows = Vec::new();
    let mut table = Vec::new();
    for &window_ms in windows_ms {
        let data: Vec<u64> =
            generate(Distribution::Random, n, p, 7).into_iter().flatten().collect();
        let mut engine: Engine<u64> = Engine::new(EngineConfig::new(p)).expect("engine start");
        engine.ingest(data).expect("ingest");
        let total = engine.len();
        let queue = engine.into_frontend(
            FrontendConfig::new()
                .window(Duration::from_millis(window_ms))
                .max_batch(4096)
                .queue_capacity(8192),
        );

        let wall0 = Instant::now();
        std::thread::scope(|s| {
            for c in 0..clients {
                let queue = queue.clone();
                s.spawn(move || {
                    let tickets: Vec<_> = (0..per_client)
                        .map(|i| {
                            let k = ((c * per_client + i) * 7919) % total;
                            let t = queue
                                .submit_request(Request::rank(k))
                                .expect("queue sized for sweep");
                            std::thread::sleep(pace);
                            t
                        })
                        .collect();
                    for t in tickets {
                        t.wait().expect("query failed");
                    }
                });
            }
        });
        let wall = wall0.elapsed().as_secs_f64();
        let stats = queue.stats();
        assert_eq!(stats.queries_executed, clients * per_client);

        let throughput = stats.queries_executed as f64 / wall;
        rows.push(format!(
            "{n},{p},{clients},{per_client},{window_ms},{},{:.2},{:.4},{},{:.6},{:.6},{:.1},{:.6}",
            stats.batches,
            stats.mean_occupancy(),
            stats.rounds_per_query(),
            stats.collective_ops,
            stats.mean_wait().as_secs_f64(),
            stats.max_wait.as_secs_f64(),
            throughput,
            wall
        ));
        table.push(vec![
            format!("{window_ms} ms"),
            stats.batches.to_string(),
            format!("{:.1}", stats.mean_occupancy()),
            format!("{:.2}", stats.rounds_per_query()),
            format!("{:.2} ms", stats.mean_wait().as_secs_f64() * 1e3),
            format!("{:.2} ms", stats.max_wait.as_secs_f64() * 1e3),
            format!("{throughput:.0}"),
        ]);
        println!(
            "window {window_ms:>3} ms: {:>4} batches (occupancy {:>6.1}), \
             {:>6.2} rounds/query, wait mean {:>7.2} ms / max {:>7.2} ms, {:>7.0} q/s",
            stats.batches,
            stats.mean_occupancy(),
            stats.rounds_per_query(),
            stats.mean_wait().as_secs_f64() * 1e3,
            stats.max_wait.as_secs_f64() * 1e3,
            throughput
        );
    }

    let out = format!(
        "Micro-batch window sweep on the async frontend\n\
         (n = {n}, p = {p}, {clients} paced clients x {per_client} single-query submissions)\n\n{}\n\
         Tuning note: the window is the latency a query pays to buy\n\
         coalescing. Size it near the collective pass time — wider only\n\
         adds wait once every concurrent client already shares the batch.\n",
        markdown_table(
            &[
                "window",
                "batches",
                "occupancy",
                "rounds/query",
                "mean wait",
                "max wait",
                "queries/s"
            ],
            &table
        )
    );
    write_csv(
        &dir.join("frontend.csv"),
        "n,p,clients,per_client,window_ms,batches,mean_occupancy,rounds_per_query,\
         collective_ops,mean_wait_s,max_wait_s,queries_per_s,wall_s",
        &rows,
    );
    write_text(&dir.join("frontend.txt"), &out);
    print!("{out}");
    println!("frontend -> {}/frontend.{{csv,txt}}", dir.display());
}
