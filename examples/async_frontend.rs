//! The engine behind its async frontend: concurrent clients submit single
//! queries into a bounded `SubmissionQueue` and await `Ticket`s, while the
//! batcher thread coalesces everything arriving within the micro-batch
//! window into one collective pass — so R concurrent clients pay
//! `O(log n + R)` collective rounds between them, not `O(R·log n)`.
//!
//! Every answer is asserted against a sorted-vector oracle, so this example
//! doubles as an end-to-end check:
//!
//! ```text
//! cargo run --release --example async_frontend
//! ```

use std::time::Duration;

use cgselect::{Engine, EngineConfig, FrontendConfig, Request, Response, SubmitError};

fn main() {
    let p = 8;
    let n = 200_000u64;

    // ---- A populated engine, handed off to the frontend -----------------
    let mut engine: Engine<u64> = Engine::new(EngineConfig::new(p)).unwrap();
    // `+ 1` keeps 0 out of the base data, so the zeros ingested below are
    // provably the only zeros resident.
    let data: Vec<u64> =
        (0..n).map(|i| (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 20) + 1).collect();
    let mut oracle = data.clone();
    oracle.sort_unstable();
    engine.ingest(data).unwrap();
    let queue = engine.into_frontend(
        FrontendConfig::new().window(Duration::from_millis(2)).max_batch(512).queue_capacity(4096),
    );
    println!("engine handed to the batcher thread: {n} keys over {p} shards, 2 ms window");

    // ---- Concurrent clients --------------------------------------------
    let clients = 6;
    let per_client = 50u64;
    std::thread::scope(|s| {
        for c in 0..clients {
            let queue = queue.clone();
            let oracle = &oracle;
            s.spawn(move || {
                // Fire all queries, then await: each client only ever
                // submits single queries — the *frontend* does the
                // batching across clients.
                let tickets: Vec<_> = (0..per_client)
                    .map(|i| {
                        let k = (c * per_client + i) * (n / (clients * per_client));
                        (
                            k,
                            queue
                                .submit_request(Request::rank(k))
                                .expect("capacity sized for the demo"),
                        )
                    })
                    .collect();
                for (k, t) in tickets {
                    let answer = t.wait().expect("query failed");
                    assert_eq!(answer.response, Response::Element(oracle[k as usize]), "rank {k}");
                }
            });
        }
    });
    let stats = queue.stats();
    println!(
        "{} queries from {clients} clients ran in {} batches \
         (mean occupancy {:.1}, max {}): {:.1} collective rounds/query, \
         mean wait {:?}, max wait {:?}",
        stats.queries_executed,
        stats.batches,
        stats.mean_occupancy(),
        stats.max_occupancy,
        stats.rounds_per_query(),
        stats.mean_wait(),
        stats.max_wait,
    );
    assert_eq!(stats.queries_executed, clients * per_client);
    assert!(
        stats.batches < clients * per_client,
        "micro-batching must coalesce concurrent clients"
    );

    // ---- Mutations flow through the same queue, FIFO --------------------
    let before = queue.submit_request(Request::rank(0)).unwrap();
    let ingest = queue.submit_ingest(vec![0, 0, 0]).unwrap(); // three new minima
    let after = queue.submit_request(Request::top_k(4)).unwrap();
    assert_eq!(before.wait().unwrap().response, Response::Element(oracle[0]));
    assert_eq!(ingest.wait().unwrap().elements, 3);
    assert_eq!(after.wait().unwrap().response, Response::Elements(vec![0, 0, 0, oracle[0]]));
    let removed = queue.submit_delete(vec![0]).unwrap().wait().unwrap().elements;
    assert_eq!(removed, 3, "exactly the ingested zeros are removed");
    println!("FIFO mutations: ingested 3 zeros, deleted {removed} again");

    // ---- Admission control ----------------------------------------------
    let tiny = queue.shutdown().expect("hand the engine back");
    let queue = tiny.into_frontend(FrontendConfig::new().queue_capacity(4).start_paused(true));
    let staged: Vec<_> = (0..4).map(|i| queue.submit_request(Request::rank(i)).unwrap()).collect();
    match queue.submit_request(Request::median()) {
        Err(SubmitError::Saturated { capacity }) => {
            println!("5th submission rejected: queue saturated at capacity {capacity}")
        }
        other => panic!("expected saturation, got {other:?}"),
    }
    queue.resume();
    for (i, t) in staged.into_iter().enumerate() {
        assert_eq!(t.wait().unwrap().response, Response::Element(oracle[i]));
    }
    println!("queue drained and recovered; rejected = {}", queue.stats().rejected);

    let engine = queue.shutdown().expect("engine survives both frontends");
    println!(
        "done: engine back on the main thread with {} resident keys, {} batches total",
        engine.len(),
        engine.batches()
    );
}
