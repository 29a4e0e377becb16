//! Observability: trace a mixed request batch through both execution
//! backends, then read the engine's self-served metrics and SLO line.
//!
//! Run with: `cargo run --release --example observability`
//!
//! The engine observes itself with its own machinery: request latencies
//! feed an `EpsSketch` and the p50/p95/p99 below come out of the same
//! deterministic sketch code that answers tolerant quantile queries.

use cgselect::{
    BackendChoice, Bounds, ChannelMpTuning, Distribution, Engine, EngineConfig, MachineModel,
    Request, SloAccumulator, TraceId,
};

fn main() {
    let p = 4;
    let n = 200_000;
    let data: Vec<u64> =
        cgselect::generate(Distribution::Zipf, n, p, 7).into_iter().flatten().collect();

    for backend in [BackendChoice::LocalSpmd, BackendChoice::ChannelMp(ChannelMpTuning::default())]
    {
        // `observe(true)` turns on spans + metrics; off by default, and
        // zero-cost when off.
        let cfg = EngineConfig::new(p).model(MachineModel::cm5()).backend(backend).observe(true);
        let mut engine: Engine<u64> = Engine::new(cfg).expect("engine");
        engine.ingest(data.clone()).expect("ingest");
        engine.run(&[Request::median()]).expect("warm-up builds the index");

        // A mixed batch: forward selections, an inverse rank probe, and a
        // range count. Stamping trace IDs is optional — the engine assigns
        // them when absent — but a caller-supplied ID lets an upstream
        // service correlate the span with its own request log.
        let requests: Vec<Request<u64>> = vec![
            Request::median().traced(TraceId(1001)),
            Request::quantile(0.99).traced(TraceId(1002)),
            Request::rank_of(data[0]).traced(TraceId(1003)),
            Request::count_between(Bounds::closed(100, 10_000)).traced(TraceId(1004)),
            Request::top_k(3).traced(TraceId(1005)),
        ];

        let mut slo = SloAccumulator::new();
        let report = engine.run(&requests).expect("batch");
        slo.observe(&report);

        println!("=== {} ===", engine.backend_kind());
        let span = report.span.as_ref().expect("observing engines attach a span");
        print!("{}", span.render());

        let metrics = engine.metrics().expect("observing engines expose a registry");
        println!("\n--- metrics snapshot ---");
        print!("{}", metrics.snapshot().to_text());

        println!("\n--- SLO line (what the bench bins append to results/) ---");
        println!("{}\n", slo.report().render_line());
    }
}
