//! Wall-clock hot-path contract: the branchless kernels and the
//! Floyd–Rivest finisher may change **only wall time** — never answers,
//! modeled ops, collective rounds, or makespan determinism.
//!
//! This test runs in its own binary (process) because it flips the
//! process-global scalar-reference switch, which must not interleave with
//! twin-run makespan assertions elsewhere; every twin run sits inside a
//! `with_scalar_reference_mode` scope, whose lock serializes them for the
//! same reason.

use cgselect::seqsel::with_scalar_reference_mode;
use cgselect::{Bounds, Engine, EngineConfig, MachineModel, Request, Response, RunReport};

fn dataset(n: u64) -> Vec<u64> {
    (0..n).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) % (4 * n)).collect()
}

fn mixed_requests(n: u64) -> Vec<Request<u64>> {
    vec![
        Request::rank(n / 7),
        Request::median(),
        Request::quantile(0.99),
        Request::rank_of(n / 2),
        Request::rank_of(3),
        Request::count_between(Bounds::closed(n / 4, n / 2)),
    ]
}

fn summarize(report: &RunReport<u64>) -> (Vec<Response<u64>>, u64, f64) {
    (
        report.outcomes.iter().map(|o| o.response.clone()).collect(),
        report.collective_ops,
        report.makespan,
    )
}

/// One engine lifecycle (ingest → mixed batches → more ingest → batch).
fn lifecycle(index_buckets: usize) -> Vec<(Vec<Response<u64>>, u64, f64)> {
    let n: u64 = 1 << 18;
    let cfg = EngineConfig::new(2).model(MachineModel::cm5()).index_buckets(index_buckets);
    let mut engine: Engine<u64> = Engine::new(cfg).unwrap();
    engine.ingest(dataset(n)).unwrap();
    let mut out = Vec::new();
    out.push(summarize(&engine.run(&mixed_requests(n)).unwrap()));
    engine.ingest((0..n / 64).map(|i| 7 * i + 1).collect()).unwrap();
    out.push(summarize(&engine.run(&mixed_requests(n + n / 64)).unwrap()));
    out
}

#[test]
fn kernel_and_reference_paths_agree_end_to_end() {
    // The in-binary pre-PR baseline (scalar reference loops + sort
    // finisher) must produce the same answers and the same collective
    // rounds as the kernels — the wall-clock work is the only difference.
    // (Charged local ops legitimately differ on the finisher: Floyd–Rivest
    // measures fewer comparisons than sorting, and both are charged as
    // measured, so makespans are compared per-mode, not across modes.)
    let kernel = with_scalar_reference_mode(false, || lifecycle(64));
    let reference = with_scalar_reference_mode(true, || lifecycle(64));
    for (k, r) in kernel.iter().zip(&reference) {
        assert_eq!(k.0, r.0, "answers must not depend on the kernel path");
        assert_eq!(k.1, r.1, "collective rounds must not depend on the kernel path");
    }
}
