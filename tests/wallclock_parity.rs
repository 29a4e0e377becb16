//! Wall-clock hot-path contract: the branchless kernels, the parallel
//! intra-shard scans and the Floyd–Rivest finisher may change **only wall
//! time** — never answers, modeled ops, collective rounds, or makespan
//! determinism.
//!
//! These tests run in their own binary (process) because they flip the
//! process-global scalar-reference switch, which must not interleave with
//! twin-run makespan assertions elsewhere; within the file every twin run
//! sits inside a `with_scalar_reference_mode` scope, whose lock serializes
//! them for the same reason.

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

/// One engine lifecycle (ingest → mixed batches → more ingest → batch) at
/// the given scan fan-out; per-shard slices are big enough to cross the
/// parallel-scan threshold on the unindexed path.
fn lifecycle(scan_threads: usize, index_buckets: usize) -> Vec<(Vec<Response<u64>>, u64, f64)> {
    let n: u64 = 1 << 18;
    let cfg = EngineConfig::new(2)
        .model(MachineModel::cm5())
        .index_buckets(index_buckets)
        .scan_threads(scan_threads);
    let mut engine: Engine<u64> = Engine::new(cfg).unwrap();
    engine.ingest(dataset(n)).unwrap();
    let mut out = Vec::new();
    out.push(summarize(&engine.run(&mixed_requests(n)).unwrap()));
    engine.ingest((0..n / 64).map(|i| 7 * i + 1).collect()).unwrap();
    out.push(summarize(&engine.run(&mixed_requests(n + n / 64)).unwrap()));
    out
}

#[test]
fn scan_threads_change_no_answer_no_ops_no_makespan() {
    // Indexed and index-free engines, sequential vs fanned-out scans: the
    // deterministic chunk-order reduction must make every report —
    // responses, collective ops, virtual makespan — bit-identical. Both
    // twins run under one kernel-mode scope: charged ops differ by mode.
    for index_buckets in [0usize, 64] {
        let (base, fanned) = with_scalar_reference_mode(false, || {
            (lifecycle(1, index_buckets), lifecycle(4, index_buckets))
        });
        assert_eq!(base.len(), fanned.len());
        for (b, f) in base.iter().zip(&fanned) {
            assert_eq!(b.0, f.0, "answers must not depend on scan_threads");
            assert_eq!(b.1, f.1, "collective ops must not depend on scan_threads");
            assert!(
                (b.2 - f.2).abs() < 1e-12,
                "makespan must not depend on scan_threads ({} vs {})",
                b.2,
                f.2
            );
        }
    }
}

#[test]
fn scan_threads_are_reported_for_cost_attribution() {
    let cfg = EngineConfig::new(2).model(MachineModel::free()).scan_threads(3);
    let mut engine: Engine<u64> = Engine::new(cfg).unwrap();
    engine.ingest((0..10_000u64).collect()).unwrap();
    let report = engine.run(&[Request::median()]).unwrap();
    assert_eq!(report.scan_threads, 3);
}

#[test]
fn kernel_and_reference_paths_agree_end_to_end() {
    // The in-binary pre-PR baseline (scalar reference loops + sort
    // finisher) must produce the same answers and the same collective
    // rounds as the kernels — the wall-clock work is the only difference.
    // (Charged local ops legitimately differ on the finisher: Floyd–Rivest
    // measures fewer comparisons than sorting, and both are charged as
    // measured, so makespans are compared per-mode, not across modes.)
    let kernel = with_scalar_reference_mode(false, || lifecycle(1, 64));
    let reference = with_scalar_reference_mode(true, || lifecycle(1, 64));
    for (k, r) in kernel.iter().zip(&reference) {
        assert_eq!(k.0, r.0, "answers must not depend on the kernel path");
        assert_eq!(k.1, r.1, "collective rounds must not depend on the kernel path");
    }
}
