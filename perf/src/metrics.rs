//! The metric names the benchmark reports. `BENCHMARK.json` at the repository
//! root lists exactly these (`perf --list-metrics` prints them); a run panics
//! rather than silently dropping or inventing one.

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

const LO: &str = "lower";
const HI: &str = "higher";

/// End-to-end metrics, measured with tracing off and gated by a bound.
pub const E2E: [MetricDef; 5] = [
    m("setup_s", "s", LO),
    m("op_p50_us", "us", LO),
    m("op_p90_us", "us", LO),
    m("throughput_ops_s", "1/s", HI),
    m("peak_rss_mib", "MiB", LO),
];

/// Counts that are functions of the seed alone: two runs with one seed must
/// report them identically, and `repeat.py` fails if they do not.
pub const EXACT: &[&str] = &[
    "engine.collectives_per_op",
    "engine.msgs_per_op",
    "engine.comm_bytes_per_op",
    "runtime.msgs_per_combine",
    "core.ops_per_elem.median_of_medians",
    "core.ops_per_elem.bucket_based",
    "core.ops_per_elem.randomized",
    "core.ops_per_elem.fast_randomized",
    "core.comm_bytes.median_of_medians",
    "core.comm_bytes.bucket_based",
    "core.comm_bytes.randomized",
    "core.comm_bytes.fast_randomized",
    "seqsel.cmps_per_elem.quickselect",
    "seqsel.cmps_per_elem.floyd_rivest",
    "seqsel.cmps_per_elem.mom_select",
];

/// Per-layer metrics of the traced run, ungated. Layer = repository module.
pub const LAYERS: &[MetricDef] = &[
    // frontend: spans around submit*/wait on the traced slice.
    m("frontend.submit_us", "us", LO),
    m("frontend.wait_us", "us", LO),
    m("frontend.handoff_us", "us", LO),
    m("frontend.queue_wait_us", "us", LO),
    m("frontend.batch_occupancy", "count", HI),
    m("frontend.split_groups", "count", LO),
    m("frontend.rejected", "count", LO),
    m("frontend.op_p99_us", "us", LO),
    m("frontend.op_max_us", "us", LO),
    // engine: direct calls on the twin.
    m("engine.run_us", "us", LO),
    m("engine.ingest_us", "us", LO),
    m("engine.delete_us", "us", LO),
    m("engine.bulk_ingest_ms", "ms", LO),
    m("engine.cold_first_batch_ms", "ms", LO),
    m("engine.collectives_per_op", "count", LO),
    m("engine.msgs_per_op", "count", LO),
    m("engine.comm_bytes_per_op", "bytes", LO),
    m("engine.makespan_virtual_us_per_op", "us", LO),
    m("engine.zero_collective_ratio", "ratio", HI),
    m("engine.served_histogram_ratio", "ratio", HI),
    m("engine.served_sketch_ratio", "ratio", HI),
    m("engine.served_index_ratio", "ratio", LO),
    m("engine.served_scan_ratio", "ratio", LO),
    // index + query: crate-private, measured by batch shape.
    m("index.route_us_per_request", "us", LO),
    m("index.buckets", "count", LO),
    m("index.histogram_hits", "count", HI),
    m("index.rebuilds", "count", LO),
    m("index.delta_merges", "count", LO),
    m("index.delta_occupancy_mean", "ratio", LO),
    m("index.merge_op_extra_us", "us", LO),
    // sketch: EpsSketch's public API on 2^20 keys.
    m("sketch.offer_ns_per_elem", "ns", LO),
    m("sketch.rebuild_ms", "ms", LO),
    m("sketch.merge_us", "us", LO),
    m("sketch.query_rank_ns", "ns", LO),
    m("sketch.rank_of_ns", "ns", LO),
    m("sketch.codec_us", "us", LO),
    m("sketch.rank_error_bound", "count", LO),
    m("sketch.served_us_per_request", "us", LO),
    // standing
    m("standing.refresh_us", "us", LO),
    m("standing.zero_collective_ratio", "ratio", HI),
    m("standing.updates_per_op", "count", LO),
    // backend: one direct exact stream on three engines.
    m("backend.local.run_us", "us", LO),
    m("backend.channel_mp.run_us", "us", LO),
    m("backend.socket_mp.run_us", "us", LO),
    m("backend.channel_over_local_us", "us", LO),
    m("backend.socket_over_channel_us", "us", LO),
    m("backend.socket_spawn_ms", "ms", LO),
    m("backend.local.ingest_mib_s", "MiB/s", HI),
    m("backend.channel_mp.ingest_mib_s", "MiB/s", HI),
    m("backend.socket_mp.ingest_mib_s", "MiB/s", HI),
    m("backend.socket_worker_rss_mib", "MiB", LO),
    m("backend.socket_worker_cpu_share", "ratio", LO),
    // runtime
    m("runtime.machine_spawn_us", "us", LO),
    m("runtime.session_dispatch_us", "us", LO),
    m("runtime.barrier_us", "us", LO),
    m("runtime.combine_us", "us", LO),
    m("runtime.broadcast_us", "us", LO),
    m("runtime.alltoallv_mib_s", "MiB/s", HI),
    m("runtime.gatherv_mib_s", "MiB/s", HI),
    m("runtime.wiremsg_codec_ns_per_elem", "ns", LO),
    m("runtime.msgs_per_combine", "count", LO),
    m("runtime.sync_share", "ratio", LO),
    // core
    m("core.select_us.median_of_medians.random", "us", LO),
    m("core.select_us.median_of_medians.sorted", "us", LO),
    m("core.select_us.bucket_based.random", "us", LO),
    m("core.select_us.bucket_based.sorted", "us", LO),
    m("core.select_us.randomized.random", "us", LO),
    m("core.select_us.randomized.sorted", "us", LO),
    m("core.select_us.fast_randomized.random", "us", LO),
    m("core.select_us.fast_randomized.sorted", "us", LO),
    m("core.iterations.median_of_medians", "count", LO),
    m("core.iterations.bucket_based", "count", LO),
    m("core.iterations.randomized", "count", LO),
    m("core.iterations.fast_randomized", "count", LO),
    m("core.unsuccessful_iterations.fast_randomized", "count", LO),
    m("core.ops_per_elem.median_of_medians", "count", LO),
    m("core.ops_per_elem.bucket_based", "count", LO),
    m("core.ops_per_elem.randomized", "count", LO),
    m("core.ops_per_elem.fast_randomized", "count", LO),
    m("core.comm_bytes.median_of_medians", "bytes", LO),
    m("core.comm_bytes.bucket_based", "bytes", LO),
    m("core.comm_bytes.randomized", "bytes", LO),
    m("core.comm_bytes.fast_randomized", "bytes", LO),
    m("core.virtual_makespan_ms.median_of_medians", "ms", LO),
    m("core.virtual_makespan_ms.bucket_based", "ms", LO),
    m("core.virtual_makespan_ms.randomized", "ms", LO),
    m("core.virtual_makespan_ms.fast_randomized", "ms", LO),
    m("core.det_over_rand_ratio", "ratio", HI),
    m("core.multi_select_us", "us", LO),
    m("core.top_k_us", "us", LO),
    // seqsel: kernels on 2^20 keys.
    m("seqsel.count_below_ns_per_elem", "ns", LO),
    m("seqsel.partition_by_bounds_ns_per_elem", "ns", LO),
    m("seqsel.partition3_ns_per_elem", "ns", LO),
    m("seqsel.quickselect_ns_per_elem", "ns", LO),
    m("seqsel.floyd_rivest_ns_per_elem", "ns", LO),
    m("seqsel.introselect_ns_per_elem", "ns", LO),
    m("seqsel.mom_select_ns_per_elem", "ns", LO),
    m("seqsel.cmps_per_elem.quickselect", "count", LO),
    m("seqsel.cmps_per_elem.floyd_rivest", "count", LO),
    m("seqsel.cmps_per_elem.mom_select", "count", LO),
    // balance, sort, workloads
    m("balance.rebalance_ms.global_exchange", "ms", LO),
    m("balance.rebalance_ms.omlb", "ms", LO),
    m("balance.rebalance_ms.dim_exchange", "ms", LO),
    m("balance.moved_elems.global_exchange", "count", LO),
    m("sort.sample_sort_ms", "ms", LO),
    m("sort.bitonic_sort_ms", "ms", LO),
    m("workloads.generate_ms.random", "ms", LO),
    m("workloads.generate_ms.sorted", "ms", LO),
    // obs / process
    m("obs.observe_overhead_ratio", "ratio", LO),
    m("obs.metrics_snapshot_us", "us", LO),
    m("process.cpu_s_per_kop", "s", LO),
    m("process.voluntary_ctx_switches_per_op", "count", LO),
    m("trace.overhead_ratio", "ratio", LO),
];

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn names_are_unique_within_the_contract_limits() {
        let names: HashSet<&str> = E2E.iter().chain(LAYERS).map(|d| d.name).collect();
        assert_eq!(names.len(), E2E.len() + LAYERS.len());
        assert!(LAYERS.len() <= 128);
        for d in E2E.iter().chain(LAYERS) {
            assert!(d.name.len() <= 64 && d.unit.len() <= 16, "{}", d.name);
            assert!(d.better == LO || d.better == HI);
        }
        for exact in EXACT {
            assert!(names.contains(exact), "{exact} is not a declared metric");
        }
    }
}
