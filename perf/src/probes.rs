//! Layer probes: small fixed measurements of each crate's public functions,
//! independent of the workload being traced. Every probe times calls from the
//! outside; nothing inside the repository is instrumented.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use cgselect_balance::{rebalance, Balancer};
use cgselect_core::{
    multi_select_on_machine, select_on_machine, top_k_on_machine, Algorithm, SelectionConfig,
};
use cgselect_engine::{EpsSketch, Request};
use cgselect_runtime::wiremsg::{decode_frame, encode_frame};
use cgselect_runtime::{Machine, MachineModel, Session};
use cgselect_seqsel::{
    count_below_kernel, floyd_rivest_select, introselect, median_of_medians_select, partition3,
    partition_by_bounds, quickselect, KernelRng, OpCount, SepBound,
};
use cgselect_sort::{bitonic_sort, sample_sort};
use cgselect_workloads::{generate, generate_with_layout, Distribution, Layout};

use crate::engine_run::{engine_config, Backend, EngineSpec, SetupTimes, Twin, P};
use crate::oracle::Verdict;
use crate::procfs;
use crate::spans::Recorder;
use crate::stats::{mean, median, timed};
use crate::stream::{Op, Step, StreamKind, TOLERANCE};
use crate::trace::Metrics;

/// Keys of the single-crate probes.
const N: usize = 1 << 20;
/// Keys of the whole-machine selections (the `oneshot_select` size).
const N_SELECT: usize = crate::oneshot::N;
const MIB: f64 = 1024.0 * 1024.0;

/// Median seconds of `reps` calls of `f`, which returns the seconds it
/// measured itself (so per-rep input copies stay outside the timing).
fn median_secs(reps: usize, mut f: impl FnMut() -> f64) -> f64 {
    median(&(0..reps).map(|_| f()).collect::<Vec<_>>())
}

pub fn run_all(seed: u64, m: &mut Metrics, verdict: &mut Verdict) {
    seqsel(seed, m);
    core(seed, m);
    balance_sort_workloads(seed, m);
    sketch(seed, m);
    runtime(m);
    backends(seed, m, verdict);
}

fn seqsel(seed: u64, m: &mut Metrics) {
    let data = generate(Distribution::Random, N, 1, seed).remove(0);
    let k = N / 2;
    let pivot = data[0];
    let per_elem = |secs: f64| secs * 1e9 / N as f64;

    let secs = median_secs(5, || {
        let mut cmps = 0u64;
        timed(|| black_box(count_below_kernel(black_box(&data), pivot, false, &mut cmps))).1
    });
    m.push("seqsel.count_below_ns_per_elem", per_elem(secs));

    // The in-place kernels run on a fresh copy per repetition; comparison
    // counts repeat exactly because the data, the rank and the kernel RNG
    // seed are fixed.
    let mut kernel =
        |time_name: &str, cmps_name: Option<&str>, run: &dyn Fn(&mut [u64], &mut OpCount)| {
            let mut cmps = 0u64;
            let secs = median_secs(5, || {
                let mut copy = data.clone();
                let mut ops = OpCount::new();
                let secs = timed(|| run(black_box(&mut copy), &mut ops)).1;
                cmps = ops.cmps;
                secs
            });
            m.push(time_name, per_elem(secs));
            if let Some(name) = cmps_name {
                m.push(name, cmps as f64 / N as f64);
            }
        };

    let mut sample: Vec<u64> = data.iter().step_by(N / 4096).copied().collect();
    sample.sort_unstable();
    let bounds: Vec<SepBound<u64>> =
        (1..64).map(|i| SepBound::le(sample[i * sample.len() / 64])).collect();
    kernel("seqsel.partition_by_bounds_ns_per_elem", None, &|d, ops| {
        black_box(partition_by_bounds(d, &bounds, ops));
    });
    let (lo, hi) = (sample[sample.len() / 3], sample[2 * sample.len() / 3]);
    kernel("seqsel.partition3_ns_per_elem", None, &|d, ops| {
        black_box(partition3(d, lo, hi, ops));
    });
    kernel(
        "seqsel.quickselect_ns_per_elem",
        Some("seqsel.cmps_per_elem.quickselect"),
        &|d, ops| {
            black_box(quickselect(d, k, &mut KernelRng::new(seed), ops));
        },
    );
    kernel(
        "seqsel.floyd_rivest_ns_per_elem",
        Some("seqsel.cmps_per_elem.floyd_rivest"),
        &|d, ops| {
            black_box(floyd_rivest_select(d, k, ops));
        },
    );
    kernel("seqsel.introselect_ns_per_elem", None, &|d, ops| {
        black_box(introselect(d, k, ops));
    });
    kernel("seqsel.mom_select_ns_per_elem", Some("seqsel.cmps_per_elem.mom_select"), &|d, ops| {
        black_box(median_of_medians_select(d, k, ops));
    });
}

const ALGORITHMS: [(Algorithm, &str); 4] = [
    (Algorithm::MedianOfMedians, "median_of_medians"),
    (Algorithm::BucketBased, "bucket_based"),
    (Algorithm::Randomized, "randomized"),
    (Algorithm::FastRandomized, "fast_randomized"),
];

fn core(seed: u64, m: &mut Metrics) {
    let inputs = [
        ("random", generate(Distribution::Random, N_SELECT, P, seed)),
        ("sorted", generate(Distribution::Sorted, N_SELECT, P, seed)),
    ];
    let k = KernelRng::derive(seed, 0xC0DE).below(N_SELECT as u64);
    let cfg = SelectionConfig::with_seed(seed).balancer(Balancer::GlobalExchange);
    let model = MachineModel::cm5();
    let mut random_us = [0.0f64; 4];

    for (slot, (algorithm, algo)) in ALGORITHMS.into_iter().enumerate() {
        for (dist, parts) in &inputs {
            let mut first = None;
            let secs = median_secs(3, || {
                let (sel, secs) = timed(|| select_on_machine(P, model, parts, k, algorithm, &cfg));
                first.get_or_insert(sel.expect("selection probe"));
                secs
            });
            m.push(format!("core.select_us.{algo}.{dist}"), secs * 1e6);
            if *dist == "random" {
                random_us[slot] = secs * 1e6;
                let sel = first.expect("three reps ran");
                let bytes: u64 = sel.per_proc.iter().map(|o| o.comm.bytes_sent).sum();
                m.push(format!("core.iterations.{algo}"), sel.iterations() as f64);
                m.push(
                    format!("core.ops_per_elem.{algo}"),
                    sel.total_ops() as f64 / N_SELECT as f64,
                );
                m.push(format!("core.comm_bytes.{algo}"), bytes as f64);
                m.push(format!("core.virtual_makespan_ms.{algo}"), sel.makespan() * 1e3);
                if algorithm == Algorithm::FastRandomized {
                    m.push(
                        "core.unsuccessful_iterations.fast_randomized",
                        sel.per_proc[0].unsuccessful_iterations as f64,
                    );
                }
            }
        }
    }
    // The paper's headline: deterministic over randomized selection time.
    m.push(
        "core.det_over_rand_ratio",
        (random_us[0] + random_us[1]) / (random_us[2] + random_us[3]),
    );

    let parts = &inputs[0].1;
    let mut rng = KernelRng::derive(seed, 0xC0DF);
    let ranks: Vec<u64> = (0..16).map(|_| rng.below(N_SELECT as u64)).collect();
    let secs = median_secs(3, || {
        timed(|| multi_select_on_machine(P, model, parts, &ranks, &cfg).expect("multi-select")).1
    });
    m.push("core.multi_select_us", secs * 1e6);
    let secs = median_secs(3, || {
        let run = || top_k_on_machine(P, model, parts, 1000, Algorithm::Randomized, &cfg);
        timed(|| run().expect("top-k")).1
    });
    m.push("core.top_k_us", secs * 1e6);
}

/// Runs `f` on every processor of a fresh machine between two barriers and
/// returns the slowest processor's seconds with every processor's result.
fn on_machine<R: Send>(
    parts: &[Vec<u64>],
    f: impl Fn(&mut cgselect_runtime::Proc, Vec<u64>) -> R + Send + Sync,
) -> (f64, Vec<R>) {
    let outs = Machine::with_model(P, MachineModel::cm5())
        .run(|proc| {
            let mine = parts[proc.rank()].clone();
            proc.barrier();
            let start = Instant::now();
            let out = f(proc, mine);
            proc.barrier();
            (start.elapsed().as_secs_f64(), out)
        })
        .expect("machine probe");
    let secs = outs.iter().map(|(s, _)| *s).fold(0.0, f64::max);
    (secs, outs.into_iter().map(|(_, r)| r).collect())
}

fn balance_sort_workloads(seed: u64, m: &mut Metrics) {
    let hoarded = generate_with_layout(Distribution::Random, Layout::Hoarded, N, P, seed);
    for (balancer, label) in [
        (Balancer::GlobalExchange, "global_exchange"),
        (Balancer::Omlb, "omlb"),
        (Balancer::DimExchange, "dim_exchange"),
    ] {
        let mut moved = 0u64;
        let secs = median_secs(3, || {
            let (secs, sent) = on_machine(&hoarded, |proc, mut mine| {
                rebalance(balancer, proc, &mut mine).elements_sent
            });
            moved = sent.iter().sum();
            secs
        });
        m.push(format!("balance.rebalance_ms.{label}"), secs * 1e3);
        if balancer == Balancer::GlobalExchange {
            m.push("balance.moved_elems.global_exchange", moved as f64);
        }
    }

    let random = generate(Distribution::Random, N, P, seed);
    let secs = median_secs(3, || on_machine(&random, |proc, mine| sample_sort(proc, mine).len()).0);
    m.push("sort.sample_sort_ms", secs * 1e3);
    let secs =
        median_secs(3, || on_machine(&random, |proc, mine| bitonic_sort(proc, mine).len()).0);
    m.push("sort.bitonic_sort_ms", secs * 1e3);

    for (dist, label) in [(Distribution::Random, "random"), (Distribution::Sorted, "sorted")] {
        let secs = median_secs(3, || timed(|| black_box(generate(dist, N_SELECT, P, seed))).1);
        m.push(format!("workloads.generate_ms.{label}"), secs * 1e3);
    }
}

fn sketch(seed: u64, m: &mut Metrics) {
    const CAPACITY: usize = 2048; // EngineConfig's default
    const QUERIES: usize = 10_000;
    let data = generate(Distribution::Random, N, 1, seed).remove(0);

    let mut built = EpsSketch::new(CAPACITY);
    let secs = median_secs(3, || {
        let mut s = EpsSketch::new(CAPACITY);
        let secs = timed(|| data.iter().for_each(|&x| s.offer(x))).1;
        built = s;
        secs
    });
    m.push("sketch.offer_ns_per_elem", secs * 1e9 / N as f64);
    m.push("sketch.rank_error_bound", built.rank_error_bound() as f64);

    let secs = median_secs(3, || timed(|| built.rebuild(black_box(&data))).1);
    m.push("sketch.rebuild_ms", secs * 1e3);

    let halves = (
        EpsSketch::from_data(CAPACITY, &data[..N / 2]),
        EpsSketch::from_data(CAPACITY, &data[N / 2..]),
    );
    let secs = median_secs(5, || {
        let mut left = halves.0.clone();
        timed(|| left.merge(&halves.1)).1
    });
    m.push("sketch.merge_us", secs * 1e6);

    let mut rng = KernelRng::derive(seed, 0x5CE7);
    let ranks: Vec<u64> = (0..QUERIES).map(|_| rng.below(N as u64)).collect();
    let secs = median_secs(3, || {
        timed(|| {
            ranks.iter().for_each(|&r| {
                black_box(built.query_rank(r));
            })
        })
        .1
    });
    m.push("sketch.query_rank_ns", secs * 1e9 / QUERIES as f64);
    let values: Vec<u64> = (0..QUERIES).map(|_| rng.next_u64() >> 1).collect();
    let secs = median_secs(3, || {
        timed(|| {
            values.iter().for_each(|&v| {
                black_box(built.rank_of(v, false));
            })
        })
        .1
    });
    m.push("sketch.rank_of_ns", secs * 1e9 / QUERIES as f64);

    let secs = median_secs(5, || {
        timed(|| black_box(EpsSketch::<u64>::from_bytes(&built.to_bytes())).expect("round trip")).1
    });
    m.push("sketch.codec_us", secs * 1e6);
}

fn runtime(m: &mut Metrics) {
    const COLLECTIVE_ITERS: usize = 10_000;
    const TRANSFER_ELEMS: usize = 1 << 17; // 1 MiB of u64 per destination
    const TRANSFER_REPS: usize = 20;
    let model = MachineModel::cm5();

    let secs = median_secs(200, || timed(|| Machine::with_model(P, model).run(|_| ())).1);
    m.push("runtime.machine_spawn_us", secs * 1e6);

    let mut session = Session::with_model(P, model);
    let secs = median_secs(2000, || timed(|| session.run(|_, _| ()).expect("dispatch")).1);
    m.push("runtime.session_dispatch_us", secs * 1e6);
    drop(session);

    // [barrier s, combine s, broadcast s, alltoallv s, gatherv s] and the
    // messages the combine loop sent, per processor.
    let per_proc: Vec<([f64; 5], u64)> = Machine::with_model(P, model)
        .run(|proc| {
            proc.barrier();
            let barrier = timed(|| (0..COLLECTIVE_ITERS).for_each(|_| proc.barrier())).1;
            let before = proc.comm_stats();
            let combine = timed(|| {
                (0..COLLECTIVE_ITERS as u64).for_each(|i| {
                    black_box(proc.combine(i, |a, b| a + b));
                })
            })
            .1;
            let msgs = proc.comm_stats().since(&before).msgs_sent;
            let broadcast = timed(|| {
                (0..COLLECTIVE_ITERS as u64).for_each(|i| {
                    let value = (proc.rank() == 0).then_some(i);
                    black_box(proc.broadcast(0, value));
                })
            })
            .1;

            let payload: Vec<u64> = (0..TRANSFER_ELEMS as u64).collect();
            let mut alltoallv = 0.0;
            let mut gatherv = 0.0;
            for _ in 0..TRANSFER_REPS {
                let outgoing = vec![payload.clone(); P];
                proc.barrier();
                alltoallv += timed(|| black_box(proc.all_to_allv(outgoing))).1;
                let mine = payload.clone();
                proc.barrier();
                gatherv += timed(|| black_box(proc.gatherv(0, mine))).1;
            }
            ([barrier, combine, broadcast, alltoallv, gatherv], msgs)
        })
        .expect("collective probe");
    // A broadcast's root only sends and a gather's leaves only send, so each
    // collective is timed by its slowest processor.
    let slowest = |slot: usize| per_proc.iter().map(|(secs, _)| secs[slot]).fold(0.0, f64::max);
    let per_iter_us = |secs: f64| secs * 1e6 / COLLECTIVE_ITERS as f64;
    m.push("runtime.barrier_us", per_iter_us(slowest(0)));
    m.push("runtime.combine_us", per_iter_us(slowest(1)));
    m.push("runtime.broadcast_us", per_iter_us(slowest(2)));
    let msgs: u64 = per_proc.iter().map(|(_, msgs)| msgs).sum();
    m.push("runtime.msgs_per_combine", msgs as f64 / COLLECTIVE_ITERS as f64);
    let transfer_mib = (TRANSFER_ELEMS * 8 * TRANSFER_REPS) as f64 / MIB;
    m.push("runtime.alltoallv_mib_s", transfer_mib * (P * P) as f64 / slowest(3));
    m.push("runtime.gatherv_mib_s", transfer_mib * P as f64 / slowest(4));

    let payload: Vec<u64> = (0..N as u64).collect();
    let secs = median_secs(3, || {
        timed(|| black_box(decode_frame::<Vec<u64>>(&encode_frame(&payload))).expect("round trip"))
            .1
    });
    m.push("runtime.wiremsg_codec_ns_per_elem", secs * 1e9 / N as f64);
}

/// The same direct exact stream on one engine per backend (plus an observing
/// `LocalSpmd` twin), then the two host-served batch shapes on the local one.
fn backends(seed: u64, m: &mut Metrics, verdict: &mut Verdict) {
    const WARM_GROUPS: usize = 8;
    const GROUPS: usize = 64;
    const BATCH: usize = 32;
    const BATCH_REPS: usize = 500;
    let mut rec = Recorder::new();
    let mut base: Option<Arc<Vec<u64>>> = None;
    // Per-op durations of the one stream on each engine. The op cost is
    // bimodal (ops that rebuild the index cost several times the rest), so a
    // median flips between the modes from run to run: backends are compared
    // by the median of the per-op differences, and reported by their mean.
    let mut durations: Vec<Vec<f64>> = Vec::new();
    let paired = |a: &[f64], b: &[f64], f: fn(f64, f64) -> f64| {
        median(&a.iter().zip(b).map(|(&x, &y)| f(x, y)).collect::<Vec<_>>())
    };

    let variants = [
        (Backend::Local, false, "local"),
        (Backend::Channel, false, "channel_mp"),
        (Backend::Socket, false, "socket_mp"),
        (Backend::Local, true, "local+observe"),
    ];
    for (backend, observe, label) in variants {
        let spec = EngineSpec { backend, n: N, stream: StreamKind::ExactRanks, standing: false };
        let mut times = SetupTimes::default();
        let cfg = engine_config(backend).observe(observe);
        let mut twin = Twin::setup(&spec, cfg, seed, &mut base, &mut times);
        let workers = twin.engine.worker_pids();
        for _ in 0..WARM_GROUPS {
            twin.run_op(&mut rec);
        }
        let cpu_before =
            (procfs::cpu_seconds_of(&[std::process::id()]), procfs::cpu_seconds_of(&workers));
        durations.push((0..GROUPS).map(|_| twin.run_op(&mut rec)).collect());
        let run_us = durations.last().expect("just pushed");

        if observe {
            m.push("obs.observe_overhead_ratio", paired(run_us, &durations[0], |o, l| o / l));
            let registry = twin.engine.metrics().expect("observing engine has a registry");
            let secs = median_secs(20, || timed(|| black_box(registry.snapshot())).1);
            m.push("obs.metrics_snapshot_us", secs * 1e6);
        } else {
            m.push(format!("backend.{label}.run_us"), mean(run_us));
            let ingest_mib_s = (N * 8) as f64 / MIB / times.bulk_ingest;
            m.push(format!("backend.{label}.ingest_mib_s"), ingest_mib_s);
        }
        if backend == Backend::Socket {
            let used_self = procfs::cpu_seconds_of(&[std::process::id()]) - cpu_before.0;
            let used_workers = procfs::cpu_seconds_of(&workers) - cpu_before.1;
            m.push("backend.socket_spawn_ms", times.engine_new * 1e3);
            m.push(
                "backend.socket_worker_rss_mib",
                workers.iter().map(|&pid| procfs::peak_rss_mib(pid)).sum(),
            );
            m.push(
                "backend.socket_worker_cpu_share",
                used_workers / (used_workers + used_self).max(1e-9),
            );
        }
        if backend == Backend::Local && !observe {
            host_served_shapes(&mut twin, &mut rec, m, BATCH, BATCH_REPS);
        }
        verdict.absorb(twin.checker.verdict);
    }
    let minus = |a: f64, b: f64| a - b;
    m.push("backend.channel_over_local_us", paired(&durations[1], &durations[0], minus));
    m.push("backend.socket_over_channel_us", paired(&durations[2], &durations[1], minus));
}

/// Time per request of a batch the cached histogram answers alone, and of a
/// batch the ε-sketch answers alone — the planner and router with no shard
/// work behind them.
fn host_served_shapes(
    twin: &mut Twin,
    rec: &mut Recorder,
    m: &mut Metrics,
    batch: usize,
    reps: usize,
) {
    let quantile = |i: usize| (i + 1) as f64 / (batch + 1) as f64;
    let exact: Vec<Request<u64>> = (0..batch).map(|i| Request::quantile(quantile(i))).collect();
    let tolerant: Vec<Request<u64>> =
        exact.iter().map(|r| r.clone().within_rank(TOLERANCE)).collect();
    for (metric, requests) in
        [("index.route_us_per_request", &exact), ("sketch.served_us_per_request", &tolerant)]
    {
        // The first pass resolves the ranks and refines the splitters; from
        // then on the exact batch is a histogram hit.
        twin.replay(&Op { steps: vec![Step::Reads(requests.clone())] }, rec);
        let secs = median_secs(reps, || timed(|| twin.run(requests, rec).expect("shape batch")).1);
        m.push(metric, secs * 1e6 / batch as f64);
    }
}
