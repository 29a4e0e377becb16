//! # cgselect — practical parallel selection for coarse-grained machines
//!
//! A complete, from-scratch reproduction of *Al-Furaih, Aluru, Goil, Ranka —
//! "Practical Algorithms for Selection on Coarse-Grained Parallel
//! Computers"* (IPPS 1996), packaged as a reusable Rust library.
//!
//! Given `n` keys distributed over `p` processors and a rank `k`, the
//! library finds the element of rank `k` (e.g. the median) with any of the
//! paper's four parallel algorithms, optionally re-balancing data between
//! iterations with any of the paper's load balancing strategies.
//!
//! The "machine" is this repository's own SPMD runtime: `p` virtual
//! processors (OS threads) connected by a virtual crossbar, with all of the
//! paper's communication primitives and a deterministic two-level
//! `(τ, μ, t_op)` cost model whose CM-5 preset reproduces the shape of the
//! paper's measurements. Real wall-clock benchmarks are provided as well
//! (criterion, in `crates/bench`).
//!
//! ## Layered crates
//!
//! | Re-exported module | Crate | Contents |
//! |---|---|---|
//! | [`runtime`] | `cgselect-runtime` | SPMD machine, collectives, cost model, persistent sessions |
//! | [`seqsel`] | `cgselect-seqsel` | sequential kernels (BFPRT, quickselect, Floyd–Rivest, buckets) |
//! | [`sort`] | `cgselect-sort` | sample sort / bitonic sort substrate |
//! | [`balance`] | `cgselect-balance` | the four load balancers |
//! | [`core`] | `cgselect-core` | the four parallel selection algorithms |
//! | [`engine`] | `cgselect-engine` | persistent sharded query engine (batched ranks/quantiles) |
//! | [`workloads`] | `cgselect-workloads` | reproducible experiment inputs |
//!
//! The most common entry points are re-exported at the top level.
//!
//! ## Serving queries instead of running one selection
//!
//! For the one-shot paper experiments use [`select_on_machine`]; to keep
//! data resident across many queries use the [`Engine`]. Its typed
//! [`Request`] surface ([`Engine::run`]) covers both directions — rank →
//! element and the inverse element → rank / range → count — with
//! per-answer provenance:
//!
//! ```
//! use cgselect::{Bounds, Engine, EngineConfig, Request, Response};
//!
//! let mut engine: Engine<u64> = Engine::new(EngineConfig::new(4)).unwrap();
//! engine.ingest((0..10_000u64).rev().collect()).unwrap();
//! let report = engine
//!     .run(&[Request::median(), Request::quantile(0.99), Request::top_k(3)])
//!     .unwrap();
//! assert_eq!(report.outcomes[0].response, Response::Element(4_999));
//! assert_eq!(report.outcomes[2].response, Response::Elements(vec![0, 1, 2]));
//!
//! // Inverse queries, in the same batch shape.
//! let run = engine
//!     .run(&[
//!         Request::rank_of(2_500),
//!         Request::count_between(Bounds::closed(1_000, 1_999)),
//!     ])
//!     .unwrap();
//! assert_eq!(run.outcomes[0].response.count(), Some(2_500));
//! assert_eq!(run.outcomes[1].response.count(), Some(1_000));
//! ```
//!
//! For concurrent clients, hand the engine to the async frontend: each
//! client submits single queries and awaits a [`Ticket`], while the
//! batcher thread coalesces everything arriving within the micro-batch
//! window into one collective pass:
//!
//! ```
//! use cgselect::{Engine, EngineConfig, FrontendConfig, Request, Response};
//!
//! let mut engine: Engine<u64> = Engine::new(EngineConfig::new(4)).unwrap();
//! engine.ingest((0..10_000u64).rev().collect()).unwrap();
//! let queue = engine.into_frontend(FrontendConfig::new());
//! let t1 = queue.submit_request(Request::median()).unwrap();
//! let t2 = queue.submit_request(Request::top_k(2)).unwrap();
//! assert_eq!(t1.wait().unwrap().response, Response::Element(4_999));
//! assert_eq!(t2.wait().unwrap().response, Response::Elements(vec![0, 1]));
//! ```
//!
//! ## Quickstart
//!
//! ```
//! use cgselect::{median_on_machine, Algorithm, MachineModel, SelectionConfig};
//!
//! // 8 virtual processors, 10_000 keys each.
//! let parts: Vec<Vec<u64>> = (0..8)
//!     .map(|r| (0..10_000u64).map(|i| i * 8 + r).collect())
//!     .collect();
//! let sel = median_on_machine(
//!     8,
//!     MachineModel::cm5(),
//!     &parts,
//!     Algorithm::FastRandomized,
//!     &SelectionConfig::default(),
//! )
//! .unwrap();
//! assert_eq!(sel.value, 39_999); // median of 0..80_000
//! println!("virtual time: {:.4}s over {} iterations", sel.makespan(), sel.iterations());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

/// The SPMD runtime (machine, processors, collectives, cost model).
pub use cgselect_runtime as runtime;

/// Sequential selection kernels with measured operation counts.
pub use cgselect_seqsel as seqsel;

/// Parallel sorting substrate (PSRS, bitonic, distributed rank lookup).
pub use cgselect_sort as sort;

/// Load balancing strategies (paper §4).
pub use cgselect_balance as balance;

/// The parallel selection algorithms (paper §3).
pub use cgselect_core as core;

/// The persistent sharded selection/quantile query engine.
pub use cgselect_engine as engine;

/// Experiment input generators.
pub use cgselect_workloads as workloads;

pub use cgselect_balance::{BalanceReport, Balancer};
pub use cgselect_core::{
    median_on_machine, multi_select_on_machine, parallel_median, parallel_multi_select,
    parallel_select, parallel_top_k, parallel_weighted_median, parallel_weighted_select,
    select_on_machine, top_k_on_machine, Algorithm, LocalKernel, MachineSelection, SampleSortAlgo,
    SelectionConfig, SelectionOutcome, Weighted,
};
pub use cgselect_engine::{
    measure_rounds, quantile_rank, Accuracy, AsyncError, BackendChoice, BackendError, BackendKind,
    BatchSpan, Bounds, ChannelMpTuning, CostAttribution, Engine, EngineConfig, EngineError,
    EpsSketch, ExecBackend, ExecutionMode, Fault, Freshness, FrontendConfig, FrontendStats,
    IndexHealth, LocalSpmd, MetricsRegistry, MetricsSnapshot, MutationReport, MutationTicket,
    Outcome, OutcomeTicket, Phase, PhaseOps, PhaseSpan, PhaseSummary, QueryKind, RankSet,
    RecoveryReport, RefreshPolicy, Request, RequestSpan, Response, RoundsMeasurement, RunReport,
    Served, SloAccumulator, SloPolicy, SloReport, SocketMpTuning, StandingHandle, StandingTicket,
    StandingUpdate, SubmissionQueue, SubmitError, SubscriptionId, Ticket, TraceId,
};
pub use cgselect_runtime::{
    CommStats, Key, Machine, MachineModel, OrdF64, Proc, RunError, Session, ShardStore,
};
pub use cgselect_seqsel::{median_rank, rank_from_one_based};
pub use cgselect_workloads::{generate, generate_with_layout, Distribution, Layout, Stats};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn facade_round_trip() {
        let parts = generate(Distribution::Random, 4000, 4, 1);
        let sel = select_on_machine(
            4,
            MachineModel::cm5(),
            &parts,
            2000,
            Algorithm::Randomized,
            &SelectionConfig::default(),
        )
        .unwrap();
        let mut all: Vec<u64> = parts.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(sel.value, all[2000]);
    }
}
