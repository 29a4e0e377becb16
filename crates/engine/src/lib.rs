//! # cgselect-engine — a persistent sharded selection/quantile query engine
//!
//! The paper's algorithms are one-shot: build a machine, select one rank,
//! tear everything down. This crate turns them into a long-lived service:
//! data is ingested once, stays **resident in shards on the `p` virtual
//! processors** (a pluggable [`ExecBackend`] whose worker threads survive
//! between calls — the in-process [`cgselect_runtime::Session`] by
//! default), and an unbounded stream of query batches is served against
//! it.
//!
//! What the engine adds over raw `parallel_select`:
//!
//! * **A typed query surface with inverse queries** — [`Engine::run`]
//!   takes [`Request`]s: forward rank-direction kinds (ranks, quantiles,
//!   multi-quantiles, median, min/max, top-k) *and* the inverse direction
//!   the paper's count-below-pivot primitive makes natural —
//!   [`QueryKind::RankOf`] (value → rank, a CDF point) and
//!   [`QueryKind::CountBetween`] (range → count) — each under an explicit
//!   [`Accuracy`] contract (`Exact` | `WithinRank` | `HistogramOk`).
//!   Every answer is an [`Outcome`]: the [`Response`] plus **provenance**
//!   ([`Served::Histogram`] / [`Served::Sketch`] / [`Served::Index`]) and
//!   an attributed collective-op cost.
//! * **Batched execution** — a batch's rank-direction queries are
//!   coalesced into *one* deduplicated [`RankSet`] (contiguous runs, so
//!   `TopK(k)` plans in O(1)) and resolved by a single lockstep
//!   multi-select pass ([`cgselect_core::parallel_multi_select_windows`]):
//!   `R` rank queries share `O(log log n)` sampled-bracket rounds instead
//!   of paying them `R` times. All value probes of a batch share **one** vectorized
//!   `count_below` Combine round. The per-batch [`RunReport`] carries the
//!   measured [`cgselect_runtime::CommStats`], the collective-operation
//!   count and the virtual-time makespan.
//! * **A resident bucket index** — each shard keeps its data organized into
//!   buckets under *shared* sample-derived splitters, and the engine caches
//!   the global per-bucket histogram. A rank query localizes against the
//!   cached histogram to a small window of candidate buckets, the
//!   multi-select recursion runs **only over those candidate buckets,
//!   borrowed in place**, and windows that collapse to one
//!   repeated-value bucket are answered from the histogram alone — zero
//!   element scans, which is the steady state for repeated quantiles
//!   because resolved answers refine the splitters. The same cached
//!   histogram serves the inverse direction: a value probe the splitters
//!   bound is answered host-side with zero scans and zero collectives
//!   (and a batch fully resolved this way never consults the backend at
//!   all). Ingest appends to a
//!   small unindexed *delta run* that is merged amortized; rebalance
//!   rebuilds the splitters, and so does refinement once it has grown the
//!   bucket count past a cap — but that rebuild only *re-cuts* the
//!   resident bucket runs: splitters that are already bounds cost nothing,
//!   and only a shard that holds no index partitions its data from
//!   nothing. The cap and the re-cut's bucket count follow the population
//!   and the select pass's finish threshold, so a warm index keeps buckets
//!   of about one to four finishes' worth of elements, while a build from
//!   nothing stays at the configured target. The index is the only exact
//!   path: a one-bucket target makes every window the whole shard, which
//!   is how a full scan looks here.
//!   See [`EngineConfig::index_buckets`],
//!   [`EngineConfig::delta_threshold`] and [`Engine::index_health`].
//! * **Incremental ingest/delete** with an **imbalance watermark**: shard
//!   sizes are tracked, and when `max/mean` exceeds
//!   [`EngineConfig::imbalance_watermark`] the engine re-balances with the
//!   configured [`cgselect_balance::Balancer`] — amortized, not per
//!   operation.
//! * **An approximate fast path** — every shard maintains a mergeable
//!   deterministic ε-sketch of its data on ingest; quantile queries
//!   carrying a rank-error tolerance the sketches can honor are answered
//!   from the sketches alone, never touching the full data, and fall back
//!   to the exact paper algorithms otherwise.
//! * **An async frontend** ([`frontend`]) — concurrent clients submit
//!   single queries into a bounded [`SubmissionQueue`] and await
//!   [`Ticket`]s, while a dedicated batcher thread forms batches by
//!   deadline (micro-batching window + max batch size) so the coalescing
//!   above happens *across* clients, not just within one caller's slice.
//! * **Pluggable execution backends** ([`backend`]) — everything below the
//!   host-side planner (shard residency, collective execution,
//!   ingest/delete/rebalance, `CommStats` accounting) sits behind the
//!   [`ExecBackend`] trait, chosen via [`EngineConfig::backend`]: the
//!   in-process [`LocalSpmd`] session, or the message-passing backend
//!   whose every command and reply crosses the worker link as a serialized
//!   byte frame — over worker threads ([`BackendChoice::ChannelMp`]) or
//!   worker processes and Unix sockets ([`BackendChoice::SocketMp`]). All
//!   run the identical per-shard code, so they produce identical answers
//!   *and* identical collective-round counts — enforced by
//!   `tests/backend_conformance.rs`.
//!
//! A batch moves through six stages — plan → route → lower → execute →
//! refine → assemble — each a function in the private `pipeline` module
//! whose signature says what it may read and mutate; [`Engine::run`] wraps
//! them with standing-query admission, the self-healing retry and
//! observability.
//!
//! ```
//! use cgselect_engine::{Engine, EngineConfig, Request, Response};
//!
//! let mut engine: Engine<u64> = Engine::new(EngineConfig::new(4)).unwrap();
//! engine.ingest((0..1000u64).rev().collect()).unwrap();
//!
//! let report = engine
//!     .run(&[Request::median(), Request::rank(10), Request::top_k(3)])
//!     .unwrap();
//! assert_eq!(report.outcomes[0].response, Response::Element(499));
//! assert_eq!(report.outcomes[1].response, Response::Element(10));
//! assert_eq!(report.outcomes[2].response, Response::Elements(vec![0, 1, 2]));
//! assert!(report.comm.collective_ops > 0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod backend;
pub mod frontend;
mod index;
pub mod obs;
mod pipeline;
mod query;
mod request;
pub mod sketch;
mod standing;

pub use backend::{
    BackendChoice, BackendError, BackendKind, BatchPlan, ChannelMpTuning, ExecBackend, Fault,
    LocalSpmd, PhaseOps, RecoveryReport, ShardBatchOutcome, ShardDeletion, SocketMpTuning,
};
pub use frontend::{
    AsyncError, FrontendConfig, FrontendStats, MutationTicket, OutcomeTicket, StandingTicket,
    SubmissionQueue, SubmitError, Ticket,
};
pub use index::{BucketStats, Group};
pub use obs::{
    BatchSpan, MetricsRegistry, MetricsSnapshot, Phase, PhaseSpan, PhaseSummary, RequestSpan,
    SloAccumulator, SloPolicy, SloReport, TraceContext, TraceId,
};
pub use query::{quantile_rank, RankSet};
pub use request::{
    Accuracy, Bounds, CostAttribution, Freshness, Outcome, QueryKind, Request, Response, RunReport,
    Served,
};
pub use sketch::EpsSketch;
pub use standing::{RefreshPolicy, StandingHandle, StandingUpdate, SubscriptionId};

use std::sync::Arc;

use cgselect_balance::Balancer;
use cgselect_core::SelectionConfig;
use cgselect_runtime::{Key, MachineModel, RunError};

use backend::channel_mp::ThreadTransport;
use backend::mp::MessagePassing;
use backend::socket_mp::SocketTransport;
use index::GlobalIndex;
use query::Resolution;

/// Configuration of a persistent engine.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Number of virtual processors (shards).
    pub nprocs: usize,
    /// Machine cost model for the virtual-time accounting.
    pub model: MachineModel,
    /// Tuning of the underlying selection algorithms (the multi-select
    /// pivot seed is re-derived per batch from `selection.seed`).
    pub selection: SelectionConfig,
    /// Strategy used when the imbalance watermark triggers a re-balance.
    pub balancer: Balancer,
    /// Re-balance when `max(shard)/mean(shard)` exceeds this (≥ 1.0).
    pub imbalance_watermark: f64,
    /// Compactor capacity of the deterministic ε-sketches (host-global and
    /// per-shard; 0 disables them, forcing every quantile to the exact
    /// path). Larger capacities tighten the provable rank-error bound —
    /// roughly `(n/k)·log₂(n/k)` — at proportional memory cost.
    pub sketch_capacity: usize,
    /// Target bucket count of the resident bucket index, which every exact
    /// answer executes through (≥ 1; a target of 1 makes one bucket span
    /// each shard, so a window is the whole shard). A build from nothing
    /// targets exactly this many. Adaptive refinement then grows the bucket
    /// count up to a cap that follows the data — `4×` this target, or one
    /// bucket per finish threshold of resident elements (`n /
    /// selection.threshold(p)`) once that is larger — and the rebuild it
    /// schedules re-cuts the resident runs to the larger of this target and
    /// a quarter of that per-threshold count.
    pub index_buckets: usize,
    /// Fraction of the resident population that may sit in the unindexed
    /// delta run before a merge folds it into the buckets (a floor of 64
    /// elements applies, so tiny engines don't merge per ingest).
    pub delta_threshold: f64,
    /// Which execution backend realizes the engine's collective rounds
    /// (see [`backend`]): the in-process [`LocalSpmd`] session (default)
    /// or the message-passing backend over worker threads or processes.
    pub backend: BackendChoice,
    /// Enables end-to-end observability (see [`obs`]): request-scoped
    /// spans in every [`RunReport`], and a [`MetricsRegistry`] fed per
    /// batch. Off by default; when off the engine takes one branch per
    /// batch and records nothing.
    pub observe: bool,
    /// When set (and the backend supports membership, i.e. message
    /// passing on either transport), a failed [`Engine::run`] triggers one
    /// [`Engine::recover`] — respawning dead shard workers, re-wiring the
    /// fabric — and retries the batch once, so a killed worker means
    /// degraded data, not a dead engine. Off by default: the poisoning
    /// contract (rebuild the engine) stays strict unless explicitly opted
    /// into.
    pub self_heal: bool,
}

impl EngineConfig {
    /// Defaults for a `p`-shard engine: CM-5 cost model, global-exchange
    /// re-balancing at watermark 1.5, 2048-sample sketches, a resident index
    /// built at 64 buckets (refined up to 256, or to one bucket per 1,024
    /// elements on larger data) with a 5% delta threshold.
    pub fn new(nprocs: usize) -> Self {
        EngineConfig {
            nprocs,
            model: MachineModel::cm5(),
            selection: SelectionConfig::default(),
            balancer: Balancer::GlobalExchange,
            imbalance_watermark: 1.5,
            sketch_capacity: 2048,
            index_buckets: 64,
            delta_threshold: 0.05,
            backend: BackendChoice::LocalSpmd,
            observe: false,
            self_heal: false,
        }
    }

    /// Builder-style cost model choice.
    pub fn model(mut self, model: MachineModel) -> Self {
        self.model = model;
        self
    }

    /// Builder-style balancer choice.
    pub fn balancer(mut self, balancer: Balancer) -> Self {
        self.balancer = balancer;
        self
    }

    /// Builder-style watermark choice.
    pub fn imbalance_watermark(mut self, ratio: f64) -> Self {
        self.imbalance_watermark = ratio;
        self
    }

    /// Builder-style sketch capacity choice.
    pub fn sketch_capacity(mut self, capacity: usize) -> Self {
        self.sketch_capacity = capacity;
        self
    }

    /// Builder-style bucket-index target (≥ 1; see
    /// [`EngineConfig::index_buckets`]).
    pub fn index_buckets(mut self, buckets: usize) -> Self {
        self.index_buckets = buckets;
        self
    }

    /// Builder-style delta-run merge threshold (fraction of the resident
    /// population).
    pub fn delta_threshold(mut self, fraction: f64) -> Self {
        self.delta_threshold = fraction;
        self
    }

    /// Builder-style execution-backend choice.
    pub fn backend(mut self, backend: BackendChoice) -> Self {
        self.backend = backend;
        self
    }

    /// Shorthand: run on the message-passing backend over worker threads
    /// ([`BackendChoice::ChannelMp`]) with default tuning.
    pub fn channel_mp(self) -> Self {
        self.backend(BackendChoice::ChannelMp(ChannelMpTuning::default()))
    }

    /// Shorthand: run on the message-passing backend over worker processes
    /// ([`BackendChoice::SocketMp`]) with default tuning (requires the
    /// `cgselect-shard-worker` binary on disk — built with the crate's bin
    /// targets — or the `CGSELECT_WORKER_BIN` environment variable naming
    /// it).
    pub fn socket_mp(self) -> Self {
        self.backend(BackendChoice::SocketMp(SocketMpTuning::default()))
    }

    /// Builder-style self-healing switch (see
    /// [`EngineConfig::self_heal`]).
    pub fn self_heal(mut self, enabled: bool) -> Self {
        self.self_heal = enabled;
        self
    }

    /// Builder-style observability switch (see [`obs`]).
    pub fn observe(mut self, enabled: bool) -> Self {
        self.observe = enabled;
        self
    }

    fn validate(&self) {
        assert!(self.nprocs >= 1, "an engine needs at least one shard");
        assert!(
            self.index_buckets >= 1,
            "index bucket target must be >= 1 (the index cannot be disabled), got {}",
            self.index_buckets
        );
        assert!(
            self.imbalance_watermark >= 1.0,
            "imbalance watermark must be >= 1.0 (max/mean ratio), got {}",
            self.imbalance_watermark
        );
        assert!(
            self.delta_threshold.is_finite() && self.delta_threshold >= 0.0,
            "delta threshold must be a finite non-negative fraction, got {}",
            self.delta_threshold
        );
        self.selection.validate();
    }

    /// The index's bucket budget over `total` resident elements, as
    /// `(cap, recut)`: refinement may grow the bucket count to `cap` before
    /// the index is marked for a rebuild, and a rebuild over a resident
    /// index re-cuts to `recut` buckets. Both follow the select pass's
    /// finish threshold `T`: at `fine = ⌈total / T⌉` buckets one bucket is
    /// about one finish, so a warm index — re-cut to `fine / 4` buckets,
    /// refined up to `fine` — holds buckets of about `T` to `4T` elements.
    /// While `fine ≤ 4t` (`t = index_buckets`) the budget is the target's
    /// own: a cap of `max(4t, t + 16)` and a re-cut to `t`. A build from
    /// nothing always targets `t`: it partitions every element per level of
    /// splitters, where a re-cut pays only for the buckets its splitters
    /// cut.
    fn bucket_budget(&self, total: u64) -> (usize, usize) {
        let t = self.index_buckets;
        let fine = total.div_ceil(self.selection.threshold(self.nprocs)) as usize;
        ((4 * t).max(t + 16).max(fine), t.max(fine / 4))
    }
}

/// Errors surfaced to engine callers.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// A query was submitted while no data is resident.
    Empty,
    /// [`QueryKind::Rank`] beyond the resident population.
    RankOutOfRange {
        /// The requested 0-based rank.
        rank: u64,
        /// The resident population.
        n: u64,
    },
    /// [`QueryKind::Quantile`] outside `[0, 1]`.
    InvalidQuantile(f64),
    /// A rank-error tolerance that is negative, NaN, or infinite.
    InvalidTolerance(f64),
    /// [`QueryKind::TopK`] larger than the resident population.
    TopKTooLarge {
        /// The requested k.
        k: u64,
        /// The resident population.
        n: u64,
    },
    /// The underlying SPMD session failed (and is now poisoned).
    Runtime(RunError),
    /// The execution backend failed at the [`ExecBackend`] boundary —
    /// worker panic, lost reply, or a poisoned backend rejecting further
    /// work. Mirrors [`RunError::SessionPoisoned`] semantics: the engine
    /// must be rebuilt.
    Backend(BackendError),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Empty => write!(f, "query on an empty engine"),
            EngineError::RankOutOfRange { rank, n } => {
                write!(f, "rank {rank} out of range for {n} resident elements")
            }
            EngineError::InvalidQuantile(q) => {
                write!(f, "quantile {q} outside [0, 1]")
            }
            EngineError::InvalidTolerance(t) => {
                write!(f, "invalid rank-error tolerance {t} (must be finite and >= 0)")
            }
            EngineError::TopKTooLarge { k, n } => {
                write!(f, "top-k of {k} exceeds the {n} resident elements")
            }
            EngineError::Runtime(e) => write!(f, "runtime failure: {e}"),
            EngineError::Backend(e) => write!(f, "backend failure: {e}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<RunError> for EngineError {
    fn from(e: RunError) -> Self {
        EngineError::Runtime(e)
    }
}

impl From<BackendError> for EngineError {
    fn from(e: BackendError) -> Self {
        match e {
            // In-process runtime failures keep their pre-backend shape.
            BackendError::Runtime(e) => EngineError::Runtime(e),
            other => EngineError::Backend(other),
        }
    }
}

/// What one ingest/delete did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MutationReport {
    /// Elements added (ingest) or removed (delete).
    pub elements: u64,
    /// Whether the imbalance watermark triggered a re-balance afterwards.
    pub rebalanced: bool,
}

/// Health snapshot of the resident bucket index (see
/// [`Engine::index_health`]).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct IndexHealth {
    /// Current global bucket count (0 while no index is built).
    pub buckets: usize,
    /// Unindexed delta-run elements across all shards.
    pub delta_len: u64,
    /// `delta_len / resident population` (0.0 when empty).
    pub delta_occupancy: f64,
    /// Index (re)builds so far — the initial build counts as one; further
    /// rebuilds come from rebalances, membership moves and refinement
    /// growing past the cap. Only a build over shards that hold no index
    /// (the first, or after a rebalance / retire / recovery dropped it)
    /// partitions the resident data; the others re-cut the shards'
    /// resident bucket runs and cost what the new splitters cut — nothing
    /// but the sample collective when refinement growth is the cause.
    pub rebuilds: u64,
    /// Amortized delta-run merges so far.
    pub delta_merges: u64,
    /// Exact ranks answered from the histogram alone, cumulatively.
    pub histogram_hits: u64,
}

/// A persistent sharded selection/quantile engine over element type `T`.
///
/// See the crate docs for the architecture; construction spawns the
/// configured [`ExecBackend`]'s `p` worker threads, which stay alive (and
/// keep the shards resident) until the engine is dropped — drop joins them.
pub struct Engine<T: Key> {
    backend: Box<dyn ExecBackend<T>>,
    cfg: EngineConfig,
    shard_sizes: Vec<u64>,
    total: u64,
    rebalances: u64,
    batches: u64,
    ingest_cursor: usize,
    /// Host-side cached global histogram of the shared buckets.
    index: Option<GlobalIndex<T>>,
    /// Set when the splitters are stale (rebalance, refinement growth).
    index_dirty: bool,
    index_rebuilds: u64,
    delta_merges: u64,
    histogram_hits: u64,
    /// Host-global deterministic ε-sketch over the resident multiset: fed
    /// incrementally at ingest, re-merged from the shards' exports after
    /// any operation that removes elements (delete, recovery) — the shards'
    /// sketches are signed, so the merge carries their removals and nobody
    /// re-reads the data. Every sketch-rung answer is served from it with
    /// zero collectives.
    sketch: EpsSketch<T>,
    /// Live only when `cfg.observe` is set: the metrics registry every
    /// batch reports into, shared with the frontend's batcher thread.
    metrics: Option<Arc<MetricsRegistry>>,
    /// Registered standing queries (see [`Engine::subscribe`]); due
    /// subscriptions ride every [`Engine::run`] batch.
    standing: standing::StandingRegistry<T>,
    /// Mutation version: increments on every ingest/delete that changed
    /// the multiset, and on recovery (which loses data). Two outcomes with
    /// equal versions were computed against identical resident data.
    version: u64,
    /// Cumulative elements mutated (ingested + deleted) — the churn meter
    /// behind [`RefreshPolicy::OnDelta`].
    mutated: u64,
    standing_refreshes: u64,
    standing_zero_collective: u64,
}

/// An [`Engine`] is `Send` no matter the backend: the async frontend hands
/// it — resident shards, live worker threads and all — to its dedicated
/// batcher thread. This assertion makes the guarantee a compile-time
/// contract so a future backend cannot silently revoke it.
const _: () = {
    const fn assert_send<S: Send>() {}
    assert_send::<Engine<u64>>();
};

impl<T: Key> Engine<T> {
    /// Starts an engine: spawns the configured backend's workers and
    /// installs empty shards.
    pub fn new(cfg: EngineConfig) -> Result<Self, EngineError> {
        cfg.validate();
        let backend: Box<dyn ExecBackend<T>> = match &cfg.backend {
            BackendChoice::LocalSpmd => Box::new(LocalSpmd::<T>::start(&cfg)?),
            BackendChoice::ChannelMp(tuning) => Box::new(MessagePassing::<T, _>::start(
                ThreadTransport::<T>::new(&cfg, tuning.clone()),
                cfg.nprocs,
                tuning.reply_timeout,
            )?),
            BackendChoice::SocketMp(tuning) => Box::new(MessagePassing::<T, _>::start(
                SocketTransport::new::<T>(&cfg, tuning.clone())?,
                cfg.nprocs,
                tuning.reply_timeout,
            )?),
        };
        Ok(Engine {
            shard_sizes: vec![0; cfg.nprocs],
            total: 0,
            rebalances: 0,
            batches: 0,
            ingest_cursor: 0,
            index: None,
            index_dirty: false,
            index_rebuilds: 0,
            delta_merges: 0,
            histogram_hits: 0,
            metrics: cfg.observe.then(|| Arc::new(MetricsRegistry::new())),
            sketch: EpsSketch::new(cfg.sketch_capacity),
            standing: standing::StandingRegistry::default(),
            version: 0,
            mutated: 0,
            standing_refreshes: 0,
            standing_zero_collective: 0,
            backend,
            cfg,
        })
    }

    /// The engine's metrics registry — `Some` only when the engine was
    /// configured with [`EngineConfig::observe`]. Cloning the `Arc` lets
    /// frontends and exporters read snapshots while the engine runs.
    pub fn metrics(&self) -> Option<Arc<MetricsRegistry>> {
        self.metrics.clone()
    }

    /// Which execution backend this engine runs on.
    pub fn backend_kind(&self) -> BackendKind {
        self.backend.kind()
    }

    /// Number of shards (= virtual processors).
    pub fn nprocs(&self) -> usize {
        self.cfg.nprocs
    }

    /// Resident population.
    pub fn len(&self) -> u64 {
        self.total
    }

    /// True if no data is resident.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Current per-shard element counts.
    pub fn shard_sizes(&self) -> &[u64] {
        &self.shard_sizes
    }

    /// How many watermark-triggered re-balances have run.
    pub fn rebalances(&self) -> u64 {
        self.rebalances
    }

    /// How many query batches have executed.
    pub fn batches(&self) -> u64 {
        self.batches
    }

    /// Health snapshot of the resident bucket index.
    pub fn index_health(&self) -> IndexHealth {
        let (buckets, delta_len) = match &self.index {
            Some(g) => (g.num_buckets(), g.delta_total),
            None => (0, 0),
        };
        IndexHealth {
            buckets,
            delta_len,
            delta_occupancy: if self.total == 0 {
                0.0
            } else {
                delta_len as f64 / self.total as f64
            },
            rebuilds: self.index_rebuilds,
            delta_merges: self.delta_merges,
            histogram_hits: self.histogram_hits,
        }
    }

    /// Current `max/mean` shard-size ratio (1.0 when empty or perfectly
    /// balanced).
    pub fn imbalance_ratio(&self) -> f64 {
        if self.total == 0 {
            return 1.0;
        }
        let max = *self.shard_sizes.iter().max().expect("nprocs >= 1") as f64;
        let mean = self.total as f64 / self.cfg.nprocs as f64;
        max / mean
    }

    /// Ingests `items`, spread round-robin across the shards (the cursor
    /// persists, so successive small ingests stay balanced). Sketches are
    /// maintained incrementally, the new elements join the index's delta
    /// run, and the watermark is checked afterwards.
    pub fn ingest(&mut self, items: Vec<T>) -> Result<MutationReport, EngineError> {
        let p = self.cfg.nprocs;
        let count = items.len();
        let mut chunks: Vec<Vec<T>> = (0..p).map(|_| Vec::new()).collect();
        for (i, x) in items.into_iter().enumerate() {
            chunks[(self.ingest_cursor + i) % p].push(x);
        }
        self.ingest_cursor = (self.ingest_cursor + count) % p;
        self.ingest_chunks(chunks)
    }

    /// Ingests `items` entirely into shard `rank` — the "hot receiver"
    /// pattern (data arriving on one node). This is what drives the
    /// imbalance watermark in practice.
    ///
    /// # Panics
    /// Panics if `rank >= nprocs()`.
    pub fn ingest_pinned(
        &mut self,
        rank: usize,
        items: Vec<T>,
    ) -> Result<MutationReport, EngineError> {
        assert!(rank < self.cfg.nprocs, "shard {rank} out of range");
        let mut chunks: Vec<Vec<T>> = (0..self.cfg.nprocs).map(|_| Vec::new()).collect();
        chunks[rank] = items;
        self.ingest_chunks(chunks)
    }

    fn ingest_chunks(&mut self, chunks: Vec<Vec<T>>) -> Result<MutationReport, EngineError> {
        let added: u64 = chunks.iter().map(|c| c.len() as u64).sum();
        // The host-global ε-sketch sees every element before the chunks
        // move to the shards, so sketch-rung batches never need a
        // collective to stay current.
        for chunk in &chunks {
            for &x in chunk {
                self.sketch.offer(x);
            }
        }
        // The host's delta mirror sees the same elements: the index keeps
        // serving exactly through the pending delta without a collective.
        let delta_note: Vec<T> = if self.index.is_some() {
            chunks.iter().flatten().copied().collect()
        } else {
            Vec::new()
        };
        // Appends land past the indexed prefix, so they *are* the delta
        // run; no index restructuring happens here.
        let sizes = self.backend.ingest(chunks)?;
        self.set_sizes(sizes);
        if let Some(gidx) = &mut self.index {
            gidx.note_ingest(delta_note);
        }
        if added > 0 {
            self.version += 1;
            self.mutated += added;
        }
        let rebalanced = self.maybe_rebalance()?;
        if !rebalanced {
            self.maybe_merge_delta()?;
        }
        Ok(MutationReport { elements: added, rebalanced })
    }

    /// Deletes **all** resident occurrences of the given values, returning
    /// how many elements were removed. The bucket index and its histogram
    /// are maintained in place: each shard compacts its runs against the
    /// sorted delete list ([`cgselect_seqsel::retain_absent`]), and the
    /// host's delta mirror drops the same values in one merge. Each shard's
    /// ε-sketch notes exactly the elements it lost on its removed side — a
    /// shard re-sketches its resident data only when those removals have
    /// come to outweigh a quarter of it — and the host-global sketch is
    /// re-merged from the shards' exports, so a tolerant read right after a
    /// delete is still served from the sketch, under the (slightly wider)
    /// bound the signed sketch reports. The watermark is checked afterwards.
    pub fn delete(&mut self, values: &[T]) -> Result<MutationReport, EngineError> {
        if values.is_empty() || self.total == 0 {
            return Ok(MutationReport { elements: 0, rebalanced: false });
        }
        let mut sorted = values.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        // One compacting pass per shard, searching each resident element
        // among the values its bucket can hold; the comparisons a binary
        // search per element makes and every element move are charged,
        // matching how the selection kernels charge their measured work.
        let results = self.backend.delete(sorted.clone())?;
        let before = self.total;
        let resketched = results.iter().filter(|d| d.resketched).count() as u64;
        let (sizes, removed): (Vec<u64>, Vec<Vec<u64>>) =
            results.into_iter().map(|d| (d.remaining, d.removed)).unzip();
        self.set_sizes(sizes);
        if let Some(gidx) = &mut self.index {
            gidx.apply_removals(&removed);
            gidx.note_delete(&sorted);
        }
        let removed_total = before - self.total;
        if removed_total > 0 {
            self.version += 1;
            self.mutated += removed_total;
            self.refresh_sketch()?;
        }
        if let Some(m) = &self.metrics {
            m.counter_add("deletes_total", 1);
            m.counter_add("elements_deleted_total", removed_total);
            m.counter_add("sketch_rebuilds_total", resketched);
        }
        let rebalanced = self.maybe_rebalance()?;
        Ok(MutationReport { elements: removed_total, rebalanced })
    }

    /// Checks one request's domain against the current resident
    /// population without executing it — exactly the validation
    /// [`Engine::run`] applies to a whole batch, exposed per request so
    /// the async frontend can fail an invalid request's ticket without
    /// failing its batch.
    pub fn validate_request(&self, request: &Request<T>) -> Result<(), EngineError> {
        query::validate_request(request, self.total)
    }

    /// Hands this engine (and its persistent session) to a dedicated
    /// batcher thread and returns the async [`SubmissionQueue`] frontend.
    /// Shorthand for [`SubmissionQueue::start`].
    pub fn into_frontend(self, cfg: FrontendConfig) -> SubmissionQueue<T> {
        SubmissionQueue::start(self, cfg)
    }

    // --- Standing queries (see [`standing`](crate::StandingHandle)) ----

    /// Registers `request` as a **standing query**: it re-evaluates under
    /// `policy` whenever the resident data moves, streaming stamped
    /// [`StandingUpdate`]s to the returned [`StandingHandle`]. Refreshes
    /// ride ordinary [`Engine::run`] batches (or an explicit
    /// [`Engine::refresh_standing`]), sharing their collective rounds; a
    /// refresh whose candidate window did not move is re-served from the
    /// delta-rebased histogram or the ε-sketch at **zero collectives**.
    ///
    /// The request is *not* validated against the current population — a
    /// dashboard may subscribe before any data arrives; refreshes are
    /// simply skipped while the request is invalid (e.g. an empty engine),
    /// without burning sequence numbers.
    ///
    /// ```
    /// use cgselect_engine::{Engine, EngineConfig, RefreshPolicy, Request};
    ///
    /// let mut engine: Engine<u64> = Engine::new(EngineConfig::new(2)).unwrap();
    /// let handle = engine.subscribe(Request::quantile(0.99), RefreshPolicy::EveryBatch);
    /// engine.ingest((0..1000u64).collect()).unwrap();
    /// let delivered = engine.refresh_standing().unwrap();
    /// assert_eq!(delivered, 1);
    /// let update = handle.recv().unwrap();
    /// assert_eq!(update.seq, 0);
    /// assert_eq!(update.outcome.freshness.elements, 1000);
    /// ```
    pub fn subscribe(&mut self, request: Request<T>, policy: RefreshPolicy) -> StandingHandle<T> {
        if let RefreshPolicy::OnDelta(frac) = policy {
            assert!(
                frac.is_finite() && frac >= 0.0,
                "OnDelta fraction must be finite and >= 0, got {frac}"
            );
        }
        let handle = self.standing.subscribe(request, policy);
        if let Some(m) = &self.metrics {
            m.gauge_set("standing_active", self.standing.len() as f64);
        }
        handle
    }

    /// Removes the standing query `id`; its handle's stream ends. Returns
    /// `false` if the id was unknown (or already auto-unsubscribed by a
    /// dropped handle).
    pub fn unsubscribe(&mut self, id: SubscriptionId) -> bool {
        let removed = self.standing.unsubscribe(id);
        if let Some(m) = &self.metrics {
            m.gauge_set("standing_active", self.standing.len() as f64);
        }
        removed
    }

    /// Number of live standing queries.
    pub fn standing_active(&self) -> usize {
        self.standing.len()
    }

    /// Flushes due standing queries without a foreground batch (an empty
    /// [`Engine::run`]), returning how many updates were delivered. Cheap
    /// when nothing is due: returns immediately without planning a batch,
    /// so idle pollers (the frontend's batcher serving
    /// [`RefreshPolicy::Deadline`]) can call it every tick.
    pub fn refresh_standing(&mut self) -> Result<u64, EngineError> {
        let due = self.admit_standing();
        if due.is_empty() {
            return Ok(0);
        }
        let before = self.standing_refreshes;
        self.run_admitted(&[], due)?;
        Ok(self.standing_refreshes - before)
    }

    /// Standing admission: the subscriptions due under the current
    /// mutation state whose request is answerable right now. One whose
    /// request is invalid at the moment (e.g. a rank beyond a shrunk
    /// population) is skipped, never failing the batch it would ride.
    fn admit_standing(&self) -> Vec<(SubscriptionId, Request<T>)> {
        let mut due = self.standing.due_requests(self.version, self.mutated, self.total);
        due.retain(|(_, r)| query::validate_request(r, self.total).is_ok());
        due
    }

    /// Cumulative standing-query updates delivered.
    pub fn standing_refreshes(&self) -> u64 {
        self.standing_refreshes
    }

    /// How many of [`Engine::standing_refreshes`] were served without a
    /// single attributed collective op (rebased histogram / ε-sketch).
    pub fn standing_zero_collective(&self) -> u64 {
        self.standing_zero_collective
    }

    /// The engine's current mutation version (see [`Freshness::version`]).
    pub fn mutation_version(&self) -> u64 {
        self.version
    }

    /// The deterministic error guarantees the resident host-global
    /// ε-sketch can currently honor (`None` when sketches are disabled).
    /// The planner routes a `WithinRank(t)` request to the sketch rung iff
    /// `rank ≤ ⌈t·n⌉` — the served answer then carries `rank` as its
    /// *guaranteed* maximum rank error.
    fn sketch_guarantee(&self) -> Option<query::SketchErr> {
        (self.cfg.sketch_capacity > 0).then(|| query::SketchErr {
            rank: self.sketch.rank_error_bound(),
            count: self.sketch.count_error_bound(),
        })
    }

    /// Re-derives the host-global ε-sketch by merging every shard's
    /// resident sketch, removed sides included ([`EpsSketch::merge`] is
    /// closed under the error bound), after an operation that removed
    /// elements from the multiset.
    fn refresh_sketch(&mut self) -> Result<(), EngineError> {
        let mut merged = EpsSketch::new(self.cfg.sketch_capacity);
        for shard in self.backend.export_sketches()? {
            merged.merge(&shard);
        }
        self.sketch = merged;
        Ok(())
    }

    /// Executes one batch of typed [`Request`]s against the resident
    /// data (see [`request`](crate::Request) for the surface).
    ///
    /// Rank-direction requests are coalesced into one deduplicated
    /// [`RankSet`]; each rank localizes against the cached bucket
    /// histogram (answered outright when its candidate window is a single
    /// repeated-value bucket) and the remainder resolves in a single
    /// lockstep multi-select pass over candidate buckets borrowed in
    /// place. Value-direction requests ([`QueryKind::RankOf`],
    /// [`QueryKind::CountBetween`]) coalesce their endpoints into one
    /// probe list: probes the histogram's splitters bound are answered
    /// host-side with **zero data scans** (provenance
    /// [`Served::Histogram`]), and the rest cost **one vectorized Combine
    /// round for the whole probe batch**, no matter how many probes.
    /// Requests whose [`Accuracy`] contract the sketches can honor are
    /// served from the sketches without touching the full data. A batch
    /// fully resolved from the histogram skips the backend entirely (zero
    /// collectives). Outcomes are aligned with `requests`, each carrying
    /// its answer, provenance and attributed collective-op cost.
    ///
    /// ```
    /// use cgselect_engine::{Bounds, Engine, EngineConfig, Request, Served};
    ///
    /// let mut engine: Engine<u64> = Engine::new(EngineConfig::new(4)).unwrap();
    /// engine.ingest((0..1000u64).rev().collect()).unwrap();
    /// let report = engine
    ///     .run(&[
    ///         Request::median(),
    ///         Request::rank_of(250),
    ///         Request::count_between(Bounds::closed(100, 199)),
    ///     ])
    ///     .unwrap();
    /// assert_eq!(report.outcomes[0].response.element(), Some(499));
    /// assert_eq!(report.outcomes[1].response.count(), Some(250));
    /// assert_eq!(report.outcomes[2].response.count(), Some(100));
    /// assert_eq!(report.outcomes[0].served, Served::Index);
    /// ```
    ///
    /// With [`EngineConfig::self_heal`] set on a membership-capable
    /// backend, a batch that fails at the execution boundary triggers one
    /// [`Engine::recover`] and retries once; request-validation errors
    /// never trigger recovery.
    pub fn run(&mut self, requests: &[Request<T>]) -> Result<RunReport<T>, EngineError> {
        let due = self.admit_standing();
        self.run_admitted(requests, due)
    }

    /// The self-healing wrapper: one batch attempt, plus one recovery and
    /// retry when the configuration asks for it.
    fn run_admitted(
        &mut self,
        requests: &[Request<T>],
        due: Vec<(SubscriptionId, Request<T>)>,
    ) -> Result<RunReport<T>, EngineError> {
        match self.run_once(requests, due) {
            Err(e @ (EngineError::Backend(_) | EngineError::Runtime(_)))
                if self.cfg.self_heal && self.backend.supports_membership() =>
            {
                if self.recover().is_err() {
                    return Err(e);
                }
                // Recovery invalidated every subscription: admit afresh.
                let due = self.admit_standing();
                self.run_once(requests, due)
            }
            other => other,
        }
    }

    /// One batch attempt: the [`pipeline`] stages in order, inside the
    /// standing wrapper (`due` subscriptions ride the batch and are
    /// delivered from its tail) and the observability wrapper (trace opened
    /// before `lower`, span and metrics after `assemble`). A validation
    /// error or a poisoned backend returns before `batches`, the seed
    /// stream or the trace-ID counter move.
    fn run_once(
        &mut self,
        requests: &[Request<T>],
        due: Vec<(SubscriptionId, Request<T>)>,
    ) -> Result<RunReport<T>, EngineError> {
        // Riders append to the caller's batch, so a refresh shares the
        // batch's probe Combine, multi-select pass and splitter refinement
        // instead of paying its own rounds.
        let user_len = requests.len();
        let combined: Vec<Request<T>>;
        let requests: &[Request<T>] = if due.is_empty() {
            requests
        } else {
            combined = requests.iter().cloned().chain(due.iter().map(|(_, r)| r.clone())).collect();
            &combined
        };
        let plan = query::plan_requests(requests, self.total, self.sketch_guarantee())?;
        // Fail fast on a poisoned backend even when the batch could be
        // served from the host-side histogram alone: the poisoning
        // contract (rebuild the engine) must not depend on which cache a
        // batch happens to hit.
        if self.backend.is_poisoned() {
            return Err(EngineError::Backend(BackendError::Poisoned));
        }
        let hist_ranks = plan.resolutions.iter().any(|r| matches!(r, Resolution::HistRank { .. }));
        if !plan.exact_ranks.is_empty() || !plan.probes.is_empty() || hist_ranks {
            self.ensure_index()?;
        }
        let routed = pipeline::route(&plan, self.index.as_ref(), &mut self.sketch);

        // Per-batch pivot seed: deterministic, but decorrelated across
        // batches so one unlucky stream cannot haunt every batch.
        let mut selection = self.cfg.selection.clone();
        selection.seed ^= (self.batches + 1).wrapping_mul(0xD1B5_4A32_D192_ED03);
        self.batches += 1;
        let observed = self.metrics.is_some().then(|| obs::Observed::open(self.batches, requests));
        let batch = pipeline::lower(&routed, selection, observed.as_ref().map(|o| o.ctx));
        let shards = pipeline::execute(self.backend.as_mut(), batch.as_ref())?;
        if let (Some(gidx), false) = (&mut self.index, shards.is_empty()) {
            let (cap, _) = self.cfg.bucket_budget(self.total);
            self.index_dirty |= pipeline::refine(gidx, &routed, &shards, cap);
        }
        let freshness = Freshness { version: self.version, elements: self.total };
        let (mut report, units) = pipeline::assemble(plan, routed, &shards, freshness);
        self.histogram_hits += report.histogram_answers as u64;

        if let (Some(m), Some(o)) = (&self.metrics, &observed) {
            report.span = Some(o.span(requests, &report.outcomes, &units, &shards));
            o.record(m, &report);
        }
        let riders = report.outcomes.split_off(user_len);
        self.deliver_standing(due, riders, observed.as_ref());
        Ok(report)
    }

    /// Standing delivery: the batch's tail outcomes belong to the due
    /// subscriptions, in admission order. Each update carries the next
    /// gap-free sequence number and the batch's freshness stamp; a dropped
    /// handle auto-unsubscribes here. Refreshes whose outcome cost zero
    /// attributed collective ops (histogram / sketch served) are counted
    /// separately — the incremental-refresh win.
    fn deliver_standing(
        &mut self,
        due: Vec<(SubscriptionId, Request<T>)>,
        riders: Vec<Outcome<T>>,
        observed: Option<&obs::Observed>,
    ) {
        let mut delivered = 0u64;
        let mut zero_collective = 0u64;
        for ((id, _), outcome) in due.into_iter().zip(riders) {
            let zero = outcome.cost.collective_ops == 0.0;
            if self.standing.deliver(id, outcome, self.version, self.mutated) {
                delivered += 1;
                zero_collective += u64::from(zero);
            }
        }
        self.standing_refreshes += delivered;
        self.standing_zero_collective += zero_collective;
        if let (Some(m), Some(o)) = (&self.metrics, observed) {
            m.gauge_set("standing_active", self.standing.len() as f64);
            if delivered > 0 {
                m.counter_add("standing_refresh", delivered);
                m.counter_add("standing_zero_collective", zero_collective);
                m.latency_observe("refresh_wall", o.wall_start.elapsed().as_nanos() as u64);
            }
        }
    }

    /// (Re)builds the resident bucket index when it is missing or stale:
    /// the shards pool their sample sketches through one collective, derive
    /// the identical splitter vector, bring their data into bucket order
    /// under it and report per-bucket summaries, which the host caches as
    /// the global histogram. A shard that still holds its index — the
    /// refinement-growth rebuild, a join — re-cuts its resident runs, so the
    /// rebuild costs the buckets the new splitters cut (none, while the
    /// sketch they come from and the bucket count have not changed) plus the
    /// one sample collective; only a shard without an index partitions
    /// everything. So a build from nothing targets `index_buckets`, and a
    /// rebuild over the cached index re-cuts to the budget's count (see
    /// `EngineConfig::bucket_budget`), which grows with the population.
    /// Observing engines count it (`index_rebuilds_total`) and time the
    /// backend call (`index_rebuild_wall`).
    fn ensure_index(&mut self) -> Result<(), EngineError> {
        if self.index.is_some() && !self.index_dirty {
            return Ok(());
        }
        debug_assert!(self.total > 0, "index builds only over resident data");
        let started = self.metrics.is_some().then(std::time::Instant::now);
        let buckets = match self.index {
            Some(_) => self.cfg.bucket_budget(self.total).1,
            None => self.cfg.index_buckets,
        };
        let (bounds, stats) = self.backend.build_index(buckets)?;
        if let (Some(m), Some(started)) = (&self.metrics, started) {
            m.counter_add("index_rebuilds_total", 1);
            m.latency_observe("index_rebuild_wall", started.elapsed().as_nanos() as u64);
        }
        self.index = Some(GlobalIndex::from_shard_stats(bounds, &stats));
        self.index_dirty = false;
        self.index_rebuilds += 1;
        Ok(())
    }

    /// Folds the delta run into the buckets once it outgrows the threshold.
    fn maybe_merge_delta(&mut self) -> Result<bool, EngineError> {
        let Some(gidx) = &self.index else {
            return Ok(false);
        };
        let threshold = (self.cfg.delta_threshold * self.total as f64).max(64.0);
        if (gidx.delta_total as f64) <= threshold {
            return Ok(false);
        }
        let stats = self.backend.merge_delta()?;
        if let Some(gidx) = &mut self.index {
            gidx.absorb_delta(&stats);
        }
        self.delta_merges += 1;
        Ok(true)
    }

    fn set_sizes(&mut self, sizes: Vec<u64>) {
        self.total = sizes.iter().sum();
        self.shard_sizes = sizes;
    }

    /// Forgets the cached histogram (the shards' placement or membership
    /// moved); [`Engine::ensure_index`] rebuilds it on the next exact batch.
    fn drop_index(&mut self) {
        self.index = None;
        self.index_dirty = false;
    }

    // --- Dynamic membership (message passing only; see [`ExecBackend`]) --

    /// True when the engine's backend supports the membership verbs below
    /// (workers joining/leaving at runtime, shard migration, crash
    /// recovery).
    pub fn supports_membership(&self) -> bool {
        self.backend.supports_membership()
    }

    /// OS process ids of the shard workers, indexed by rank (empty unless
    /// the workers are processes).
    pub fn worker_pids(&self) -> Vec<u32> {
        self.backend.worker_pids()
    }

    /// Migrates shard `rank` onto a freshly spawned worker; the
    /// shard's state moves exactly (data, bucket runs, mid-stream sketch),
    /// so the cached histogram stays warm through the move and subsequent
    /// batches are bit-identical to an engine that never migrated.
    pub fn migrate_shard(&mut self, rank: usize) -> Result<(), EngineError> {
        let sizes = self.backend.replace_worker(rank)?;
        self.set_sizes(sizes);
        // Membership moved: standing queries must fully re-resolve rather
        // than trust any cached candidate window.
        self.standing.invalidate_all();
        if let Some(m) = &self.metrics {
            m.counter_add("migrations_total", 1);
        }
        Ok(())
    }

    /// Adds one empty shard worker at the top rank and returns the new
    /// shard count. New ingests spread over the grown ring; the bucket
    /// index is rebuilt lazily on the next exact batch.
    pub fn join_worker(&mut self) -> Result<usize, EngineError> {
        let sizes = self.backend.join_worker()?;
        self.cfg.nprocs = sizes.len();
        self.set_sizes(sizes);
        self.drop_index();
        self.standing.invalidate_all();
        self.ingest_cursor %= self.cfg.nprocs;
        Ok(self.cfg.nprocs)
    }

    /// Retires the worker at `rank`, merging its shard into a survivor
    /// (no data is lost), and returns the new shard count. Refuses to
    /// retire the last shard.
    pub fn retire_worker(&mut self, rank: usize) -> Result<usize, EngineError> {
        let sizes = self.backend.retire_worker(rank)?;
        self.cfg.nprocs = sizes.len();
        self.set_sizes(sizes);
        self.drop_index();
        self.standing.invalidate_all();
        self.ingest_cursor %= self.cfg.nprocs;
        Ok(self.cfg.nprocs)
    }

    /// "Detect, re-shard, keep serving": asks the backend to ping its
    /// workers, respawn the dead ones empty, re-wire the collective fabric
    /// and clear the poisoned state (see [`ExecBackend::recover`]). The
    /// dead shards' data is lost; the surviving multiset remains exact and
    /// the engine serves again. Called automatically by [`Engine::run`]
    /// under [`EngineConfig::self_heal`].
    pub fn recover(&mut self) -> Result<RecoveryReport, EngineError> {
        let report = self.backend.recover()?;
        self.set_sizes(report.sizes.clone());
        self.drop_index();
        // Recovery changes the multiset (dead shards' data is gone), so it
        // is a mutation: the version moves and every subscription refreshes.
        self.version += 1;
        self.standing.invalidate_all();
        // The dead shards' elements left the multiset, so the host-global
        // ε-sketch is re-derived from the survivors' exports. Membership
        // moves (migrate/join/retire) never touch it: they permute the
        // multiset without changing it.
        self.refresh_sketch()?;
        if let Some(m) = &self.metrics {
            m.counter_add("recoveries_total", 1);
        }
        Ok(report)
    }

    /// Runs the configured balancer if the watermark is exceeded. A
    /// re-balance moves elements between shards arbitrarily, so it drops
    /// the bucket index; the splitters are rebuilt lazily on the next exact
    /// batch.
    fn maybe_rebalance(&mut self) -> Result<bool, EngineError> {
        if self.cfg.nprocs == 1 || self.total < self.cfg.nprocs as u64 {
            return Ok(false);
        }
        if self.imbalance_ratio() <= self.cfg.imbalance_watermark {
            return Ok(false);
        }
        let sizes = self.backend.rebalance()?;
        self.set_sizes(sizes);
        self.drop_index();
        self.rebalances += 1;
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn free_cfg(p: usize) -> EngineConfig {
        EngineConfig::new(p).model(MachineModel::free())
    }

    fn oracle_sorted(data: &[u64]) -> Vec<u64> {
        let mut v = data.to_vec();
        v.sort_unstable();
        v
    }

    /// The answer halves of a report's outcomes, for comparing two runs
    /// whose provenance and attributed cost legitimately differ.
    fn responses(report: &RunReport<u64>) -> Vec<Response<u64>> {
        report.outcomes.iter().map(|o| o.response.clone()).collect()
    }

    #[test]
    fn exact_queries_match_oracle_across_batches() {
        let mut engine: Engine<u64> = Engine::new(free_cfg(4)).unwrap();
        let data: Vec<u64> = (0..5000u64).map(|i| i.wrapping_mul(0x9E3779B9) % 100_000).collect();
        engine.ingest(data.clone()).unwrap();
        let sorted = oracle_sorted(&data);
        let n = sorted.len() as u64;

        // Several batches against the same session: state persistence.
        for batch in 0..3u64 {
            let queries = vec![
                Request::rank(batch * 100),
                Request::median(),
                Request::quantile(0.25),
                Request::quantile(0.99),
                Request::top_k(5),
            ];
            let report = engine.run(&queries).unwrap();
            assert_eq!(
                report.outcomes[0].response,
                Response::Element(sorted[(batch * 100) as usize])
            );
            assert_eq!(
                report.outcomes[1].response,
                Response::Element(sorted[((n - 1) / 2) as usize])
            );
            assert_eq!(
                report.outcomes[2].response,
                Response::Element(sorted[quantile_rank(0.25, n) as usize])
            );
            assert_eq!(
                report.outcomes[3].response,
                Response::Element(sorted[quantile_rank(0.99, n) as usize])
            );
            assert_eq!(report.outcomes[4].response, Response::Elements(sorted[..5].to_vec()));
            assert!(report.collective_ops > 0);
            assert!(report.comm.msgs_sent > 0);
        }
        assert_eq!(engine.batches(), 3);
        // The repeated ranks (median, quantiles, top-k) were refined into
        // equality-class buckets by batch 0, so later batches answered them
        // from the histogram alone.
        assert!(engine.index_health().histogram_hits > 0);
    }

    #[test]
    fn repeated_quantiles_become_histogram_only() {
        let mut engine: Engine<u64> = Engine::new(free_cfg(4)).unwrap();
        engine.ingest((0..20_000u64).rev().collect()).unwrap();
        let queries = vec![
            Request::quantile(0.25),
            Request::median(),
            Request::quantile(0.9),
            Request::rank(17),
        ];
        let warm = engine.run(&queries).unwrap();
        assert_eq!(warm.histogram_answers, 0);
        let hot = engine.run(&queries).unwrap();
        // Every distinct rank of the repeated batch is a histogram answer …
        assert_eq!(hot.histogram_answers, hot.exact_ranks);
        // … so the batch paid only the synchronization barrier.
        assert!(
            hot.collective_ops < warm.collective_ops / 2,
            "hot {} vs warm {} collective ops",
            hot.collective_ops,
            warm.collective_ops
        );
        assert_eq!(responses(&hot), responses(&warm));
    }

    #[test]
    fn ingest_round_robin_stays_balanced() {
        let mut engine: Engine<u64> = Engine::new(free_cfg(4)).unwrap();
        for _ in 0..10 {
            engine.ingest((0..25u64).collect()).unwrap();
        }
        assert_eq!(engine.len(), 250);
        let (mn, mx) = (
            *engine.shard_sizes().iter().min().unwrap(),
            *engine.shard_sizes().iter().max().unwrap(),
        );
        assert!(mx - mn <= 1, "round-robin drifted: {:?}", engine.shard_sizes());
        assert_eq!(engine.rebalances(), 0);
    }

    #[test]
    fn pinned_ingest_trips_the_watermark_exactly_once() {
        let mut engine: Engine<u64> = Engine::new(free_cfg(4).imbalance_watermark(1.5)).unwrap();
        engine.ingest((0..4000u64).collect()).unwrap();
        assert_eq!(engine.rebalances(), 0);
        // A hot shard: +4000 elements on shard 0 -> ratio (1000+4000)/2000 = 2.5.
        let rep = engine.ingest_pinned(0, (10_000..14_000u64).collect()).unwrap();
        assert!(rep.rebalanced);
        assert_eq!(engine.rebalances(), 1);
        assert!(engine.imbalance_ratio() <= 1.05, "ratio {}", engine.imbalance_ratio());
        // Queries still correct after the move.
        let report = engine.run(&[Request::rank(0), Request::quantile(1.0)]).unwrap();
        assert_eq!(report.outcomes[0].response, Response::Element(0));
        assert_eq!(report.outcomes[1].response, Response::Element(13_999));
    }

    #[test]
    fn delete_removes_all_occurrences_and_updates_queries() {
        let mut engine: Engine<u64> = Engine::new(free_cfg(3)).unwrap();
        engine.ingest(vec![5, 1, 5, 3, 5, 2, 4, 5]).unwrap();
        let rep = engine.delete(&[5, 99]).unwrap();
        assert_eq!(rep.elements, 4);
        assert_eq!(engine.len(), 4);
        let report = engine.run(&[Request::top_k(4)]).unwrap();
        assert_eq!(report.outcomes[0].response, Response::Elements(vec![1, 2, 3, 4]));
    }

    #[test]
    fn delete_through_the_index_stays_exact() {
        let mut engine: Engine<u64> = Engine::new(free_cfg(4)).unwrap();
        let data: Vec<u64> = (0..6000u64).map(|i| i % 500).collect();
        engine.ingest(data.clone()).unwrap();
        // Build the index, then delete value classes through it.
        engine.run(&[Request::median()]).unwrap();
        assert!(engine.index_health().buckets > 0);
        let rep = engine.delete(&[100, 250, 499]).unwrap();
        assert_eq!(rep.elements, 36); // 3 values × 12 occurrences each
        let mut oracle = oracle_sorted(&data);
        oracle.retain(|&x| x != 100 && x != 250 && x != 499);
        let n = oracle.len() as u64;
        let report =
            engine.run(&[Request::rank(0), Request::median(), Request::rank(n - 1)]).unwrap();
        assert_eq!(report.outcomes[0].response, Response::Element(oracle[0]));
        assert_eq!(report.outcomes[1].response, Response::Element(oracle[((n - 1) / 2) as usize]));
        assert_eq!(report.outcomes[2].response, Response::Element(oracle[(n - 1) as usize]));
    }

    #[test]
    fn delta_run_keeps_answers_exact_until_merge() {
        let mut engine: Engine<u64> = Engine::new(free_cfg(2).delta_threshold(10.0)).unwrap(); // merge never triggers
        let mut all: Vec<u64> = (0..3000u64).map(|i| i.wrapping_mul(2654435761) % 9973).collect();
        engine.ingest(all.clone()).unwrap();
        engine.run(&[Request::median()]).unwrap(); // builds the index
        for round in 0..4u64 {
            let burst: Vec<u64> = (0..333u64).map(|i| (round * 1000 + i * 7) % 9973).collect();
            all.extend(&burst);
            engine.ingest(burst).unwrap();
            assert!(engine.index_health().delta_len > 0, "delta must accumulate");
            let sorted = oracle_sorted(&all);
            let n = sorted.len() as u64;
            let report = engine
                .run(&[Request::rank(0), Request::median(), Request::quantile(0.99)])
                .unwrap();
            assert_eq!(report.outcomes[0].response, Response::Element(sorted[0]));
            assert_eq!(
                report.outcomes[1].response,
                Response::Element(sorted[((n - 1) / 2) as usize])
            );
            assert_eq!(
                report.outcomes[2].response,
                Response::Element(sorted[quantile_rank(0.99, n) as usize])
            );
            assert!(report.delta_occupancy > 0.0);
        }
        assert_eq!(engine.index_health().delta_merges, 0);
    }

    #[test]
    fn delta_merge_triggers_at_the_threshold_and_stays_exact() {
        let mut engine: Engine<u64> = Engine::new(free_cfg(2).delta_threshold(0.02)).unwrap();
        let mut all: Vec<u64> = (0..8000u64).map(|i| i.wrapping_mul(48271) % 65_536).collect();
        engine.ingest(all.clone()).unwrap();
        engine.run(&[Request::median()]).unwrap();
        assert_eq!(engine.index_health().delta_merges, 0);
        // 8000 × 0.02 = 160 < 400-element burst -> merge must fire.
        let burst: Vec<u64> = (0..400u64).map(|i| i * 131 % 65_536).collect();
        all.extend(&burst);
        engine.ingest(burst).unwrap();
        let health = engine.index_health();
        assert_eq!(health.delta_merges, 1);
        assert_eq!(health.delta_len, 0);
        let sorted = oracle_sorted(&all);
        let n = sorted.len() as u64;
        let report = engine.run(&[Request::median(), Request::quantile(0.75)]).unwrap();
        assert_eq!(report.outcomes[0].response, Response::Element(sorted[((n - 1) / 2) as usize]));
        assert_eq!(
            report.outcomes[1].response,
            Response::Element(sorted[quantile_rank(0.75, n) as usize])
        );
    }

    #[test]
    fn approximate_quantile_stays_within_tolerance() {
        let mut engine: Engine<u64> = Engine::new(free_cfg(4).sketch_capacity(2048)).unwrap();
        // 0..80000 shuffled deterministically: value == rank.
        let n = 80_000u64;
        let data: Vec<u64> = {
            let mut v: Vec<u64> = (0..n).collect();
            let mut rng = cgselect_seqsel::KernelRng::new(9);
            for i in (1..v.len()).rev() {
                v.swap(i, rng.below(i as u64 + 1) as usize);
            }
            v
        };
        engine.ingest(data).unwrap();
        let tol = 0.05;
        let report = engine
            .run(&[
                Request::quantile(0.5).within_rank(tol),
                Request::quantile(0.9).within_rank(tol),
            ])
            .unwrap();
        assert_eq!(report.sketch_answers, 2);
        assert_eq!(report.exact_ranks, 0);
        // The whole rung is served from the host-global ε-sketch.
        assert_eq!(report.collective_ops, 0);
        for (outcome, q) in report.outcomes.iter().zip([0.5, 0.9]) {
            match outcome.response {
                Response::Approximate { value, target_rank, max_rank_error } => {
                    assert_eq!(target_rank, quantile_rank(q, n));
                    // The reported error is the sketch's *guarantee*, which
                    // must honor (and usually beats) the ⌈t·n⌉ contract.
                    assert!(
                        max_rank_error <= (tol * n as f64).ceil() as u64,
                        "guarantee {max_rank_error} exceeds the contract"
                    );
                    assert!(max_rank_error > 0, "a compacted sketch is not exact");
                    let err = value.abs_diff(target_rank);
                    assert!(
                        err <= max_rank_error,
                        "q={q}: estimate {value} vs target {target_rank} (err {err})"
                    );
                }
                ref other => panic!("expected an approximate answer, got {other:?}"),
            }
        }
        // A tolerance tighter than the sketch bound must fall back to exact.
        let report = engine.run(&[Request::quantile(0.5).within_rank(1e-9)]).unwrap();
        assert_eq!(report.sketch_answers, 0);
        assert_eq!(report.outcomes[0].response, Response::Element(quantile_rank(0.5, n)));
    }

    #[test]
    fn batching_uses_fewer_collective_ops_than_single_queries() {
        // Coalescing R ranks into one multi-select pass beats R single-rank
        // passes. Each side runs on its own fresh engine over the same data,
        // so no single query can be served by a histogram the other side's
        // answers refined.
        let data: Vec<u64> =
            (0..40_000u64).map(|i| i.wrapping_mul(2654435761) % 1_000_000).collect();
        let fresh = || {
            let mut engine: Engine<u64> = Engine::new(free_cfg(4)).unwrap();
            engine.ingest(data.clone()).unwrap();
            engine
        };
        let ranks: Vec<u64> = (1..=16).map(|i| i * 2000).collect();

        let batch: Vec<Request<u64>> = ranks.iter().map(|&r| Request::rank(r)).collect();
        let batched = fresh().run(&batch).unwrap();

        let mut single = fresh();
        let mut single_total = 0u64;
        for &r in &ranks {
            single_total += single.run(&[Request::rank(r)]).unwrap().collective_ops;
        }
        assert!(
            batched.collective_ops < single_total,
            "batched {} vs {} summed single-query collective ops",
            batched.collective_ops,
            single_total
        );
    }

    /// The paper's multi-select over `data` split into `p` bare parts: no
    /// engine, no index. Returns rank 0's answers and collective ops.
    fn bare_multi_select(p: usize, data: &[u64], ranks: &[u64]) -> (Vec<u64>, u64) {
        let chunk = data.len().div_ceil(p);
        let cfg = SelectionConfig::default();
        let outs = cgselect_runtime::Machine::with_model(p, MachineModel::free())
            .run(|proc| {
                let mine = data.chunks(chunk).nth(proc.rank()).unwrap_or_default().to_vec();
                let answers = cgselect_core::parallel_multi_select(proc, mine, ranks, &cfg);
                (answers, proc.comm_stats().collective_ops)
            })
            .unwrap();
        outs.into_iter().next().expect("rank 0")
    }

    #[test]
    fn indexed_engine_beats_the_baseline_on_collective_ops() {
        let data: Vec<u64> =
            (0..40_000u64).map(|i| i.wrapping_mul(2654435761) % 1_000_000).collect();
        let ranks: Vec<u64> = (1..=16).map(|i| i * 2000).collect();
        let (answers, base_ops) = bare_multi_select(4, &data, &ranks);

        let mut indexed: Engine<u64> = Engine::new(free_cfg(4)).unwrap();
        indexed.ingest(data).unwrap();
        let queries: Vec<Request<u64>> = ranks.iter().map(|&r| Request::rank(r)).collect();
        let idx = indexed.run(&queries).unwrap();

        assert_eq!(responses(&idx), answers.into_iter().map(Response::Element).collect::<Vec<_>>());
        assert!(
            2 * idx.collective_ops <= base_ops,
            "indexed {} vs bare multi-select {base_ops} collective ops (first batch)",
            idx.collective_ops
        );
    }

    #[test]
    #[should_panic(expected = "index bucket target must be >= 1")]
    fn a_zero_bucket_target_is_rejected() {
        let buckets = 0;
        let _ = Engine::<u64>::new(free_cfg(2).index_buckets(buckets));
    }

    #[test]
    fn the_bucket_budget_is_the_targets_own_until_the_data_outgrows_it() {
        // At the defaults (t = 64, T = 1024 for p ≤ 32) nothing changes up
        // to 4t · T = 2^18 elements.
        for p in [2, 3] {
            let cfg = EngineConfig::new(p);
            for total in (0..=1u64 << 18).step_by(97).chain([1023, 1024, 1025, 1 << 18]) {
                assert_eq!(cfg.bucket_budget(total), (256, 64), "p = {p}, {total} elements");
            }
            assert_eq!(cfg.bucket_budget((1 << 18) + 1), (257, 64));
        }
        let cfg = EngineConfig::new(2);
        assert_eq!(cfg.bucket_budget(1 << 20), (1024, 256));
        assert_eq!(cfg.bucket_budget(1 << 22), (4096, 1024));
        // Small targets keep their `t + 16` floor at small n: the scan shape
        // and the conformance suite's cap-trip target.
        assert_eq!(EngineConfig::new(2).index_buckets(1).bucket_budget(3000), (17, 1));
        assert_eq!(EngineConfig::new(3).index_buckets(4).bucket_budget(3000), (20, 4));
        // The threshold scales with p² above the floor.
        assert_eq!(EngineConfig::new(64).bucket_budget(1 << 22), (1024, 256));
    }

    #[test]
    fn errors_reject_bad_batches_without_poisoning() {
        let mut engine: Engine<u64> = Engine::new(free_cfg(2)).unwrap();
        assert_eq!(engine.run(&[Request::median()]).unwrap_err(), EngineError::Empty);
        engine.ingest(vec![1, 2, 3]).unwrap();
        assert_eq!(
            engine.run(&[Request::rank(3)]).unwrap_err(),
            EngineError::RankOutOfRange { rank: 3, n: 3 }
        );
        assert_eq!(
            engine.run(&[Request::quantile(-0.1)]).unwrap_err(),
            EngineError::InvalidQuantile(-0.1)
        );
        // The session is still healthy.
        let report = engine.run(&[Request::median()]).unwrap();
        assert_eq!(report.outcomes[0].response, Response::Element(2));
    }

    #[test]
    fn channel_mp_backend_matches_local_spmd_exactly() {
        // The conformance harness (tests/backend_conformance.rs) covers the
        // full lifecycle; this is the in-crate smoke check of the same
        // invariant: identical answers AND identical collective-op counts.
        let data: Vec<u64> = (0..8000u64).map(|i| i.wrapping_mul(2654435761) % 50_000).collect();
        let queries =
            vec![Request::rank(17), Request::median(), Request::quantile(0.9), Request::top_k(4)];

        let mut local: Engine<u64> = Engine::new(free_cfg(3)).unwrap();
        let mut mp: Engine<u64> = Engine::new(free_cfg(3).channel_mp()).unwrap();
        assert_eq!(local.backend_kind(), BackendKind::LocalSpmd);
        assert_eq!(mp.backend_kind(), BackendKind::ChannelMp);

        local.ingest(data.clone()).unwrap();
        mp.ingest(data).unwrap();
        for round in 0..3 {
            let a = local.run(&queries).unwrap();
            let b = mp.run(&queries).unwrap();
            assert_eq!(responses(&a), responses(&b), "round {round}");
            assert_eq!(a.collective_ops, b.collective_ops, "round {round}");
            assert_eq!(a.histogram_answers, b.histogram_answers, "round {round}");
        }
        local.delete(&[17, 99]).unwrap();
        mp.delete(&[17, 99]).unwrap();
        assert_eq!(local.len(), mp.len());
        assert_eq!(local.index_health(), mp.index_health());
        let a = local.run(&queries).unwrap();
        let b = mp.run(&queries).unwrap();
        assert_eq!(responses(&a), responses(&b));
        assert_eq!(a.collective_ops, b.collective_ops);
    }

    #[test]
    fn single_shard_engine_works() {
        let mut engine: Engine<u64> = Engine::new(free_cfg(1)).unwrap();
        engine.ingest((0..100u64).rev().collect()).unwrap();
        let report = engine.run(&[Request::median(), Request::top_k(2)]).unwrap();
        assert_eq!(report.outcomes[0].response, Response::Element(49));
        assert_eq!(report.outcomes[1].response, Response::Elements(vec![0, 1]));
    }

    #[test]
    fn virtual_time_advances_across_batches() {
        let mut engine: Engine<u64> = Engine::new(EngineConfig::new(4)).unwrap();
        engine.ingest((0..10_000u64).collect()).unwrap();
        let a = engine.run(&[Request::median()]).unwrap();
        let b = engine.run(&[Request::rank(123)]).unwrap();
        assert!(a.makespan > 0.0);
        assert!(b.makespan > 0.0);
        // A fully histogram-answered repeat costs no measured batch time —
        // that is the point of the fast path.
        let c = engine.run(&[Request::median()]).unwrap();
        assert_eq!(c.histogram_answers, 1);
        assert_eq!(responses(&c), responses(&a));
    }
}
