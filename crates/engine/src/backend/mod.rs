//! Pluggable execution backends: *where* the engine's shards live and
//! *how* its collective rounds are realized.
//!
//! The paper's algorithms — and the Saukas–Song line of coarse-grained
//! selection work — are phrased purely in terms of collectives, so their
//! analysis holds no matter how a round is transported. This module makes
//! the engine honor that: everything below the host-side planner (shard
//! residency, batch execution, ingest/delete/rebalance, index maintenance,
//! communication accounting) sits behind the [`ExecBackend`] trait, chosen
//! per engine via [`crate::EngineConfig::backend`].
//!
//! Two backends ship, the second over two transports:
//!
//! * **[`LocalSpmd`]** — the original in-process
//!   [`cgselect_runtime::Session`]: shard state lives in each persistent
//!   worker's `ShardStore`, programs are shipped as shared closures.
//! * **Message passing** (`mp`, private) — each shard lives on its own
//!   long-lived worker that owns its data outright; every command and reply
//!   crosses the link as a **serialized byte frame** (`protocol`, private,
//!   over the runtime's [`cgselect_runtime::WireMsg`] codec), never as a
//!   shared pointer. One generic host and one worker serve loop are written
//!   against a transport that only spawns workers, moves frames, stages the
//!   collective fabric and reaps:
//!   * [`BackendChoice::ChannelMp`] — the **thread transport**
//!     ([`channel_mp`]): worker threads, frames on in-process channels. It
//!     also hosts [`Fault`] injection (worker panic mid-batch, dropped
//!     replies, slow shards) so the typed error, poisoning and recovery
//!     behavior at this boundary is testable deterministically.
//!   * [`BackendChoice::SocketMp`] — the **process transport**
//!     ([`socket_mp`]): each shard is a separate `cgselect-shard-worker`
//!     **process**; commands and the shard-to-shard collective fabric both
//!     ride Unix-domain sockets.
//!
//!   Membership is dynamic on both transports — workers
//!   [`ExecBackend::join_worker`] / [`ExecBackend::retire_worker`] at
//!   runtime, shards migrate between workers
//!   ([`ExecBackend::replace_worker`]), and a failed or killed worker is
//!   detected and re-sharded around ([`ExecBackend::recover`]).
//!
//! All backends execute the *identical* per-shard code (`ops`, private)
//! over the identical [`cgselect_runtime::Proc`] collectives, which is what
//! `tests/backend_conformance.rs` exploits: every scenario family must
//! produce the same answers **and the same collective-round counts** on
//! all of them, differentially against the sequential oracle.

pub mod channel_mp;
mod local;
pub(crate) mod mp;
pub(crate) mod ops;
pub(crate) mod protocol;
pub mod socket_mp;

pub use channel_mp::{ChannelMpTuning, Fault};
pub use local::LocalSpmd;
pub use socket_mp::SocketMpTuning;

use std::sync::Arc;

use cgselect_core::SelectionConfig;
use cgselect_runtime::{CommStats, Key, RunError, WireMsg, WireMsgError, WireReader};
use cgselect_seqsel::SepBound;

use crate::index::{BucketStats, Group};
use crate::obs::{PhaseSpan, TraceContext};
use crate::query::RankSet;

/// Which execution backend an engine runs on (see
/// [`crate::EngineConfig::backend`]).
#[derive(Clone, Debug, Default)]
pub enum BackendChoice {
    /// The in-process persistent SPMD session (the default).
    #[default]
    LocalSpmd,
    /// Message passing over per-shard worker **threads** with serialized
    /// command/reply frames on in-process channels, tuned by the carried
    /// [`ChannelMpTuning`].
    ChannelMp(ChannelMpTuning),
    /// Message passing over per-shard worker **processes** and Unix-domain
    /// sockets, tuned by the carried [`SocketMpTuning`]. Requires the
    /// `cgselect-shard-worker` binary (see
    /// [`crate::EngineConfig::socket_mp`]).
    SocketMp(SocketMpTuning),
}

impl BackendChoice {
    /// The kind this choice constructs.
    pub fn kind(&self) -> BackendKind {
        match self {
            BackendChoice::LocalSpmd => BackendKind::LocalSpmd,
            BackendChoice::ChannelMp(_) => BackendKind::ChannelMp,
            BackendChoice::SocketMp(_) => BackendKind::SocketMp,
        }
    }
}

/// Discriminates the shipped backend implementations (e.g. for reports and
/// bench labels).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BackendKind {
    /// [`LocalSpmd`].
    LocalSpmd,
    /// Message passing over the thread transport
    /// ([`BackendChoice::ChannelMp`]).
    ChannelMp,
    /// Message passing over the process transport
    /// ([`BackendChoice::SocketMp`]).
    SocketMp,
}

impl BackendKind {
    /// Stable lower-case label.
    pub fn as_str(self) -> &'static str {
        match self {
            BackendKind::LocalSpmd => "local-spmd",
            BackendKind::ChannelMp => "channel-mp",
            BackendKind::SocketMp => "socket-mp",
        }
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A failure at the execution-backend boundary.
///
/// Mirrors [`RunError::SessionPoisoned`] semantics at the [`ExecBackend`]
/// level: after any variant other than [`BackendError::Poisoned`] is
/// returned once, the backend is poisoned and every subsequent call fails
/// fast with [`BackendError::Poisoned`] — surviving shards may hold
/// inconsistent state, so a long-lived service should rebuild the engine.
#[derive(Clone, Debug, PartialEq)]
pub enum BackendError {
    /// A shard's SPMD program failed, on any backend — a worker panic is
    /// [`RunError::ProcPanicked`] — or a worker's frame failed to decode
    /// ([`RunError::WireProtocol`]); carries the underlying error.
    Runtime(RunError),
    /// A shard worker stopped replying within the reply timeout (its reply
    /// was lost, or the worker died without reporting).
    WorkerUnresponsive {
        /// Rank of the silent worker.
        rank: usize,
    },
    /// The backend refused to run because an earlier program failed.
    Poisoned,
    /// A worker process could not be spawned or initialized.
    Spawn {
        /// Rank the worker was meant to serve.
        rank: usize,
        /// What went wrong.
        detail: String,
    },
    /// The backend does not implement the named verb (e.g. membership
    /// operations on [`LocalSpmd`]).
    Unsupported {
        /// The refused verb.
        verb: &'static str,
    },
}

impl std::fmt::Display for BackendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BackendError::Runtime(e) => write!(f, "backend runtime failure: {e}"),
            BackendError::WorkerUnresponsive { rank } => {
                write!(f, "shard worker {rank} stopped replying")
            }
            BackendError::Poisoned => {
                write!(f, "backend poisoned by an earlier failed program")
            }
            BackendError::Spawn { rank, detail } => {
                write!(f, "spawning shard worker {rank} failed: {detail}")
            }
            BackendError::Unsupported { verb } => {
                write!(f, "this backend does not support {verb}")
            }
        }
    }
}

impl std::error::Error for BackendError {}

impl From<RunError> for BackendError {
    fn from(e: RunError) -> Self {
        match e {
            // The session's own fail-fast refusal is the backend-level
            // poisoned state, not a fresh runtime failure.
            RunError::SessionPoisoned => BackendError::Poisoned,
            other => BackendError::Runtime(other),
        }
    }
}

impl BackendError {
    /// True for a worker's fallout from another worker's failure — the
    /// backend-level twin of [`RunError::is_secondary`], used to report
    /// root causes.
    pub fn is_secondary(&self) -> bool {
        matches!(self, BackendError::Runtime(e) if e.is_secondary())
    }
}

/// What [`ExecBackend::recover`] did to bring a backend back to serving.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Ranks whose workers were found dead and respawned empty
    /// (their shard data is lost; the surviving multiset stays exact).
    pub replaced: Vec<usize>,
    /// Per-shard sizes after recovery, indexed by rank.
    pub sizes: Vec<u64>,
}

/// Everything a backend's shards need to execute one coalesced query batch.
///
/// Host-side planning — rank coalescing, histogram routing, the per-batch
/// pivot seed — has already happened; the plan is identical for every
/// backend, which is what makes answers *and collective-round counts*
/// comparable across backends.
#[derive(Clone, Debug)]
pub struct BatchPlan<T> {
    /// Candidate-window groups routed against the cached histogram (empty
    /// when every rank took the histogram fast path). Every shard holds the
    /// bucket index these groups name: the host builds it before any exact
    /// rank or value probe lowers.
    pub groups: Arc<Vec<Group>>,
    /// The batch's deduplicated global ranks, as contiguous runs.
    pub exact_ranks: Arc<RankSet>,
    /// Value probes `(value, inclusive)` the histogram could not bound —
    /// resolved by ONE vectorized `count_below` Combine round for all of
    /// them together, no matter how many (sorted, distinct).
    pub value_probes: Arc<Vec<(T, bool)>>,
    /// Selection tuning with the per-batch pivot seed already folded in.
    pub selection: SelectionConfig,
    /// Global unindexed delta-run population.
    pub delta_total: u64,
    /// The batch's trace context when observability is on — its presence
    /// asks the shards to bracket execution phases and measure
    /// [`PhaseSpan`]s; `None` keeps execution span-free (and byte-for-byte
    /// identical in collective structure either way).
    pub trace: Option<TraceContext>,
}

/// Per-phase collective-operation deltas of one executed batch (identical
/// on every rank by SPMD discipline) — the measurement behind the
/// per-query [`crate::CostAttribution`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseOps {
    /// The value-probe `count_below` Combine round.
    pub probes: u64,
    /// The exact multi-select pass (localization, recursion, refinement).
    pub exact: u64,
    /// The sketch phase — pinned at zero since sketch contracts are served
    /// host-side off the global ε-sketch; kept so the span schema (and the
    /// per-query [`crate::CostAttribution`] shape) stays stable.
    pub sketch: u64,
}

/// What one shard reports back from one executed batch.
#[derive(Clone, Debug)]
pub struct ShardBatchOutcome<T> {
    /// Resolved values for the coalesced rank list; slots answered from the
    /// host's histogram fast path stay `None`. Identical on every rank by
    /// SPMD discipline.
    pub exact: Vec<Option<T>>,
    /// Per-group refreshed bucket summaries after answer refinement,
    /// aligned with [`BatchPlan::groups`].
    pub refines: Vec<BucketStats<T>>,
    /// Refreshed bucket summaries from probe-driven splitter refinement:
    /// one entry per [`BatchPlan::value_probes`] probe that actually
    /// carved a new equality class (already-carved probes are skipped by
    /// a deterministic test the host replays), in probe order.
    pub probe_refines: Vec<BucketStats<T>>,
    /// **Global** prefix counts for [`BatchPlan::value_probes`], in order
    /// (already Combined — identical on every rank).
    pub probe_counts: Vec<u64>,
    /// Collective-op deltas per execution phase.
    pub phase_ops: PhaseOps,
    /// Communication this shard moved during the batch (a
    /// [`CommStats::since`] delta).
    pub comm: CommStats,
    /// Virtual time this shard spent in the batch.
    pub elapsed: f64,
    /// Per-phase measurements, in [`crate::obs::Phase::ALL`] order — empty
    /// unless the plan carried a [`TraceContext`].
    pub spans: Vec<PhaseSpan>,
}

/// The fields in declaration order; [`PhaseOps`] rides as its three
/// counters.
impl<T: Key> WireMsg for ShardBatchOutcome<T> {
    fn wire_encode(&self, out: &mut Vec<u8>) {
        self.exact.wire_encode(out);
        self.refines.wire_encode(out);
        self.probe_refines.wire_encode(out);
        self.probe_counts.wire_encode(out);
        let PhaseOps { probes, exact, sketch } = self.phase_ops;
        ((probes, exact, sketch), self.comm, self.elapsed).wire_encode(out);
        self.spans.wire_encode(out);
    }

    fn wire_decode(r: &mut WireReader<'_>) -> Result<Self, WireMsgError> {
        let (exact, refines, probe_refines, probe_counts) = WireMsg::wire_decode(r)?;
        let ((probes, exact_ops, sketch), comm, elapsed, spans) = WireMsg::wire_decode(r)?;
        let phase_ops = PhaseOps { probes, exact: exact_ops, sketch };
        Ok(ShardBatchOutcome {
            exact,
            refines,
            probe_refines,
            probe_counts,
            phase_ops,
            comm,
            elapsed,
            spans,
        })
    }
}

/// What one shard reports back from one delete pass.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardDeletion {
    /// Elements remaining on the shard.
    pub remaining: u64,
    /// Per-bucket removal counts (`num_buckets + 1` entries, the last one
    /// the delta run's) when the shard holds an index; empty otherwise.
    pub removed: Vec<u64>,
    /// Whether this delete tipped the shard into re-sketching its resident
    /// data (the removals its sketch carried outweighed a quarter of what
    /// was left); otherwise the sketch only noted the removed elements.
    pub resketched: bool,
}

/// `(remaining, removed, resketched)`.
impl WireMsg for ShardDeletion {
    fn wire_encode(&self, out: &mut Vec<u8>) {
        self.remaining.wire_encode(out);
        self.removed.wire_encode(out);
        self.resketched.wire_encode(out);
    }

    fn wire_decode(r: &mut WireReader<'_>) -> Result<Self, WireMsgError> {
        let (remaining, removed, resketched) = WireMsg::wire_decode(r)?;
        Ok(ShardDeletion { remaining, removed, resketched })
    }
}

/// The execution seam of the engine: owns shard residency and realizes
/// every collective verb the host-side planner needs.
///
/// Implementations must uphold three contracts:
///
/// 1. **Determinism** — the same call sequence produces identical results
///    (answers, per-shard sizes, bucket summaries, collective-op deltas)
///    on every backend, because all of them run the same per-shard code
///    over the same [`cgselect_runtime::Proc`] collective semantics.
/// 2. **Rank order** — every `Vec` result is indexed by shard rank.
/// 3. **Poisoning** — after any method returns an error, the backend is
///    poisoned: subsequent calls fail fast with [`BackendError::Poisoned`]
///    (mirroring [`RunError::SessionPoisoned`]) and worker threads are
///    joined on drop.
pub trait ExecBackend<T: Key>: Send {
    /// Number of shards (= virtual processors).
    fn nprocs(&self) -> usize;

    /// Which implementation this is.
    fn kind(&self) -> BackendKind;

    /// True once a program has failed in this backend.
    fn is_poisoned(&self) -> bool;

    /// Appends `chunks[rank]` to each shard (the new elements join the
    /// index's delta run) and returns the per-shard sizes.
    fn ingest(&mut self, chunks: Vec<Vec<T>>) -> Result<Vec<u64>, BackendError>;

    /// Removes every occurrence of the sorted, deduplicated `values` from
    /// each shard, maintaining shard indexes in place.
    fn delete(&mut self, values: Vec<T>) -> Result<Vec<ShardDeletion>, BackendError>;

    /// Runs the configured balancer over all shards (dropping their bucket
    /// indexes) and returns the per-shard sizes.
    fn rebalance(&mut self) -> Result<Vec<u64>, BackendError>;

    /// (Re)builds the shared-splitter bucket index with the given target
    /// bucket count and returns the shared splitter vector (identical on
    /// every shard by construction; the host mirrors it) plus each shard's
    /// per-bucket summary.
    #[allow(clippy::type_complexity)]
    fn build_index(
        &mut self,
        buckets: usize,
    ) -> Result<(Vec<SepBound<T>>, Vec<BucketStats<T>>), BackendError>;

    /// Folds each shard's delta run into its buckets and returns the
    /// per-shard delta summaries.
    fn merge_delta(&mut self) -> Result<Vec<BucketStats<T>>, BackendError>;

    /// Executes one coalesced query batch (the
    /// [`cgselect_core::parallel_multi_select_windows`] dispatch plus the
    /// vectorized `count_below` probe round) and returns each shard's
    /// outcome.
    fn execute(&mut self, plan: &BatchPlan<T>) -> Result<Vec<ShardBatchOutcome<T>>, BackendError>;

    /// Exports each shard's resident ε-sketch, indexed by rank. The host
    /// merges them ([`crate::EpsSketch::merge`] is closed under the error
    /// bound) to rebuild its global sketch after operations that change
    /// the multiset outside ingest (delete, crash recovery).
    fn export_sketches(&mut self) -> Result<Vec<crate::sketch::EpsSketch<T>>, BackendError>;

    // --- Dynamic membership (optional capability) ---------------------
    //
    // [`LocalSpmd`] has a fixed worker ring, so every verb below defaults
    // to [`BackendError::Unsupported`]. The message-passing backend
    // overrides all of them on every transport: its collective fabric is
    // rebuilt per membership epoch.

    /// True when this backend implements the membership verbs below.
    fn supports_membership(&self) -> bool {
        false
    }

    /// OS process ids of the shard workers, indexed by rank — empty unless
    /// the workers are processes. (For tests and operational tooling; killing a
    /// pid and calling [`ExecBackend::recover`] is the crash drill.)
    fn worker_pids(&self) -> Vec<u32> {
        vec![]
    }

    /// **Shard migration**: moves shard `rank` to a freshly spawned worker
    /// — full state (data, bucket runs, mid-stream sketch) is
    /// exported, imported exactly, and the fabric re-wired — then returns
    /// the per-shard sizes. The shard is bit-identical after the move, so
    /// host-side caches (e.g. the histogram) stay valid.
    fn replace_worker(&mut self, rank: usize) -> Result<Vec<u64>, BackendError> {
        let _ = rank;
        Err(BackendError::Unsupported { verb: "replace_worker" })
    }

    /// Adds one empty shard worker at rank `nprocs`, re-wires the fabric,
    /// and returns the new per-shard sizes (length `nprocs + 1`).
    fn join_worker(&mut self) -> Result<Vec<u64>, BackendError> {
        Err(BackendError::Unsupported { verb: "join_worker" })
    }

    /// Removes the worker at `rank`, merging its shard into a survivor,
    /// and returns the new per-shard sizes (length `nprocs − 1`). Ranks
    /// above the retiree shift down by one.
    fn retire_worker(&mut self, rank: usize) -> Result<Vec<u64>, BackendError> {
        let _ = rank;
        Err(BackendError::Unsupported { verb: "retire_worker" })
    }

    /// "Detect, re-shard, keep serving": pings every worker, respawns the
    /// dead ones with empty shards, resets the survivors' bucket indexes,
    /// rebuilds the fabric and clears the poisoned state. The dead shards'
    /// data is lost; the surviving multiset remains exact.
    fn recover(&mut self) -> Result<RecoveryReport, BackendError> {
        Err(BackendError::Unsupported { verb: "recover" })
    }
}
