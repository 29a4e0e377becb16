//! The engine's async frontend: a submission queue with deadline
//! micro-batching.
//!
//! [`Engine::run`] is synchronous — the caller forms a batch and blocks
//! on its collective pass. A service facing many concurrent clients wants
//! the opposite: each client submits *one* query and awaits *one* answer,
//! while the engine amortizes the `O(log n + R)` multi-select rounds over
//! as many concurrent queries as possible. This module provides that
//! frontend:
//!
//! * **[`SubmissionQueue`]** — a cloneable, thread-safe handle. Clients
//!   [`submit_request`](SubmissionQueue::submit_request) queries (or
//!   [`submit_ingest`](SubmissionQueue::submit_ingest) /
//!   [`submit_delete`](SubmissionQueue::submit_delete) mutations) and get a
//!   [`Ticket`] — a future-like handle resolving to the answer.
//! * **Deadline micro-batching** — a dedicated batcher thread owns the
//!   [`Engine`] (and with it the persistent SPMD session). The first
//!   queued query opens a batch; the batch executes when the configured
//!   [`window`](FrontendConfig::window) elapses or
//!   [`max_batch`](FrontendConfig::max_batch) queries have coalesced,
//!   whichever comes first. Everything already queued at wakeup joins the
//!   batch immediately, so even `window = 0` opportunistically coalesces
//!   backlog.
//! * **Admission control** — the queue is bounded
//!   ([`queue_capacity`](FrontendConfig::queue_capacity)); a saturated
//!   queue rejects new submissions with [`SubmitError::Saturated`] instead
//!   of buffering without bound. The queue keeps serving and recovers as
//!   soon as it drains.
//! * **Per-query failure isolation** — each query is validated individually
//!   against the resident population at execution time, so one
//!   out-of-domain query fails *its own* ticket and never poisons the
//!   coalesced batch it rode in with.
//! * **Metrics** — [`FrontendStats`] exposes queue depth, wait times,
//!   batch occupancy and the per-batch [`CommStats`]-derived collective-op
//!   counts ([`FrontendStats::rounds_per_query`] is the number the
//!   micro-batch window is tuned against).
//!
//! FIFO order is preserved: a mutation is a hard batch boundary, so queries
//! submitted before an ingest/delete observe the pre-mutation population
//! and queries submitted after it observe the post-mutation one.
//!
//! [`CommStats`]: cgselect_runtime::CommStats

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use cgselect_runtime::Key;
use crossbeam::channel::{bounded, unbounded, Receiver, RecvTimeoutError, Sender, TrySendError};

use crate::obs::{MetricsRegistry, TraceId};
use crate::{
    Engine, EngineError, MutationReport, Outcome, RefreshPolicy, Request, StandingHandle,
    SubscriptionId,
};

/// How long the batcher sleeps between polls while idle or paused, and the
/// cap on any single in-window wait (so shutdown is observed promptly even
/// under very wide windows).
const IDLE_POLL: Duration = Duration::from_millis(1);
const PAUSE_POLL: Duration = Duration::from_micros(200);
const COLLECT_POLL_CAP: Duration = Duration::from_millis(5);

/// Configuration of the async frontend.
#[derive(Clone, Debug)]
pub struct FrontendConfig {
    /// Bound on queued-but-unexecuted submissions; submissions beyond it
    /// are rejected with [`SubmitError::Saturated`].
    pub queue_capacity: usize,
    /// Maximum queries coalesced into one batch (one multi-select pass).
    pub max_batch: usize,
    /// Micro-batch window: how long a batch stays open after its first
    /// query arrives, gathering more queries. Wider windows trade single
    /// query latency for fewer collective rounds per query.
    pub window: Duration,
    /// Start with execution paused ([`SubmissionQueue::resume`] starts the
    /// batcher draining). Submissions are accepted (up to capacity) but no
    /// batch is opened while paused — useful for deterministic tests and
    /// for staging a burst. (A later [`SubmissionQueue::pause`] only takes
    /// effect from the next batch; a window already open keeps collecting.)
    pub start_paused: bool,
}

impl Default for FrontendConfig {
    fn default() -> Self {
        FrontendConfig {
            queue_capacity: 1024,
            max_batch: 256,
            window: Duration::from_millis(1),
            start_paused: false,
        }
    }
}

impl FrontendConfig {
    /// Defaults: capacity 1024, max batch 256, 1 ms window, running.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builder-style queue capacity choice.
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity;
        self
    }

    /// Builder-style max batch choice.
    pub fn max_batch(mut self, max_batch: usize) -> Self {
        self.max_batch = max_batch;
        self
    }

    /// Builder-style micro-batch window choice.
    pub fn window(mut self, window: Duration) -> Self {
        self.window = window;
        self
    }

    /// Builder-style paused start.
    pub fn start_paused(mut self, paused: bool) -> Self {
        self.start_paused = paused;
        self
    }

    fn validate(&self) {
        assert!(self.queue_capacity >= 1, "queue capacity must be at least 1");
        assert!(self.max_batch >= 1, "max batch must be at least 1");
    }
}

/// Why a submission was not accepted into the queue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// Admission control: the bounded queue is full. Back off and retry.
    Saturated {
        /// The configured queue capacity that was hit.
        capacity: usize,
    },
    /// The frontend is shutting down (or already gone).
    ShuttingDown,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Saturated { capacity } => {
                write!(f, "submission queue saturated (capacity {capacity})")
            }
            SubmitError::ShuttingDown => write!(f, "submission queue is shutting down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Why an accepted submission did not produce an answer.
#[derive(Debug, Clone, PartialEq)]
pub enum AsyncError {
    /// The engine rejected or failed this submission.
    Engine(EngineError),
    /// The frontend went away before answering (batcher dropped).
    Disconnected,
}

impl std::fmt::Display for AsyncError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AsyncError::Engine(e) => write!(f, "engine error: {e}"),
            AsyncError::Disconnected => write!(f, "frontend disconnected before answering"),
        }
    }
}

impl std::error::Error for AsyncError {}

/// A future-like handle to one submission's answer. Obtained from
/// [`SubmissionQueue::submit_request`] and friends; resolves exactly once.
pub struct Ticket<R> {
    rx: Receiver<Result<R, AsyncError>>,
}

impl<R> std::fmt::Debug for Ticket<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ticket").finish_non_exhaustive()
    }
}

/// A [`Ticket`] resolving to a request's [`Outcome`] (answer + provenance +
/// attributed cost).
pub type OutcomeTicket<T> = Ticket<Outcome<T>>;

/// A [`Ticket`] resolving to an ingest/delete's [`MutationReport`].
pub type MutationTicket = Ticket<MutationReport>;

/// A [`Ticket`] resolving to a registered standing query's
/// [`StandingHandle`] (see [`SubmissionQueue::submit_standing`]).
pub type StandingTicket<T> = Ticket<StandingHandle<T>>;

impl<R> Ticket<R> {
    /// Blocks until the answer is ready.
    pub fn wait(self) -> Result<R, AsyncError> {
        match self.rx.recv() {
            Ok(res) => res,
            Err(_) => Err(AsyncError::Disconnected),
        }
    }

    /// Blocks up to `timeout`; `None` means not ready yet (the ticket
    /// remains valid and can be polled or waited again).
    pub fn wait_for(&self, timeout: Duration) -> Option<Result<R, AsyncError>> {
        match self.rx.recv_timeout(timeout) {
            Ok(res) => Some(res),
            Err(RecvTimeoutError::Timeout) => None,
            Err(RecvTimeoutError::Disconnected) => Some(Err(AsyncError::Disconnected)),
        }
    }

    /// Non-blocking check; `None` means not ready yet.
    pub fn poll(&self) -> Option<Result<R, AsyncError>> {
        match self.rx.try_recv() {
            Ok(res) => Some(res),
            Err(crossbeam::channel::TryRecvError::Empty) => None,
            Err(crossbeam::channel::TryRecvError::Disconnected) => {
                Some(Err(AsyncError::Disconnected))
            }
        }
    }
}

/// A snapshot of the frontend's counters (see [`SubmissionQueue::stats`]).
///
/// All counters are cumulative since the frontend started, except
/// `queue_depth` which is the instantaneous backlog.
#[derive(Clone, Debug, Default)]
pub struct FrontendStats {
    /// Submissions accepted into the queue.
    pub submitted: u64,
    /// Submissions rejected by admission control ([`SubmitError::Saturated`]).
    pub rejected: u64,
    /// Submissions currently queued, not yet picked up by the batcher.
    pub queue_depth: usize,
    /// Query batches executed (each is one coalesced collective pass).
    pub batches: u64,
    /// Queries answered through batch execution.
    pub queries_executed: u64,
    /// Mutations (ingest/delete) applied.
    pub mutations: u64,
    /// Submissions that resolved to an error (invalid query, runtime
    /// failure) instead of an answer.
    pub failures: u64,
    /// Largest single-batch occupancy observed.
    pub max_occupancy: usize,
    /// Collective operations across all executed batches (per-processor
    /// counts, summed over batches) — the numerator of
    /// [`rounds_per_query`](Self::rounds_per_query).
    pub collective_ops: u64,
    /// Messages sent across all executed batches.
    pub msgs_sent: u64,
    /// Summed virtual-time makespan of all executed batches.
    pub makespan: f64,
    /// Summed submission-to-execution wait across processed submissions.
    pub total_wait: Duration,
    /// Largest single submission-to-execution wait observed.
    pub max_wait: Duration,
    /// Exact ranks answered from the resident bucket index's cached
    /// histogram alone (zero element scans), across all executed batches.
    pub histogram_answers: u64,
    /// Bucket-index (re)builds the engine has performed so far.
    pub index_rebuilds: u64,
    /// Amortized delta-run merges the engine has performed so far.
    pub delta_merges: u64,
    /// Delta-run occupancy (unindexed fraction of the resident population)
    /// observed at the most recent executed batch.
    pub delta_occupancy: f64,
    /// Live standing queries registered with the engine, as of the most
    /// recent batcher activity.
    pub standing_active: usize,
    /// Standing-query updates the engine has delivered so far.
    pub standing_updates: u64,
    /// How many of [`standing_updates`](Self::standing_updates) were served
    /// without a single attributed collective op (rebased histogram or
    /// ε-sketch) — the incremental-refresh win.
    pub standing_zero_collective: u64,
}

impl FrontendStats {
    /// Mean queries per executed batch — the coalescing the micro-batch
    /// window actually achieved.
    pub fn mean_occupancy(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.queries_executed as f64 / self.batches as f64
        }
    }

    /// Collective rounds paid per answered query; drops as the window
    /// widens and more queries share each multi-select pass.
    pub fn rounds_per_query(&self) -> f64 {
        if self.queries_executed == 0 {
            0.0
        } else {
            self.collective_ops as f64 / self.queries_executed as f64
        }
    }

    /// Submissions that went through the batcher (answered or failed).
    pub fn processed(&self) -> u64 {
        self.queries_executed + self.mutations + self.failures
    }

    /// Mean submission-to-execution wait.
    pub fn mean_wait(&self) -> Duration {
        let n = self.processed();
        if n == 0 {
            Duration::ZERO
        } else {
            self.total_wait / n as u32
        }
    }
}

// ---------------------------------------------------------------------------
// Batch formation
// ---------------------------------------------------------------------------

/// The deadline/size-driven batch former: the single authority on where
/// batch boundaries fall, so the live batcher loop and the property tests
/// exercise exactly the same logic. Time is a caller-supplied monotonic
/// nanosecond clock, which keeps the type pure and simulable.
pub(crate) struct Accumulator<I> {
    max_batch: usize,
    window_ns: u64,
    opened_ns: u64,
    items: Vec<I>,
}

impl<I> Accumulator<I> {
    pub(crate) fn new(max_batch: usize, window_ns: u64) -> Self {
        assert!(max_batch >= 1, "a batch holds at least one query");
        Accumulator { max_batch, window_ns, opened_ns: 0, items: Vec::new() }
    }

    fn deadline_ns(&self) -> u64 {
        self.opened_ns.saturating_add(self.window_ns)
    }

    /// Admits `item` at `now_ns`, returning any batches this seals: a
    /// pending batch whose deadline already lapsed is sealed *before* the
    /// newcomer (which then opens a fresh batch), and a batch reaching
    /// `max_batch` is sealed with the newcomer inside. At most two batches
    /// result (both only when `max_batch == 1` meets a lapsed deadline).
    pub(crate) fn push(&mut self, item: I, now_ns: u64) -> Vec<Vec<I>> {
        let mut sealed = Vec::new();
        if !self.items.is_empty() && now_ns > self.deadline_ns() {
            sealed.push(self.flush());
        }
        if self.items.is_empty() {
            self.opened_ns = now_ns;
        }
        self.items.push(item);
        if self.items.len() >= self.max_batch {
            sealed.push(self.flush());
        }
        sealed
    }

    /// How long the caller may still wait for more queries before the
    /// pending batch is due (0 = due now); `None` when nothing is pending.
    pub(crate) fn remaining_ns(&self, now_ns: u64) -> Option<u64> {
        if self.items.is_empty() {
            None
        } else {
            Some(self.deadline_ns().saturating_sub(now_ns))
        }
    }

    /// Seals and returns the pending batch (empty if nothing is pending).
    pub(crate) fn flush(&mut self) -> Vec<I> {
        std::mem::take(&mut self.items)
    }
}

// ---------------------------------------------------------------------------
// Submissions
// ---------------------------------------------------------------------------

/// What an [`OutcomeTicket`] resolves to.
type Reply<T> = Result<Outcome<T>, AsyncError>;

struct PendingQuery<T: Key> {
    request: Request<T>,
    reply: Sender<Reply<T>>,
    submitted_at: Instant,
}

enum MutationOp<T: Key> {
    Ingest(Vec<T>),
    Delete(Vec<T>),
}

struct PendingMutation<T: Key> {
    op: MutationOp<T>,
    tx: Sender<Result<MutationReport, AsyncError>>,
    submitted_at: Instant,
}

struct PendingStanding<T: Key> {
    request: Request<T>,
    policy: RefreshPolicy,
    tx: Sender<Result<StandingHandle<T>, AsyncError>>,
}

enum Submission<T: Key> {
    /// One or more queries admitted together (a
    /// [`SubmissionQueue::submit_request`] carries one; a
    /// [`SubmissionQueue::submit_many`] carries the whole aligned slice in a
    /// single queue slot).
    Queries(Vec<PendingQuery<T>>),
    Mutation(PendingMutation<T>),
    /// Register a standing query; FIFO with mutations, so the first update
    /// reflects exactly the mutations submitted before it.
    Standing(PendingStanding<T>),
    /// Remove a standing query by id.
    CancelStanding {
        id: SubscriptionId,
        tx: Sender<Result<bool, AsyncError>>,
    },
}

struct Shared {
    paused: AtomicBool,
    closing: AtomicBool,
    submitted: AtomicU64,
    rejected: AtomicU64,
    /// Batcher-owned counters; the batcher is the only writer.
    batch_stats: Mutex<FrontendStats>,
}

struct Inner<T: Key> {
    handle: Mutex<Option<JoinHandle<Engine<T>>>>,
    shared: Arc<Shared>,
}

impl<T: Key> Drop for Inner<T> {
    fn drop(&mut self) {
        // Last handle gone: tell the batcher to drain out and wait for it.
        // (Its queue receiver also observes the sender disconnect.)
        self.shared.closing.store(true, Ordering::SeqCst);
        if let Some(h) = self.handle.lock().expect("frontend join lock").take() {
            let _ = h.join();
        }
    }
}

/// The async frontend handle: clone it into as many client threads as
/// needed. See the [module docs](self) for the architecture.
pub struct SubmissionQueue<T: Key> {
    // Field order matters: `tx` must drop before `inner`, whose Drop joins
    // the batcher — the batcher only exits once every sender is gone (or
    // `closing` is set, which Inner::drop also does).
    tx: Sender<Submission<T>>,
    shared: Arc<Shared>,
    capacity: usize,
    inner: Arc<Inner<T>>,
    /// The engine's metrics registry, captured before the hand-off — its
    /// presence is also the "stamp trace IDs at admission" signal.
    metrics: Option<Arc<MetricsRegistry>>,
}

impl<T: Key> Clone for SubmissionQueue<T> {
    fn clone(&self) -> Self {
        SubmissionQueue {
            tx: self.tx.clone(),
            shared: self.shared.clone(),
            capacity: self.capacity,
            inner: self.inner.clone(),
            metrics: self.metrics.clone(),
        }
    }
}

impl<T: Key> SubmissionQueue<T> {
    /// Takes ownership of `engine` (hand-off: the persistent session's
    /// worker threads now answer to the batcher thread) and starts serving.
    pub fn start(engine: Engine<T>, cfg: FrontendConfig) -> Self {
        cfg.validate();
        let metrics = engine.metrics();
        let (tx, rx) = bounded::<Submission<T>>(cfg.queue_capacity);
        let shared = Arc::new(Shared {
            paused: AtomicBool::new(cfg.start_paused),
            closing: AtomicBool::new(false),
            submitted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            batch_stats: Mutex::new(FrontendStats::default()),
        });
        let thread_shared = shared.clone();
        let thread_cfg = cfg.clone();
        let handle = std::thread::Builder::new()
            .name("cgselect-batcher".into())
            .spawn(move || batcher_loop(engine, thread_cfg, rx, thread_shared))
            .expect("failed to spawn batcher thread");
        SubmissionQueue {
            tx,
            shared: shared.clone(),
            capacity: cfg.queue_capacity,
            inner: Arc::new(Inner { handle: Mutex::new(Some(handle)), shared }),
            metrics,
        }
    }

    /// Stamps a trace ID at admission when the engine observes, so the
    /// request's span covers its whole journey through the queue.
    fn stamp(&self, mut request: Request<T>) -> Request<T> {
        if self.metrics.is_some() && request.trace.is_none() {
            request.trace = Some(TraceId::next());
        }
        request
    }

    fn admit(&self, sub: Submission<T>, queries: u64) -> Result<(), SubmitError> {
        if self.shared.closing.load(Ordering::SeqCst) {
            return Err(SubmitError::ShuttingDown);
        }
        match self.tx.try_send(sub) {
            Ok(()) => {
                self.shared.submitted.fetch_add(queries.max(1), Ordering::SeqCst);
                if let Some(m) = &self.metrics {
                    m.gauge_set("queue_depth", self.tx.len() as f64);
                }
                Ok(())
            }
            Err(TrySendError::Full(_)) => {
                self.shared.rejected.fetch_add(queries.max(1), Ordering::SeqCst);
                Err(SubmitError::Saturated { capacity: self.capacity })
            }
            Err(TrySendError::Disconnected(_)) => Err(SubmitError::ShuttingDown),
        }
    }

    /// Enqueues one typed [`Request`]; the returned ticket resolves to
    /// its [`Outcome`] (answer + provenance + attributed cost).
    pub fn submit_request(&self, request: Request<T>) -> Result<OutcomeTicket<T>, SubmitError> {
        let mut tickets = self.submit_many(vec![request])?;
        Ok(tickets.pop().expect("one ticket per request"))
    }

    /// Enqueues a whole slice of typed [`Request`]s in **one
    /// admission** — a single bounded-queue slot, accepted or rejected
    /// atomically — and returns one ticket per request, aligned with the
    /// input. The requests ride the same micro-batch window as everything
    /// else (and may split across batches at the
    /// [`max_batch`](FrontendConfig::max_batch) boundary); each ticket
    /// resolves independently, so one invalid request fails its own
    /// ticket, never its neighbors'.
    pub fn submit_many(
        &self,
        requests: Vec<Request<T>>,
    ) -> Result<Vec<OutcomeTicket<T>>, SubmitError> {
        if requests.is_empty() {
            return Ok(Vec::new());
        }
        let now = Instant::now();
        let count = requests.len() as u64;
        let mut tickets = Vec::with_capacity(requests.len());
        let pending: Vec<PendingQuery<T>> = requests
            .into_iter()
            .map(|request| {
                let (tx, rx) = unbounded();
                tickets.push(Ticket { rx });
                PendingQuery { request: self.stamp(request), reply: tx, submitted_at: now }
            })
            .collect();
        self.admit(Submission::Queries(pending), count)?;
        Ok(tickets)
    }

    /// Enqueues an ingest. FIFO with queries: earlier-submitted queries see
    /// the engine without `items`, later ones see it with them.
    pub fn submit_ingest(&self, items: Vec<T>) -> Result<MutationTicket, SubmitError> {
        let (tx, rx) = unbounded();
        self.admit(
            Submission::Mutation(PendingMutation {
                op: MutationOp::Ingest(items),
                tx,
                submitted_at: Instant::now(),
            }),
            1,
        )?;
        Ok(Ticket { rx })
    }

    /// Enqueues a delete of all occurrences of `values`; FIFO like
    /// [`submit_ingest`](Self::submit_ingest).
    pub fn submit_delete(&self, values: Vec<T>) -> Result<MutationTicket, SubmitError> {
        let (tx, rx) = unbounded();
        self.admit(
            Submission::Mutation(PendingMutation {
                op: MutationOp::Delete(values),
                tx,
                submitted_at: Instant::now(),
            }),
            1,
        )?;
        Ok(Ticket { rx })
    }

    /// Registers `request` as a **standing query** (see
    /// [`Engine::subscribe`]): the ticket resolves to a [`StandingHandle`]
    /// streaming stamped updates whenever the resident data moves under
    /// `policy`. Standing registrations are FIFO with mutations — the
    /// handle's first update reflects exactly the mutations submitted
    /// before this call. The batcher serves [`RefreshPolicy::Deadline`]
    /// policies from its idle ticks, and every executed batch or mutation
    /// piggybacks due refreshes at shared-collective cost.
    ///
    /// # Panics
    /// Panics on a non-finite or negative [`RefreshPolicy::OnDelta`]
    /// fraction (caller-side, before admission).
    pub fn submit_standing(
        &self,
        request: Request<T>,
        policy: RefreshPolicy,
    ) -> Result<StandingTicket<T>, SubmitError> {
        if let RefreshPolicy::OnDelta(frac) = policy {
            assert!(
                frac.is_finite() && frac >= 0.0,
                "OnDelta fraction must be finite and >= 0, got {frac}"
            );
        }
        let (tx, rx) = unbounded();
        self.admit(
            Submission::Standing(PendingStanding { request: self.stamp(request), policy, tx }),
            1,
        )?;
        Ok(Ticket { rx })
    }

    /// Cancels the standing query `id`; the ticket resolves to whether it
    /// was live (a handle dropped earlier may already have unsubscribed
    /// it). Its [`StandingHandle`]'s stream ends once applied.
    pub fn cancel_standing(&self, id: SubscriptionId) -> Result<Ticket<bool>, SubmitError> {
        let (tx, rx) = unbounded();
        self.admit(Submission::CancelStanding { id, tx }, 1)?;
        Ok(Ticket { rx })
    }

    /// Stops the batcher from *opening new batches*: further submissions
    /// queue (up to capacity) instead of executing. A batch whose window is
    /// already open when the pause lands still collects and executes to its
    /// deadline — the pause takes full effect from the next batch.
    /// Idempotent.
    pub fn pause(&self) {
        self.shared.paused.store(true, Ordering::SeqCst);
    }

    /// Resumes a paused frontend. Idempotent.
    pub fn resume(&self) {
        self.shared.paused.store(false, Ordering::SeqCst);
    }

    /// Instantaneous backlog (accepted, not yet picked up).
    pub fn queue_depth(&self) -> usize {
        self.tx.len()
    }

    /// A snapshot of the frontend's metrics.
    pub fn stats(&self) -> FrontendStats {
        let mut s = self.shared.batch_stats.lock().expect("frontend stats lock").clone();
        s.submitted = self.shared.submitted.load(Ordering::SeqCst);
        s.rejected = self.shared.rejected.load(Ordering::SeqCst);
        s.queue_depth = self.tx.len();
        s
    }

    /// Drains everything already accepted, stops the batcher, and hands the
    /// engine back (for inspection, reconfiguration, or a new frontend).
    /// Returns `None` if another handle already claimed the shutdown.
    /// Submissions racing with shutdown may resolve to
    /// [`AsyncError::Disconnected`].
    pub fn shutdown(self) -> Option<Engine<T>> {
        self.shared.closing.store(true, Ordering::SeqCst);
        let handle = self.inner.handle.lock().expect("frontend join lock").take();
        handle.map(|h| h.join().expect("batcher thread panicked"))
    }
}

// ---------------------------------------------------------------------------
// The batcher thread
// ---------------------------------------------------------------------------

fn now_ns(base: Instant) -> u64 {
    base.elapsed().as_nanos().min(u64::MAX as u128) as u64
}

fn batcher_loop<T: Key>(
    mut engine: Engine<T>,
    cfg: FrontendConfig,
    rx: Receiver<Submission<T>>,
    shared: Arc<Shared>,
) -> Engine<T> {
    let base = Instant::now();
    let window_ns = cfg.window.as_nanos().min(u64::MAX as u128) as u64;
    let mut acc: Accumulator<PendingQuery<T>> = Accumulator::new(cfg.max_batch, window_ns);
    let mut disconnected = false;

    'serve: while !disconnected {
        // Park while paused; `closing` overrides a pause so shutdown and
        // handle-drop cannot wedge behind it.
        while shared.paused.load(Ordering::SeqCst) && !shared.closing.load(Ordering::SeqCst) {
            std::thread::sleep(PAUSE_POLL);
        }

        // Idle: wait for the first submission of the next batch.
        match rx.recv_timeout(IDLE_POLL) {
            Ok(sub) => match sub {
                Submission::Queries(pqs) => {
                    for pq in pqs {
                        for batch in acc.push(pq, now_ns(base)) {
                            execute_batch(&mut engine, batch, &shared);
                        }
                    }
                }
                other => {
                    execute_control(&mut engine, other, &shared);
                    continue 'serve;
                }
            },
            Err(RecvTimeoutError::Timeout) => {
                if shared.closing.load(Ordering::SeqCst) && rx.is_empty() {
                    break 'serve;
                }
                // Idle tick: flush standing refreshes that came due without
                // traffic — this is what serves `RefreshPolicy::Deadline`
                // (and delivers post-mutation updates promptly when no
                // query batch follows). Cheap no-op when nothing is due.
                standing_tick(&mut engine, &shared);
                continue 'serve;
            }
            Err(RecvTimeoutError::Disconnected) => break 'serve,
        }

        // Collect: drain the existing backlog at a single instant (so even
        // window = 0 coalesces whatever queued up during the last
        // execution), then wait out the remaining window for stragglers.
        'collect: loop {
            let drain_now = now_ns(base);
            loop {
                match rx.try_recv() {
                    Ok(Submission::Queries(pqs)) => {
                        for pq in pqs {
                            for batch in acc.push(pq, drain_now) {
                                execute_batch(&mut engine, batch, &shared);
                            }
                        }
                    }
                    Ok(other) => {
                        // A mutation (or standing registration/cancel) is a
                        // hard boundary: flush queries that preceded it,
                        // then apply it.
                        let batch = acc.flush();
                        if !batch.is_empty() {
                            execute_batch(&mut engine, batch, &shared);
                        }
                        execute_control(&mut engine, other, &shared);
                    }
                    Err(crossbeam::channel::TryRecvError::Empty) => break,
                    Err(crossbeam::channel::TryRecvError::Disconnected) => {
                        disconnected = true;
                        break;
                    }
                }
            }
            let Some(rem) = acc.remaining_ns(now_ns(base)) else {
                break 'collect; // nothing pending — back to idle
            };
            if rem == 0 || disconnected || shared.closing.load(Ordering::SeqCst) {
                let batch = acc.flush();
                execute_batch(&mut engine, batch, &shared);
                break 'collect;
            }
            // Wait for stragglers, capped so closing is observed promptly.
            let wait = Duration::from_nanos(rem).min(COLLECT_POLL_CAP);
            match rx.recv_timeout(wait) {
                Ok(Submission::Queries(pqs)) => {
                    for pq in pqs {
                        for batch in acc.push(pq, now_ns(base)) {
                            execute_batch(&mut engine, batch, &shared);
                        }
                    }
                }
                Ok(other) => {
                    let batch = acc.flush();
                    if !batch.is_empty() {
                        execute_batch(&mut engine, batch, &shared);
                    }
                    execute_control(&mut engine, other, &shared);
                    break 'collect;
                }
                Err(RecvTimeoutError::Timeout) => {} // loop re-evaluates rem
                Err(RecvTimeoutError::Disconnected) => {
                    let batch = acc.flush();
                    execute_batch(&mut engine, batch, &shared);
                    break 'serve;
                }
            }
        }
    }
    // Exiting drops `rx`; any in-flight ticket resolves to Disconnected.
    engine
}

/// An outcome (or error) staged for delivery to one ticket after the
/// batch's stats have been committed.
type Delivery<T> = (Sender<Reply<T>>, Reply<T>);

/// Executes one coalesced batch: validates each request individually (an
/// invalid request fails its own ticket, not its neighbors), runs the
/// valid remainder as one `Engine::run` pass, updates the stats, and only
/// then delivers the outcomes (so a client that saw its answer also sees
/// the batch in the stats).
fn execute_batch<T: Key>(engine: &mut Engine<T>, batch: Vec<PendingQuery<T>>, shared: &Shared) {
    if batch.is_empty() {
        return;
    }
    let start = Instant::now();
    let mut total_wait = Duration::ZERO;
    let mut max_wait = Duration::ZERO;
    for pq in &batch {
        let wait = start.saturating_duration_since(pq.submitted_at);
        total_wait += wait;
        max_wait = max_wait.max(wait);
    }

    let mut valid: Vec<Request<T>> = Vec::with_capacity(batch.len());
    let mut valid_reply = Vec::with_capacity(batch.len());
    let mut valid_submitted = Vec::with_capacity(batch.len());
    let mut deliveries: Vec<Delivery<T>> = Vec::with_capacity(batch.len());
    let mut failures = 0u64;
    for pq in batch {
        match engine.validate_request(&pq.request) {
            Ok(()) => {
                valid.push(pq.request);
                valid_reply.push(pq.reply);
                valid_submitted.push(pq.submitted_at);
            }
            Err(e) => {
                failures += 1;
                deliveries.push((pq.reply, Err(AsyncError::Engine(e))));
            }
        }
    }

    let mut executed = None;
    if !valid.is_empty() {
        match engine.run(&valid) {
            Ok(report) => {
                if let Some(m) = engine.metrics() {
                    let done = Instant::now();
                    for submitted_at in &valid_submitted {
                        let wall = done.saturating_duration_since(*submitted_at);
                        m.latency_observe("request_wall", wall.as_nanos() as u64);
                    }
                }
                for (reply, outcome) in valid_reply.into_iter().zip(report.outcomes.iter().cloned())
                {
                    deliveries.push((reply, Ok(outcome)));
                }
                executed = Some(report);
            }
            Err(e) => {
                failures += valid.len() as u64;
                for reply in valid_reply {
                    deliveries.push((reply, Err(AsyncError::Engine(e.clone()))));
                }
            }
        }
    }

    {
        let mut stats = shared.batch_stats.lock().expect("frontend stats lock");
        stats.failures += failures;
        stats.total_wait += total_wait;
        stats.max_wait = stats.max_wait.max(max_wait);
        if let Some(report) = &executed {
            stats.batches += 1;
            stats.queries_executed += valid.len() as u64;
            stats.max_occupancy = stats.max_occupancy.max(valid.len());
            stats.collective_ops += report.collective_ops;
            stats.msgs_sent += report.comm.msgs_sent;
            stats.makespan += report.makespan;
            stats.histogram_answers += report.histogram_answers as u64;
            stats.delta_occupancy = report.delta_occupancy;
            let health = engine.index_health();
            stats.index_rebuilds = health.rebuilds;
            stats.delta_merges = health.delta_merges;
        }
    }
    sync_standing_stats(engine, shared);

    // A ticket may have been dropped; a failed send is fine.
    for (reply, result) in deliveries {
        let _ = reply.send(result);
    }
}

/// Dispatches the non-query submissions (anything that is not a
/// [`Submission::Queries`]): mutations, standing registrations, cancels.
fn execute_control<T: Key>(engine: &mut Engine<T>, sub: Submission<T>, shared: &Shared) {
    match sub {
        Submission::Queries(_) => unreachable!("queries go through the accumulator"),
        Submission::Mutation(m) => execute_mutation(engine, m, shared),
        Submission::Standing(s) => {
            let handle = engine.subscribe(s.request, s.policy);
            // Serve the inaugural update immediately (when the request is
            // currently answerable) instead of waiting for traffic: a
            // dashboard sees its first datapoint at subscribe time.
            let _ = engine.refresh_standing();
            sync_standing_stats(engine, shared);
            let _ = s.tx.send(Ok(handle));
        }
        Submission::CancelStanding { id, tx } => {
            let removed = engine.unsubscribe(id);
            sync_standing_stats(engine, shared);
            let _ = tx.send(Ok(removed));
        }
    }
}

/// Flushes due standing refreshes outside any batch (the batcher's idle
/// tick). Engine failures are left for the next query/mutation to surface —
/// a subscription has no per-refresh ticket to fail.
fn standing_tick<T: Key>(engine: &mut Engine<T>, shared: &Shared) {
    if engine.standing_active() == 0 {
        return;
    }
    match engine.refresh_standing() {
        Ok(0) => {}
        _ => sync_standing_stats(engine, shared),
    }
}

/// Mirrors the engine's cumulative standing counters into the frontend
/// stats (the engine is the single source of truth; refreshes ride query
/// batches too, so the frontend cannot count deliveries itself).
fn sync_standing_stats<T: Key>(engine: &Engine<T>, shared: &Shared) {
    let mut stats = shared.batch_stats.lock().expect("frontend stats lock");
    stats.standing_active = engine.standing_active();
    stats.standing_updates = engine.standing_refreshes();
    stats.standing_zero_collective = engine.standing_zero_collective();
}

/// Applies one mutation, updates the stats, then delivers the report.
/// Standing subscriptions the mutation made due refresh right here, so an
/// `EveryBatch` dashboard sees the post-mutation answer without waiting
/// for a query batch or an idle tick.
fn execute_mutation<T: Key>(engine: &mut Engine<T>, m: PendingMutation<T>, shared: &Shared) {
    let wait = Instant::now().saturating_duration_since(m.submitted_at);
    let result = match m.op {
        MutationOp::Ingest(items) => engine.ingest(items),
        MutationOp::Delete(values) => engine.delete(&values),
    };
    if result.is_ok() && engine.standing_active() > 0 {
        let _ = engine.refresh_standing();
    }
    {
        let mut stats = shared.batch_stats.lock().expect("frontend stats lock");
        stats.total_wait += wait;
        stats.max_wait = stats.max_wait.max(wait);
        match &result {
            Ok(_) => stats.mutations += 1,
            Err(_) => stats.failures += 1,
        }
    }
    sync_standing_stats(engine, shared);
    let _ = m.tx.send(result.map_err(AsyncError::Engine));
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgselect_runtime::MachineModel;
    use proptest::prelude::*;

    use crate::{EngineConfig, Response};

    fn free_engine(p: usize) -> Engine<u64> {
        Engine::new(EngineConfig::new(p).model(MachineModel::free())).unwrap()
    }

    /// Waits a ticket out and keeps only the answer half of its outcome.
    fn response(t: OutcomeTicket<u64>) -> Result<Response<u64>, AsyncError> {
        t.wait().map(|o| o.response)
    }

    #[test]
    fn submitted_queries_resolve_to_oracle_answers() {
        let mut engine = free_engine(4);
        let data: Vec<u64> = (0..5000u64).map(|i| i.wrapping_mul(0x9E3779B9) % 65_536).collect();
        let mut oracle = data.clone();
        oracle.sort_unstable();
        engine.ingest(data).unwrap();
        let n = oracle.len() as u64;

        let queue =
            SubmissionQueue::start(engine, FrontendConfig::new().window(Duration::from_millis(2)));
        let tickets: Vec<(u64, OutcomeTicket<u64>)> = (0..32u64)
            .map(|i| (i * 137 % n, queue.submit_request(Request::rank(i * 137 % n)).unwrap()))
            .collect();
        for (rank, t) in tickets {
            assert_eq!(response(t), Ok(Response::Element(oracle[rank as usize])), "rank {rank}");
        }
        let top = response(queue.submit_request(Request::top_k(3)).unwrap());
        assert_eq!(top, Ok(Response::Elements(oracle[..3].to_vec())));

        let stats = queue.stats();
        assert_eq!(stats.submitted, 33);
        assert_eq!(stats.queries_executed, 33);
        assert_eq!(stats.rejected, 0);
        assert!(stats.batches >= 1 && stats.batches <= 33);
        assert!(stats.collective_ops > 0);

        // The engine comes back with the data still resident.
        let engine = queue.shutdown().expect("first shutdown claims the engine");
        assert_eq!(engine.len(), n);
    }

    #[test]
    fn mutations_are_fifo_with_queries() {
        let mut engine = free_engine(2);
        engine.ingest(vec![10, 20, 30]).unwrap();
        let queue = SubmissionQueue::start(
            engine,
            // A wide window would delay the pre-mutation query's batch past
            // the mutation; FIFO must hold anyway because the mutation is a
            // hard batch boundary.
            FrontendConfig::new().window(Duration::from_millis(50)),
        );
        let before = queue.submit_request(Request::rank(0)).unwrap();
        let ingest = queue.submit_ingest(vec![1, 2]).unwrap();
        let after = queue.submit_request(Request::rank(0)).unwrap();
        let del = queue.submit_delete(vec![1, 2, 99]).unwrap();
        let last = queue.submit_request(Request::rank(0)).unwrap();

        assert_eq!(response(before), Ok(Response::Element(10)));
        assert_eq!(ingest.wait().unwrap(), MutationReport { elements: 2, rebalanced: false });
        assert_eq!(response(after), Ok(Response::Element(1)));
        let rep = del.wait().unwrap();
        assert_eq!(rep.elements, 2); // 99 was never resident
        assert_eq!(response(last), Ok(Response::Element(10)));
        let stats = queue.stats();
        assert_eq!(stats.mutations, 2);
        assert_eq!(stats.queries_executed, 3);
    }

    #[test]
    fn invalid_query_fails_alone_not_its_batch() {
        let mut engine = free_engine(2);
        engine.ingest((0..100u64).collect()).unwrap();
        let queue = SubmissionQueue::start(
            engine,
            FrontendConfig::new().start_paused(true).window(Duration::from_millis(1)),
        );
        // All three land in one batch; the middle one is out of domain.
        let good1 = queue.submit_request(Request::rank(5)).unwrap();
        let bad = queue.submit_request(Request::rank(100)).unwrap();
        let good2 = queue.submit_request(Request::median()).unwrap();
        queue.resume();
        assert_eq!(response(good1), Ok(Response::Element(5)));
        assert_eq!(
            response(bad),
            Err(AsyncError::Engine(EngineError::RankOutOfRange { rank: 100, n: 100 }))
        );
        assert_eq!(response(good2), Ok(Response::Element(49)));
        let stats = queue.stats();
        assert_eq!(stats.failures, 1);
        assert_eq!(stats.queries_executed, 2);
    }

    #[test]
    fn empty_submit_many_is_a_no_op() {
        let mut engine = free_engine(2);
        engine.ingest(vec![1, 2, 3]).unwrap();
        let queue = SubmissionQueue::start(engine, FrontendConfig::new());
        // No admission, no queue slot, no phantom submitted count.
        assert!(queue.submit_many(Vec::new()).unwrap().is_empty());
        assert_eq!(queue.stats().submitted, 0);
        assert_eq!(queue.queue_depth(), 0);
    }

    #[test]
    fn queries_on_an_empty_engine_fail_individually() {
        let queue = SubmissionQueue::start(free_engine(2), FrontendConfig::new());
        let t = queue.submit_request(Request::median()).unwrap();
        assert_eq!(response(t), Err(AsyncError::Engine(EngineError::Empty)));
        // The frontend recovers: ingest then query works.
        queue.submit_ingest(vec![7, 3, 5]).unwrap().wait().unwrap();
        assert_eq!(
            response(queue.submit_request(Request::median()).unwrap()),
            Ok(Response::Element(5))
        );
    }

    #[test]
    fn standing_subscription_streams_updates_through_the_frontend() {
        let mut engine = free_engine(2);
        engine.ingest((0..100u64).collect()).unwrap();
        let queue = SubmissionQueue::start(engine, FrontendConfig::new());
        let handle = queue
            .submit_standing(Request::median(), RefreshPolicy::EveryBatch)
            .unwrap()
            .wait()
            .unwrap();
        // The inaugural update arrives at subscribe time.
        let first = handle.recv().expect("inaugural update");
        assert_eq!(first.seq, 0);
        assert_eq!(first.outcome.response.element(), Some(49));
        assert_eq!(first.outcome.freshness.elements, 100);
        // A mutation makes the subscription due; the batcher refreshes it
        // without any query traffic.
        queue.submit_ingest((100..201u64).collect()).unwrap().wait().unwrap();
        let second = handle.recv_timeout(Duration::from_secs(5)).expect("post-ingest update");
        assert_eq!(second.seq, 1);
        assert_eq!(second.outcome.response.element(), Some(100));
        assert_eq!(second.outcome.freshness.elements, 201);
        assert!(second.outcome.freshness.version > first.outcome.freshness.version);
        // Cancel ends the stream and the stats reflect the lifecycle.
        assert!(queue.cancel_standing(handle.id()).unwrap().wait().unwrap());
        let stats = queue.stats();
        assert_eq!(stats.standing_active, 0);
        assert!(stats.standing_updates >= 2);
    }

    #[test]
    fn dropping_every_handle_drains_parked_submissions() {
        let mut engine = free_engine(2);
        engine.ingest(vec![4, 8, 15]).unwrap();
        let queue = SubmissionQueue::start(engine, FrontendConfig::new().start_paused(true));
        let t = queue.submit_request(Request::median()).unwrap();
        // Dropping every handle shuts the batcher down gracefully: the
        // already-accepted submission is still answered, not dropped
        // (closing overrides the pause, so this cannot wedge either).
        drop(queue);
        assert_eq!(response(t), Ok(Response::Element(8)));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Any arrival sequence, window and size cap: the accumulator never
        /// drops or duplicates a ticket, preserves FIFO order, respects the
        /// size cap, and keeps every batch's arrival span within the window.
        #[test]
        fn accumulator_respects_bounds_and_loses_nothing(
            gaps in prop::collection::vec(0u64..3_000_000, 1..200),
            window_ns in 0u64..2_000_000,
            max_batch in 1usize..9,
        ) {
            let arrivals: Vec<u64> = gaps
                .iter()
                .scan(0u64, |t, &g| {
                    *t += g;
                    Some(*t)
                })
                .collect();
            let mut acc: Accumulator<usize> = Accumulator::new(max_batch, window_ns);
            let mut batches: Vec<Vec<usize>> = Vec::new();
            for (idx, &t) in arrivals.iter().enumerate() {
                batches.extend(acc.push(idx, t));
            }
            let tail = acc.flush();
            if !tail.is_empty() {
                batches.push(tail);
            }
            for batch in &batches {
                prop_assert!(!batch.is_empty(), "no empty batches are sealed");
                prop_assert!(
                    batch.len() <= max_batch,
                    "batch of {} exceeds cap {max_batch}", batch.len()
                );
                let span = arrivals[*batch.last().unwrap()] - arrivals[batch[0]];
                prop_assert!(
                    span <= window_ns,
                    "batch spans {span}ns, window is {window_ns}ns"
                );
            }
            let flat: Vec<usize> = batches.iter().flatten().copied().collect();
            let expect: Vec<usize> = (0..arrivals.len()).collect();
            prop_assert_eq!(flat, expect, "tickets dropped, duplicated or reordered");
        }

        /// The caller-visible deadline: while a batch is pending, remaining
        /// time decreases to 0 at exactly `opened + window` and a push after
        /// that seals the old batch before admitting the newcomer.
        #[test]
        fn accumulator_deadline_is_exact(
            open_at in 0u64..1_000_000,
            window_ns in 1u64..1_000_000,
            late_by in 1u64..1_000_000,
        ) {
            let mut acc: Accumulator<u32> = Accumulator::new(1024, window_ns);
            prop_assert_eq!(acc.remaining_ns(open_at), None);
            prop_assert!(acc.push(0, open_at).is_empty());
            prop_assert_eq!(acc.remaining_ns(open_at), Some(window_ns));
            prop_assert_eq!(acc.remaining_ns(open_at + window_ns), Some(0));
            // A straggler exactly at the deadline still joins …
            prop_assert!(acc.push(1, open_at + window_ns).is_empty());
            // … one after it seals the pending batch first.
            let sealed = acc.push(2, open_at + window_ns + late_by);
            prop_assert_eq!(sealed, vec![vec![0, 1]]);
            prop_assert_eq!(acc.flush(), vec![2]);
        }
    }
}
