//! The query language: typed requests, accuracy contracts, and
//! provenance-carrying outcomes.
//!
//! The paper's selection recursion is built on one collective primitive —
//! counting the elements below a pivot — so the surface exposes both the
//! *forward* direction (rank → element) and its inverse:
//!
//! * **[`Request`]** — a [`QueryKind`] plus an explicit [`Accuracy`]
//!   contract. Beside the rank-direction kinds (ranks, quantiles,
//!   [`QueryKind::Quantiles`], median, [`QueryKind::Min`] /
//!   [`QueryKind::Max`], top-k), the *inverse* kinds are answered
//!   near-free by the resident bucket index and the host-global ε-sketch:
//!   [`QueryKind::RankOf`] (value → rank, a CDF point) and
//!   [`QueryKind::CountBetween`] (value interval → population count).
//! * **[`Accuracy`]** — what the caller will accept: [`Accuracy::Exact`]
//!   (the default), [`Accuracy::WithinRank`] (a fractional rank-error
//!   tolerance the deterministic ε-sketch serves host-side, with a
//!   *provable* error guarantee, whenever its resident bound fits
//!   `⌈t·n⌉`), or [`Accuracy::HistogramOk`] (bucket-resolution answers
//!   straight from the cached histogram, zero collectives). Serving
//!   *better* than the contract is always allowed — an exact answer
//!   satisfies every contract.
//! * **[`Outcome`]** — the answer ([`Response`]) paired with **provenance**
//!   ([`Served`]: which subsystem produced it) and a per-query
//!   collective-op [`CostAttribution`].
//!
//! [`crate::Engine::run`] executes a batch of requests.

use crate::obs::{BatchSpan, TraceId};
use crate::query::quantile_rank;

/// What a query asks for (the kind half of a [`Request`]).
///
/// Rank-direction kinds (`Rank`, `Quantile`, `Quantiles`, `Median`, `Min`,
/// `Max`, `TopK`) map ranks to elements; value-direction kinds (`RankOf`,
/// `CountBetween`) map elements to ranks/counts — the inverse of the same
/// order statistics, and exactly the collective primitive (count-below-pivot)
/// the paper's recursion is built on.
///
/// ```
/// use cgselect_engine::{QueryKind, Request};
///
/// let forward = Request::<u64>::quantile(0.99);
/// assert_eq!(forward.kind, QueryKind::Quantile(0.99));
/// let inverse = Request::rank_of(42u64);
/// assert_eq!(inverse.kind, QueryKind::RankOf(42));
/// ```
#[derive(Clone, Debug, PartialEq)]
pub enum QueryKind<T> {
    /// The element of this 0-based global rank.
    Rank(u64),
    /// The element nearest to quantile `q ∈ [0, 1]`.
    Quantile(f64),
    /// The elements nearest to each quantile, aligned with the input.
    Quantiles(Vec<f64>),
    /// The median (0-based rank `(n−1)/2`, the paper's ⌈n/2⌉-th smallest).
    Median,
    /// The smallest resident element (rank 0).
    Min,
    /// The largest resident element (rank `n−1`).
    Max,
    /// The `k` smallest resident elements, ascending.
    TopK(u64),
    /// The 0-based rank the value would occupy: the number of resident
    /// elements strictly less than it (a CDF point). The value itself need
    /// not be resident.
    RankOf(T),
    /// The number of resident elements inside the interval.
    CountBetween(Bounds<T>),
}

impl<T> QueryKind<T> {
    /// Stable lower-case label of the kind (for spans, logs, metrics).
    pub fn label(&self) -> &'static str {
        match self {
            QueryKind::Rank(_) => "rank",
            QueryKind::Quantile(_) => "quantile",
            QueryKind::Quantiles(_) => "quantiles",
            QueryKind::Median => "median",
            QueryKind::Min => "min",
            QueryKind::Max => "max",
            QueryKind::TopK(_) => "top_k",
            QueryKind::RankOf(_) => "rank_of",
            QueryKind::CountBetween(_) => "count_between",
        }
    }
}

/// A value interval for [`QueryKind::CountBetween`], built from the
/// constructors below; either side may be unbounded.
///
/// ```
/// use cgselect_engine::Bounds;
///
/// let b = Bounds::closed(10u64, 20);   // 10 ≤ x ≤ 20
/// let o = Bounds::open(10u64, 20);     // 10 <  x <  20
/// let lo = Bounds::at_least(10u64);    // 10 ≤ x
/// assert_ne!(b, o);
/// assert_eq!(lo, Bounds::at_least(10u64));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Bounds<T> {
    /// Lower endpoint as `(value, inclusive)`; `None` = unbounded below.
    pub lo: Option<(T, bool)>,
    /// Upper endpoint as `(value, inclusive)`; `None` = unbounded above.
    pub hi: Option<(T, bool)>,
}

impl<T: Ord + Copy> Bounds<T> {
    /// `lo ≤ x ≤ hi`.
    pub fn closed(lo: T, hi: T) -> Self {
        Bounds { lo: Some((lo, true)), hi: Some((hi, true)) }
    }

    /// `lo < x < hi`.
    pub fn open(lo: T, hi: T) -> Self {
        Bounds { lo: Some((lo, false)), hi: Some((hi, false)) }
    }

    /// `x ≤ v`.
    pub fn at_most(v: T) -> Self {
        Bounds { lo: None, hi: Some((v, true)) }
    }

    /// `x < v`.
    pub fn below(v: T) -> Self {
        Bounds { lo: None, hi: Some((v, false)) }
    }

    /// `x ≥ v`.
    pub fn at_least(v: T) -> Self {
        Bounds { lo: Some((v, true)), hi: None }
    }

    /// `x > v`.
    pub fn above(v: T) -> Self {
        Bounds { lo: Some((v, false)), hi: None }
    }

    /// True when no value can satisfy the interval (e.g. `lo > hi`, or
    /// `lo == hi` with an exclusive endpoint). Empty intervals are valid
    /// queries and count zero.
    pub fn is_empty(&self) -> bool {
        match (self.lo, self.hi) {
            (Some((lo, li)), Some((hi, ui))) => lo > hi || (lo == hi && !(li && ui)),
            _ => false,
        }
    }
}

/// The accuracy contract half of a [`Request`]: the *loosest* answer the
/// caller will accept. The engine may always serve better (an exact answer
/// satisfies every contract); the [`Outcome`]'s [`Served`] provenance and
/// the [`Response`]'s error bound report what was actually delivered.
///
/// ```
/// use cgselect_engine::{Accuracy, Request};
///
/// assert_eq!(Request::<u64>::median().accuracy, Accuracy::Exact);
/// assert_eq!(
///     Request::<u64>::median().within_rank(0.01).accuracy,
///     Accuracy::WithinRank(0.01)
/// );
/// assert_eq!(Request::<u64>::median().histogram_ok().accuracy, Accuracy::HistogramOk);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub enum Accuracy {
    /// The answer must be exact (the default).
    #[default]
    Exact,
    /// Rank error up to `fraction · n` is acceptable. When the resident
    /// deterministic ε-sketch's provable bound fits the budget, the query
    /// is served host-side with **zero collectives**, and the answer
    /// carries the sketch's guarantee (never larger than `⌈fraction·n⌉`)
    /// as its reported maximum error; otherwise it falls back to exact.
    /// Deletes widen that bound a little at a time (the sketch's removed
    /// side adds its own error) until a shard re-sketches, so a contract
    /// with no headroom over a fresh sketch's bound is served exactly more
    /// often on a deleting workload.
    WithinRank(f64),
    /// A bucket-resolution answer straight from the cached histogram is
    /// acceptable: zero element scans, zero collectives, with the error
    /// bound reported in the [`Response`]. Falls back to exact when no
    /// index is resident.
    HistogramOk,
}

/// One typed query: a [`QueryKind`] plus its [`Accuracy`] contract.
///
/// ```
/// use cgselect_engine::{Bounds, Request};
///
/// let exact = Request::<u64>::quantile(0.99);
/// let loose = Request::<u64>::quantile(0.99).within_rank(0.05);
/// let inverse = Request::rank_of(12_345u64).histogram_ok();
/// let range = Request::count_between(Bounds::closed(10u64, 20));
/// assert_ne!(exact, loose);
/// assert_ne!(inverse, range);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct Request<T> {
    /// What is being asked.
    pub kind: QueryKind<T>,
    /// The loosest acceptable answer.
    pub accuracy: Accuracy,
    /// Request-scoped trace identity. `None` (the default) lets the engine
    /// assign one when observability is on; the frontend stamps admitted
    /// requests so spans tie back to submission.
    pub trace: Option<TraceId>,
}

impl<T> Request<T> {
    /// An exact request of the given kind.
    pub fn new(kind: QueryKind<T>) -> Self {
        Request { kind, accuracy: Accuracy::Exact, trace: None }
    }

    /// The element of 0-based rank `k`.
    pub fn rank(k: u64) -> Self {
        Request::new(QueryKind::Rank(k))
    }

    /// The element nearest quantile `q`.
    pub fn quantile(q: f64) -> Self {
        Request::new(QueryKind::Quantile(q))
    }

    /// The elements nearest each quantile, answered together.
    pub fn quantiles(qs: impl IntoIterator<Item = f64>) -> Self {
        Request::new(QueryKind::Quantiles(qs.into_iter().collect()))
    }

    /// The median.
    pub fn median() -> Self {
        Request::new(QueryKind::Median)
    }

    /// The smallest resident element.
    pub fn min() -> Self {
        Request::new(QueryKind::Min)
    }

    /// The largest resident element.
    pub fn max() -> Self {
        Request::new(QueryKind::Max)
    }

    /// The `k` smallest resident elements.
    pub fn top_k(k: u64) -> Self {
        Request::new(QueryKind::TopK(k))
    }

    /// The rank the value would occupy (inverse query; see
    /// [`QueryKind::RankOf`]).
    pub fn rank_of(value: T) -> Self {
        Request::new(QueryKind::RankOf(value))
    }

    /// The resident population of the interval (inverse query; see
    /// [`QueryKind::CountBetween`]).
    pub fn count_between(bounds: Bounds<T>) -> Self {
        Request::new(QueryKind::CountBetween(bounds))
    }

    /// Loosens the contract to [`Accuracy::WithinRank`]`(fraction)`.
    pub fn within_rank(mut self, fraction: f64) -> Self {
        self.accuracy = Accuracy::WithinRank(fraction);
        self
    }

    /// Loosens the contract to [`Accuracy::HistogramOk`].
    pub fn histogram_ok(mut self) -> Self {
        self.accuracy = Accuracy::HistogramOk;
        self
    }

    /// Attaches an explicit trace ID (normally stamped at frontend
    /// admission via [`TraceId::next`]).
    pub fn traced(mut self, id: TraceId) -> Self {
        self.trace = Some(id);
        self
    }
}

/// The answer half of an [`Outcome`].
///
/// ```
/// use cgselect_engine::Response;
///
/// let r: Response<u64> = Response::Count { count: 41, max_error: 0 };
/// assert_eq!(r.count(), Some(41));
/// assert_eq!(r.max_error(), 0); // exact
/// let r = Response::Element(7u64);
/// assert_eq!(r.element(), Some(7));
/// assert_eq!(r.count(), None);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub enum Response<T> {
    /// A single exact element (`Rank`, `Quantile`, `Median`, `Min`, `Max`).
    Element(T),
    /// Several exact elements: ascending for `TopK`, aligned with the
    /// requested quantiles for `Quantiles`.
    Elements(Vec<T>),
    /// A rank or population count (`RankOf`, `CountBetween`), with the
    /// guaranteed absolute error bound — `0` means exact.
    Count {
        /// The (possibly estimated) count.
        count: u64,
        /// `|count − true count| ≤ max_error`, guaranteed.
        max_error: u64,
    },
    /// An estimated element whose rank window is **guaranteed** to be
    /// within `max_rank_error` of `target_rank` (sketch- or
    /// histogram-served rank-direction queries under a loosened contract).
    ///
    /// The guarantee is on the value's **rank window** among the resident
    /// elements, `[count below it, count at or below it − 1]`, not on its
    /// residency: the ε-sketch is signed (deletes land on a removed side
    /// instead of forcing a rebuild), so between re-sketches it may answer
    /// with a value whose every copy has since been deleted. Such a value
    /// occupies its insertion position — the rank it would take if it were
    /// put back — and that position is within `max_rank_error` of the
    /// target all the same.
    Approximate {
        /// The estimated element: ingested at some point, possibly no
        /// longer resident.
        value: T,
        /// The exact query's 0-based target rank.
        target_rank: u64,
        /// The guaranteed absolute rank-error bound: the ε-sketch's (or
        /// histogram bracket's) provable error, at most the contract's
        /// `⌈tolerance·n⌉`.
        max_rank_error: u64,
    },
}

impl<T> Response<T> {
    /// Borrows the scalar element, if this is an `Element` or `Approximate`
    /// response (no `Copy` bound — works for any future key type).
    pub fn as_element(&self) -> Option<&T> {
        match self {
            Response::Element(v) | Response::Approximate { value: v, .. } => Some(v),
            _ => None,
        }
    }

    /// Consumes the response into its scalar element, if any.
    pub fn into_element(self) -> Option<T> {
        match self {
            Response::Element(v) | Response::Approximate { value: v, .. } => Some(v),
            _ => None,
        }
    }

    /// The count, if this is a `Count` response.
    pub fn count(&self) -> Option<u64> {
        match self {
            Response::Count { count, .. } => Some(*count),
            _ => None,
        }
    }

    /// The element list, if this is an `Elements` response.
    pub fn elements(&self) -> Option<&[T]> {
        match self {
            Response::Elements(v) => Some(v),
            _ => None,
        }
    }

    /// The guaranteed absolute error bound of this response: `0` for exact
    /// responses, the promised rank/count error otherwise.
    pub fn max_error(&self) -> u64 {
        match self {
            Response::Element(_) | Response::Elements(_) => 0,
            Response::Count { max_error, .. } => *max_error,
            Response::Approximate { max_rank_error, .. } => *max_rank_error,
        }
    }
}

impl<T: Copy> Response<T> {
    /// The scalar element by value (kept for `Copy` keys; prefer
    /// [`as_element`](Self::as_element) in generic code).
    pub fn element(&self) -> Option<T> {
        self.as_element().copied()
    }
}

/// Which subsystem produced an answer — the provenance half of an
/// [`Outcome`], ordered cheapest first.
///
/// ```
/// use cgselect_engine::Served;
///
/// assert!(Served::Histogram < Served::Sketch);
/// assert!(Served::Index < Served::Scan);
/// assert_eq!(Served::Histogram.as_str(), "histogram");
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Served {
    /// Resolved from the cached per-bucket histogram alone: zero element
    /// scans, zero collectives.
    Histogram,
    /// Served from the host-global deterministic ε-sketch under a
    /// `WithinRank` contract: zero collectives, zero scans, with a
    /// provable rank-error guarantee.
    Sketch,
    /// Resolved through the resident bucket index: localized to candidate
    /// windows, borrowed in place.
    Index,
    /// Resolved by scanning the full resident data (index disabled or not
    /// yet built).
    Scan,
}

impl Served {
    /// Stable lower-case label (for logs, CSV, bench output).
    pub fn as_str(self) -> &'static str {
        match self {
            Served::Histogram => "histogram",
            Served::Sketch => "sketch",
            Served::Index => "index",
            Served::Scan => "scan",
        }
    }
}

impl std::fmt::Display for Served {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The share of a batch's measured cost attributed to one query.
///
/// Collectives are *shared* by construction — one Combine round serves every
/// value probe of the batch, one multi-select pass serves every rank — so
/// per-query attribution divides each phase's measured collective ops over
/// the queries that used the phase, proportional to the slots they
/// contributed. Sums over a batch's outcomes reproduce the batch totals.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CostAttribution {
    /// Attributed collective operations (per-processor counts, like
    /// [`RunReport::collective_ops`]). `0.0` for histogram-served
    /// answers.
    pub collective_ops: f64,
}

/// Which state of the resident multiset an answer reflects — the freshness
/// stamp every [`Outcome`] carries.
///
/// `version` is the engine's mutation version: it increments on every
/// ingest/delete (and on membership changes that alter the multiset), so
/// two outcomes with equal versions were computed against the identical
/// resident data. Standing-query updates (see [`crate::StandingUpdate`])
/// lean on this: a subscriber can tell a genuinely new answer from a
/// re-delivery, and correlate updates across independent subscriptions.
///
/// ```
/// use cgselect_engine::{Engine, EngineConfig, Request};
///
/// let mut engine: Engine<u64> = Engine::new(EngineConfig::new(2)).unwrap();
/// engine.ingest((0..100u64).collect()).unwrap();
/// let a = engine.run(&[Request::median()]).unwrap().outcomes.remove(0);
/// engine.ingest(vec![7u64]).unwrap();
/// let b = engine.run(&[Request::median()]).unwrap().outcomes.remove(0);
/// assert!(b.freshness.version > a.freshness.version);
/// assert_eq!(b.freshness.elements, 101);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Freshness {
    /// The engine's mutation version when the answer was computed.
    pub version: u64,
    /// The resident population the answer reflects.
    pub elements: u64,
}

/// One request's result: the answer, its provenance, its attributed cost,
/// and the freshness stamp tying it to a resident-data version.
///
/// ```
/// use cgselect_engine::{Engine, EngineConfig, Request, Served};
///
/// let mut engine: Engine<u64> = Engine::new(EngineConfig::new(2)).unwrap();
/// engine.ingest((0..100u64).collect()).unwrap();
/// let outcome = engine.run(&[Request::rank_of(40)]).unwrap().outcomes.remove(0);
/// assert_eq!(outcome.response.count(), Some(40));
/// assert!(outcome.served <= Served::Scan);
/// assert!(outcome.cost.collective_ops >= 0.0);
/// assert_eq!(outcome.freshness.elements, 100);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct Outcome<T> {
    /// The answer.
    pub response: Response<T>,
    /// Which subsystem produced it.
    pub served: Served,
    /// This query's share of the batch's measured collective work.
    pub cost: CostAttribution,
    /// Which resident-data state the answer reflects.
    pub freshness: Freshness,
}

/// What one [`crate::Engine::run`] batch did and cost.
///
/// `outcomes` holds the caller's requests only. Due standing queries ride
/// the same batch (see [`crate::Engine::subscribe`]); their outcomes go to
/// their [`crate::StandingHandle`]s, but every batch total below — `comm`,
/// `collective_ops`, `makespan`, the answer counters, the span — covers
/// the riders too.
///
/// ```
/// use cgselect_engine::{Engine, EngineConfig, Request};
///
/// let mut engine: Engine<u64> = Engine::new(EngineConfig::new(2)).unwrap();
/// engine.ingest((0..100u64).collect()).unwrap();
/// let report = engine.run(&[Request::median(), Request::rank(10)]).unwrap();
/// assert_eq!(report.outcomes.len(), 2);
/// assert_eq!(report.exact_ranks, 2);
/// // With no standing query riding along, per-query attribution
/// // reproduces the batch total (riders' shares are in their updates).
/// let sum: f64 = report.outcomes.iter().map(|o| o.cost.collective_ops).sum();
/// assert!((sum - report.collective_ops as f64).abs() < 1e-9);
/// ```
#[derive(Clone, Debug)]
pub struct RunReport<T> {
    /// The caller's per-request outcomes, aligned with the submitted batch
    /// (riders excluded).
    pub outcomes: Vec<Outcome<T>>,
    /// Communication the batch moved, summed over all processors.
    pub comm: cgselect_runtime::CommStats,
    /// Collective operations the batch started, per processor — the sum of
    /// the attributed costs of `outcomes` *and* of the standing updates the
    /// batch delivered.
    pub collective_ops: u64,
    /// Virtual-time makespan of the batch under the engine's cost model.
    pub makespan: f64,
    /// Distinct ranks the coalesced multi-select pass resolved.
    pub exact_ranks: usize,
    /// Queries served from the sketches.
    pub sketch_answers: usize,
    /// Rank slots and value probes answered from the cached histogram alone.
    pub histogram_answers: usize,
    /// Value probes resolved by the collective `count_below` op (one
    /// Combine round for all of them together).
    pub value_probes: usize,
    /// Fraction of the resident population in the unindexed delta run when
    /// the batch executed.
    pub delta_occupancy: f64,
    /// The batch's span tree, riders included — `Some` only when the engine
    /// runs with observability enabled (`EngineConfig::observe`).
    pub span: Option<BatchSpan>,
}

/// Maps a quantile list to its target ranks over `n` elements (the
/// multi-quantile analogue of [`quantile_rank`]).
pub(crate) fn quantile_ranks(qs: &[f64], n: u64) -> Vec<u64> {
    qs.iter().map(|&q| quantile_rank(q, n)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_constructors_and_emptiness() {
        assert!(!Bounds::closed(5u64, 5).is_empty());
        assert!(Bounds::open(5u64, 5).is_empty());
        assert!(Bounds::closed(6u64, 5).is_empty());
        assert!(!Bounds::at_most(0u64).is_empty());
        assert!(!Bounds::at_least(u64::MAX).is_empty());
        assert_eq!(Bounds::above(3u64).lo, Some((3, false)));
        assert_eq!(Bounds::below(3u64).hi, Some((3, false)));
    }

    #[test]
    fn request_builders_set_kind_and_accuracy() {
        let r = Request::<u64>::quantile(0.5).within_rank(0.01);
        assert_eq!(r.kind, QueryKind::Quantile(0.5));
        assert_eq!(r.accuracy, Accuracy::WithinRank(0.01));
        let r = Request::rank_of(7u64).histogram_ok();
        assert_eq!(r.kind, QueryKind::RankOf(7));
        assert_eq!(r.accuracy, Accuracy::HistogramOk);
        assert_eq!(Request::<u64>::median().accuracy, Accuracy::Exact);
    }

    #[test]
    fn response_accessors_work_without_copy() {
        // A non-Copy key type: the borrow-returning accessors must compile
        // and work.
        #[derive(Debug, PartialEq)]
        struct NoCopy(u64);
        let r = Response::Element(NoCopy(9));
        assert_eq!(r.as_element(), Some(&NoCopy(9)));
        assert_eq!(r.into_element(), Some(NoCopy(9)));
        let r: Response<NoCopy> = Response::Count { count: 4, max_error: 1 };
        assert_eq!(r.count(), Some(4));
        assert_eq!(r.max_error(), 1);
        assert_eq!(r.as_element(), None);
    }

    #[test]
    fn served_is_ordered_cheapest_first() {
        assert!(Served::Histogram < Served::Sketch);
        assert!(Served::Sketch < Served::Index);
        assert!(Served::Index < Served::Scan);
        assert_eq!(Served::Histogram.to_string(), "histogram");
    }
}
