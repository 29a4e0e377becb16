//! The batch planner behind the engine's query language.
//!
//! [`crate::Engine::run`] takes typed [`Request`]s ([`crate::request`]):
//! rank-direction kinds plus the inverse direction
//! ([`QueryKind::RankOf`], [`QueryKind::CountBetween`]), each under an
//! explicit [`Accuracy`] contract. It plans a batch here, routes it against
//! the cached histogram host-side, and lowers the remainder onto the
//! collective ops.
//!
//! Planning reduces every exact rank-direction query to 0-based global
//! ranks and **coalesces the whole batch into one deduplicated
//! [`RankSet`]** — stored as contiguous *runs*, so `TopK(k)` contributes
//! one `(0, k)` run instead of `k` materialized ranks — which the engine
//! resolves with a single [`cgselect_core::parallel_multi_select_windows`]
//! pass: `R` rank queries cost one multi-select recursion (`O(log log n)`
//! sampled-bracket rounds, shared) instead of `R` independent selections.
//! Value-direction queries coalesce their endpoints into one
//! deduplicated probe list resolved by a single vectorized `count_below`
//! Combine round. Queries whose [`Accuracy`] the resident sketches can
//! honor are routed to the approximate path and never touch the full data.

use crate::request::{Accuracy, Bounds, QueryKind, Request};

/// The 0-based rank the engine resolves quantile `q` to over `n` elements
/// (nearest-rank definition: `round(q·(n−1))`).
pub fn quantile_rank(q: f64, n: u64) -> u64 {
    assert!(n > 0, "quantile of an empty set");
    ((q * (n - 1) as f64).round() as u64).min(n - 1)
}

// ---------------------------------------------------------------------------
// RankSet: the coalesced rank list, stored as runs.
// ---------------------------------------------------------------------------

/// A deduplicated set of 0-based global ranks, stored as sorted, disjoint,
/// maximal **runs** — so a contiguous request like `TopK(100_000)`
/// contributes one `(0, 100_000)` run instead of `100_000` materialized,
/// sorted ranks. This is the coalesced rank list a batch's multi-select
/// pass resolves; it crosses the [`crate::ExecBackend`] boundary inside
/// [`crate::BatchPlan`], so the wire encoding is per-run too.
///
/// Slots: the set defines a flat ascending order over its members;
/// [`slot_of`](Self::slot_of) maps a member rank to its position, which is
/// the index of its resolved value in the batch outcome.
///
/// ```
/// use cgselect_engine::RankSet;
///
/// // TopK(5) + Rank(3) + Rank(9): one merged run plus a point.
/// let set = RankSet::from_runs(vec![(0, 5), (3, 1), (9, 1)]);
/// assert_eq!(set.len(), 6);
/// assert_eq!(set.num_runs(), 2);
/// assert_eq!(set.iter().collect::<Vec<_>>(), vec![0, 1, 2, 3, 4, 9]);
/// assert_eq!(set.slot_of(9), 5);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RankSet {
    /// `(start, len, first_slot)` per run; sorted, disjoint, non-adjacent.
    runs: Vec<(u64, u64, u64)>,
    total: u64,
}

impl RankSet {
    /// Builds the set from arbitrary `(start, len)` runs (unsorted,
    /// possibly overlapping or adjacent; zero-length runs are dropped).
    pub fn from_runs(mut raw: Vec<(u64, u64)>) -> Self {
        raw.retain(|&(_, len)| len > 0);
        raw.sort_unstable();
        let mut runs: Vec<(u64, u64, u64)> = Vec::with_capacity(raw.len());
        for (start, len) in raw {
            match runs.last_mut() {
                // Overlapping or exactly adjacent: extend the open run.
                Some(last) if start <= last.0 + last.1 => {
                    let end = (start + len).max(last.0 + last.1);
                    last.1 = end - last.0;
                }
                _ => runs.push((start, len, 0)),
            }
        }
        let mut total = 0u64;
        for run in &mut runs {
            run.2 = total;
            total += run.1;
        }
        RankSet { runs, total }
    }

    /// Number of distinct member ranks.
    #[allow(clippy::len_without_is_empty)] // is_empty provided below
    pub fn len(&self) -> usize {
        self.total as usize
    }

    /// True when the set has no members.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Number of maximal runs (the compact representation's size).
    pub fn num_runs(&self) -> usize {
        self.runs.len()
    }

    /// The maximal runs, ascending, as `(start, len)`.
    pub fn runs(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.runs.iter().map(|&(s, l, _)| (s, l))
    }

    /// Every member rank, ascending.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.runs.iter().flat_map(|&(s, l, _)| s..s + l)
    }

    /// The flat ascending position of member rank `r` (the slot its
    /// resolved value occupies in a batch outcome).
    ///
    /// # Panics
    /// Panics if `r` is not a member.
    pub fn slot_of(&self, r: u64) -> usize {
        let i = self.runs.partition_point(|&(s, l, _)| s + l <= r);
        match self.runs.get(i) {
            Some(&(s, _, base)) if s <= r => (base + (r - s)) as usize,
            _ => panic!("rank {r} is not in the set"),
        }
    }

    /// A new set additionally containing the given individual ranks.
    pub fn union_points(&self, points: &[u64]) -> RankSet {
        if points.is_empty() {
            return self.clone();
        }
        let mut raw: Vec<(u64, u64)> = self.runs.iter().map(|&(s, l, _)| (s, l)).collect();
        raw.extend(points.iter().map(|&p| (p, 1)));
        RankSet::from_runs(raw)
    }
}

// ---------------------------------------------------------------------------
// Validation
// ---------------------------------------------------------------------------

/// Checks one request's domain against a resident population of `n`
/// elements without planning it: the single source of truth for what
/// [`plan_requests`] accepts, also used by the async frontend to reject an
/// invalid request individually instead of failing its whole coalesced
/// batch.
pub(crate) fn validate_request<T>(request: &Request<T>, n: u64) -> Result<(), crate::EngineError> {
    use crate::EngineError;
    if n == 0 {
        return Err(EngineError::Empty);
    }
    match &request.kind {
        QueryKind::Rank(k) if *k >= n => {
            return Err(EngineError::RankOutOfRange { rank: *k, n });
        }
        QueryKind::Quantile(q) if !(0.0..=1.0).contains(q) => {
            return Err(EngineError::InvalidQuantile(*q));
        }
        QueryKind::Quantiles(qs) => {
            if let Some(&q) = qs.iter().find(|q| !(0.0..=1.0).contains(*q)) {
                return Err(EngineError::InvalidQuantile(q));
            }
        }
        QueryKind::TopK(k) if *k > n => {
            return Err(EngineError::TopKTooLarge { k: *k, n });
        }
        _ => {}
    }
    // NaN and ±∞ tolerances are rejected up front: the rank budget ⌈t·n⌉
    // of a non-finite tolerance is meaningless, and an infinite one would
    // admit every sketch route regardless of the resident guarantee.
    if let Accuracy::WithinRank(t) = request.accuracy {
        if !t.is_finite() || t < 0.0 {
            return Err(crate::EngineError::InvalidTolerance(t));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// The batch plan
// ---------------------------------------------------------------------------

/// How one probe list entry contributes to a count: subtracted terms are
/// planned as their *complementary* probe so every count is a difference of
/// two monotone prefix counts.
#[derive(Clone, Debug)]
pub(crate) struct CountResolution {
    /// Probe index whose count is added; `None` means the full population.
    pub minuend: Option<usize>,
    /// Probe index whose count is subtracted; `None` means zero.
    pub subtrahend: Option<usize>,
    /// `Some(max_error)` when the accuracy contract lets the resident
    /// ε-sketch serve this count — the *guaranteed* absolute error (the
    /// per-probe guarantee summed over the probes), at most `⌈t·n⌉`.
    pub sketch_error: Option<u64>,
    /// The caller accepts a bucket-resolution histogram answer.
    pub histogram_ok: bool,
    /// The interval is empty: the count is exactly 0, no probes needed.
    pub empty: bool,
}

/// How the planner resolved one request.
#[derive(Clone, Debug)]
pub(crate) enum Resolution {
    /// Answer is the element at this exact rank.
    Exact(u64),
    /// Answer is the elements at ranks `0..len`, ascending (`TopK`).
    ExactRun {
        /// Number of leading ranks.
        len: u64,
    },
    /// Answer is the elements at these ranks, aligned (`Quantiles`).
    MultiExact(Vec<u64>),
    /// Answer from the host-global ε-sketch (rank direction).
    Sketch {
        /// The exact query's target rank.
        target_rank: u64,
        /// The guaranteed absolute rank-error bound (the sketch's current
        /// provable error, not the looser `⌈t·n⌉` contract).
        max_rank_error: u64,
    },
    /// Rank-direction query whose contract accepts a histogram-resolution
    /// answer; the engine tries the cached histogram first and falls back
    /// to the exact rank.
    HistRank {
        /// The exact query's target rank.
        target_rank: u64,
    },
    /// Value-direction count (see [`CountResolution`]).
    Count(CountResolution),
}

/// A planned batch: per-request resolutions, the coalesced rank set and
/// the coalesced value-probe list.
///
/// Probes are `(value, inclusive)` prefix counts: `inclusive = false`
/// counts `x < value`, `true` counts `x ≤ value` — the paper's
/// count-below-pivot primitive, batched.
#[derive(Clone, Debug)]
pub(crate) struct RequestPlan<T> {
    /// The resident population the batch was planned against.
    pub n: u64,
    pub resolutions: Vec<Resolution>,
    /// Deduplicated ranks committed to exact resolution, as runs.
    pub exact_ranks: RankSet,
    /// Distinct, sorted value probes feeding the single `count_below`
    /// Combine round (or the histogram / sketch fast paths).
    pub probes: Vec<(T, bool)>,
}

/// The deterministic error guarantees of the resident host-global
/// ε-sketch, as the planner consumes them: integer absolute bounds, not
/// fractions, so routing decisions are exact arithmetic with no float
/// rounding at the contract boundary.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct SketchErr {
    /// Provable bound on `|true_rank(answer) − target_rank|` for a rank
    /// query served from the sketch.
    pub rank: u64,
    /// Provable bound on the error of one prefix-count estimate.
    pub count: u64,
}

/// A `WithinRank(t)` contract's absolute rank budget over `n` elements.
fn rank_budget(t: f64, n: u64) -> u64 {
    (t * n as f64).ceil() as u64
}

/// Plans a batch over `n` resident elements. `sketch` carries the
/// resident ε-sketch's current guarantees ([`crate::Engine`] derives them
/// from the host-global sketch); `None` disables the approximate path. A
/// `WithinRank(t)` request routes to the sketch rung iff the guarantee
/// fits the `⌈t·n⌉` budget — the answer then reports the guarantee itself
/// as its maximum error.
///
/// Fails (via `Err`) on out-of-domain requests so the caller can reject
/// the batch before any collective work happens.
pub(crate) fn plan_requests<T: Copy + Ord>(
    requests: &[Request<T>],
    n: u64,
    sketch: Option<SketchErr>,
) -> Result<RequestPlan<T>, crate::EngineError> {
    if n == 0 {
        return Err(crate::EngineError::Empty);
    }
    let mut resolutions = Vec::with_capacity(requests.len());
    let mut rank_runs: Vec<(u64, u64)> = Vec::new();
    let mut raw_probes: Vec<(T, bool)> = Vec::new();

    // Stage 1: resolve kinds; collect rank runs and raw probe references.
    for request in requests {
        validate_request(request, n)?;
        let res = match &request.kind {
            QueryKind::Rank(k) => rank_resolution(*k, request.accuracy, n, sketch),
            QueryKind::Median => rank_resolution((n - 1) / 2, request.accuracy, n, sketch),
            QueryKind::Min => rank_resolution(0, request.accuracy, n, sketch),
            QueryKind::Max => rank_resolution(n - 1, request.accuracy, n, sketch),
            QueryKind::Quantile(q) => {
                rank_resolution(quantile_rank(*q, n), request.accuracy, n, sketch)
            }
            // Multi-element kinds are always served exactly (serving
            // better than the contract is allowed).
            QueryKind::TopK(k) => Resolution::ExactRun { len: *k },
            QueryKind::Quantiles(qs) => {
                Resolution::MultiExact(crate::request::quantile_ranks(qs, n))
            }
            QueryKind::RankOf(v) => {
                let minuend = push_probe(&mut raw_probes, (*v, false));
                Resolution::Count(CountResolution {
                    minuend: Some(minuend),
                    subtrahend: None,
                    sketch_error: count_sketch_error(request.accuracy, 1, n, sketch),
                    histogram_ok: request.accuracy == Accuracy::HistogramOk,
                    empty: false,
                })
            }
            QueryKind::CountBetween(bounds) => {
                plan_count_between(*bounds, request.accuracy, n, sketch, &mut raw_probes)
            }
        };
        match &res {
            Resolution::Exact(r) => rank_runs.push((*r, 1)),
            Resolution::ExactRun { len } => rank_runs.push((0, *len)),
            Resolution::MultiExact(ranks) => rank_runs.extend(ranks.iter().map(|&r| (r, 1))),
            Resolution::Sketch { .. } | Resolution::HistRank { .. } | Resolution::Count(_) => {}
        }
        resolutions.push(res);
    }

    // Stage 2: canonicalize the probe list (sorted, distinct) and rewrite
    // every raw probe index onto it.
    let mut probes = raw_probes.clone();
    probes.sort_unstable();
    probes.dedup();
    let remap = |idx: &mut Option<usize>| {
        if let Some(i) = idx {
            *i = probes.binary_search(&raw_probes[*i]).expect("canonical probe present");
        }
    };
    for res in &mut resolutions {
        if let Resolution::Count(c) = res {
            remap(&mut c.minuend);
            remap(&mut c.subtrahend);
        }
    }

    Ok(RequestPlan { n, resolutions, exact_ranks: RankSet::from_runs(rank_runs), probes })
}

/// Resolution of a single-rank kind under its accuracy contract.
fn rank_resolution(
    target: u64,
    accuracy: Accuracy,
    n: u64,
    sketch: Option<SketchErr>,
) -> Resolution {
    match accuracy {
        Accuracy::Exact => Resolution::Exact(target),
        Accuracy::WithinRank(t) => match sketch {
            Some(s) if s.rank <= rank_budget(t, n) => {
                Resolution::Sketch { target_rank: target, max_rank_error: s.rank }
            }
            // Guarantee too loose for the contract (or sketches disabled):
            // exact fallback.
            _ => Resolution::Exact(target),
        },
        Accuracy::HistogramOk => Resolution::HistRank { target_rank: target },
    }
}

/// `Some(guaranteed_error)` when `probes` sketch estimates, each within
/// the per-probe count guarantee, together stay within the
/// `WithinRank(t)` contract's `⌈t·n⌉` budget.
fn count_sketch_error(
    accuracy: Accuracy,
    probes: u64,
    n: u64,
    sketch: Option<SketchErr>,
) -> Option<u64> {
    match (accuracy, sketch) {
        (Accuracy::WithinRank(t), Some(s)) => {
            let guaranteed = probes.checked_mul(s.count)?;
            (guaranteed <= rank_budget(t, n)).then_some(guaranteed)
        }
        _ => None,
    }
}

/// Lowers a `CountBetween` onto (up to) two prefix-count probes:
/// `count(interval) = count(≤/< hi) − count(</≤ lo)`.
fn plan_count_between<T: Copy + Ord>(
    bounds: Bounds<T>,
    accuracy: Accuracy,
    n: u64,
    sketch: Option<SketchErr>,
    raw_probes: &mut Vec<(T, bool)>,
) -> Resolution {
    if bounds.is_empty() {
        return Resolution::Count(CountResolution {
            minuend: None,
            subtrahend: None,
            sketch_error: None,
            histogram_ok: false,
            empty: true,
        });
    }
    // Upper endpoint: an inclusive `hi` admits x ≤ hi, an exclusive one
    // x < hi; unbounded means the whole population.
    let minuend = bounds.hi.map(|(v, inclusive)| push_probe(raw_probes, (v, inclusive)));
    // Lower endpoint: an inclusive `lo` *excludes* x < lo (strict probe),
    // an exclusive one excludes x ≤ lo (inclusive probe).
    let subtrahend = bounds.lo.map(|(v, inclusive)| push_probe(raw_probes, (v, !inclusive)));
    let probes = minuend.is_some() as u64 + subtrahend.is_some() as u64;
    Resolution::Count(CountResolution {
        minuend,
        subtrahend,
        sketch_error: count_sketch_error(accuracy, probes, n, sketch),
        histogram_ok: accuracy == Accuracy::HistogramOk,
        empty: false,
    })
}

fn push_probe<T>(raw: &mut Vec<(T, bool)>, probe: (T, bool)) -> usize {
    raw.push(probe);
    raw.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_rank_nearest() {
        assert_eq!(quantile_rank(0.0, 100), 0);
        assert_eq!(quantile_rank(1.0, 100), 99);
        assert_eq!(quantile_rank(0.5, 101), 50);
        assert_eq!(quantile_rank(0.5, 1), 0);
    }

    #[test]
    fn rank_set_merges_and_slots() {
        let s = RankSet::from_runs(vec![(10, 3), (0, 2), (12, 4), (5, 1), (1, 1)]);
        assert_eq!(s.runs().collect::<Vec<_>>(), vec![(0, 2), (5, 1), (10, 6)]);
        assert_eq!(s.len(), 9);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 1, 5, 10, 11, 12, 13, 14, 15]);
        assert_eq!(s.slot_of(0), 0);
        assert_eq!(s.slot_of(5), 2);
        assert_eq!(s.slot_of(13), 6);
        let u = s.union_points(&[4, 13, 100]);
        assert_eq!(u.len(), 11);
        assert_eq!(u.slot_of(4), 2);
        assert_eq!(u.slot_of(100), 10);
        assert!(RankSet::default().is_empty());
    }

    #[test]
    #[should_panic(expected = "rank 3 is not in the set")]
    fn slot_of_rejects_gap_ranks_in_release_builds_too() {
        // The membership check must be a hard panic, not a debug_assert:
        // a wrapped subtraction would otherwise return a garbage slot.
        let s = RankSet::from_runs(vec![(0, 2), (5, 1)]);
        let _ = s.slot_of(3);
    }

    #[test]
    #[should_panic(expected = "rank 99 is not in the set")]
    fn slot_of_rejects_ranks_beyond_every_run() {
        let s = RankSet::from_runs(vec![(0, 2)]);
        let _ = s.slot_of(99);
    }

    #[test]
    fn top_k_plans_as_one_run_not_k_ranks() {
        // The satellite fix: TopK(k) must not allocate/sort k individual
        // ranks in the plan — one contiguous run represents them all.
        let k = 100_000u64;
        let plan = plan_requests(&[Request::<u64>::top_k(k)], 1 << 20, None).unwrap();
        assert_eq!(plan.exact_ranks.len(), k as usize);
        assert_eq!(plan.exact_ranks.num_runs(), 1);
        assert_eq!(plan.exact_ranks.runs().next(), Some((0, k)));
    }

    #[test]
    fn planner_coalesces_and_dedups() {
        let requests = [
            Request::<u64>::rank(5),
            Request::median(), // n=11 -> rank 5, duplicate
            Request::top_k(3),
            Request::quantile(1.0), // rank 10
        ];
        let plan = plan_requests(&requests, 11, None).unwrap();
        assert_eq!(plan.exact_ranks.iter().collect::<Vec<_>>(), vec![0, 1, 2, 5, 10]);
        assert!(!plan.resolutions.iter().any(|r| matches!(r, Resolution::Sketch { .. })));
        assert!(plan.probes.is_empty());
    }

    #[test]
    fn tolerant_quantiles_route_to_sketch_only_when_supported() {
        let guarantee = Some(SketchErr { rank: 10, count: 10 });
        let requests = [
            Request::<u64>::quantile(0.5).within_rank(0.05),
            Request::quantile(0.5).within_rank(0.001),
        ];
        let plan = plan_requests(&requests, 1000, guarantee).unwrap();
        // Budget ⌈0.05·1000⌉ = 50 ≥ guarantee 10 -> sketch, reporting the
        // guarantee (not the looser budget) as the promised error;
        // ⌈0.001·1000⌉ = 1 < 10 -> exact fallback.
        assert_eq!(plan.exact_ranks.iter().collect::<Vec<_>>(), vec![500]);
        match plan.resolutions[0] {
            Resolution::Sketch { target_rank: 500, max_rank_error: 10 } => {}
            ref other => panic!("unexpected resolution {other:?}"),
        }
    }

    #[test]
    fn exact_guarantee_routes_even_a_zero_tolerance_to_the_sketch() {
        // A sketch that never compacted is exact (guarantee 0): even the
        // tightest contract may ride the zero-collective rung.
        let plan = plan_requests(
            &[Request::<u64>::quantile(0.5).within_rank(0.0)],
            1000,
            Some(SketchErr { rank: 0, count: 0 }),
        )
        .unwrap();
        assert!(matches!(
            plan.resolutions[0],
            Resolution::Sketch { target_rank: 500, max_rank_error: 0 }
        ));
    }

    #[test]
    fn non_finite_tolerances_are_rejected_not_sketch_routed() {
        // A non-finite tolerance has no meaningful ⌈t·n⌉ budget; it must be
        // rejected whether or not a sketch guarantee is resident.
        for bad in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            for guarantee in [None, Some(SketchErr { rank: 0, count: 0 })] {
                let requests = [Request::<u64>::quantile(0.5).within_rank(bad)];
                assert!(
                    matches!(
                        plan_requests(&requests, 100, guarantee),
                        Err(crate::EngineError::InvalidTolerance(_))
                    ),
                    "tolerance {bad} must be rejected"
                );
            }
        }
    }

    #[test]
    fn domain_errors_reject_the_batch() {
        assert!(matches!(
            plan_requests(&[Request::<u64>::rank(10)], 10, None),
            Err(crate::EngineError::RankOutOfRange { rank: 10, n: 10 })
        ));
        assert!(matches!(
            plan_requests(&[Request::<u64>::quantile(1.5)], 10, None),
            Err(crate::EngineError::InvalidQuantile(_))
        ));
        assert!(matches!(
            plan_requests(&[Request::<u64>::top_k(11)], 10, None),
            Err(crate::EngineError::TopKTooLarge { k: 11, n: 10 })
        ));
        assert!(matches!(
            plan_requests(&[Request::<u64>::median()], 0, None),
            Err(crate::EngineError::Empty)
        ));
        assert!(matches!(
            plan_requests(&[Request::<u64>::quantiles([0.5, 2.0])], 10, None),
            Err(crate::EngineError::InvalidQuantile(_))
        ));
    }

    #[test]
    fn inverse_queries_coalesce_probes() {
        use crate::request::Bounds;
        let requests = [
            Request::rank_of(50u64),
            Request::count_between(Bounds::closed(10, 50)),
            Request::count_between(Bounds::below(50)),
            Request::count_between(Bounds::at_least(10)),
        ];
        let plan = plan_requests(&requests, 1000, None).unwrap();
        // RankOf(50) -> (50, lt); closed(10,50) -> (50, le) − (10, lt);
        // below(50) -> (50, lt); at_least(10) -> n − (10, lt):
        // three distinct probes after coalescing.
        assert_eq!(plan.probes, vec![(10, false), (50, false), (50, true)]);
        assert!(plan.exact_ranks.is_empty());
        match &plan.resolutions[1] {
            Resolution::Count(c) => {
                assert_eq!(plan.probes[c.minuend.unwrap()], (50, true));
                assert_eq!(plan.probes[c.subtrahend.unwrap()], (10, false));
            }
            other => panic!("unexpected resolution {other:?}"),
        }
        match &plan.resolutions[3] {
            Resolution::Count(c) => {
                assert_eq!(c.minuend, None, "unbounded above = full population");
                assert_eq!(plan.probes[c.subtrahend.unwrap()], (10, false));
            }
            other => panic!("unexpected resolution {other:?}"),
        }
    }

    #[test]
    fn empty_interval_counts_zero_without_probes() {
        use crate::request::Bounds;
        let plan =
            plan_requests(&[Request::count_between(Bounds::open(5u64, 5))], 100, None).unwrap();
        assert!(plan.probes.is_empty());
        assert!(matches!(&plan.resolutions[0], Resolution::Count(c) if c.empty));
    }

    #[test]
    fn count_sketch_eligibility_scales_with_probe_count() {
        use crate::request::Bounds;
        // Per-probe count guarantee 10: RankOf (1 probe, error 10) fits
        // the ⌈0.015·1000⌉ = 15 budget, CountBetween with two endpoints
        // (2 probes, error 20) does not; ⌈0.02·1000⌉ = 20 admits both.
        // The reported error is the summed guarantee, not the budget.
        let reqs = [
            Request::rank_of(7u64).within_rank(0.015),
            Request::count_between(Bounds::closed(1u64, 9)).within_rank(0.015),
            Request::count_between(Bounds::closed(1u64, 9)).within_rank(0.02),
        ];
        let plan = plan_requests(&reqs, 1000, Some(SketchErr { rank: 10, count: 10 })).unwrap();
        let sketch_err = |i: usize| match &plan.resolutions[i] {
            Resolution::Count(c) => c.sketch_error,
            other => panic!("unexpected resolution {other:?}"),
        };
        assert_eq!(sketch_err(0), Some(10));
        assert_eq!(sketch_err(1), None);
        assert_eq!(sketch_err(2), Some(20));
    }

    #[test]
    fn histogram_ok_routes_rank_and_count_kinds() {
        let reqs =
            [Request::<u64>::quantile(0.5).histogram_ok(), Request::rank_of(7u64).histogram_ok()];
        let plan = plan_requests(&reqs, 101, None).unwrap();
        assert!(matches!(plan.resolutions[0], Resolution::HistRank { target_rank: 50 }));
        assert!(matches!(&plan.resolutions[1], Resolution::Count(c) if c.histogram_ok));
        // HistRank targets are NOT pre-committed to the exact rank set —
        // the engine adds them back only if the histogram cannot serve.
        assert!(plan.exact_ranks.is_empty());
    }

    #[test]
    fn quantiles_kind_plans_aligned_ranks() {
        let plan =
            plan_requests(&[Request::<u64>::quantiles([0.0, 0.5, 0.5, 1.0])], 101, None).unwrap();
        match &plan.resolutions[0] {
            Resolution::MultiExact(ranks) => assert_eq!(ranks, &vec![0, 50, 50, 100]),
            other => panic!("unexpected resolution {other:?}"),
        }
        assert_eq!(plan.exact_ranks.iter().collect::<Vec<_>>(), vec![0, 50, 100]);
    }
}
