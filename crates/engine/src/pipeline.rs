//! The batch pipeline behind [`crate::Engine::run`]: six stages, each a
//! function whose signature says what it may touch — **plan**
//! ([`crate::query::plan_requests`]) → [`route`] → [`lower`] → [`execute`]
//! → [`refine`] → [`assemble`].
//!
//! The paper's algorithms are one short loop — local work, one Combine,
//! discard, repeat — and a batch has the same shape: everything up to
//! `lower` is host-side and free of collectives, `execute` is the one place
//! a batch reaches the backend (a batch that lowers to `None` never does),
//! `refine` is the one stage that mutates the cached histogram. Standing
//! admission, the self-healing retry and observability wrap these stages
//! in `Engine::run` / `Engine::run_once`; no stage knows about them.

use std::sync::Arc;

use cgselect_core::SelectionConfig;
use cgselect_runtime::{CommStats, Key};

use crate::backend::{BackendError, BatchPlan, ExecBackend, ShardBatchOutcome};
use crate::index::{merge_stats, BucketStats, GlobalIndex, Group};
use crate::obs::TraceContext;
use crate::query::{CountResolution, RankSet, RequestPlan, Resolution};
use crate::request::{CostAttribution, Freshness, Outcome, Response, RunReport, Served};
use crate::sketch::EpsSketch;

/// How one planned value probe resolves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct ProbeRoute {
    /// The cached histogram's bracket `[lo, hi]` on the probe's prefix
    /// count. A probe whose bracket is exact (`lo == hi`) never reaches
    /// the backend or the sketch.
    pub bracket: (u64, u64),
    /// Position in [`Routed::value_probes`], when an exact-contract request
    /// needs the backend's Combine round to resolve this probe.
    pub backend: Option<usize>,
}

impl ProbeRoute {
    fn exact(&self) -> Option<u64> {
        (self.bracket.0 == self.bracket.1).then_some(self.bracket.0)
    }
}

/// One request's answer before cost attribution: the response, its
/// provenance, and the slots it used per execution phase
/// (`[probes, exact, sketch]`).
type Draft<T> = (Response<T>, Served, [u64; 3]);

/// How one request of the plan is served, decided host-side.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum Route<T> {
    /// Answered at routing time from the cached histogram or the ε-sketch.
    /// The planner already checked the sketch's guarantee against each
    /// contract, so this rung costs zero collectives no matter the backend.
    Host(Draft<T>),
    /// Resolved from the shards' outcome: the request's ranks sit in
    /// [`Routed::residual`], its probes in [`Routed::value_probes`].
    Backend,
}

/// The batch after host-side routing against the cached histogram and the
/// ε-sketch — zero collectives so far.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct Routed<T> {
    /// The resident population.
    pub n: u64,
    /// One route per planned probe, aligned with `RequestPlan::probes`.
    pub probes: Vec<ProbeRoute>,
    /// One route per request, aligned with `RequestPlan::resolutions`.
    pub routes: Vec<Route<T>>,
    /// The backend's probe list: the probes the histogram could not bound
    /// and an exact contract needs (sorted, distinct).
    pub value_probes: Arc<Vec<(T, bool)>>,
    /// The ranks left for exact resolution: the plan's coalesced rank set
    /// plus the histogram-contract ranks the histogram could not serve.
    pub residual: Arc<RankSet>,
    /// Candidate-window groups of the residual ranks and the global delta
    /// population (both as in [`BatchPlan`]). A residual rank is either in
    /// a group or in `fast`: the engine builds the index before routing any.
    pub groups: Arc<Vec<Group>>,
    pub delta_total: u64,
    /// Histogram-only answers `(residual slot, value)`, ascending by slot.
    pub fast: Vec<(usize, T)>,
}

impl<T: Key> Routed<T> {
    /// Probe `p`'s exact prefix count: the histogram's bracket when it is
    /// exact, else the backend's Combined count.
    fn probe_value(&self, p: usize, rank0: Option<&ShardBatchOutcome<T>>) -> u64 {
        self.probes[p].exact().unwrap_or_else(|| {
            let pos = self.probes[p].backend.expect("backend probe listed");
            rank0.expect("probe batch executed").probe_counts[pos]
        })
    }
}

/// **route** — decides, against the cached histogram and the ε-sketch, how
/// every probe and every request is served, and answers what the host can
/// answer alone. Pure: no backend, and no state changes beyond the sketch
/// filling its lazily built query view (which is why `sketch` is `&mut`;
/// the view is invisible to `==`).
pub(crate) fn route<T: Key>(
    plan: &RequestPlan<T>,
    index: Option<&GlobalIndex<T>>,
    sketch: &mut EpsSketch<T>,
) -> Routed<T> {
    let n = plan.n;
    let mut probes: Vec<ProbeRoute> = plan
        .probes
        .iter()
        .map(|&(v, inclusive)| ProbeRoute {
            bracket: index.map_or((0, n), |g| g.count_bounds(v, inclusive)),
            backend: None,
        })
        .collect();
    let mut fallback_ranks: Vec<u64> = Vec::new();
    let routes: Vec<Route<T>> = plan
        .resolutions
        .iter()
        .map(|res| match res {
            Resolution::Count(c) => route_count(c, plan, sketch, &mut probes),
            Resolution::Sketch { target_rank, max_rank_error } => {
                let (target_rank, max_rank_error) = (*target_rank, *max_rank_error);
                let value = sketch.query_rank(target_rank);
                let response = Response::Approximate { value, target_rank, max_rank_error };
                Route::Host((response, Served::Sketch, [0, 0, 1]))
            }
            // Histogram-contract ranks: serve from the cached histogram
            // when a single bucket bounds the target, fall back to the
            // exact rank set otherwise.
            Resolution::HistRank { target_rank } => {
                let target_rank = *target_rank;
                let response = match index.and_then(|g| g.approx_value(target_rank)) {
                    Some((value, 0)) => Response::Element(value),
                    Some((value, max_rank_error)) => {
                        Response::Approximate { value, target_rank, max_rank_error }
                    }
                    None => {
                        fallback_ranks.push(target_rank);
                        return Route::Backend;
                    }
                };
                Route::Host((response, Served::Histogram, [0; 3]))
            }
            _ => Route::Backend,
        })
        .collect();

    // Backend positions follow probe order, so the backend's list stays
    // sorted and distinct like the plan's.
    let mut value_probes = Vec::new();
    for (probe, &p) in probes.iter_mut().zip(&plan.probes) {
        if probe.backend.is_some() {
            probe.backend = Some(value_probes.len());
            value_probes.push(p);
        }
    }

    fallback_ranks.sort_unstable();
    fallback_ranks.dedup();
    let residual = plan.exact_ranks.union_points(&fallback_ranks);
    let (groups, fast) = match index {
        Some(gidx) if !residual.is_empty() => {
            let routing = gidx.route(residual.iter());
            (routing.groups, routing.fast)
        }
        _ => (Vec::new(), Vec::new()),
    };
    Routed {
        n,
        probes,
        routes,
        value_probes: Arc::new(value_probes),
        residual: Arc::new(residual),
        groups: Arc::new(groups),
        delta_total: index.map_or(0, |g| g.delta_total),
        fast,
    }
}

/// Routes one value-direction count per its accuracy contract: answered
/// from the histogram's brackets or the sketch's estimates when the
/// contract allows, else its unresolved endpoint probes are marked for the
/// backend (a marked probe gets its list position in [`route`]).
fn route_count<T: Key>(
    c: &CountResolution,
    plan: &RequestPlan<T>,
    sketch: &mut EpsSketch<T>,
    probes: &mut [ProbeRoute],
) -> Route<T> {
    let host = |count, max_error, served, used| {
        Route::Host((Response::Count { count, max_error }, served, used))
    };
    let n = plan.n;
    let endpoints = [c.minuend, c.subtrahend];
    if c.empty {
        return host(0, 0, Served::Histogram, [0; 3]);
    }
    // Exact brackets give the exact count; looser ones a bucket-resolution
    // answer the `HistogramOk` contract accepts.
    let bounded = endpoints.iter().flatten().all(|&p| probes[p].exact().is_some());
    if bounded || c.histogram_ok {
        let (m_lo, m_hi) = c.minuend.map_or((n, n), |p| probes[p].bracket);
        let (s_lo, s_hi) = c.subtrahend.map_or((0, 0), |p| probes[p].bracket);
        let lo = m_lo.saturating_sub(s_hi);
        let hi = m_hi.saturating_sub(s_lo);
        let count = lo + (hi - lo) / 2;
        return host(count, hi - count, Served::Histogram, [0; 3]);
    }
    if let Some(guaranteed) = c.sketch_error {
        let mut estimated = 0u64;
        let mut value = |p: usize| {
            probes[p].exact().unwrap_or_else(|| {
                estimated += 1;
                sketch.rank_of(plan.probes[p].0, plan.probes[p].1)
            })
        };
        let (m, s) = (c.minuend.map_or(n, &mut value), c.subtrahend.map_or(0, &mut value));
        return host(m.saturating_sub(s), guaranteed, Served::Sketch, [0, 0, estimated]);
    }
    for p in endpoints.into_iter().flatten() {
        if probes[p].exact().is_none() {
            probes[p].backend = Some(0);
        }
    }
    Route::Backend
}

/// **lower** — the backend-independent [`BatchPlan`] for the shards' half
/// of the work (the vectorized probe Combine, delta localization, borrowed
/// candidate windows, the lockstep multi-select, answer refinement), or
/// `None` when the batch is fully resolved host-side and skips the backend
/// entirely: zero collectives, zero scans. `selection` carries the
/// per-batch pivot seed.
pub(crate) fn lower<T: Key>(
    routed: &Routed<T>,
    selection: SelectionConfig,
    trace: Option<TraceContext>,
) -> Option<BatchPlan<T>> {
    let backend_needed = !routed.groups.is_empty() || !routed.value_probes.is_empty();
    backend_needed.then(|| BatchPlan {
        groups: routed.groups.clone(),
        exact_ranks: routed.residual.clone(),
        value_probes: routed.value_probes.clone(),
        selection,
        delta_total: routed.delta_total,
        trace,
    })
}

/// **execute** — the one place a batch reaches the backend; returns every
/// shard's outcome, indexed by rank. A host-served batch (`None`) yields
/// none without consulting it.
pub(crate) fn execute<T: Key>(
    backend: &mut dyn ExecBackend<T>,
    batch: Option<&BatchPlan<T>>,
) -> Result<Vec<ShardBatchOutcome<T>>, BackendError> {
    match batch {
        Some(batch) => backend.execute(batch),
        None => Ok(Vec::new()),
    }
}

/// **refine** — folds the shards' refinement back into the cached
/// histogram, replaying their bound splices in lockstep so the host mirror
/// of the shared splitter array stays bit-identical to every shard's:
/// group refines first (descending), then the probe carves in plan order —
/// exactly the order `execute_shard` applied them. Returns `true` when
/// refinement grew the bucket count past `bucket_cap` and the index should
/// be rebuilt.
pub(crate) fn refine<T: Key>(
    gidx: &mut GlobalIndex<T>,
    routed: &Routed<T>,
    shards: &[ShardBatchOutcome<T>],
    bucket_cap: usize,
) -> bool {
    let merged = |pick: &dyn Fn(&ShardBatchOutcome<T>) -> &BucketStats<T>| {
        let mut stats = pick(&shards[0]).clone();
        for o in &shards[1..] {
            merge_stats(&mut stats, pick(o));
        }
        stats
    };
    for (g, group) in routed.groups.iter().enumerate().rev() {
        let answers: Vec<T> = group
            .out
            .iter()
            .map(|&slot| shards[0].exact[slot].expect("group ranks resolved"))
            .collect();
        gidx.refine_window_bounds(group.lo, group.hi, &answers);
        gidx.splice_window(group.lo, group.hi, &merged(&|o| &o.refines[g]));
    }
    // Probe-driven refinement: a resolved probe carves its `(v,<)(v,≤)`
    // equality-class pair host-side iff the shards carved it (the skip
    // test depends only on the shared bounds, so both sides agree without
    // any extra communication).
    let mut carved = 0usize;
    for &(v, _) in routed.value_probes.iter() {
        if let Some(b) = gidx.refine_probe_bounds(v) {
            gidx.splice_window(b, b, &merged(&|o| &o.probe_refines[carved]));
            carved += 1;
        }
    }
    debug_assert_eq!(
        carved,
        shards[0].probe_refines.len(),
        "host probe replay must carve exactly the buckets the shards did"
    );
    gidx.rebuild_prefix();
    gidx.reclassify_delta();
    gidx.num_buckets() > bucket_cap
}

/// **assemble** — turns the plan's resolutions into typed [`Outcome`]s,
/// attributes each measured phase's collective ops proportionally over the
/// requests that used the phase (so the per-request costs sum to the batch
/// total) and fills in the report's counters. Also returns each request's
/// phase slot counts (`[probes, exact, sketch]`, aligned with the
/// outcomes), which the span builder reads phase participation off.
pub(crate) fn assemble<T: Key>(
    plan: RequestPlan<T>,
    routed: Routed<T>,
    shards: &[ShardBatchOutcome<T>],
    freshness: Freshness,
) -> (RunReport<T>, Vec<[u64; 3]>) {
    let rank0 = shards.first();
    // A residual slot the shards resolved is `Some` in their outcome; every
    // other slot took the histogram fast path.
    let value_at = |r: u64| -> (T, bool) {
        let slot = routed.residual.slot_of(r);
        match rank0.and_then(|o| o.exact[slot]) {
            Some(v) => (v, false),
            None => {
                let i = routed.fast.binary_search_by_key(&slot, |&(s, _)| s);
                (routed.fast[i.expect("every coalesced rank must have been resolved")].1, true)
            }
        }
    };
    let rank_served = |slow: u64| if slow == 0 { Served::Histogram } else { Served::Index };
    let one_rank = |r: u64| {
        let (v, fast) = value_at(r);
        (Response::Element(v), rank_served(u64::from(!fast)), [0, u64::from(!fast), 0])
    };
    // Any multi-rank kind (`TopK` runs, `Quantiles` lists): gather the
    // values, count the slots the multi-select actually paid for, and
    // label provenance by whether any slot left the histogram.
    let many_ranks = |ranks: &mut dyn Iterator<Item = u64>| {
        let mut slow = 0u64;
        let values = ranks
            .map(|r| {
                let (v, fast) = value_at(r);
                slow += u64::from(!fast);
                v
            })
            .collect();
        (Response::Elements(values), rank_served(slow), [0, slow, 0])
    };

    let mut sketch_answers = 0usize;
    let mut histogram_answers = routed.fast.len();
    let mut outcomes: Vec<Outcome<T>> = Vec::with_capacity(plan.resolutions.len());
    let mut units: Vec<[u64; 3]> = Vec::with_capacity(plan.resolutions.len());
    for (res, route) in plan.resolutions.iter().zip(&routed.routes) {
        let (response, served, used) = match (route, res) {
            (Route::Host(draft), _) => draft.clone(),
            (_, Resolution::Exact(r) | Resolution::HistRank { target_rank: r }) => one_rank(*r),
            (_, Resolution::ExactRun { len }) => many_ranks(&mut (0..*len)),
            (_, Resolution::MultiExact(ranks)) => many_ranks(&mut ranks.iter().copied()),
            (_, Resolution::Count(c)) => {
                let m = c.minuend.map_or(routed.n, |p| routed.probe_value(p, rank0));
                let s = c.subtrahend.map_or(0, |p| routed.probe_value(p, rank0));
                let probed = [c.minuend, c.subtrahend]
                    .into_iter()
                    .flatten()
                    .filter(|&p| routed.probes[p].exact().is_none())
                    .count() as u64;
                let response = Response::Count { count: m.saturating_sub(s), max_error: 0 };
                (response, Served::Index, [probed, 0, 0])
            }
            (_, Resolution::Sketch { .. }) => unreachable!("the sketch rung is host-served"),
        };
        sketch_answers += usize::from(served == Served::Sketch);
        histogram_answers += usize::from(
            served == Served::Histogram
                && matches!(res, Resolution::HistRank { .. } | Resolution::Count(_)),
        );
        units.push(used);
        outcomes.push(Outcome { response, served, cost: CostAttribution::default(), freshness });
    }

    let phase = rank0.map(|o| o.phase_ops).unwrap_or_default();
    let phase_ops = [phase.probes, phase.exact, phase.sketch];
    let mut totals = [0u64; 3];
    for used in &units {
        for (t, u) in totals.iter_mut().zip(used) {
            *t += u;
        }
    }
    for (outcome, used) in outcomes.iter_mut().zip(&units) {
        for k in 0..3 {
            if used[k] > 0 {
                outcome.cost.collective_ops +=
                    phase_ops[k] as f64 * used[k] as f64 / totals[k] as f64;
            }
        }
    }
    let report = RunReport {
        outcomes,
        comm: shards.iter().fold(CommStats::default(), |sum, o| sum.merged(&o.comm)),
        collective_ops: rank0.map_or(0, |o| o.comm.collective_ops),
        makespan: shards.iter().fold(0.0, |max, o| max.max(o.elapsed)),
        exact_ranks: routed.residual.len(),
        sketch_answers,
        histogram_answers,
        value_probes: routed.value_probes.len(),
        delta_occupancy: routed.delta_total as f64 / routed.n as f64,
        span: None,
    };
    (report, units)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::plan_requests;
    use crate::{Engine, EngineConfig, Request};

    fn engine() -> Engine<u64> {
        let mut engine = Engine::new(EngineConfig::new(3)).unwrap();
        engine.ingest((0..9000u64).map(|i| i * 7 % 9001).collect()).unwrap();
        engine
    }

    fn mixed() -> [Request<u64>; 4] {
        let tolerant = Request::rank_of(77).within_rank(0.05);
        [Request::median(), Request::rank_of(4000), Request::quantile(0.9).histogram_ok(), tolerant]
    }

    #[test]
    fn route_is_pure() {
        let mut e = engine();
        e.run(&[Request::rank(5)]).unwrap(); // builds the index
        let (health, sketch) = (e.index_health(), e.sketch.clone());
        let plan = plan_requests(&mixed(), e.total, e.sketch_guarantee()).unwrap();
        let first = route(&plan, e.index.as_ref(), &mut e.sketch);
        assert_eq!(first, route(&plan, e.index.as_ref(), &mut e.sketch));
        assert!(!first.groups.is_empty() && !first.value_probes.is_empty());
        assert_eq!((e.index_health(), &e.sketch), (health, &sketch));
    }

    #[test]
    fn host_served_batches_lower_to_none() {
        let mut e = engine();
        let warm = [Request::median(), Request::rank_of(4000)];
        assert!(e.run(&warm).unwrap().collective_ops > 0);
        for batch in [&warm[..], &[Request::quantile(0.5).within_rank(0.05)]] {
            let plan = plan_requests(batch, e.total, e.sketch_guarantee()).unwrap();
            let routed = route(&plan, e.index.as_ref(), &mut e.sketch);
            assert!(lower(&routed, e.cfg.selection.clone(), None).is_none());
            assert_eq!(e.run(batch).unwrap().collective_ops, 0);
        }
    }

    #[test]
    fn a_refused_batch_leaves_no_trace() {
        let (mut e, mut twin) = (engine(), engine());
        assert!(e.run(&[Request::median(), Request::rank(9000)]).is_err());
        assert_eq!(e.batches(), 0);
        let (a, b) = (e.run(&mixed()).unwrap(), twin.run(&mixed()).unwrap());
        assert_eq!(a.outcomes, b.outcomes);
        assert_eq!((a.collective_ops, a.makespan), (b.collective_ops, b.makespan));
    }
}
