//! The per-shard halves of every engine operation, shared by all backends.
//!
//! Each function here is the body one virtual processor runs for one
//! engine verb (ingest, delete, rebalance, index build, delta merge, batch
//! execution). [`super::LocalSpmd`] invokes them from `Session::run`
//! closures; the message-passing backend invokes them from each shard's
//! long-lived worker after decoding a command frame. Because both run
//! *this exact code* over the same [`Proc`] collectives, they produce
//! identical answers **and identical collective-round counts** — the
//! property `tests/backend_conformance.rs` pins down.

use cgselect_balance::{rebalance, Balancer};
use cgselect_core::{parallel_multi_select_windows, RankedWindow};
use cgselect_runtime::{Key, Proc};
use cgselect_seqsel::{
    bucket_of, bucket_search_cmps, count_below_kernel, count_below_reference, partition_by_bounds,
    scalar_reference_mode, OpCount, SepBound,
};

use crate::index::{
    bucket_stats, merge_minmax, recut_shard_index, refined_bounds, splitters_from_samples,
    BucketStats, ResidentRuns, ShardIndex,
};
use crate::obs::{Phase, PhaseSpan};
use crate::sketch::EpsSketch;

use super::{BatchPlan, PhaseOps, ShardBatchOutcome, ShardDeletion};

/// Per-shard resident data plus its sketch and (optional) bucket index.
/// Lives wherever the backend keeps shard state: in the worker's
/// `ShardStore` for [`super::LocalSpmd`], owned directly by the shard's
/// worker thread or process for the message-passing backend.
pub(crate) struct Shard<T> {
    pub(crate) data: Vec<T>,
    pub(crate) sketch: EpsSketch<T>,
    pub(crate) index: Option<ShardIndex<T>>,
}

/// The empty shard every backend installs at construction. The sketch is
/// deterministic (no RNG), so every rank builds an identical empty state —
/// no per-rank seed decorrelation needed anymore.
pub(crate) fn init_shard<T: Key>(sketch_capacity: usize) -> Shard<T> {
    Shard { data: Vec::new(), sketch: EpsSketch::new(sketch_capacity), index: None }
}

/// Ingest: appends this shard's chunk past the indexed prefix (so the new
/// elements *are* the delta run), maintains the sketch incrementally, and
/// returns the shard's new size.
pub(crate) fn ingest_shard<T: Key>(proc: &mut Proc, shard: &mut Shard<T>, mine: Vec<T>) -> u64 {
    proc.charge_ops(mine.len() as u64);
    shard.data.reserve(mine.len());
    for x in mine {
        shard.sketch.offer(x);
        shard.data.push(x);
    }
    shard.data.len() as u64
}

/// A delete re-sketches the shard's resident data once the removals its
/// sketch carries (since it was last built from data) outweigh
/// `1 / RESKETCH_REMOVED_DIVISOR` of what is resident. Between rebuilds the
/// sketch's error is the sum of its two sides', so the divisor trades
/// rebuild work against how far the bound may drift above a fresh sketch's.
/// Simulated on a sliding-window churn of uniform keys at the shape of
/// `perf`'s `ingest_churn` (1.31 M resident on two shards, 32,768 keys
/// swapped per slide, capacity 2048, tolerance `⌈0.01·n⌉` = 13,108): a
/// quarter re-sketches every 11th delete and the host's merged bound peaks
/// at 1.39 × a fresh merged sketch's (9,935 against 7,167); a half
/// re-sketches every 21st and peaks at 1.78 × (12,751) — 97 % of the
/// budget, so any lumpier stream takes the tolerant reads off the sketch
/// rung. The drift is lumpy — a compaction cascade that reaches a new top
/// level nearly doubles a bound at once (1.9 × seen at 7 · k resident per
/// shard) — which is why the unit test below pins 2 ×, not 1.4 ×.
const RESKETCH_REMOVED_DIVISOR: u64 = 4;

/// Delete: one compacting pass removing every occurrence of the (sorted,
/// deduplicated) values, maintaining the bucket index in place and offering
/// exactly the removed elements to the sketch's removed side. With an index
/// the delete list is cut at the bucket bounds, so a bucket's elements are
/// searched only among the values that bucket can hold, and a bucket none
/// of them falls into moves as one block, unsearched. Every comparison,
/// element move and sketch removal is counted, matching how the selection
/// kernels charge their measured work — the cost follows what the delete
/// touches and removes, not the shard's size; only the re-sketch that
/// [`RESKETCH_REMOVED_DIVISOR`] rations is a full pass.
pub(crate) fn delete_shard<T: Key>(
    proc: &mut Proc,
    shard: &mut Shard<T>,
    sorted: &[T],
) -> ShardDeletion {
    let Shard { data, sketch, index } = shard;
    let before = data.len();
    let (mut write, mut cmps, mut moves) = (0usize, 0u64, 0u64);
    // Compacts one run of `data` against the slice of the delete list that
    // can match inside it; returns how many of the run's elements went.
    let mut compact = |run: std::ops::Range<usize>, wanted: &[T]| -> u64 {
        if wanted.is_empty() {
            if write != run.start {
                data.copy_within(run.clone(), write);
                moves += run.len() as u64;
            }
            write += run.len();
            return 0;
        }
        let mut gone = 0u64;
        for read in run {
            let x = data[read];
            if binary_search_counting(wanted, &x, &mut cmps) {
                sketch.remove(x);
                gone += 1;
            } else {
                if write != read {
                    data[write] = x;
                    moves += 1;
                }
                write += 1;
            }
        }
        gone
    };
    let mut cut_cmps = 0u64;
    let removed: Vec<u64> = match index {
        Some(idx) => {
            let delta_start = idx.delta_start();
            // One forward cursor over the delete list: bucket `b` can hold
            // exactly the values its bound admits and the previous one
            // does not (the last bucket takes the rest).
            let (mut cut, mut lo, mut shifted) = (0usize, 0usize, 0usize);
            let mut removed: Vec<u64> = (0..idx.num_buckets())
                .map(|b| {
                    let start = cut;
                    cut = idx.bounds.get(b).map_or(sorted.len(), |bound| {
                        start
                            + sorted[start..].partition_point(|v| {
                                cut_cmps += 1;
                                bound.admits(v)
                            })
                    });
                    let hi = idx.offsets[b + 1];
                    let gone = compact(lo..hi, &sorted[start..cut]);
                    shifted += gone as usize;
                    idx.offsets[b + 1] = hi - shifted;
                    // Removal only shrinks a bucket's range, so its min/max
                    // stay valid (if wide) until nothing is left.
                    if gone as usize == hi - lo {
                        idx.minmax[b] = None;
                    }
                    lo = hi;
                    gone
                })
                .collect();
            // The delta run is unordered by bucket: the whole list applies.
            removed.push(compact(delta_start..before, sorted));
            removed
        }
        None => {
            compact(0..before, sorted);
            Vec::new()
        }
    };
    data.truncate(write);
    let gone = (before - write) as u64;
    proc.charge_ops(cut_cmps + cmps + moves + gone);
    let resketched = sketch.removed_mass() * RESKETCH_REMOVED_DIVISOR > data.len() as u64;
    if resketched {
        sketch.rebuild(data);
        proc.charge_ops(data.len() as u64);
    }
    ShardDeletion { remaining: data.len() as u64, removed, resketched }
}

/// Rebalance: runs the configured balancer over the shard data (dropping
/// the bucket index, whose splitters a rebalance invalidates), rebuilds the
/// sketch, and returns the shard's new size.
pub(crate) fn rebalance_shard<T: Key>(
    proc: &mut Proc,
    shard: &mut Shard<T>,
    balancer: Balancer,
) -> u64 {
    shard.index = None;
    rebalance(balancer, proc, &mut shard.data);
    shard.sketch.rebuild(&shard.data);
    proc.charge_ops(shard.data.len() as u64);
    shard.data.len() as u64
}

/// Index (re)build: the shards pool their sample sketches through one
/// collective, derive the identical splitter vector, bring their data into
/// bucket order under it and report the shared splitters plus the
/// per-bucket summary for the host's cached global histogram (the host
/// mirrors the splitters so it can classify delta elements and replay
/// refinement without a collective).
///
/// A shard that already holds an index **re-cuts its resident runs**
/// ([`recut_shard_index`]) after folding a pending delta run in: the cost is
/// the buckets the new splitters cut, which is nothing when they are
/// resident bounds already — the refinement-growth rebuild over an
/// unchanged sketch. A shard without one partitions everything, as the
/// degenerate input of the same walk. The modeled charge is what was
/// measured: comparisons, moves and scanned elements.
pub(crate) fn build_index_shard<T: Key>(
    proc: &mut Proc,
    shard: &mut Shard<T>,
    nb: usize,
) -> (Vec<SepBound<T>>, BucketStats<T>) {
    // Sample source: evenly rank-spaced quantile points drawn from the
    // resident ε-sketch (maintained on ingest), so the pooled splitters
    // inherit the sketch's deterministic rank spread; a strided data
    // sample when sketches are disabled.
    let want = (4 * nb).max(1);
    let mut samples: Vec<T> = shard.sketch.quantile_points(want);
    if samples.is_empty() {
        let stride = (shard.data.len() / want).max(1);
        samples = shard.data.iter().copied().step_by(stride).take(want).collect();
    }
    proc.charge_ops(samples.len() as u64);
    let mut pool: Vec<T> = proc.all_gatherv(samples).into_iter().flatten().collect();
    let m = pool.len() as u64;
    pool.sort_unstable();
    proc.charge_ops(m * (1 + m.max(2).ilog2() as u64));
    let bounds = splitters_from_samples(&pool, nb);
    if shard.index.as_ref().is_some_and(|idx| idx.delta_start() < shard.data.len()) {
        merge_delta_shard(proc, shard);
    }
    let mut ops = OpCount::new();
    let resident = shard.index.take().map(Into::into);
    let (idx, stats) = recut_shard_index(&mut shard.data, resident, bounds.clone(), &mut ops);
    proc.charge_ops(ops.total());
    shard.index = Some(idx);
    (bounds, stats)
}

/// Delta merge: partitions the delta run by the shared splitters and
/// rebuilds the flat storage with each bucket's delta members appended,
/// returning the delta's per-bucket summary for the host cache.
pub(crate) fn merge_delta_shard<T: Key>(proc: &mut Proc, shard: &mut Shard<T>) -> BucketStats<T> {
    let Shard { data, index, .. } = shard;
    let idx = index.as_mut().expect("delta merge requires a shard index");
    let delta_start = idx.delta_start();
    let total_len = data.len();
    let mut ops = OpCount::new();
    let (indexed_part, delta_part) = data.split_at_mut(delta_start);
    let doff = partition_by_bounds(delta_part, &idx.bounds, &mut ops);
    let dstats = bucket_stats(delta_part, &doff);
    // Amortized reorganization: rebuild the flat storage with each bucket's
    // delta members appended to it.
    let nb = idx.num_buckets();
    let mut merged = Vec::with_capacity(total_len);
    let mut new_offsets = Vec::with_capacity(nb + 1);
    new_offsets.push(0);
    for b in 0..nb {
        merged.extend_from_slice(&indexed_part[idx.offsets[b]..idx.offsets[b + 1]]);
        merged.extend_from_slice(&delta_part[doff[b]..doff[b + 1]]);
        new_offsets.push(merged.len());
    }
    proc.charge_ops(ops.total() + merged.len() as u64);
    *data = merged;
    idx.offsets = new_offsets;
    for (mm, &(_, dmm)) in idx.minmax.iter_mut().zip(&dstats) {
        *mm = merge_minmax(*mm, dmm);
    }
    dstats
}

/// The local prefix count of one value probe over a plain slice, with
/// measured comparisons. Dispatches to the branchless counting kernel, or
/// to the scalar reference loop when the batch runs under
/// `with_scalar_reference_mode` (`reference`). Both charge exactly one
/// comparison per element, so modeled ops never depend on the kernel.
fn count_admitted<T: Key>(
    data: &[T],
    value: T,
    inclusive: bool,
    reference: bool,
    cmps: &mut u64,
) -> u64 {
    if reference {
        return count_below_reference(data, value, inclusive, cmps);
    }
    count_below_kernel(data, value, inclusive, cmps)
}

/// The value-probe phase: local prefix counts for every probe — localized
/// to the probe's own bucket (plus the delta run) when the shard holds an
/// index, a full scan otherwise — then **one** vectorized Combine for the
/// whole probe batch. Runs *before* the multi-select phase, which permutes
/// the windows and refines the splitters.
fn count_probes_shard<T: Key>(
    proc: &mut Proc,
    shard: &Shard<T>,
    probes: &[(T, bool)],
    reference: bool,
) -> Vec<u64> {
    if probes.is_empty() {
        return Vec::new();
    }
    let mut cmps = 0u64;
    let mut ops = OpCount::new();
    let local: Vec<u64> = match &shard.index {
        Some(idx) => {
            let delta_start = idx.delta_start();
            // Probe batches arrive sorted and deduplicated by value (the
            // planner builds them that way), so one forward merge against
            // the sorted bounds replaces a fresh O(log B) binary search per
            // probe: O(P + B) total. The charge per probe stays exactly
            // what `bucket_of` would have measured (`bucket_search_cmps`
            // is grid-pinned to it), so modeled ops are unchanged. The
            // per-probe search survives as the reference baseline and as
            // the fallback for unsorted batches.
            let merge = !reference && probes.windows(2).all(|w| w[0].0 <= w[1].0);
            let mut next = 0usize;
            probes
                .iter()
                .map(|&(v, inclusive)| {
                    // Every element of a bucket below `b` is strictly below
                    // the probe value, every element above is strictly
                    // above: only bucket `b` itself (and the unindexed
                    // delta run) needs scanning.
                    let b = if merge {
                        // First bound admitting `v`; monotone in `v`, so the
                        // cursor never rewinds across the sorted batch.
                        while next < idx.bounds.len() && !idx.bounds[next].admits(&v) {
                            next += 1;
                        }
                        ops.cmps += bucket_search_cmps(idx.bounds.len());
                        next
                    } else {
                        bucket_of(&idx.bounds, &v, &mut ops)
                    };
                    let bucket = &shard.data[idx.offsets[b]..idx.offsets[b + 1]];
                    let delta = &shard.data[delta_start..];
                    idx.offsets[b] as u64
                        + count_admitted(bucket, v, inclusive, reference, &mut cmps)
                        + count_admitted(delta, v, inclusive, reference, &mut cmps)
                })
                .collect()
        }
        None => probes
            .iter()
            .map(|&(v, inclusive)| count_admitted(&shard.data, v, inclusive, reference, &mut cmps))
            .collect(),
    };
    proc.charge_ops(ops.total() + cmps);
    proc.combine(local, |a, b| a.into_iter().zip(b).map(|(x, y)| x + y).collect::<Vec<u64>>())
}

/// Batch execution: the whole per-shard half of [`crate::Engine::run`]
/// — the vectorized value-probe Combine, delta localization, borrowed
/// candidate windows, the lockstep multi-select, and answer refinement.
/// A window is passed over once: the select pass partitions it in place
/// and reports the cuts it made, and the refinement re-cuts those
/// ([`recut_shard_index`]) instead of partitioning and scanning the window
/// again; its modeled charge is what that re-cut measured.
/// (Sketch-served answers are computed host-side off the global ε-sketch
/// and never reach the backend; the sketch phase bracket survives only so
/// the span schema stays stable, always at zero collectives.) The measured
/// [`cgselect_runtime::CommStats`] delta, per-phase collective-op deltas
/// and virtual-time makespan come back in the outcome.
pub(crate) fn execute_shard<T: Key>(
    proc: &mut Proc,
    shard: &mut Shard<T>,
    plan: &BatchPlan<T>,
) -> ShardBatchOutcome<T> {
    let n_exact = plan.exact_ranks.len();
    let run_full = !plan.use_index && n_exact > 0;
    let delta_total = plan.delta_total;
    // Span measurement rides on snapshots that were already taken for the
    // per-phase op deltas; the begin/end brackets charge no time and no
    // collectives, so execution with spans on is indistinguishable — in
    // answers, comm counts, and makespan — from execution with spans off.
    let observe = plan.trace.is_some();
    // Read once per batch: a scoped flip of the kernel switch cannot mix
    // kernels within one batch's probe counts.
    let reference = scalar_reference_mode();

    // Synchronize clocks so the elapsed virtual time is a makespan.
    proc.barrier();
    let comm0 = proc.comm_stats();
    let t0 = proc.now();

    // Phase 1: value probes — one Combine round for all of them together.
    if observe {
        proc.phase_begin(Phase::Probes.as_str());
    }
    let probe_counts = count_probes_shard(proc, shard, &plan.value_probes, reference);
    if observe {
        proc.phase_end(Phase::Probes.as_str());
    }
    let comm_after_probes = proc.comm_stats();
    let t_after_probes = proc.now();
    let ops_after_probes = comm_after_probes.collective_ops;

    if observe {
        proc.phase_begin(Phase::Exact.as_str());
    }

    let mut exact: Vec<Option<T>> = vec![None; n_exact];
    let mut refines: Vec<BucketStats<T>> = Vec::new();
    if plan.use_index && !plan.groups.is_empty() {
        let Shard { data, index, .. } = &mut *shard;
        let idx = index.as_mut().expect("indexed execution requires a shard index");
        let delta_start = idx.delta_start();
        let nb = idx.num_buckets();
        let (indexed_part, delta_part) = data.split_at_mut(delta_start);

        // Localize the delta run once per batch: partition it by the
        // shared splitters, then Combine the per-bucket delta counts
        // (one vectorized collective) so every group can fold in
        // exactly its in-range delta elements and rebase its ranks
        // by the delta mass below its window — instead of every
        // group cloning and re-partitioning the whole delta.
        let (doff, delta_prefix) = if delta_total > 0 {
            let mut ops = OpCount::new();
            let doff = partition_by_bounds(delta_part, &idx.bounds, &mut ops);
            proc.charge_ops(ops.total());
            let local: Vec<u64> = doff.windows(2).map(|w| (w[1] - w[0]) as u64).collect();
            let global = proc.combine(local, |a, b| {
                a.into_iter().zip(b).map(|(x, y)| x + y).collect::<Vec<u64>>()
            });
            let mut prefix = vec![0u64; nb + 1];
            for (b, c) in global.into_iter().enumerate() {
                prefix[b + 1] = prefix[b] + c;
            }
            (doff, prefix)
        } else {
            (vec![0; nb + 1], vec![0; nb + 1])
        };

        // Carve the disjoint candidate windows out of the indexed
        // prefix (borrowed, never cloned); each window additionally
        // folds in its slice of the (already localized) delta run.
        let mut windows: Vec<RankedWindow<'_, T>> = Vec::with_capacity(plan.groups.len());
        let mut rest = indexed_part;
        let mut consumed = 0usize;
        for group in plan.groups.iter() {
            let start = idx.offsets[group.lo] - consumed;
            let len = idx.offsets[group.hi + 1] - idx.offsets[group.lo];
            let (_skip, tail) = rest.split_at_mut(start);
            let (slice, tail) = tail.split_at_mut(len);
            rest = tail;
            consumed = idx.offsets[group.hi + 1];
            let extra = delta_part[doff[group.lo]..doff[group.hi + 1]].to_vec();
            proc.charge_ops(extra.len() as u64);
            // The host sized the window over the *whole* delta (it
            // only knows the global delta total); with the exact
            // per-bucket delta counts the subset narrows to the
            // window's own delta mass, and ranks shift down by the
            // delta strictly below the window.
            let delta_below = delta_prefix[group.lo];
            let delta_in = delta_prefix[group.hi + 1] - delta_below;
            windows.push(RankedWindow {
                slice,
                extra,
                n: group.n - delta_total + delta_in,
                ranks: group
                    .ranks
                    .iter()
                    .map(|&r| r - delta_below)
                    .zip(group.out.iter().copied())
                    .collect(),
            });
        }
        let (answers, carves) =
            parallel_multi_select_windows(proc, windows, n_exact, &plan.selection);
        exact = answers;

        // Refine each window by its answers (descending, so earlier
        // windows' bucket indices stay valid): the resolved values
        // become equality-class splitters, making repeated/nearby ranks
        // histogram-only next batch. The pass left the window cut around
        // those answers, so the refinement re-cuts that carve: a bound
        // the pass cut at is free, only the innermost cell around an
        // answer (processor 0 finished it on a copy) is partitioned, and
        // the window's old internal bounds come back by the same walk.
        // The carve is scaffolding — the index keeps `refined_bounds`,
        // the same function of the answers the host replays.
        let (indexed_part, _) = data.split_at_mut(delta_start);
        refines = vec![Vec::new(); plan.groups.len()];
        for (g, (group, carve)) in plan.groups.iter().zip(carves).enumerate().rev() {
            let answers: Vec<T> =
                group.out.iter().map(|&slot| exact[slot].expect("group rank resolved")).collect();
            let lower = (group.lo > 0).then(|| idx.bounds[group.lo - 1]);
            let upper = (group.hi < idx.bounds.len()).then(|| idx.bounds[group.hi]);
            let new_bounds =
                refined_bounds(&idx.bounds[group.lo..group.hi], &answers, lower, upper);
            let range = &mut indexed_part[idx.offsets[group.lo]..idx.offsets[group.hi + 1]];
            // A cut at an outer bound separates nothing from the window.
            let (bounds, cuts): (Vec<SepBound<T>>, Vec<usize>) = carve
                .into_iter()
                .filter(|(b, _)| lower.is_none_or(|lo| *b > lo) && upper.is_none_or(|hi| *b < hi))
                .unzip();
            let offsets = std::iter::once(0).chain(cuts).chain([range.len()]).collect();
            // The window's outer extrema are the resident ones; every cell
            // between them is unread until a new bucket ends in it.
            let outer =
                (idx.minmax[group.lo].map(|(mn, _)| mn), idx.minmax[group.hi].map(|(_, mx)| mx));
            let resident = ResidentRuns::from_cuts(bounds, offsets, outer);
            let mut ops = OpCount::new();
            let (cut, stats) = recut_shard_index(range, Some(resident), new_bounds, &mut ops);
            proc.charge_ops(ops.total());
            idx.splice_refined(group.lo, group.hi, cut.bounds, &cut.offsets, &stats);
            refines[g] = stats;
        }
    } else if run_full {
        // No index: resolve over the whole resident slice, still
        // borrowed in place — the pre-index full-shard clone is
        // gone on this path too.
        let pairs: Vec<(u64, usize)> =
            plan.exact_ranks.iter().enumerate().map(|(i, r)| (r, i)).collect();
        let window = RankedWindow {
            slice: &mut shard.data,
            extra: Vec::new(),
            n: plan.full_total,
            ranks: pairs,
        };
        (exact, _) = parallel_multi_select_windows(proc, vec![window], n_exact, &plan.selection);
    }

    // Probe-driven splitter refinement: every resolved value probe carves
    // its `(v, <)(v, ≤)` equality class into the shared splitters, exactly
    // like rank answers do — zero collectives, so a repeated (or standing)
    // CDF probe goes histogram-exact after its first resolution. The skip
    // test (class already carved) depends only on the shared bounds, so
    // every shard splices identically and stays in lockstep with the
    // host's mirrored splitter vector, which replays this loop verbatim.
    let mut probe_refines: Vec<BucketStats<T>> = Vec::new();
    if plan.use_index && !plan.value_probes.is_empty() {
        if let Some(idx) = shard.index.as_mut() {
            let delta_start = idx.delta_start();
            let (indexed_part, _) = shard.data.split_at_mut(delta_start);
            for &(v, _) in plan.value_probes.iter() {
                let mut ops = OpCount::new();
                let b = bucket_of(&idx.bounds, &v, &mut ops);
                let lower = (b > 0).then(|| idx.bounds[b - 1]);
                let upper = (b < idx.bounds.len()).then(|| idx.bounds[b]);
                let inserted = refined_bounds(&[], &[v], lower, upper);
                if inserted.is_empty() {
                    proc.charge_ops(ops.total());
                    continue;
                }
                let range = &mut indexed_part[idx.offsets[b]..idx.offsets[b + 1]];
                let local = partition_by_bounds(range, &inserted, &mut ops);
                proc.charge_ops(ops.total() + range.len() as u64);
                let stats = bucket_stats(range, &local);
                idx.splice_refined(b, b, inserted, &local, &stats);
                probe_refines.push(stats);
            }
        }
    }

    if observe {
        proc.phase_end(Phase::Exact.as_str());
    }
    let comm_after_exact = proc.comm_stats();
    let t_after_exact = proc.now();
    let ops_after_exact = comm_after_exact.collective_ops;

    // Sketch-contract answers moved host-side (global ε-sketch, zero
    // collectives); the phase bracket stays so span-schema consumers see
    // the same three phases, with the sketch span pinned at zero ops.
    if observe {
        proc.phase_begin(Phase::Sketch.as_str());
        proc.phase_end(Phase::Sketch.as_str());
    }

    let comm_end = proc.comm_stats();
    let t_end = proc.now();
    let comm = comm_end.since(&comm0);
    let base = comm0.collective_ops;
    let spans = if observe {
        vec![
            PhaseSpan {
                phase: Phase::Probes,
                time: t_after_probes - t0,
                comm: comm_after_probes.since(&comm0),
            },
            PhaseSpan {
                phase: Phase::Exact,
                time: t_after_exact - t_after_probes,
                comm: comm_after_exact.since(&comm_after_probes),
            },
            PhaseSpan {
                phase: Phase::Sketch,
                time: t_end - t_after_exact,
                comm: comm_end.since(&comm_after_exact),
            },
        ]
    } else {
        Vec::new()
    };
    ShardBatchOutcome {
        exact,
        refines,
        probe_refines,
        probe_counts,
        phase_ops: PhaseOps {
            probes: ops_after_probes - base,
            exact: ops_after_exact - ops_after_probes,
            sketch: comm.collective_ops - (ops_after_exact - base),
        },
        comm,
        elapsed: t_end - t0,
        spans,
    }
}

/// Binary search that reports its measured comparisons (the delete path's
/// op accounting, matching the kernels' counted discipline — the same
/// counting-closure idiom as `cgselect_seqsel::bucket_of`).
fn binary_search_counting<T: Ord>(sorted: &[T], x: &T, cmps: &mut u64) -> bool {
    let i = sorted.partition_point(|v| {
        *cmps += 1;
        v < x
    });
    i < sorted.len() && {
        *cmps += 1;
        sorted[i] == *x
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::Group;
    use crate::query::RankSet;
    use cgselect_core::SelectionConfig;
    use cgselect_runtime::Machine;
    use std::sync::Arc;

    fn lone_proc() -> Proc {
        Machine::new(1).procs().remove(0)
    }

    /// Distinct pseudo-random keys (an odd multiplier permutes `u64`).
    fn keys(range: std::ops::Range<u64>) -> Vec<u64> {
        range.map(|i| (i + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)).collect()
    }

    /// A shard holding `indexed` partitioned by `bounds` plus `delta` as the
    /// unindexed run, its sketch fed in that order.
    fn indexed_shard(indexed: &[u64], bounds: Vec<SepBound<u64>>, delta: &[u64]) -> Shard<u64> {
        let mut shard: Shard<u64> = init_shard(64);
        shard.data = indexed.to_vec();
        let (idx, _) = recut_shard_index(&mut shard.data, None, bounds, &mut OpCount::new());
        shard.index = Some(idx);
        shard.data.extend_from_slice(delta);
        shard.sketch = EpsSketch::from_data(64, &shard.data);
        shard
    }

    #[test]
    fn indexed_delete_cuts_the_list_at_the_bucket_bounds() {
        let resident = keys(0..4000);
        let delta = keys(4000..4400);
        let mut pool = resident.clone();
        pool.sort_unstable();
        let bounds = splitters_from_samples(&pool, 16);
        let mut shard = indexed_shard(&resident, bounds, &delta);
        let before = shard.data.clone();
        let old_offsets = shard.index.as_ref().unwrap().offsets.clone();

        // Victims from the lower half of the value range only (indexed and
        // delta alike), plus values that are not resident at all.
        let median = pool[pool.len() / 2];
        let mut victims: Vec<u64> = resident
            .iter()
            .chain(&delta)
            .copied()
            .filter(|&x| x < median && x % 3 == 0)
            .chain(keys(9000..9100))
            .collect();
        victims.sort_unstable();
        let mut proc = lone_proc();
        let outcome = delete_shard(&mut proc, &mut shard, &victims);
        let indexed_ops = proc.ops_charged();

        // Same survivors, in the same order, as the plain filter.
        let survivors: Vec<u64> =
            before.iter().copied().filter(|x| victims.binary_search(x).is_err()).collect();
        assert_eq!(shard.data, survivors);
        assert_eq!(outcome.remaining, survivors.len() as u64);
        assert_eq!(outcome.removed.iter().sum::<u64>(), (before.len() - survivors.len()) as u64);
        assert!(!outcome.resketched, "a tenth of the shard is under the quarter rule");
        assert_eq!(shard.sketch.population(), survivors.len() as u64);

        // Offsets shrink by exactly the per-bucket removals, every bucket
        // still holds only values its bounds admit, and the upper buckets —
        // which no victim falls into — lost nothing.
        let idx = shard.index.as_ref().unwrap();
        let nb = idx.num_buckets();
        assert_eq!(outcome.removed.len(), nb + 1);
        for b in 0..nb {
            let (old, new) =
                (old_offsets[b + 1] - old_offsets[b], idx.offsets[b + 1] - idx.offsets[b]);
            assert_eq!(old - new, outcome.removed[b] as usize, "bucket {b}");
            for x in &shard.data[idx.offsets[b]..idx.offsets[b + 1]] {
                assert!(b == nb - 1 || idx.bounds[b].admits(x), "bucket {b} holds {x}");
                assert!(b == 0 || !idx.bounds[b - 1].admits(x), "bucket {b} holds {x}");
            }
        }
        assert!(outcome.removed[nb / 2 + 1..nb].iter().all(|&gone| gone == 0));
        assert!(outcome.removed[nb] > 0, "the delta run is searched against the whole list");

        // The same delete without an index searches the whole list for
        // every element: measured work, and so the modeled charge, is larger.
        let mut plain: Shard<u64> = init_shard(64);
        plain.data = before;
        plain.sketch = EpsSketch::from_data(64, &plain.data);
        let mut proc = lone_proc();
        let plain_outcome = delete_shard(&mut proc, &mut plain, &victims);
        assert_eq!(plain.data, survivors);
        assert!(plain_outcome.removed.is_empty());
        assert_eq!(plain.sketch, shard.sketch, "both passes remove in position order");
        assert!(
            indexed_ops < proc.ops_charged(),
            "cut at the bounds: {indexed_ops} ops, whole list: {}",
            proc.ops_charged()
        );
    }

    /// What the host would see after a rebuild, against a from-scratch build
    /// over a clone of the shard with its index dropped: the same splitters
    /// and counts, min/max that contain the scanned ones.
    fn assert_rebuild_matches_from_scratch(shard: &mut Shard<u64>, nb: usize, exact: bool) {
        let mut scratch =
            Shard { data: shard.data.clone(), sketch: shard.sketch.clone(), index: None };
        let (bounds, stats) = build_index_shard(&mut lone_proc(), shard, nb);
        let (scratch_bounds, scratch_stats) = build_index_shard(&mut lone_proc(), &mut scratch, nb);
        assert_eq!(bounds, scratch_bounds, "the splitters come from the sketch alone");
        assert_eq!(stats.len(), scratch_stats.len());
        for (b, (&(count, mm), &(want_count, want_mm))) in
            stats.iter().zip(&scratch_stats).enumerate()
        {
            assert_eq!(count, want_count, "bucket {b}");
            match (mm, want_mm) {
                (None, None) => {}
                (Some((lo, hi)), Some((want_lo, want_hi))) => {
                    assert!(lo <= want_lo && want_hi <= hi, "bucket {b}: {mm:?} vs {want_mm:?}");
                    assert!(!exact || mm == want_mm, "bucket {b}: {mm:?} vs {want_mm:?}");
                }
                _ => panic!("bucket {b}: {mm:?} vs {want_mm:?}"),
            }
        }
        let (mut ours, mut theirs) = (shard.data.clone(), scratch.data);
        ours.sort_unstable();
        theirs.sort_unstable();
        assert_eq!(ours, theirs);
    }

    #[test]
    fn a_rebuild_over_a_resident_index_reports_what_a_from_scratch_build_would() {
        let mut proc = lone_proc();
        let mut shard: Shard<u64> = init_shard(64);
        ingest_shard(&mut proc, &mut shard, keys(0..6000));
        let (sample_bounds, _) = build_index_shard(&mut proc, &mut shard, 16);

        // Refinement growth: equality-class pairs around resolved answers,
        // then the cap-trip rebuild over the unchanged sketch. Its splitters
        // are resident bounds, so it moves nothing and is charged for the
        // sample collective only.
        let mut grown = sample_bounds.clone();
        for &answer in &shard.data[..40] {
            grown.extend([SepBound::lt(answer), SepBound::le(answer)]);
        }
        grown.sort_unstable();
        grown.dedup();
        let idx = shard.index.take().map(Into::into);
        let (idx, _) = recut_shard_index(&mut shard.data, idx, grown, &mut OpCount::new());
        shard.index = Some(idx);
        let (before, charged) = (shard.data.clone(), proc.ops_charged());
        let (bounds, _) = build_index_shard(&mut proc, &mut shard, 16);
        assert_eq!(bounds, sample_bounds);
        assert_eq!(shard.data, before, "no element moves");
        assert!(
            proc.ops_charged() - charged < shard.data.len() as u64 / 4,
            "charged {} for a rebuild that touched no element",
            proc.ops_charged() - charged
        );
        assert_rebuild_matches_from_scratch(&mut shard, 16, true);

        // A mutating stream: the sketch, and so the splitters, drift; a
        // delete left min/max stale and a delta run is pending at the rebuild.
        let mut victims: Vec<u64> = shard.data.iter().copied().step_by(3).collect();
        victims.sort_unstable();
        delete_shard(&mut proc, &mut shard, &victims);
        ingest_shard(&mut proc, &mut shard, keys(9000..9800));
        assert!(shard.index.as_ref().unwrap().delta_start() < shard.data.len());
        assert_rebuild_matches_from_scratch(&mut shard, 16, false);
        assert_eq!(shard.index.as_ref().unwrap().delta_start(), shard.data.len());
    }

    /// The whole-window refinement `execute_shard` ran before the select pass
    /// reported its carve — partition every window by its refined bounds,
    /// scan every bucket that leaves — kept as the re-cut's reference.
    fn refine_window_reference(
        idx: &mut ShardIndex<u64>,
        indexed: &mut [u64],
        group: &Group,
        answers: &[u64],
    ) -> BucketStats<u64> {
        let lower = (group.lo > 0).then(|| idx.bounds[group.lo - 1]);
        let upper = (group.hi < idx.bounds.len()).then(|| idx.bounds[group.hi]);
        let new_bounds = refined_bounds(&idx.bounds[group.lo..group.hi], answers, lower, upper);
        let range = &mut indexed[idx.offsets[group.lo]..idx.offsets[group.hi + 1]];
        let local = partition_by_bounds(range, &new_bounds, &mut OpCount::new());
        let stats = bucket_stats(range, &local);
        idx.splice_refined(group.lo, group.hi, new_bounds, &local, &stats);
        stats
    }

    /// The window over buckets `lo..=hi` of a lone shard, as the host's
    /// router would describe it: `ranks` count within the window's indexed
    /// and pending elements; the group's count within the window plus the
    /// *whole* delta run, so they shift up by the delta below the window.
    fn group_over(shard: &Shard<u64>, lo: usize, hi: usize, ranks: &[u64], slot0: usize) -> Group {
        let idx = shard.index.as_ref().unwrap();
        let delta = &shard.data[idx.delta_start()..];
        let below = delta.iter().filter(|x| lo > 0 && idx.bounds[lo - 1].admits(x)).count() as u64;
        Group {
            lo,
            hi,
            n: (idx.offsets[hi + 1] - idx.offsets[lo] + delta.len()) as u64,
            ranks: ranks.iter().map(|r| r + below).collect(),
            out: (slot0..slot0 + ranks.len()).collect(),
        }
    }

    /// Executes one exact batch over `groups` on a lone shard and holds it
    /// against the reference run on a copy: oracle answers, the same bounds
    /// and per-bucket counts and multisets, extrema equal to the reference's
    /// (`exact`) or containing them (a delete left the resident ones stale),
    /// a shard the snapshot decoder accepts. Returns the ops charged.
    fn check_exact_batch(
        shard: &mut Shard<u64>,
        groups: Vec<Group>,
        cfg: &SelectionConfig,
        exact: bool,
    ) -> u64 {
        let idx = shard.index.as_ref().unwrap();
        let delta_start = idx.delta_start();
        let first_rank: Vec<usize> = groups.iter().map(|g| idx.offsets[g.lo]).collect();
        let mut sorted = shard.data.clone();
        sorted.sort_unstable();
        let mut ref_data = shard.data.clone();
        let mut ref_idx = ShardIndex {
            bounds: idx.bounds.clone(),
            offsets: idx.offsets.clone(),
            minmax: idx.minmax.clone(),
        };

        let n_exact: usize = groups.iter().map(|g| g.out.len()).sum();
        let plan = BatchPlan {
            groups: Arc::new(groups),
            exact_ranks: Arc::new(RankSet::from_runs(vec![(0, n_exact as u64)])),
            value_probes: Arc::new(Vec::new()),
            selection: cfg.clone(),
            use_index: true,
            full_total: shard.data.len() as u64,
            delta_total: (shard.data.len() - delta_start) as u64,
            trace: None,
        };
        let mut proc = lone_proc();
        let outcome = execute_shard(&mut proc, shard, &plan);

        let contains =
            |got: Option<(u64, u64)>, want: Option<(u64, u64)>, at: &str| match (got, want) {
                (None, None) => {}
                (Some((lo, hi)), Some((want_lo, want_hi))) => {
                    assert!(lo <= want_lo && want_hi <= hi, "{at}: {got:?} vs {want:?}");
                    assert!(!exact || got == want, "{at}: {got:?} is not the scanned {want:?}");
                }
                _ => panic!("{at}: min/max must be None exactly when empty: {got:?} vs {want:?}"),
            };
        for (g, group) in plan.groups.iter().enumerate().rev() {
            let answers: Vec<u64> =
                group.out.iter().map(|&slot| outcome.exact[slot].expect("resolved")).collect();
            for (&r, &a) in group.ranks.iter().zip(&answers) {
                assert_eq!(a, sorted[first_rank[g] + r as usize], "group {g} rank {r}");
            }
            let want = refine_window_reference(
                &mut ref_idx,
                &mut ref_data[..delta_start],
                group,
                &answers,
            );
            assert_eq!(outcome.refines[g].len(), want.len(), "group {g}");
            for (b, (&(count, mm), &(want_count, want_mm))) in
                outcome.refines[g].iter().zip(&want).enumerate()
            {
                assert_eq!(count, want_count, "group {g} bucket {b}");
                contains(mm, want_mm, &format!("group {g} reply bucket {b}"));
            }
        }
        let idx = shard.index.as_ref().unwrap();
        assert_eq!(idx.bounds, ref_idx.bounds);
        assert_eq!(idx.offsets, ref_idx.offsets);
        for b in 0..idx.num_buckets() {
            contains(idx.minmax[b], ref_idx.minmax[b], &format!("bucket {b}"));
            let (mut ours, mut theirs) = (
                shard.data[idx.offsets[b]..idx.offsets[b + 1]].to_vec(),
                ref_data[idx.offsets[b]..idx.offsets[b + 1]].to_vec(),
            );
            ours.sort_unstable();
            theirs.sort_unstable();
            assert_eq!(ours, theirs, "bucket {b} holds a different multiset");
        }
        let checked =
            ShardIndex::from_snapshot(idx.bounds.clone(), idx.offsets.clone(), &shard.data);
        assert!(checked.is_ok(), "{:?}", checked.err());
        proc.ops_charged()
    }

    /// Sample splitters over `resident`, as an index build would agree on.
    fn sample_bounds(resident: &[u64], nb: usize) -> Vec<SepBound<u64>> {
        let mut pool = resident.to_vec();
        pool.sort_unstable();
        splitters_from_samples(&pool, nb)
    }

    #[test]
    fn a_single_bucket_window_refines_for_a_fraction_of_its_size() {
        let resident = keys(0..80_000);
        let mut shard = indexed_shard(&resident, sample_bounds(&resident, 2), &[]);
        let cfg = SelectionConfig::with_seed(7);
        let window = shard.data[..shard.index.as_ref().unwrap().offsets[1]].to_vec();
        let m = window.len() as u64;
        let group = group_over(&shard, 0, 0, &[m / 3], 0);

        // What the select pass alone charges for this window: the batch
        // charges that plus the refinement.
        let mut alone = lone_proc();
        let mut copy = window;
        let ranked =
            RankedWindow { slice: &mut copy, extra: Vec::new(), n: m, ranks: vec![(m / 3, 0)] };
        let (_, carves) = parallel_multi_select_windows(&mut alone, vec![ranked], 1, &cfg);
        assert!(carves[0].len() >= 2, "a window of {m} takes a bracket round: {carves:?}");

        let charged = check_exact_batch(&mut shard, vec![group], &cfg, true);
        let refine = charged - alone.ops_charged();
        assert!(refine < m / 4, "refining a window of {m} was charged {refine} ops");
    }

    #[test]
    fn the_recut_refinement_installs_what_the_whole_window_pass_did() {
        // Small finish threshold, so windows of a few hundred take rounds.
        let cfg = |seed| SelectionConfig { min_sequential: 32, ..SelectionConfig::with_seed(seed) };
        let resident = keys(0..6000);
        let bounds = sample_bounds(&resident, 8);
        let fresh = || indexed_shard(&resident, bounds.clone(), &[]);
        let width = |shard: &Shard<u64>, b: usize| {
            let idx = shard.index.as_ref().unwrap();
            (idx.offsets[b + 1] - idx.offsets[b]) as u64
        };

        // Two windows, the second with two ranks sharing its bucket: the
        // brackets of both ranks cut one window.
        let mut shard = fresh();
        let groups = vec![
            group_over(&shard, 1, 1, &[width(&shard, 1) / 2], 0),
            group_over(&shard, 5, 5, &[10, width(&shard, 5) - 3], 1),
        ];
        check_exact_batch(&mut shard, groups, &cfg(1), true);
        // The same buckets again, now refined: narrower windows, a rank on an
        // equality class the last batch carved.
        let groups = vec![
            group_over(&shard, 1, 2, &[1, width(&shard, 1)], 0),
            group_over(&shard, 9, 9, &[5], 2),
        ];
        check_exact_batch(&mut shard, groups, &cfg(2), true);

        // A window over three buckets with a delta run pending: the pass
        // destroys the old internal bounds' order, the re-cut restores it.
        let mut shard = indexed_shard(&resident, bounds.clone(), &keys(6000..6400));
        let span: u64 = (2..=4).map(|b| width(&shard, b)).sum();
        let groups = vec![group_over(&shard, 2, 4, &[7, span / 2, span + 20], 0)];
        check_exact_batch(&mut shard, groups, &cfg(3), true);

        // Answers equal to the window's outer bounds: bucket 3 is
        // `(bounds[2], bounds[3]]` with inclusive sample splitters, so its
        // maximum is `bounds[3]`'s value and that pair must not be inserted
        // twice; bucket 0's minimum has no bound below it at all.
        let mut shard = fresh();
        let groups = vec![
            group_over(&shard, 0, 0, &[0], 0),
            group_over(&shard, 3, 3, &[0, width(&shard, 3) - 1], 1),
        ];
        check_exact_batch(&mut shard, groups, &cfg(4), true);
        let idx = shard.index.as_ref().unwrap();
        assert!(idx.bounds.windows(2).all(|w| w[0] < w[1]), "{:?}", idx.bounds);

        // An all-equal bucket among distinct neighbours: its one value is
        // every answer, and no cut can separate anything.
        let mut heavy = resident.clone();
        heavy.extend(std::iter::repeat_n(bounds[3].value, 900));
        let mut shard = indexed_shard(&heavy, bounds.clone(), &[]);
        let with_class = refined_bounds(&bounds, &[bounds[3].value], None, None);
        let idx = shard.index.take().map(Into::into);
        let (idx, _) = recut_shard_index(&mut shard.data, idx, with_class, &mut OpCount::new());
        shard.index = Some(idx);
        assert_eq!(width(&shard, 4), 901, "the class is a bucket of its own");
        let groups = vec![group_over(&shard, 4, 4, &[0, 450, 900], 0)];
        check_exact_batch(&mut shard, groups, &cfg(5), true);

        // A delete takes bucket 6's extremes and leaves its min/max stale:
        // the re-cut carries them at the window's far ends (containment),
        // where the reference re-read them.
        let mut shard = fresh();
        let idx = shard.index.as_ref().unwrap();
        let (mn, mx) = idx.minmax[6].expect("bucket 6 is populated");
        delete_shard(&mut lone_proc(), &mut shard, &[mn, mx]);
        let groups = vec![group_over(&shard, 6, 6, &[width(&shard, 6) / 2], 0)];
        check_exact_batch(&mut shard, groups, &cfg(6), false);
        let idx = shard.index.as_ref().unwrap();
        assert_eq!(idx.minmax[6].map(|mm| mm.0), Some(mn), "the stale far end is carried");

        // Sixteen fresh ranks a batch grow 8 buckets past a cap of 32 in one
        // op; the rebuild the next op starts with re-cuts what the
        // refinements left and must land where a from-scratch build does.
        let mut shard = fresh();
        let groups: Vec<Group> = (0..8)
            .map(|b| {
                group_over(&shard, b, b, &[width(&shard, b) / 4, 3 * width(&shard, b) / 4], 2 * b)
            })
            .collect();
        check_exact_batch(&mut shard, groups, &cfg(7), true);
        assert!(shard.index.as_ref().unwrap().num_buckets() > 32);
        assert_rebuild_matches_from_scratch(&mut shard, 8, true);
    }

    /// The churn shape of `perf`'s `ingest_churn`, scaled down 32 × on one
    /// shard: 320 · k resident, an eight-slide window, a fortieth of the
    /// shard swapped per slide.
    #[test]
    fn the_quarter_rule_keeps_a_sliding_window_within_twice_a_fresh_bound() {
        const K: usize = 64;
        const SLIDE: u64 = 512;
        let mut proc = lone_proc();
        let mut shard: Shard<u64> = init_shard(K);
        ingest_shard(&mut proc, &mut shard, keys(0..320 * K as u64));
        let mut next_key = 1 << 32;
        let mut window = std::collections::VecDeque::new();
        let (mut deletes, mut rebuilds, mut worst) = (0u32, 0u32, 0f64);
        for _ in 0..60 {
            let fresh = keys(next_key..next_key + SLIDE);
            next_key += SLIDE;
            ingest_shard(&mut proc, &mut shard, fresh.clone());
            window.push_back(fresh);
            if window.len() <= 8 {
                continue;
            }
            let mut oldest: Vec<u64> = window.pop_front().expect("window is full");
            oldest.sort_unstable();
            // What the sketch looks like once the removals are noted and
            // before the rule is consulted: the pass removes in position
            // order.
            let mut noted = shard.sketch.clone();
            for x in shard.data.iter().filter(|x| oldest.binary_search(x).is_ok()) {
                noted.remove(*x);
            }
            let charged = proc.ops_charged();
            let outcome = delete_shard(&mut proc, &mut shard, &oldest);
            let charged = proc.ops_charged() - charged;
            deletes += 1;
            let fresh_sketch = EpsSketch::from_data(K, &shard.data);
            if outcome.resketched {
                rebuilds += 1;
                let (drifted, fresh) = (noted.rank_error_bound(), fresh_sketch.rank_error_bound());
                worst = worst.max(drifted as f64 / fresh as f64);
                assert!(
                    drifted <= 2 * fresh,
                    "delete {deletes}: bound {drifted} before the rebuild, fresh {fresh}"
                );
                assert_eq!(shard.sketch, fresh_sketch, "a rebuild is exactly a fresh sketch");
                assert!(charged >= shard.data.len() as u64, "a rebuild is charged a full pass");
            } else {
                assert_eq!(shard.sketch, noted, "between rebuilds a delete only notes removals");
                assert!(noted.removed_mass() * RESKETCH_REMOVED_DIVISOR <= shard.data.len() as u64);
            }
        }
        assert!(
            rebuilds >= 2 && rebuilds * 4 <= deletes,
            "{rebuilds} rebuilds in {deletes} deletes"
        );
        assert!(worst > 1.0, "the drift the rule bounds must actually occur: {worst}");
    }
}
