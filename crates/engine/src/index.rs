//! The resident bucket index: copy-free, scan-free batch execution.
//!
//! The engine's exact path originally cloned every shard and re-partitioned
//! the raw data from scratch on every batch — `O(n/p)` copy + scan whose
//! partitioning work was then thrown away. This module keeps that work:
//!
//! * **Shared splitters** — at (re)build time the shards agree, through one
//!   collective over their ingest-maintained sample sketches, on a vector
//!   of [`SepBound`] splitters (Nowicki-style regular sampling). Every
//!   shard orders its resident data into the *same* value-range buckets
//!   ([`ShardIndex`]), so "bucket `b`" means one global value interval. A
//!   build **re-cuts the resident runs** ([`recut_shard_index`]): a new
//!   splitter that is already a resident bound costs nothing, one that
//!   falls inside a resident bucket partitions and re-scans that bucket's
//!   run only, and every other bucket is carried over with the min/max the
//!   shard already holds for it ([`ShardIndex::minmax`]). A shard without
//!   an index is the degenerate input — one bucket spanning the data — so
//!   only then is everything partitioned from nothing.
//! * **A cached global histogram** — the engine host caches the per-bucket
//!   global counts (plus per-bucket min/max) in a [`GlobalIndex`]. A rank
//!   query then *localizes* without touching data: binary search over the
//!   cached prefix sums yields the small window of candidate buckets that
//!   must contain the target ([`GlobalIndex::window`]).
//! * **Copy-free execution** — the multi-select recursion runs over the
//!   candidate buckets *borrowed in place*
//!   ([`cgselect_core::parallel_multi_select_in`]); the only per-batch copy
//!   is the small unindexed delta run.
//! * **A histogram-only fast path** — a rank whose candidate window is a
//!   single bucket of one repeated value (tracked min == max) is answered
//!   from the cached histogram alone: zero element scans, zero extra
//!   collectives. Refinement (below) makes this the steady state for
//!   repeated and near-repeated quantiles.
//! * **Adaptive refinement** — after a batch resolves its answers, each
//!   candidate window gains `(v, exclusive), (v, inclusive)` splitter pairs
//!   that carve out each answer's exact equality class. The next batch
//!   asking the same (or a nearby) quantile finds a constant candidate
//!   bucket and takes the fast path. The select pass partitions in place,
//!   so the window comes back already cut around its answers: the
//!   refinement is the same re-cut a build runs, with the pass's carve as
//!   the resident runs ([`ResidentRuns`]) — only the innermost cell around
//!   an answer is partitioned, only the pieces next to an answer are read
//!   for their extrema. The carve itself is scaffolding: the index keeps
//!   [`refined_bounds`], a function of the answers alone, so the host
//!   replays it without hearing of the carve.
//! * **Delta runs, rebased host-side** — ingest appends to an unindexed
//!   tail on the shards *and* into a sorted host mirror
//!   ([`GlobalIndex::delta_vals`]) that classifies each pending element
//!   into its value bucket with zero collectives. Localization, the
//!   histogram fast path and value-probe brackets all read the *merged*
//!   (indexed + delta) prefix sums, so answers stay exact — and candidate
//!   windows stay single-bucket tight — between the amortized merges that
//!   fold the tail into the buckets. This is what lets a standing query
//!   re-serve from the cache while ingest streams in.

use cgselect_runtime::Key;
use cgselect_seqsel::{partition_by_bounds, OpCount, SepBound};

/// Per-shard half of the index, resident in the worker's `ShardStore`
/// alongside the data: the shard's `data[..delta_start()]` prefix is
/// bucket-ordered under the shared `bounds`; the tail is the unindexed
/// delta run.
pub(crate) struct ShardIndex<T> {
    /// The shared splitters — identical on every shard by construction.
    pub bounds: Vec<SepBound<T>>,
    /// Bucket offsets into the indexed prefix: `bounds.len() + 2` entries,
    /// non-decreasing, `offsets[0] == 0`; bucket `b` is
    /// `data[offsets[b]..offsets[b + 1]]`.
    pub offsets: Vec<usize>,
    /// Shard-local `(min, max)` per bucket, under the **containment rule**
    /// the host mirror follows for [`GlobalIndex::apply_removals`]: every
    /// element of bucket `b` lies inside `minmax[b]`, and both ends lie
    /// inside the bucket's value range (its lower bound admits neither, its
    /// upper bound admits both). Exact after a build's scan and a delta
    /// merge, and at every cut a refinement makes: the ends of the new
    /// buckets that meet at an answer are read. The two far ends of a
    /// refined window are carried from the buckets it replaced, as is
    /// everything a delete touches, and may be wider than what is left
    /// (removal only shrinks a bucket's range) until a cut next to them
    /// reads them again; `None` exactly for an empty bucket. This is what
    /// lets [`recut_shard_index`] carry a bucket it does not cut into the
    /// next index without touching its elements.
    pub minmax: Vec<Option<(T, T)>>,
}

impl<T: Key> ShardIndex<T> {
    /// Number of buckets.
    pub fn num_buckets(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Where the unindexed delta run begins in the shard's data vector.
    pub fn delta_start(&self) -> usize {
        *self.offsets.last().expect("offsets never empty")
    }

    /// The index a snapshot carries, checked against the `data` it claims to
    /// order — a snapshot is input from outside the process, and a re-cut
    /// *relies* on the resident index. Structure first (`offsets` has
    /// `bounds.len() + 2` entries, starts at 0, never decreases, ends inside
    /// `data`; `bounds` strictly increase), then one scan that both
    /// recomputes [`minmax`](Self::minmax) — which is why the wire format
    /// carries none — and proves every bucket holds only values of its
    /// range: its min is not admitted by the bound below, its max is
    /// admitted by the bound above.
    pub(crate) fn from_snapshot(
        bounds: Vec<SepBound<T>>,
        offsets: Vec<usize>,
        data: &[T],
    ) -> Result<Self, String> {
        if offsets.len() != bounds.len() + 2 {
            return Err(format!(
                "snapshot index has {} offsets for {} bounds",
                offsets.len(),
                bounds.len()
            ));
        }
        if offsets[0] != 0 || offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err("snapshot index offsets must start at 0 and never decrease".into());
        }
        let indexed = offsets[offsets.len() - 1];
        if indexed > data.len() {
            return Err(format!(
                "snapshot index covers {indexed} elements, the shard holds {}",
                data.len()
            ));
        }
        if bounds.windows(2).any(|w| w[0] >= w[1]) {
            return Err("snapshot index bounds must be strictly increasing".into());
        }
        let minmax: Vec<Option<(T, T)>> =
            bucket_stats(data, &offsets).into_iter().map(|(_, mm)| mm).collect();
        for (b, mm) in minmax.iter().enumerate() {
            let Some((mn, mx)) = mm else { continue };
            let below = b > 0 && bounds[b - 1].admits(mn);
            let above = b < bounds.len() && !bounds[b].admits(mx);
            if below || above {
                return Err(format!("snapshot index bucket {b} holds values outside its bounds"));
            }
        }
        Ok(ShardIndex { bounds, offsets, minmax })
    }

    /// Replaces buckets `lo..=hi` by the sub-buckets a refinement carved
    /// out of them: `inserted` are the splitters now strictly inside the
    /// range (the old internal ones among them), `local` the partition's
    /// offsets relative to the range's start and `stats` its scanned
    /// summary.
    pub(crate) fn splice_refined(
        &mut self,
        lo: usize,
        hi: usize,
        inserted: Vec<SepBound<T>>,
        local: &[usize],
        stats: &BucketStats<T>,
    ) {
        let base = self.offsets[lo];
        self.bounds.splice(lo..hi, inserted);
        self.offsets.splice(lo + 1..hi + 1, local[1..local.len() - 1].iter().map(|&o| base + o));
        self.minmax.splice(lo..=hi, stats.iter().map(|&(_, mm)| mm));
    }
}

/// Per-bucket shard-local summary: `(count, Some((min, max)))` —
/// `None` for an empty bucket. Public because execution backends report it
/// across the [`crate::ExecBackend`] boundary.
pub type BucketStats<T> = Vec<(u64, Option<(T, T)>)>;

/// Scans `offsets`-delimited buckets of `data` and summarizes each.
/// Cost: one pass over `data` (caller charges `data.len()` ops).
pub(crate) fn bucket_stats<T: Key>(data: &[T], offsets: &[usize]) -> BucketStats<T> {
    offsets
        .windows(2)
        .map(|w| {
            let s = &data[w[0]..w[1]];
            let mm = s.iter().fold(None, |acc: Option<(T, T)>, &x| match acc {
                None => Some((x, x)),
                Some((lo, hi)) => Some((lo.min(x), hi.max(x))),
            });
            (s.len() as u64, mm)
        })
        .collect()
}

/// The window's refined splitters: the old internal splitters plus an
/// equality-class pair around every resolved answer value, sorted and
/// deduplicated — identical on every shard because both inputs are.
///
/// Bounds at or beyond the window's *outer* bounds (`lower`, `upper`) are
/// dropped: they would only carve empty sub-buckets (no window element
/// lies outside the outer bounds) and would violate the strictly
/// increasing invariant of the shard's stored splitter vector.
pub(crate) fn refined_bounds<T: Key>(
    old_internal: &[SepBound<T>],
    answers: &[T],
    lower: Option<SepBound<T>>,
    upper: Option<SepBound<T>>,
) -> Vec<SepBound<T>> {
    let mut v: Vec<SepBound<T>> = old_internal.to_vec();
    for &a in answers {
        v.push(SepBound::lt(a));
        v.push(SepBound::le(a));
    }
    v.sort_unstable();
    v.dedup();
    v.retain(|&b| lower.is_none_or(|lo| b > lo) && upper.is_none_or(|hi| b < hi));
    v
}

/// One contiguous window of candidate buckets and the batch ranks routed
/// into it. Windows of distinct groups are disjoint; ranks are expressed
/// relative to the window's subset (candidate buckets + the whole delta).
/// Public because batch plans carry it across the [`crate::ExecBackend`]
/// boundary.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Group {
    /// First candidate bucket.
    pub lo: usize,
    /// Last candidate bucket (inclusive).
    pub hi: usize,
    /// Exact global population of the window's subset:
    /// `prefix[hi + 1] - prefix[lo] + delta_total`.
    pub n: u64,
    /// Within-subset ranks (sorted, distinct).
    pub ranks: Vec<u64>,
    /// For each rank, its slot in the batch's coalesced rank list.
    pub out: Vec<usize>,
}

/// Routing of a batch's coalesced exact ranks against the cached histogram.
pub(crate) struct Routing<T> {
    /// Candidate-window groups, ascending and disjoint.
    pub groups: Vec<Group>,
    /// Histogram-only answers: `(slot, value)` pairs resolved with zero
    /// element scans.
    pub fast: Vec<(usize, T)>,
}

/// Host-side cached global histogram of the shared buckets, plus a sorted
/// mirror of the pending delta run that *rebases* the histogram after
/// every ingest/delete: the host classifies each unindexed element into
/// its value bucket without any collective, so rank localization, the
/// histogram fast path and value-probe brackets all stay **exact** while
/// a delta is pending — the mechanism that lets a standing query re-serve
/// from the cache at zero collectives between merges.
#[derive(Clone, Debug)]
pub(crate) struct GlobalIndex<T> {
    /// The shared splitters, mirrored host-side (identical to every
    /// shard's by construction) so the host can replay refinement and
    /// classify delta elements itself.
    pub bounds: Vec<SepBound<T>>,
    /// Global per-bucket counts of *indexed* elements.
    pub counts: Vec<u64>,
    /// Prefix sums of `counts` (`counts.len() + 1` entries, first 0).
    pub prefix: Vec<u64>,
    /// Global per-bucket `(min, max)` of indexed elements (`None` = empty).
    pub minmax: Vec<Option<(T, T)>>,
    /// Sorted multiset of the unindexed delta elements across all shards —
    /// the host-side mirror fed by ingest and pruned by delete.
    pub delta_vals: Vec<T>,
    /// Per-bucket prefix counts of `delta_vals` (`counts.len() + 1`
    /// entries, first 0): `delta_offsets[b]` delta elements fall in
    /// buckets `< b`, so bucket `b`'s delta slice is
    /// `delta_vals[delta_offsets[b]..delta_offsets[b + 1]]`.
    pub delta_offsets: Vec<u64>,
    /// Global number of unindexed delta elements across all shards
    /// (always `delta_vals.len()`).
    pub delta_total: u64,
}

impl<T: Key> GlobalIndex<T> {
    /// Assembles the host cache from the shared splitters and the
    /// per-shard summaries returned by the build run.
    pub fn from_shard_stats(bounds: Vec<SepBound<T>>, per_shard: &[BucketStats<T>]) -> Self {
        let nb = per_shard.first().map_or(0, Vec::len);
        debug_assert_eq!(nb, bounds.len() + 1, "splitters disagree with the bucket count");
        let mut acc: BucketStats<T> = vec![(0, None); nb];
        for stats in per_shard {
            merge_stats(&mut acc, stats);
        }
        let mut idx = GlobalIndex {
            bounds,
            counts: acc.iter().map(|&(c, _)| c).collect(),
            prefix: Vec::new(),
            minmax: acc.into_iter().map(|(_, mm)| mm).collect(),
            delta_vals: Vec::new(),
            delta_offsets: vec![0; nb + 1],
            delta_total: 0,
        };
        idx.rebuild_prefix();
        idx
    }

    /// Number of buckets.
    pub fn num_buckets(&self) -> usize {
        self.counts.len()
    }

    /// Recomputes the prefix sums after counts changed.
    pub fn rebuild_prefix(&mut self) {
        self.prefix = std::iter::once(0)
            .chain(self.counts.iter().scan(0u64, |acc, &c| {
                *acc += c;
                Some(*acc)
            }))
            .collect();
    }

    /// Merged (indexed + pending delta) count of elements in buckets
    /// `< b` — the rebased prefix sum the localization below searches.
    fn merged_prefix(&self, b: usize) -> u64 {
        self.prefix[b] + self.delta_offsets[b]
    }

    /// Min/max over bucket `b`'s indexed elements *and* its pending delta
    /// slice (`None` when both are empty). The mirror is sorted, so the
    /// slice's endpoints are its extrema.
    fn merged_minmax(&self, b: usize) -> Option<(T, T)> {
        let d =
            &self.delta_vals[self.delta_offsets[b] as usize..self.delta_offsets[b + 1] as usize];
        let dm = (!d.is_empty()).then(|| (d[0], d[d.len() - 1]));
        merge_minmax(self.minmax[b], dm)
    }

    /// The single bucket `(b, b)` that contains global rank `r` in the
    /// merged (indexed + delta) order. Buckets are value-disjoint and the
    /// host mirror classifies every pending delta element exactly, so a
    /// pending delta no longer widens the window — localization stays
    /// single-bucket exact between merges.
    pub fn window(&self, r: u64) -> (usize, usize) {
        let last = self.counts.len() - 1;
        // Largest b with merged_prefix(b) <= r: r then falls strictly
        // inside bucket b's merged population.
        let (mut lo, mut hi) = (0usize, self.counts.len());
        while lo < hi {
            let mid = lo + (hi - lo).div_ceil(2);
            if self.merged_prefix(mid) <= r {
                lo = mid;
            } else {
                hi = mid - 1;
            }
        }
        let b = lo.min(last);
        (b, b)
    }

    /// Histogram-only resolution: `Some(v)` when rank `r`'s bucket holds
    /// one repeated value across both its indexed elements and its pending
    /// delta slice — the answer needs zero element scans, delta or not.
    pub fn fast_value(&self, r: u64) -> Option<T> {
        if self.counts.is_empty() {
            return None;
        }
        let (b, _) = self.window(r);
        match self.merged_minmax(b) {
            Some((mn, mx)) if mn == mx => Some(mn),
            _ => None,
        }
    }

    /// Routes the batch's sorted, deduplicated rank sequence (ascending —
    /// a [`crate::RankSet`] iteration): fast-path ranks are answered from
    /// the histogram; the rest coalesce into disjoint candidate-window
    /// groups (overlapping windows merge).
    pub fn route(&self, ranks: impl Iterator<Item = u64>) -> Routing<T> {
        /// An under-construction group: window bounds plus its
        /// `(global rank, slot)` members, ascending.
        type OpenGroup = (usize, usize, Vec<(u64, usize)>);
        let mut routing = Routing { groups: Vec::new(), fast: Vec::new() };
        let mut open: Vec<OpenGroup> = Vec::new();
        for (slot, r) in ranks.enumerate() {
            if let Some(v) = self.fast_value(r) {
                routing.fast.push((slot, v));
                continue;
            }
            let (lo, hi) = self.window(r);
            match open.last_mut() {
                // Ranks ascend, so windows ascend: overlap can only happen
                // with the most recent group.
                Some(last) if lo <= last.1 => {
                    last.1 = last.1.max(hi);
                    last.2.push((r, slot));
                }
                _ => open.push((lo, hi, vec![(r, slot)])),
            }
        }
        for (lo, hi, members) in open {
            let base = self.prefix[lo];
            let n = self.prefix[hi + 1] - base + self.delta_total;
            let (ranks, out) = members.into_iter().map(|(r, s)| (r - base, s)).unzip();
            routing.groups.push(Group { lo, hi, n, ranks, out });
        }
        routing
    }

    /// Histogram-only *rank-direction* resolution under a loosened
    /// contract: `Some((value, max_rank_error))` for rank `r`'s merged
    /// bucket. A constant bucket yields the exact element
    /// (`max_rank_error = 0`, the [`fast_value`](Self::fast_value) case);
    /// otherwise the bucket's merged minimum is returned with the error
    /// bounded by the target's offset into the bucket — zero element
    /// scans either way, pending delta included (the mirror rebases the
    /// bucket's base rank and extrema exactly).
    pub fn approx_value(&self, r: u64) -> Option<(T, u64)> {
        if self.counts.is_empty() {
            return None;
        }
        let (b, _) = self.window(r);
        match self.merged_minmax(b) {
            Some((mn, mx)) if mn == mx => Some((mn, 0)),
            // `mn`'s first occurrence sits at the bucket's merged base
            // rank, so its rank distance to `r` is at most the offset
            // into the bucket.
            Some((mn, _)) => Some((mn, r - self.merged_prefix(b))),
            None => None,
        }
    }

    /// Histogram-only bracket `[lo, hi]` on the prefix count of elements
    /// admitted by the probe `(v, inclusive)` (`x < v`, or `x ≤ v` when
    /// inclusive) — zero element scans, zero collectives.
    ///
    /// Buckets are value-disjoint and ordered under the shared splitters,
    /// so only the bucket the probe falls in — the one past every bound the
    /// probe (read as a [`SepBound`]) is not below — can be ambiguous:
    /// everything before it is admitted, nothing after it is, and one
    /// `partition_point` plus its prefix sum replaces a walk over all
    /// buckets. That bucket resolves too unless its tracked `min`/`max`
    /// straddle the probe; refined equality-class buckets (`min == max`)
    /// always resolve exactly. The pending delta contributes **exactly** —
    /// the sorted mirror answers the probe with one binary search — so the
    /// bracket is exact (`lo == hi`) precisely when that one bucket
    /// resolves: "the splitters bound the answer", delta or no delta.
    pub fn count_bounds(&self, v: T, inclusive: bool) -> (u64, u64) {
        let probe = SepBound { value: v, inclusive };
        let b = self.bounds.partition_point(|bound| *bound <= probe);
        let mut below = self.prefix[b];
        let mut ambiguous = 0u64;
        if let Some((mn, mx)) = self.minmax[b] {
            if probe.admits(&mx) {
                below += self.counts[b];
            } else if probe.admits(&mn) {
                ambiguous = self.counts[b];
            }
        }
        let d_below = self.delta_vals.partition_point(|x| probe.admits(x)) as u64;
        (below + d_below, below + ambiguous + d_below)
    }

    /// The bracket as a walk over every bucket's `(count, min/max)` — what
    /// [`count_bounds`](Self::count_bounds) did before it used the buckets'
    /// order; kept as its reference.
    #[cfg(test)]
    fn count_bounds_linear(&self, v: T, inclusive: bool) -> (u64, u64) {
        let mut below = 0u64;
        let mut ambiguous = 0u64;
        for (&count, &mm) in self.counts.iter().zip(&self.minmax) {
            let Some((mn, mx)) = mm else { continue };
            let all_below = if inclusive { mx <= v } else { mx < v };
            let none_below = if inclusive { mn > v } else { mn >= v };
            if all_below {
                below += count;
            } else if !none_below {
                ambiguous += count;
            }
        }
        let d_below =
            self.delta_vals.partition_point(|&x| if inclusive { x <= v } else { x < v }) as u64;
        (below + d_below, below + ambiguous + d_below)
    }

    /// Records freshly ingested elements into the delta mirror and
    /// reclassifies — the rebase that keeps localization exact while the
    /// elements sit in the shards' unindexed delta runs.
    pub fn note_ingest(&mut self, items: impl IntoIterator<Item = T>) {
        self.delta_vals.extend(items);
        self.delta_vals.sort_unstable();
        self.delta_total = self.delta_vals.len() as u64;
        self.reclassify_delta();
    }

    /// Drops every occurrence of the (sorted, deduplicated) deleted values
    /// from the delta mirror — the twin of the shards' delta-run
    /// compaction. Call after [`apply_removals`](Self::apply_removals);
    /// the mirror must land on the same population the shards reported.
    pub fn note_delete(&mut self, sorted: &[T]) {
        self.delta_vals.retain(|x| sorted.binary_search(x).is_err());
        self.reclassify_delta();
        debug_assert_eq!(
            self.delta_total,
            self.delta_vals.len() as u64,
            "delta mirror out of sync with the shards' removal reports"
        );
    }

    /// Recomputes `delta_offsets` after the mirror or the bounds changed:
    /// one binary search per splitter over the sorted mirror.
    pub fn reclassify_delta(&mut self) {
        let mut off = Vec::with_capacity(self.counts.len() + 1);
        off.push(0u64);
        for b in &self.bounds {
            off.push(self.delta_vals.partition_point(|x| b.admits(x)) as u64);
        }
        off.push(self.delta_vals.len() as u64);
        debug_assert_eq!(off.len(), self.counts.len() + 1, "splitters/bucket mismatch");
        self.delta_offsets = off;
    }

    /// Host replay of one resolved window's splitter refinement — the
    /// exact twin of the shard-side refinement in
    /// `backend::ops::execute_shard`, so the mirrored `bounds` stay
    /// identical to every shard's stored splitter vector. Splices `bounds`
    /// only; the caller splices counts/minmax via
    /// [`splice_window`](Self::splice_window) with the shards' merged
    /// stats, then calls [`rebuild_prefix`](Self::rebuild_prefix) and
    /// [`reclassify_delta`](Self::reclassify_delta) once all windows (in
    /// descending order) are done.
    pub fn refine_window_bounds(&mut self, lo: usize, hi: usize, answers: &[T]) {
        let lower = (lo > 0).then(|| self.bounds[lo - 1]);
        let upper = (hi < self.bounds.len()).then(|| self.bounds[hi]);
        let new_bounds = refined_bounds(&self.bounds[lo..hi], answers, lower, upper);
        self.bounds.splice(lo..hi, new_bounds);
    }

    /// Host replay of one resolved value probe's equality-class
    /// refinement: carves `(v, <)(v, ≤)` into `v`'s bucket exactly like
    /// the shards do after their probe Combine. Returns the refined
    /// bucket's index (for the caller's counts/minmax splice), or `None`
    /// when the class is already carved — the shards skipped it too, by
    /// the same deterministic test.
    pub fn refine_probe_bounds(&mut self, v: T) -> Option<usize> {
        let b = self.bounds.partition_point(|sb| !sb.admits(&v));
        let lower = (b > 0).then(|| self.bounds[b - 1]);
        let upper = (b < self.bounds.len()).then(|| self.bounds[b]);
        let inserted = refined_bounds(&[], &[v], lower, upper);
        if inserted.is_empty() {
            return None;
        }
        self.bounds.splice(b..b, inserted);
        Some(b)
    }

    /// Applies one refined window: buckets `lo..=hi` are replaced by the
    /// refreshed per-bucket stats. Call in descending `lo` order so earlier
    /// windows' indices stay valid; call [`rebuild_prefix`](Self::rebuild_prefix)
    /// and [`reclassify_delta`](Self::reclassify_delta) once afterwards.
    pub fn splice_window(&mut self, lo: usize, hi: usize, stats: &BucketStats<T>) {
        self.counts.splice(lo..=hi, stats.iter().map(|&(c, _)| c));
        self.minmax.splice(lo..=hi, stats.iter().map(|&(_, mm)| mm));
    }

    /// Folds per-shard delta-merge summaries into the cached histogram
    /// (delta elements joined their buckets; the delta run — and its host
    /// mirror — is empty again).
    pub fn absorb_delta(&mut self, per_shard: &[BucketStats<T>]) {
        let mut acc: BucketStats<T> =
            self.counts.iter().zip(&self.minmax).map(|(&c, &mm)| (c, mm)).collect();
        for stats in per_shard {
            merge_stats(&mut acc, stats);
        }
        self.counts = acc.iter().map(|&(c, _)| c).collect();
        self.minmax = acc.into_iter().map(|(_, mm)| mm).collect();
        self.delta_total = 0;
        self.delta_vals.clear();
        self.delta_offsets = vec![0; self.counts.len() + 1];
        self.rebuild_prefix();
    }

    /// Applies per-shard deletion summaries (`removed[b]` per bucket plus a
    /// final delta-run entry). Min/max are deliberately kept: removal can
    /// only shrink a bucket's value range, and the fast path reads min/max
    /// only when they are equal — which deletion cannot falsify.
    pub fn apply_removals(&mut self, per_shard: &[Vec<u64>]) {
        for removed in per_shard {
            debug_assert_eq!(removed.len(), self.counts.len() + 1);
            for (b, &c) in removed[..self.counts.len()].iter().enumerate() {
                self.counts[b] -= c;
            }
            self.delta_total -= removed[self.counts.len()];
        }
        self.rebuild_prefix();
    }
}

/// Elementwise merge of two shards' per-bucket summaries (counts sum,
/// min/max widen) — how the host folds a refined window's per-shard stats.
pub(crate) fn merge_stats<T: Key>(into: &mut BucketStats<T>, other: &BucketStats<T>) {
    debug_assert_eq!(into.len(), other.len(), "shards disagree on refined bucket count");
    for ((c, mm), &(oc, omm)) in into.iter_mut().zip(other) {
        *c += oc;
        *mm = merge_minmax(*mm, omm);
    }
}

pub(crate) fn merge_minmax<T: Key>(a: Option<(T, T)>, b: Option<(T, T)>) -> Option<(T, T)> {
    match (a, b) {
        (None, x) | (x, None) => x,
        (Some((alo, ahi)), Some((blo, bhi))) => Some((alo.min(blo), ahi.max(bhi))),
    }
}

/// The value-ordered runs of a slice a re-cut starts from, and what is known
/// of their extrema without reading them. A resident [`ShardIndex`] is one
/// (every bucket's [`minmax`](ShardIndex::minmax) known); so is the carve a
/// select pass leaves in a candidate window (cuts known, extrema not).
pub(crate) struct ResidentRuns<T> {
    /// Strictly increasing: run `r` holds what `bounds[r]` admits and
    /// `bounds[r - 1]` does not.
    pub bounds: Vec<SepBound<T>>,
    /// `bounds.len() + 2` non-decreasing offsets, from 0 to the slice's end.
    pub offsets: Vec<usize>,
    /// Per run, its `(min, max)` where known — each end on its own, under
    /// the containment rule of [`ShardIndex::minmax`]. `None` is an end
    /// nobody has read (or an empty run's): the re-cut reads the run if, and
    /// only if, a new bucket's extrema depend on it.
    pub ends: Vec<(Option<T>, Option<T>)>,
}

impl<T: Key> ResidentRuns<T> {
    /// Runs of which only the cuts and the two outer extrema are known: what
    /// a select pass's carve says of a window, and (no cuts, no extrema) what
    /// is known of a shard that has no index yet.
    pub(crate) fn from_cuts(
        bounds: Vec<SepBound<T>>,
        offsets: Vec<usize>,
        (min, max): (Option<T>, Option<T>),
    ) -> Self {
        let mut ends = vec![(None, None); bounds.len() + 1];
        ends[0].0 = min;
        ends[bounds.len()].1 = max;
        ResidentRuns { bounds, offsets, ends }
    }
}

impl<T: Key> From<ShardIndex<T>> for ResidentRuns<T> {
    fn from(idx: ShardIndex<T>) -> Self {
        let ends = idx.minmax.iter().map(|mm| (mm.map(|(mn, _)| mn), mm.map(|(_, mx)| mx)));
        ResidentRuns { ends: ends.collect(), bounds: idx.bounds, offsets: idx.offsets }
    }
}

/// One value-ordered piece of the bucket a re-cut is assembling: a resident
/// run, or a part a new splitter cut out of one.
struct Piece<T> {
    range: std::ops::Range<usize>,
    min: Option<T>,
    max: Option<T>,
}

/// The new bucket a re-cut is assembling. Its pieces arrive in value order,
/// so its extrema are its first non-empty piece's min and its last one's
/// max: the pieces between them are counted, never read.
struct OpenBucket<T> {
    count: usize,
    first: Option<Piece<T>>,
    last: Option<Piece<T>>,
}

impl<T: Key> OpenBucket<T> {
    fn new() -> Self {
        OpenBucket { count: 0, first: None, last: None }
    }

    fn push(&mut self, piece: Piece<T>) {
        if piece.range.is_empty() {
            return;
        }
        self.count += piece.range.len();
        match self.first {
            None => self.first = Some(piece),
            Some(_) => self.last = Some(piece),
        }
    }

    /// Closes the bucket and leaves `self` empty for the next one. An end
    /// piece is read — one comparison per element — only for an end that is
    /// not known already; a piece read for one end yields the other exactly.
    fn close(&mut self, data: &[T], ops: &mut OpCount) -> (u64, Option<(T, T)>) {
        let mut read = |piece: &Piece<T>| {
            ops.cmps += piece.range.len() as u64;
            let run = &data[piece.range.clone()];
            run.iter().fold((run[0], run[0]), |(mn, mx), &x| (mn.min(x), mx.max(x)))
        };
        let minmax = match (self.first.take(), self.last.take()) {
            (None, _) => None,
            (Some(only), None) => Some(match (only.min, only.max) {
                (Some(mn), Some(mx)) => (mn, mx),
                _ => read(&only),
            }),
            (Some(first), Some(last)) => Some((
                first.min.unwrap_or_else(|| read(&first).0),
                last.max.unwrap_or_else(|| read(&last).1),
            )),
        };
        (std::mem::take(&mut self.count) as u64, minmax)
    }
}

/// Brings `data` into bucket order under the shared `bounds` by **re-cutting
/// the resident runs**, installs nothing itself and returns the new index
/// plus the per-bucket summary for the host cache. Two callers: an index
/// (re)build over a whole shard, and the refinement of one candidate window
/// after a select pass, whose carve is the resident input.
///
/// One forward cursor over `bounds` walks the resident runs. A new splitter
/// equal to a resident bound closes a bucket where a run already ends: free.
/// New splitters strictly inside a resident run are applied by
/// [`partition_by_bounds`] to that run only. Every other run keeps its
/// place; resident bounds the new vector drops simply stop separating their
/// neighbours, whose counts add and whose ranges widen.
///
/// Extrema follow the **ends rule**: a new bucket is a sequence of
/// value-ordered pieces, so its min is its first non-empty piece's and its
/// max its last one's. A resident end that is known is carried; a piece
/// between `(v, <)` and `(v, ≤)` holds only copies of `v`; any other end
/// piece is read. A bucket an index rebuild does not cut is therefore never
/// touched, both pieces of a bucket it cuts are read, and a window
/// refinement reads the small pieces next to each answer and nothing else.
///
/// `resident` must cover `data` exactly (a shard's pending delta run is
/// folded in first). `None` — first build, or the index was dropped by a
/// rebalance, a merge-import or recovery — is the degenerate input of the
/// same walk: no bounds, one unread run spanning `data`, so every splitter
/// falls inside it and the whole shard is partitioned and read.
///
/// Measured costs land in `ops`: the partitions' comparisons and moves, plus
/// one comparison per element of every piece read.
pub(crate) fn recut_shard_index<T: Key>(
    data: &mut [T],
    resident: Option<ResidentRuns<T>>,
    bounds: Vec<SepBound<T>>,
    ops: &mut OpCount,
) -> (ShardIndex<T>, BucketStats<T>) {
    let old = resident
        .unwrap_or_else(|| ResidentRuns::from_cuts(Vec::new(), vec![0, data.len()], (None, None)));
    debug_assert_eq!(old.offsets.last(), Some(&data.len()), "the resident runs cover the slice");
    let mut stats: BucketStats<T> = Vec::with_capacity(bounds.len() + 1);
    let mut open = OpenBucket::new();
    let mut next = 0usize;
    for (r, &(known_min, known_max)) in old.ends.iter().enumerate() {
        let (lo, hi) = (old.offsets[r], old.offsets[r + 1]);
        let (lower, upper) = (r.checked_sub(1).map(|below| old.bounds[below]), old.bounds.get(r));
        let first = next;
        while next < bounds.len() && upper.is_none_or(|u| bounds[next] < *u) {
            next += 1;
        }
        let inside = &bounds[first..next];
        let local = if inside.is_empty() {
            vec![0, hi - lo]
        } else {
            partition_by_bounds(&mut data[lo..hi], inside, ops)
        };
        // Each of `inside` closes the piece before it; the last piece stays
        // open unless this run's own bound survives into the new vector.
        let kept = next < bounds.len() && upper == Some(&bounds[next]);
        next += usize::from(kept);
        let last = inside.len();
        for (i, w) in local.windows(2).enumerate() {
            let below = if i == 0 { lower } else { Some(inside[i - 1]) };
            let above = if i == last { upper.copied() } else { Some(inside[i]) };
            let (min, max) = match (below, above) {
                (Some(b), Some(a)) if b.value == a.value => (Some(a.value), Some(a.value)),
                _ => (known_min.filter(|_| i == 0), known_max.filter(|_| i == last)),
            };
            open.push(Piece { range: lo + w[0]..lo + w[1], min, max });
            if i < last || kept {
                stats.push(open.close(data, ops));
            }
        }
    }
    stats.push(open.close(data, ops));
    debug_assert_eq!(stats.len(), bounds.len() + 1, "every new splitter closes one bucket");
    let offsets = std::iter::once(0)
        .chain(stats.iter().scan(0usize, |end, &(count, _)| {
            *end += count as usize;
            Some(*end)
        }))
        .collect();
    let minmax = stats.iter().map(|&(_, mm)| mm).collect();
    (ShardIndex { bounds, offsets, minmax }, stats)
}

/// Picks up to `nb - 1` splitters from the pooled (sorted) sample values:
/// evenly spaced sample quantiles, deduplicated, all inclusive. Identical
/// on every shard because the pool is.
pub(crate) fn splitters_from_samples<T: Key>(pool: &[T], nb: usize) -> Vec<SepBound<T>> {
    if pool.is_empty() || nb < 2 {
        return Vec::new();
    }
    let mut values: Vec<T> = (1..nb).map(|i| pool[i * pool.len() / nb]).collect();
    values.dedup();
    values.into_iter().map(SepBound::le).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idx(counts: &[u64], values: &[u64]) -> GlobalIndex<u64> {
        // Bucket b holds counts[b] copies of values[b] (min == max). Tests
        // that exercise the delta mirror set `delta_vals`/`delta_offsets`
        // explicitly; tests that exercise refinement replay set `bounds`.
        let minmax = counts
            .iter()
            .zip(values)
            .map(|(&c, &v)| if c == 0 { None } else { Some((v, v)) })
            .collect();
        let mut g = GlobalIndex {
            bounds: Vec::new(),
            counts: counts.to_vec(),
            prefix: Vec::new(),
            minmax,
            delta_vals: Vec::new(),
            delta_offsets: vec![0; counts.len() + 1],
            delta_total: 0,
        };
        g.rebuild_prefix();
        g
    }

    /// Installs a pending delta mirror: `vals` sorted, classified by the
    /// explicit per-bucket `offsets` (tests pick them by hand so the
    /// helper stays independent of `reclassify_delta`).
    fn with_delta(g: &mut GlobalIndex<u64>, vals: &[u64], offsets: &[u64]) {
        assert_eq!(offsets.len(), g.counts.len() + 1);
        g.delta_vals = vals.to_vec();
        g.delta_offsets = offsets.to_vec();
        g.delta_total = vals.len() as u64;
    }

    #[test]
    fn window_localizes_without_delta() {
        let g = idx(&[10, 0, 5, 5], &[1, 0, 3, 4]);
        assert_eq!(g.window(0), (0, 0));
        assert_eq!(g.window(9), (0, 0));
        assert_eq!(g.window(10), (2, 2)); // bucket 1 is empty
        assert_eq!(g.window(14), (2, 2));
        assert_eq!(g.window(15), (3, 3));
        assert_eq!(g.window(19), (3, 3));
    }

    #[test]
    fn delta_mirror_keeps_windows_single_bucket_exact() {
        let mut g = idx(&[10, 10], &[1, 2]);
        // Pending delta {1, 2, 2}: one element rebases bucket 0, two
        // rebase bucket 1 — merged populations 11 and 12.
        with_delta(&mut g, &[1, 2, 2], &[0, 1, 3]);
        assert_eq!(g.window(10), (0, 0));
        assert_eq!(g.window(11), (1, 1));
        assert_eq!(g.window(22), (1, 1));
        // The fast path serves straight through the pending delta: the
        // mirror proves each bucket stays a single equality class.
        assert_eq!(g.fast_value(0), Some(1));
        assert_eq!(g.fast_value(10), Some(1));
        assert_eq!(g.fast_value(11), Some(2));
        // A delta value that breaks a bucket's constancy refuses it.
        with_delta(&mut g, &[0, 2, 2], &[0, 1, 3]);
        assert_eq!(g.fast_value(0), None);
        assert_eq!(g.fast_value(12), Some(2));
    }

    #[test]
    fn fast_path_requires_singleton_constant_bucket() {
        let mut g = idx(&[4, 6, 2], &[7, 9, 11]);
        assert_eq!(g.fast_value(0), Some(7));
        assert_eq!(g.fast_value(5), Some(9));
        assert_eq!(g.fast_value(10), Some(11));
        g.minmax[1] = Some((8, 9)); // bucket 1 no longer constant
        assert_eq!(g.fast_value(5), None);
    }

    #[test]
    fn route_merges_overlapping_windows_and_splits_fast_ranks() {
        let mut g = idx(&[10, 10, 10], &[1, 2, 3]);
        g.minmax[1] = Some((2, 5)); // middle bucket not constant
        let routing = g.route([0, 12, 15, 25].into_iter());
        // Ranks 0 and 25 hit constant singleton buckets -> fast.
        assert_eq!(routing.fast, vec![(0, 1), (3, 3)]);
        // Ranks 12 and 15 share bucket-1's window -> one group.
        assert_eq!(routing.groups.len(), 1);
        let grp = &routing.groups[0];
        assert_eq!((grp.lo, grp.hi, grp.n), (1, 1, 10));
        assert_eq!(grp.ranks, vec![2, 5]); // relative to prefix[1] = 10
        assert_eq!(grp.out, vec![1, 2]);
    }

    #[test]
    fn count_bounds_are_exact_when_splitters_bound_the_probe() {
        // Buckets: 10×1 | 5 in [3,6] | 4×9.
        let mut g = idx(&[10, 5, 4], &[1, 0, 9]);
        g.bounds = vec![SepBound::le(2u64), SepBound::le(8)];
        g.minmax[1] = Some((3, 6));
        // Probes resolved by constant buckets alone are exact.
        assert_eq!(g.count_bounds(1, false), (0, 0));
        assert_eq!(g.count_bounds(1, true), (10, 10));
        assert_eq!(g.count_bounds(2, false), (10, 10));
        assert_eq!(g.count_bounds(9, false), (15, 15));
        assert_eq!(g.count_bounds(9, true), (19, 19));
        // A probe inside the straddling bucket brackets by its count.
        assert_eq!(g.count_bounds(5, false), (10, 15));
        assert_eq!(g.count_bounds(6, true), (15, 15)); // mx <= v resolves
        assert_eq!(g.count_bounds(6, false), (10, 15));
        // A pending delta contributes exactly through the sorted mirror:
        // brackets shift, they do not widen.
        with_delta(&mut g, &[0, 1, 7], &[0, 2, 3, 3]);
        assert_eq!(g.count_bounds(1, true), (12, 12));
        assert_eq!(g.count_bounds(1, false), (1, 1));
        assert_eq!(g.count_bounds(9, false), (18, 18));
        assert_eq!(g.count_bounds(5, false), (12, 17)); // straddle remains
    }

    #[test]
    fn count_bounds_agrees_with_the_linear_walk_on_random_indexes() {
        // Random splitters (equality-class pairs included) over a small
        // domain; every bucket gets a count and a min/max anywhere inside
        // its value range — exact, stale-wide after a delete, or still set
        // on a bucket a delete emptied — plus a pending delta mirror.
        let mut rng = cgselect_seqsel::KernelRng::new(77);
        const DOMAIN: u64 = 40;
        for _ in 0..300 {
            let specs: Vec<(u64, u8)> = (0..rng.next_u64() % 9)
                .map(|_| (rng.next_u64() % (DOMAIN + 2), (rng.next_u64() % 3) as u8))
                .collect();
            let bounds = bounds_from(&specs);
            let (mut counts, mut minmax) = (Vec::new(), Vec::new());
            for b in 0..=bounds.len() {
                let range: Vec<u64> = (0..DOMAIN)
                    .filter(|x| b == 0 || !bounds[b - 1].admits(x))
                    .filter(|x| b == bounds.len() || bounds[b].admits(x))
                    .collect();
                let mut pick = || range[(rng.next_u64() % range.len() as u64) as usize];
                let ends = (!range.is_empty()).then(|| {
                    let (a, z) = (pick(), pick());
                    (a.min(z), a.max(z))
                });
                let count = if ends.is_some() { rng.next_u64() % 6 } else { 0 };
                counts.push(count);
                minmax.push(if count == 0 && rng.next_u64() & 1 == 0 { None } else { ends });
            }
            let mut g = idx(&counts, &vec![0; counts.len()]);
            g.bounds = bounds;
            g.minmax = minmax;
            g.note_ingest((0..rng.next_u64() % 12).map(|_| rng.next_u64() % DOMAIN));
            for v in 0..=DOMAIN {
                for inclusive in [false, true] {
                    assert_eq!(
                        g.count_bounds(v, inclusive),
                        g.count_bounds_linear(v, inclusive),
                        "probe ({v}, {inclusive}) over {:?} / {:?} / {:?}",
                        g.bounds,
                        g.counts,
                        g.minmax
                    );
                }
            }
        }
    }

    #[test]
    fn approx_value_serves_single_bucket_windows() {
        let mut g = idx(&[4, 6], &[7, 0]);
        g.minmax[1] = Some((9, 20));
        // Constant bucket: exact, zero error.
        assert_eq!(g.approx_value(0), Some((7, 0)));
        // Straddling bucket: its min, error = offset into the bucket.
        assert_eq!(g.approx_value(4), Some((9, 0)));
        assert_eq!(g.approx_value(8), Some((9, 4)));
        // Delta pending: the mirror rebases the bucket's base rank and
        // extrema, so serving continues with the merged bounds.
        with_delta(&mut g, &[30], &[0, 0, 1]);
        assert_eq!(g.approx_value(0), Some((7, 0)));
        assert_eq!(g.approx_value(10), Some((9, 6)));
    }

    #[test]
    fn splice_and_absorb_keep_the_histogram_consistent() {
        let mut g = idx(&[10, 10], &[1, 5]);
        // Refine bucket 1 into three sub-buckets (e.g. around answer 5).
        g.splice_window(1, 1, &vec![(4, Some((4, 4))), (5, Some((5, 5))), (1, Some((6, 6)))]);
        g.rebuild_prefix();
        g.delta_offsets = vec![0; g.counts.len() + 1]; // reclassified (empty mirror)
        assert_eq!(g.counts, vec![10, 4, 5, 1]);
        assert_eq!(g.prefix, vec![0, 10, 14, 19, 20]);
        assert_eq!(g.fast_value(14), Some(5));
        // A delta merge adds counts in place.
        g.delta_total = 3;
        g.absorb_delta(&[vec![(0, None), (2, Some((3, 4))), (1, Some((5, 5))), (0, None)]]);
        assert_eq!(g.counts, vec![10, 6, 6, 1]);
        assert_eq!(g.delta_total, 0);
        assert_eq!(g.fast_value(14), None); // bucket 1 now spans 3..=4... rank 14 is in bucket 1
        assert_eq!(g.fast_value(16), Some(5));
    }

    #[test]
    fn removals_update_counts_and_delta() {
        let mut g = idx(&[5, 5], &[1, 2]);
        g.delta_total = 4;
        g.apply_removals(&[vec![2, 0, 1], vec![1, 5, 3]]);
        assert_eq!(g.counts, vec![2, 0]);
        assert_eq!(g.delta_total, 0);
        assert_eq!(g.prefix, vec![0, 2, 2]);
    }

    #[test]
    fn splitters_are_deduplicated_sample_quantiles() {
        let pool: Vec<u64> = (0..100).collect();
        let s = splitters_from_samples(&pool, 4);
        assert_eq!(s, vec![SepBound::le(25u64), SepBound::le(50), SepBound::le(75)]);
        assert!(splitters_from_samples(&[7u64; 50], 8).len() <= 1);
        assert!(splitters_from_samples::<u64>(&[], 8).is_empty());
        assert!(splitters_from_samples(&pool, 1).is_empty());
    }

    #[test]
    fn refined_bounds_carve_equality_classes() {
        let old = vec![SepBound::le(10u64)];
        let b = refined_bounds(&old, &[7, 10], None, None);
        assert_eq!(
            b,
            vec![SepBound::lt(7u64), SepBound::le(7), SepBound::lt(10), SepBound::le(10)]
        );
    }

    #[test]
    fn note_ingest_and_delete_keep_the_mirror_classified() {
        // Buckets: ≤10 | (10, 20] | >20.
        let mut g = idx(&[3, 3, 3], &[5, 15, 25]);
        g.bounds = vec![SepBound::le(10u64), SepBound::le(20)];
        g.note_ingest(vec![25, 10, 11, 5, 20]);
        assert_eq!(g.delta_vals, vec![5, 10, 11, 20, 25]);
        assert_eq!(g.delta_offsets, vec![0, 2, 4, 5]);
        assert_eq!(g.delta_total, 5);
        assert_eq!(g.window(0), (0, 0));
        assert_eq!(g.window(4), (0, 0)); // merged bucket 0 holds 5
        assert_eq!(g.window(5), (1, 1));
        // Deleting value classes prunes the mirror in place. The shards
        // would report one removal per deleted delta element, so the
        // engine's `apply_removals` decrements delta_total first.
        g.delta_total -= 2;
        g.note_delete(&[10, 20]);
        assert_eq!(g.delta_vals, vec![5, 11, 25]);
        assert_eq!(g.delta_offsets, vec![0, 1, 2, 3]);
    }

    #[test]
    fn refine_window_bounds_mirrors_the_shard_refinement() {
        // One window over buckets 1..=2 (internal splitter lt(30)),
        // refined by answer 25: the host must land on the same splitter
        // vector the shards compute from the identical inputs.
        let mut g = idx(&[2, 2, 2, 2], &[10, 20, 30, 40]);
        g.bounds = vec![SepBound::le(10u64), SepBound::lt(30), SepBound::le(30)];
        g.refine_window_bounds(1, 2, &[25]);
        assert_eq!(
            g.bounds,
            vec![
                SepBound::le(10u64),
                SepBound::lt(25),
                SepBound::le(25),
                SepBound::lt(30),
                SepBound::le(30)
            ]
        );
        // An answer equal to an inclusive outer bound still carves its
        // exclusive twin (class {10} splits off), but never re-inserts
        // the outer bound itself.
        g.refine_window_bounds(0, 0, &[10]);
        assert_eq!(g.bounds[..2], [SepBound::lt(10u64), SepBound::le(10)]);
    }

    #[test]
    fn refine_probe_bounds_carves_once_then_skips() {
        let mut g = idx(&[4, 4], &[10, 30]);
        g.bounds = vec![SepBound::le(20u64)];
        // Probe 15 lands in bucket 0: carve its equality class.
        assert_eq!(g.refine_probe_bounds(15), Some(0));
        assert_eq!(g.bounds, vec![SepBound::lt(15u64), SepBound::le(15), SepBound::le(20)]);
        // Already carved: the deterministic skip the shards also take.
        assert_eq!(g.refine_probe_bounds(15), None);
        // A probe in the last bucket carves there.
        assert_eq!(g.refine_probe_bounds(30), Some(3));
        assert_eq!(
            g.bounds,
            vec![
                SepBound::lt(15u64),
                SepBound::le(15),
                SepBound::le(20),
                SepBound::lt(30),
                SepBound::le(30)
            ]
        );
    }

    // --- the re-cut against a from-scratch partition of the same data ---

    use crate::backend::ops::{delete_shard, ingest_shard, init_shard, merge_delta_shard, Shard};
    use cgselect_runtime::{Machine, Proc};

    fn lone_proc() -> Proc {
        Machine::new(1).procs().remove(0)
    }

    /// `n` keys drawn from `0..modulus` (duplicates as `modulus` shrinks;
    /// all equal at 1).
    fn keys(seed: u64, n: usize, modulus: u64) -> Vec<u64> {
        let mut rng = cgselect_seqsel::KernelRng::new(seed);
        (0..n).map(|_| rng.next_u64() % modulus).collect()
    }

    /// A strictly increasing bound vector from `(value, kind)` specs: kind 0
    /// is `(v,<)`, 1 is `(v,≤)`, 2 the equality-class pair.
    fn bounds_from(specs: &[(u64, u8)]) -> Vec<SepBound<u64>> {
        let mut v = Vec::new();
        for &(value, kind) in specs {
            if kind != 1 {
                v.push(SepBound::lt(value));
            }
            if kind != 0 {
                v.push(SepBound::le(value));
            }
        }
        v.sort_unstable();
        v.dedup();
        v
    }

    /// What a from-scratch build over a copy of `data` lands on: offsets,
    /// each bucket's sorted multiset, and the scanned summary.
    fn from_scratch(
        data: &[u64],
        bounds: &[SepBound<u64>],
    ) -> (Vec<usize>, Vec<Vec<u64>>, BucketStats<u64>) {
        let mut copy = data.to_vec();
        let offsets = partition_by_bounds(&mut copy, bounds, &mut OpCount::new());
        let stats = bucket_stats(&copy, &offsets);
        let buckets = offsets
            .windows(2)
            .map(|w| {
                let mut b = copy[w[0]..w[1]].to_vec();
                b.sort_unstable();
                b
            })
            .collect();
        (offsets, buckets, stats)
    }

    /// Asserts the re-cut `(idx, stats)` over `data` equals the from-scratch
    /// build over `before` in offsets, per-bucket multisets (so the element
    /// multiset is preserved) and counts, that every
    /// reported min/max *contains* the scanned one (`exact`: equals it) and
    /// is `None` exactly for an empty bucket, and that the index passes the
    /// snapshot decoder's validation.
    fn assert_matches_from_scratch(
        before: &[u64],
        data: &[u64],
        idx: &ShardIndex<u64>,
        stats: &BucketStats<u64>,
        exact: bool,
    ) {
        let (offsets, buckets, scanned) = from_scratch(before, &idx.bounds);
        assert_eq!(idx.offsets, offsets);
        for (b, want) in buckets.iter().enumerate() {
            let mut got = data[idx.offsets[b]..idx.offsets[b + 1]].to_vec();
            got.sort_unstable();
            assert_eq!(&got, want, "bucket {b} holds a different multiset");
        }
        assert_eq!(stats.len(), scanned.len());
        for (b, (&(count, mm), &(want_count, want_mm))) in stats.iter().zip(&scanned).enumerate() {
            assert_eq!(count, want_count, "bucket {b} count");
            assert_eq!(mm, idx.minmax[b], "the reply and the resident min/max are one thing");
            match (mm, want_mm) {
                (None, None) => {}
                (Some((lo, hi)), Some((want_lo, want_hi))) => {
                    assert!(lo <= want_lo && want_hi <= hi, "bucket {b}: {mm:?} vs {want_mm:?}");
                    assert!(!exact || mm == want_mm, "bucket {b}: {mm:?} is not the scanned one");
                    assert!(b == 0 || !idx.bounds[b - 1].admits(&lo), "bucket {b} min escapes");
                    assert!(b == idx.bounds.len() || idx.bounds[b].admits(&hi), "bucket {b} max");
                }
                _ => panic!("bucket {b}: min/max must be None exactly when empty: {mm:?}"),
            }
        }
        let checked = ShardIndex::from_snapshot(idx.bounds.clone(), idx.offsets.clone(), data);
        assert!(checked.is_ok(), "{:?}", checked.err());
    }

    #[test]
    fn an_indexless_shard_is_the_degenerate_recut_and_does_the_whole_shard_partition() {
        let data = keys(3, 2000, 500);
        let bounds = bounds_from(&[(40, 1), (120, 2), (333, 0), (499, 1), (900, 1)]);
        let mut recut = data.clone();
        let mut ops = OpCount::new();
        let (idx, stats) = recut_shard_index(&mut recut, None, bounds.clone(), &mut ops);
        // Exactly the old whole-shard build: same permutation, same measured
        // partition work, plus one summary pass — over everything but the
        // equality class of 120, whose extrema its two bounds already say.
        let mut reference = data.clone();
        let mut ref_ops = OpCount::new();
        let ref_offsets = partition_by_bounds(&mut reference, &bounds, &mut ref_ops);
        assert_eq!(recut, reference);
        assert_eq!(idx.offsets, ref_offsets);
        let read = data.iter().filter(|&&x| x != 120).count() as u64;
        assert_eq!(ops.total(), ref_ops.total() + read);
        assert_matches_from_scratch(&data, &recut, &idx, &stats, true);
    }

    #[test]
    fn a_degenerate_recut_with_few_or_no_splitters_still_scans_its_min_max() {
        // AllEqual yields no splitter, FewDistinct may yield one: the single
        // spanning bucket has no summary to carry, so it is scanned.
        for (modulus, bounds) in [(1u64, vec![]), (2, vec![SepBound::le(0u64)]), (50, vec![])] {
            let data = keys(11, 300, modulus);
            let mut recut = data.clone();
            let mut ops = OpCount::new();
            let (idx, stats) = recut_shard_index(&mut recut, None, bounds, &mut ops);
            assert!(ops.total() >= data.len() as u64, "the scan is charged");
            assert_matches_from_scratch(&data, &recut, &idx, &stats, true);
            let (lo, hi) = (*data.iter().min().unwrap(), *data.iter().max().unwrap());
            let all = stats.iter().fold(None, |acc, &(_, mm)| merge_minmax(acc, mm));
            assert_eq!(all, Some((lo, hi)));
        }
        // Nothing resident at all: one empty bucket, nothing to scan.
        let (idx, stats) =
            recut_shard_index(&mut [], None, Vec::<SepBound<u64>>::new(), &mut OpCount::new());
        assert_eq!((idx.offsets, stats), (vec![0, 0], vec![(0, None)]));
    }

    #[test]
    fn resident_bounds_cost_nothing_and_move_nothing() {
        // The refinement-growth rebuild: the re-derived sample splitters are
        // resident bounds the refinement pairs grew around.
        let data = keys(5, 3000, 10_000);
        let sample = bounds_from(&[(2500, 1), (5000, 1), (7500, 1)]);
        let grown =
            bounds_from(&[(1200, 2), (2500, 1), (5000, 1), (6100, 2), (7500, 1), (9000, 2)]);
        let mut resident = data.clone();
        let (idx, _) = recut_shard_index(&mut resident, None, grown, &mut OpCount::new());
        let before = resident.clone();
        let mut ops = OpCount::new();
        let (idx, stats) =
            recut_shard_index(&mut resident, Some(idx.into()), sample.clone(), &mut ops);
        assert_eq!(ops.total(), 0);
        assert_eq!(resident, before, "no element moves");
        assert_eq!(idx.bounds, sample);
        assert_matches_from_scratch(&before, &resident, &idx, &stats, true);
    }

    #[test]
    fn only_the_cut_buckets_are_partitioned_and_scanned() {
        let data = keys(9, 4000, 8000);
        let resident_bounds = bounds_from(&[(1000, 1), (2000, 1), (3000, 1), (6000, 1)]);
        let mut resident = data.clone();
        let (idx, _) = recut_shard_index(&mut resident, None, resident_bounds, &mut OpCount::new());
        let (cut_lo, cut_hi) = (idx.offsets[2], idx.offsets[3]);
        let before = resident.clone();
        // 2500 falls inside bucket 2 = (2000, 3000]; 1000 and 6000 are kept;
        // 2000 and 3000 are dropped, so buckets 1 and 2's halves re-merge.
        let new_bounds = bounds_from(&[(1000, 1), (2500, 1), (6000, 1)]);
        let mut ops = OpCount::new();
        let (idx, stats) = recut_shard_index(&mut resident, Some(idx.into()), new_bounds, &mut ops);
        assert_eq!(resident[..cut_lo], before[..cut_lo]);
        assert_eq!(resident[cut_hi..], before[cut_hi..]);
        assert!(ops.cmps >= 2 * (cut_hi - cut_lo) as u64, "one partition pass and one scan");
        assert!(ops.total() < data.len() as u64 / 2, "{ops:?}: nothing outside the cut bucket");
        assert_matches_from_scratch(&before, &resident, &idx, &stats, true);
    }

    #[test]
    fn a_delete_leaves_min_max_wide_and_empties_to_none_through_a_recut() {
        // Buckets ≤10 | (10,20) | [20,20] | >20; the delete takes the whole
        // equality class {20} and bucket 0's extremes.
        let mut shard: Shard<u64> = init_shard(16);
        ingest_shard(&mut lone_proc(), &mut shard, vec![3, 7, 10, 1, 15, 12, 20, 20, 20, 44, 31]);
        let bounds = bounds_from(&[(10, 1), (20, 2)]);
        let (idx, _) =
            recut_shard_index(&mut shard.data, None, bounds.clone(), &mut OpCount::new());
        shard.index = Some(idx);
        delete_shard(&mut lone_proc(), &mut shard, &[1, 10, 20]);
        let idx = shard.index.take().unwrap();
        assert_eq!(idx.minmax, vec![Some((1, 10)), Some((12, 15)), None, Some((31, 44))]);
        // Same bounds: nothing is cut, the stale-wide summary is carried and
        // contains what a scan would find; the emptied bucket stays `None`.
        let before = shard.data.clone();
        let mut ops = OpCount::new();
        let (idx, stats) = recut_shard_index(&mut shard.data, Some(idx.into()), bounds, &mut ops);
        assert_eq!(ops.total(), 0);
        assert_eq!(stats[0], (2, Some((1, 10))));
        assert_eq!(stats[2], (0, None));
        assert_matches_from_scratch(&before, &shard.data, &idx, &stats, false);
        // Cutting the stale bucket re-scans it: exact again.
        let cut = bounds_from(&[(5, 1), (10, 1), (20, 2)]);
        let (idx, stats) = recut_shard_index(&mut shard.data, Some(idx.into()), cut, &mut ops);
        assert_eq!(stats[..2], [(1, Some((3, 3))), (1, Some((7, 7)))]);
        assert_matches_from_scratch(&before, &shard.data, &idx, &stats, false);
    }

    mod recut_props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(192))]

            /// Random data (duplicates, empty buckets, all-equal), random
            /// resident bounds with equality-class pairs, new bounds that
            /// are a subset of / disjoint from / interleaved with them —
            /// with and without a pending delta run, before and after a
            /// delete that empties buckets: the re-cut is the from-scratch
            /// partition in offsets, per-bucket multisets and counts, its
            /// min/max contain the scanned ones, and subset bounds are free.
            /// So is the re-cut of the same runs with only the outer ends
            /// known, which reads the end pieces it needs.
            #[test]
            fn recut_equals_a_from_scratch_partition(
                seed in 0u64..1_000_000,
                n in 0usize..400,
                modulus in prop::sample::select(vec![1u64, 3, 17, 1000]),
                resident_specs in prop::collection::vec((0u64..1002, 0u8..3), 0..10),
                fresh_specs in prop::collection::vec((0u64..1002, 0u8..3), 0..10),
                mode in 0u8..3,
                delta_len in prop::sample::select(vec![0usize, 0, 7, 60]),
                victims in prop::collection::vec(0u64..20, 0..4),
            ) {
                let mut proc = lone_proc();
                let mut shard: Shard<u64> = init_shard(16);
                ingest_shard(&mut proc, &mut shard, keys(seed, n, modulus));
                let resident_bounds = bounds_from(&resident_specs);
                let original = shard.data.clone();
                let (idx, stats) =
                    recut_shard_index(&mut shard.data, None, resident_bounds.clone(), &mut OpCount::new());
                assert_matches_from_scratch(&original, &shard.data, &idx, &stats, true);
                shard.index = Some(idx);

                // A delete through the index (small values: whole classes go
                // when the modulus is small), then a pending delta run.
                let mut victims = victims;
                victims.sort_unstable();
                victims.dedup();
                let deleted = delete_shard(&mut proc, &mut shard, &victims).removed;
                let exact = deleted.iter().all(|&gone| gone == 0);
                ingest_shard(&mut proc, &mut shard, keys(seed ^ 0xD1B5, delta_len, modulus));

                // Subset of / disjoint from / interleaved with the resident.
                let kept: Vec<SepBound<u64>> = resident_bounds
                    .iter()
                    .enumerate()
                    .filter_map(|(i, &b)| ((seed >> (i % 60)) & 1 == 0).then_some(b))
                    .collect();
                let mut fresh = bounds_from(&fresh_specs);
                fresh.retain(|b| !resident_bounds.contains(b));
                let new_bounds = match mode {
                    0 => kept,
                    1 => fresh,
                    _ => {
                        let mut both = [kept, fresh].concat();
                        both.sort_unstable();
                        both
                    }
                };

                // What `build_index_shard` does once the splitters are agreed.
                if delta_len > 0 {
                    merge_delta_shard(&mut proc, &mut shard);
                }
                let before = shard.data.clone();
                let mut ops = OpCount::new();
                let resident: ResidentRuns<u64> = shard.index.take().expect("built above").into();
                // The same runs as a select pass's carve describes them: the
                // cuts and the two outer ends, every other end unread.
                let outer = (resident.ends[0].0, resident.ends[resident.bounds.len()].1);
                let carve = ResidentRuns::from_cuts(
                    resident.bounds.clone(),
                    resident.offsets.clone(),
                    outer,
                );
                let mut carved = before.clone();
                let (idx, stats) =
                    recut_shard_index(&mut carved, Some(carve), new_bounds.clone(), &mut OpCount::new());
                assert_matches_from_scratch(&before, &carved, &idx, &stats, exact);

                let (idx, stats) =
                    recut_shard_index(&mut shard.data, Some(resident), new_bounds, &mut ops);
                assert_matches_from_scratch(&before, &shard.data, &idx, &stats, exact);
                if mode == 0 {
                    prop_assert_eq!(ops.total(), 0, "resident bounds are free");
                    prop_assert_eq!(&shard.data, &before, "and move nothing");
                }
            }
        }
    }

    #[test]
    fn refined_bounds_respect_the_outer_bounds() {
        // An answer equal to an outer bound must not re-insert it: the
        // shard's stored splitter vector has to stay strictly increasing.
        let b = refined_bounds(&[], &[5u64, 20], Some(SepBound::lt(5)), Some(SepBound::le(20)));
        assert_eq!(b, vec![SepBound::le(5u64), SepBound::lt(20)]);
    }
}
