//! Multi-rank selection: several order statistics in one pass.
//!
//! An extension beyond the paper: applications often need a whole set of
//! quantiles (p50/p90/p99/…) of the same distributed data. Running the
//! single-rank algorithm per quantile rescans the data `R` times; this
//! module runs the paper's Algorithm 4 (fast randomized selection) for all
//! requested ranks at once. Every round pools a random sample of each live
//! segment on every processor, brackets each requested rank between two
//! sample values, partitions the segment by those values and keeps only
//! the cells that hold a rank — a cell of about `3/√S` of the segment for a
//! sample of `S ≈ n^ε` keys, so a window shrinks super-geometrically
//! (`O(log log n)` rounds w.h.p.) where a shared random pivot halves it.
//!
//! The sample only ever *proposes* cuts: which cells survive is decided
//! from Combined global counts, so answers are exact whatever the sample
//! does. A bracket that misses its rank leaves the rank in a wider cell for
//! one more round; a cell cut out by `(v, <)`, `(v, ≤)` is `v`'s equality
//! class and resolves its ranks at once (heavy duplicates, all-equal
//! windows); and a segment whose round discarded nothing takes one
//! shared-pivot round (Algorithm 3's body: shared-seed pivot, owner
//! broadcast), which always makes progress — the same degeneracy guard
//! Algorithm 4 itself carries, not a selectable path.
//!
//! Three entry points, cheapest last:
//!
//! * [`parallel_multi_select`] — the original owned-input form: consumes a
//!   local `Vec<T>` and computes the global population itself.
//! * [`parallel_multi_select_in`] — copy-free: partitions a **borrowed**
//!   `&mut [T]` in place (plus a small owned overflow vector), with the
//!   exact global population supplied by the caller — no per-call clone of
//!   resident data and no population collective.
//! * [`parallel_multi_select_windows`] — the engine's resident-bucket-index
//!   form: many pre-localized candidate windows resolved **in lockstep**.
//!   Every round issues one segmented sample Concatenate and one vectorized
//!   count Combine *for all live segments together*, and all small-enough
//!   segments share a single gather/broadcast finish — so a batch of `R`
//!   windows costs `O(log log(max window))` collective rounds, not `R`
//!   times that. Algorithm 4 partitions in place, so a window comes back
//!   ordered around its answers; the pass returns those cuts (each window's
//!   *carve*) so that a caller maintaining an order over the slice need not
//!   find them again.

use cgselect_runtime::{Key, Proc, PHASE_FINISH, PHASE_SORT};
use cgselect_seqsel::{
    floyd_rivest_multi_select, partition3, partition3_kernel, partition_by_bounds,
    scalar_reference_mode, KernelRng, OpCount, SepBound,
};

use crate::common::bracket_ranks;
use crate::SelectionConfig;

/// Bracket half-width in units of `√S`: a requested rank is bracketed at
/// sample ranks `k·S/n ± δ` with `δ = delta_coeff · BRACKET_WIDTH · √S`.
/// The sample rank of a fixed element is binomial with `σ ≤ ½√S`, so 1.5
/// is about 3σ: a bracket misses roughly once in several hundred, and a
/// miss costs one more round, never an answer. (The paper's `√(S ln n)` is
/// about 6σ at the engine's window sizes — safer than exactness needs, and
/// its wider cells measured one round more per window.)
const BRACKET_WIDTH: f64 = 1.5;

/// One pre-localized candidate window handed to
/// [`parallel_multi_select_windows`]: a borrowed slice of this processor's
/// resident storage (partitioned in place, never copied), a small owned
/// overflow (e.g. a cloned unindexed delta run), the window's exact global
/// population, and the ranks to resolve inside it.
pub struct RankedWindow<'a, T> {
    /// Borrowed local elements of the window; permuted in place.
    pub slice: &'a mut [T],
    /// Small owned local overflow, consumed by the recursion.
    pub extra: Vec<T>,
    /// Exact global population of the window (over all processors).
    pub n: u64,
    /// `(rank within the window, output slot)` pairs, ranks `< n`.
    pub ranks: Vec<(u64, usize)>,
}

/// The cuts a lockstep pass left in one window's borrowed slice: `(bound,
/// offset)` pairs with strictly increasing bounds — every slice element
/// before `offset` is admitted by `bound`, none from `offset` on is.
pub type Carve<T> = Vec<(SepBound<T>, usize)>;

/// One live segment of the lockstep recursion. Segments split and shrink in
/// an order determined solely by global counts, so every processor tracks
/// the identical list (SPMD-safe).
struct Segment<'a, T> {
    /// The window this segment descends from, and where `slice` begins in
    /// that window's borrowed slice — what turns a cut of this segment into
    /// an entry of the window's carve.
    window: usize,
    base: usize,
    slice: &'a mut [T],
    extra: Vec<T>,
    n: u64,
    /// Ascending `(rank within the segment, output slot)` pairs.
    ranks: Vec<(u64, usize)>,
    /// The round that produced this segment discarded nothing (everything
    /// fell between two distinct sample values): its next round cuts at a
    /// shared pivot instead of sampling again.
    stalled: bool,
}

impl<T: Copy> Segment<'_, T> {
    fn local_len(&self) -> u64 {
        (self.slice.len() + self.extra.len()) as u64
    }

    /// The local element at position `at` of `slice ++ extra`.
    fn at(&self, at: usize) -> T {
        if at < self.slice.len() {
            self.slice[at]
        } else {
            self.extra[at - self.slice.len()]
        }
    }
}

/// Selects the elements at several global ranks of the distributed
/// multiset in one collective pass.
///
/// `ranks` may be in any order; the returned vector is aligned with it
/// (`result[i]` is the element of rank `ranks[i]`). Duplicated ranks are
/// allowed. Load balancing is not applied (segments shrink quickly and
/// the recursion re-partitions them anyway).
///
/// ```
/// use cgselect_core::{multi_select_on_machine, SelectionConfig};
/// use cgselect_runtime::MachineModel;
///
/// let parts: Vec<Vec<u64>> = vec![vec![30, 10], vec![20, 40, 0]];
/// let quartiles = multi_select_on_machine(
///     2,
///     MachineModel::free(),
///     &parts,
///     &[0, 2, 4],
///     &SelectionConfig::default(),
/// )
/// .unwrap();
/// assert_eq!(quartiles, vec![0, 20, 40]);
/// ```
///
/// # Panics
/// Panics if the distributed set is empty or any rank is out of range
/// (collectively — every processor fails identically).
pub fn parallel_multi_select<T: Key>(
    proc: &mut Proc,
    data: Vec<T>,
    ranks: &[u64],
    cfg: &SelectionConfig,
) -> Vec<T> {
    let n0 = proc.combine(data.len() as u64, |a, b| a + b);
    assert!(n0 > 0, "multi-select on an empty distributed set");
    parallel_multi_select_in(proc, &mut [], data, n0, ranks, cfg)
}

/// The borrowed, copy-free multi-select: resolves `ranks` over the
/// distributed multiset formed by every processor's `local` slice plus its
/// owned `extra` vector, whose exact global population `n` the caller
/// supplies (so no population collective is paid). `local` is partitioned
/// **in place** — on return its elements are permuted (multiset unchanged).
///
/// # Panics
/// Panics if `n == 0` while ranks are requested, or any rank is `>= n`.
pub fn parallel_multi_select_in<T: Key>(
    proc: &mut Proc,
    local: &mut [T],
    extra: Vec<T>,
    n: u64,
    ranks: &[u64],
    cfg: &SelectionConfig,
) -> Vec<T> {
    if ranks.is_empty() {
        return Vec::new();
    }
    assert!(n > 0, "multi-select on an empty distributed set");
    let pairs = ranks.iter().copied().enumerate().map(|(i, r)| (r, i)).collect();
    let window = RankedWindow { slice: local, extra, n, ranks: pairs };
    let (out, _carve) = parallel_multi_select_windows(proc, vec![window], ranks.len(), cfg);
    out.into_iter().map(|v| v.expect("every requested rank must have been resolved")).collect()
}

/// Lockstep multi-select over many pre-localized windows (see the module
/// docs): resolves every window's ranks into a `Vec<Option<T>>` of length
/// `out_len`, indexed by the windows' output slots. Slots not named by any
/// window remain `None`.
///
/// Beside the answers comes each window's [`Carve`], in window order: the
/// cuts the rounds left in its borrowed slice. Bracket cuts and
/// shared-pivot cuts of every round are all in it, whichever cell the ranks
/// then followed; the innermost cell around an answer is left as the last
/// round found it (processor 0 finishes it on a gathered copy). The bounds
/// derive from pooled samples and global counts, so they are identical on
/// every processor; the offsets are local. A window without ranks is never
/// touched and has an empty carve. A caller that keeps the slice ordered —
/// the engine's bucket index — starts from these cuts instead of
/// partitioning the window again.
///
/// Windows must be constructed identically on every processor (same count,
/// same `n`s, same ranks — the local slices naturally differ); output slots
/// must not repeat across windows.
///
/// # Panics
/// Panics if a window has ranks but `n == 0`, or a rank `>= n`.
pub fn parallel_multi_select_windows<T: Key>(
    proc: &mut Proc,
    windows: Vec<RankedWindow<'_, T>>,
    out_len: usize,
    cfg: &SelectionConfig,
) -> (Vec<Option<T>>, Vec<Carve<T>>) {
    cfg.validate();
    // Read once per pass: a scoped flip of the switch cannot mix kernels
    // within one answer.
    let reference = scalar_reference_mode();
    let mut out: Vec<Option<T>> = vec![None; out_len];
    let stream = cfg.seed ^ 0x6D75_6C74; // "mult"
    let mut shared_rng = KernelRng::new(stream);
    let mut local_rng = KernelRng::derive(stream, proc.rank() as u64 + 1);
    let threshold = cfg.threshold(proc.nprocs());

    let mut carves: Vec<Carve<T>> = vec![Vec::new(); windows.len()];
    let mut active: Vec<Segment<'_, T>> = Vec::with_capacity(windows.len());
    for (window, w) in windows.into_iter().enumerate() {
        if w.ranks.is_empty() {
            continue;
        }
        assert!(w.n > 0, "multi-select window with ranks but no elements");
        for &(r, _) in &w.ranks {
            assert!(r < w.n, "rank {r} out of range for a window of {} elements", w.n);
        }
        let mut ranks = w.ranks;
        ranks.sort_unstable();
        active.push(Segment {
            window,
            base: 0,
            slice: w.slice,
            extra: w.extra,
            n: w.n,
            ranks,
            stalled: false,
        });
    }

    let mut rounds = 0u32;
    while !active.is_empty() {
        rounds += 1;
        assert!(
            rounds <= cfg.max_iters,
            "multi-select exceeded {} rounds (likely a bug)",
            cfg.max_iters
        );

        // Segments at or below the sequential threshold finish together in
        // one shared gather + broadcast; the rest take a vectorized
        // partition round. The split is driven by global counts only, so it
        // is identical on every processor.
        let (finish, big): (Vec<_>, Vec<_>) = active.drain(..).partition(|s| s.n <= threshold);
        if !finish.is_empty() {
            solve_finishers(proc, finish, reference, &mut out);
        }
        if big.is_empty() {
            continue;
        }

        // Every live segment is cut at sampled brackets around its ranks;
        // only one whose last round discarded nothing is cut at a shared
        // pivot instead. `stalled` derives from global counts, so every
        // processor issues the same collectives.
        let mut brackets = sampled_brackets(proc, &big, cfg, &mut local_rng).into_iter();
        let mut pivots = shared_pivots(proc, &big, &mut shared_rng).into_iter();
        let cuts: Vec<Vec<SepBound<T>>> = big
            .iter()
            .map(|seg| if seg.stalled { pivots.next() } else { brackets.next() })
            .map(|cut| cut.expect("one cut per live segment"))
            .collect();
        split_segments(proc, big, &cuts, reference, &mut out, &mut active, &mut carves);
    }
    // A child's sample can propose a bound its parent already cut at (the
    // child's first or last cell is then empty): the same bound at the same
    // offset, recorded twice.
    for carve in &mut carves {
        carve.sort_unstable();
        carve.dedup();
        debug_assert!(carve.windows(2).all(|w| w[0].0 < w[1].0 && w[0].1 <= w[1].1));
    }
    (out, carves)
}

/// Algorithm 4's Steps 1–4, vectorized over every segment that is not
/// stalled: each processor draws `⌈mᵢ·n^(ε−1)⌉` of its `mᵢ` local elements
/// per segment (with replacement — the sample only proposes cuts), one
/// segmented Concatenate pools the draws everywhere, and every processor
/// sorts each pool and reads off the *identical* bracket bounds
/// `(v₁, <)`, `(v₂, ≤)` around every requested rank — so no broadcast.
/// Returns one strictly increasing bound vector per sampled segment, in
/// segment order; issues no collective when every segment is stalled.
fn sampled_brackets<T: Key>(
    proc: &mut Proc,
    segs: &[Segment<'_, T>],
    cfg: &SelectionConfig,
    rng: &mut KernelRng,
) -> Vec<Vec<SepBound<T>>> {
    let segs: Vec<&Segment<'_, T>> = segs.iter().filter(|s| !s.stalled).collect();
    if segs.is_empty() {
        return Vec::new();
    }
    proc.phase_begin(PHASE_SORT);
    let mut lens: Vec<u32> = Vec::with_capacity(segs.len());
    let mut draws: Vec<T> = Vec::new();
    for seg in &segs {
        let m = seg.local_len();
        let frac = (seg.n as f64).powf(cfg.epsilon - 1.0);
        let take = ((m as f64 * frac).ceil() as u64).min(m);
        draws.extend((0..take).map(|_| seg.at(rng.below(m) as usize)));
        lens.push(u32::try_from(take).expect("a segment's local sample fits in u32"));
    }
    proc.charge_ops(2 * draws.len() as u64);
    let pooled = proc.all_gatherv_runs(lens, draws);

    let mut cursors = vec![0usize; pooled.len()];
    let mut ops = OpCount::new();
    let cuts = segs
        .iter()
        .enumerate()
        .map(|(j, seg)| {
            let mut pool: Vec<T> = Vec::new();
            for ((lens, values), at) in pooled.iter().zip(&mut cursors) {
                let len = lens[j] as usize;
                pool.extend_from_slice(&values[*at..*at + len]);
                *at += len;
            }
            ops.moves += pool.len() as u64;
            pool.sort_unstable_by(|a, b| {
                ops.cmps += 1;
                a.cmp(b)
            });
            let s = pool.len() as u64;
            debug_assert!(s > 0, "a segment above the finish threshold has a sample");
            let delta = cfg.delta_coeff * BRACKET_WIDTH * (s as f64).sqrt();
            let mut cut: Vec<SepBound<T>> = Vec::with_capacity(2 * seg.ranks.len());
            for &(r, _) in &seg.ranks {
                let (k1, k2) = bracket_ranks(r, seg.n, s, delta);
                cut.push(SepBound::lt(pool[k1 as usize]));
                cut.push(SepBound::le(pool[k2 as usize]));
            }
            cut.sort_unstable();
            cut.dedup();
            cut
        })
        .collect();
    proc.charge_ops(ops.total());
    proc.phase_end(PHASE_SORT);
    cuts
}

/// The guaranteed-progress cut for stalled segments (Algorithm 3's Steps
/// 1–3, vectorized): one shared random index per segment (identical stream
/// everywhere), located via a single vectorized prefix sum and published
/// via a single vectorized owner broadcast. The pivot is an element of the
/// segment, so cutting out its equality class `(v, <)`, `(v, ≤)` either
/// resolves every rank or leaves strictly smaller cells. Returns one bound
/// pair per stalled segment; issues no collective when there is none.
fn shared_pivots<T: Key>(
    proc: &mut Proc,
    segs: &[Segment<'_, T>],
    shared_rng: &mut KernelRng,
) -> Vec<Vec<SepBound<T>>> {
    let segs: Vec<&Segment<'_, T>> = segs.iter().filter(|s| s.stalled).collect();
    if segs.is_empty() {
        return Vec::new();
    }
    let pivot_idx: Vec<u64> = segs.iter().map(|s| shared_rng.below(s.n)).collect();
    let lens: Vec<u64> = segs.iter().map(|s| s.local_len()).collect();
    let incl =
        proc.scan(lens.clone(), |a, b| a.iter().zip(&b).map(|(x, y)| x + y).collect::<Vec<u64>>());
    let owners: Vec<(Option<T>, u64)> = segs
        .iter()
        .zip(&lens)
        .zip(&incl)
        .zip(&pivot_idx)
        .map(|(((seg, &len), &inc), &idx)| {
            let before = inc - len;
            let mine =
                (before <= idx && idx < before + len).then(|| seg.at((idx - before) as usize));
            (mine, u64::from(mine.is_some()))
        })
        .collect();
    let merged = proc.combine(owners, |a, b| {
        a.into_iter().zip(b).map(|((va, ca), (vb, cb))| (va.or(vb), ca + cb)).collect()
    });
    merged
        .into_iter()
        .map(|(v, c)| {
            assert_eq!(c, 1, "each segment pivot needs exactly one owner, found {c}");
            let pivot = v.expect("owner count is 1, value must exist");
            vec![SepBound::lt(pivot), SepBound::le(pivot)]
        })
        .collect()
}

/// Partitions every segment by its cut, Combines the cell counts of all
/// segments in one collective, and pushes every cell that holds a rank onto
/// `active` as a child segment (in segment, then cell order — deterministic
/// across processors). A cell between `(v, <)` and `(v, ≤)` holds only
/// copies of `v` and resolves its ranks instead. Every cut lands in its
/// window's entry of `carves`, at its offset in the window's slice.
fn split_segments<'a, T: Key>(
    proc: &mut Proc,
    mut segs: Vec<Segment<'a, T>>,
    cuts: &[Vec<SepBound<T>>],
    reference: bool,
    out: &mut [Option<T>],
    active: &mut Vec<Segment<'a, T>>,
    carves: &mut [Carve<T>],
) {
    // A lone bracket (and every pivot cut) is one three-way pass; the
    // branchless kernel reproduces `partition3`'s permutation and charges
    // exactly (samples and pivots index physical positions, so the
    // permutation is part of the cross-backend contract), and the scalar
    // original stays reachable as the wall-clock reference baseline.
    // Brackets of several ranks sharing a segment go multiway.
    let cells = |data: &mut [T], cut: &[SepBound<T>], ops: &mut OpCount| match *cut {
        [SepBound { value: lo, inclusive: false }, SepBound { value: hi, inclusive: true }] => {
            let (a, b) = if reference {
                partition3(data, lo, hi, ops)
            } else {
                partition3_kernel(data, lo, hi, ops)
            };
            vec![0, a, b, data.len()]
        }
        _ => partition_by_bounds(data, cut, ops),
    };
    let mut ops = OpCount::new();
    let offsets: Vec<(Vec<usize>, Vec<usize>)> = segs
        .iter_mut()
        .zip(cuts)
        .map(|(seg, cut)| (cells(seg.slice, cut, &mut ops), cells(&mut seg.extra, cut, &mut ops)))
        .collect();
    proc.charge_ops(ops.total());
    let local: Vec<u64> = offsets
        .iter()
        .flat_map(|(s, e)| {
            s.windows(2).zip(e.windows(2)).map(|(s, e)| (s[1] - s[0] + e[1] - e[0]) as u64)
        })
        .collect();
    let mut totals = proc
        .combine(local, |a, b| a.into_iter().zip(b).map(|(x, y)| x + y).collect::<Vec<u64>>())
        .into_iter();

    let mut extra_moves = 0u64;
    for ((seg, cut), (s_off, e_off)) in segs.into_iter().zip(cuts).zip(offsets) {
        let Segment { window, base, slice, extra, n, ranks, .. } = seg;
        carves[window].extend(cut.iter().zip(&s_off[1..]).map(|(&bound, &at)| (bound, base + at)));
        // The borrowed slice splits in place (no copies); only the owned
        // overflow pays for its split.
        let mut rest = slice;
        let mut ranks = ranks.as_slice();
        let mut below = 0u64;
        for c in 0..=cut.len() {
            let count = totals.next().expect("one count per cell");
            let (cell, tail) = std::mem::take(&mut rest).split_at_mut(s_off[c + 1] - s_off[c]);
            rest = tail;
            let first = below;
            below += count;
            let (here, above) = ranks.split_at(ranks.partition_point(|&(r, _)| r < below));
            ranks = above;
            if here.is_empty() {
                continue;
            }
            if c > 0 && c < cut.len() && cut[c - 1].value == cut[c].value {
                for &(_, slot) in here {
                    out[slot] = Some(cut[c].value);
                }
            } else {
                let cell_extra = extra[e_off[c]..e_off[c + 1]].to_vec();
                extra_moves += cell_extra.len() as u64;
                active.push(Segment {
                    window,
                    base: base + s_off[c],
                    slice: cell,
                    extra: cell_extra,
                    n: count,
                    ranks: here.iter().map(|&(r, slot)| (r - first, slot)).collect(),
                    stalled: count == n,
                });
            }
        }
        debug_assert!(ranks.is_empty(), "every rank lies in some cell");
    }
    proc.charge_ops(extra_moves);
}

/// Finishes all small segments of one round together: a single flat gather
/// on P0 — untagged when only one segment finishes (the common
/// single-window path, half the modeled payload), `(segment, element)`
/// pairs otherwise — one sort-and-read-off per segment, and a single
/// broadcast of every answer. Both branches issue the identical collective
/// sequence, and `segs.len()` is globally agreed, so SPMD order holds.
fn solve_finishers<T: Key>(
    proc: &mut Proc,
    segs: Vec<Segment<'_, T>>,
    reference: bool,
    out: &mut [Option<T>],
) {
    proc.phase_begin(PHASE_FINISH);
    let gathered: Option<Vec<Vec<T>>> = if segs.len() == 1 {
        let seg = &segs[0];
        let mut mine = seg.slice.to_vec();
        mine.extend_from_slice(&seg.extra);
        proc.charge_ops(mine.len() as u64);
        proc.gather_flat(0, mine).map(|all| vec![all])
    } else {
        let mut mine: Vec<(u32, T)> = Vec::new();
        for (i, seg) in segs.iter().enumerate() {
            let tag = i as u32;
            mine.extend(seg.slice.iter().map(|&x| (tag, x)));
            mine.extend(seg.extra.iter().map(|&x| (tag, x)));
        }
        proc.charge_ops(mine.len() as u64);
        proc.gather_flat(0, mine).map(|all| {
            let mut per: Vec<Vec<T>> = (0..segs.len()).map(|_| Vec::new()).collect();
            for (tag, x) in all {
                per[tag as usize].push(x);
            }
            per
        })
    };
    let answers: Option<Vec<T>> = gathered.map(|mut per| {
        let mut res = Vec::new();
        let mut local = OpCount::new();
        for (seg, bucket) in segs.iter().zip(&mut per) {
            local.moves += bucket.len() as u64;
            debug_assert_eq!(
                bucket.len() as u64,
                seg.n,
                "caller-supplied window population disagrees with the gathered count"
            );
            debug_assert!(
                seg.ranks.windows(2).all(|w| w[0].0 <= w[1].0),
                "finisher ranks must stay ascending through segment splits"
            );
            // Floyd–Rivest finisher: R successive selects cost expected
            // O(R·n) comparisons against the sort's n·log2(n), so for a
            // sparse rank set in a sizeable window (2R < log2 n, with the
            // factor 2 as noise margin) the gathered bucket is finished by
            // selection instead of sorting. Charges are measured either
            // way; the scalar-reference switch pins the sort path as the
            // pre-kernel baseline.
            let distinct = 1 + seg.ranks.windows(2).filter(|w| w[0].0 != w[1].0).count() as u64;
            let use_fr =
                !reference && bucket.len() > 1 && 2 * distinct < u64::from(bucket.len().ilog2());
            if use_fr {
                let ranks: Vec<usize> = seg.ranks.iter().map(|&(r, _)| r as usize).collect();
                res.extend(floyd_rivest_multi_select(bucket, &ranks, &mut local));
            } else {
                bucket.sort_unstable_by(|a, b| {
                    local.cmps += 1;
                    a.cmp(b)
                });
                res.extend(seg.ranks.iter().map(|&(r, _)| bucket[r as usize]));
            }
        }
        proc.charge_ops(local.total());
        res
    });
    let answers = proc.broadcast(0, answers);
    proc.phase_end(PHASE_FINISH);
    let mut it = answers.into_iter();
    for seg in segs {
        for (_, slot) in seg.ranks {
            out[slot] = Some(it.next().expect("one answer per requested rank"));
        }
    }
}

/// Whole-machine convenience for [`parallel_multi_select`].
pub fn multi_select_on_machine<T: Key>(
    p: usize,
    model: cgselect_runtime::MachineModel,
    parts: &[Vec<T>],
    ranks: &[u64],
    cfg: &SelectionConfig,
) -> Result<Vec<T>, cgselect_runtime::RunError> {
    assert_eq!(parts.len(), p, "need exactly one data vector per processor");
    let outs = cgselect_runtime::Machine::with_model(p, model)
        .run(|proc| parallel_multi_select(proc, parts[proc.rank()].clone(), ranks, cfg))?;
    Ok(outs.into_iter().next().expect("p >= 1"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgselect_runtime::MachineModel;

    fn oracle(parts: &[Vec<u64>], ranks: &[u64]) -> Vec<u64> {
        let mut all: Vec<u64> = parts.iter().flatten().copied().collect();
        all.sort_unstable();
        ranks.iter().map(|&r| all[r as usize]).collect()
    }

    fn cfg() -> SelectionConfig {
        SelectionConfig { min_sequential: 32, ..SelectionConfig::with_seed(5) }
    }

    #[test]
    fn selects_multiple_ranks() {
        let p = 4;
        let parts: Vec<Vec<u64>> =
            (0..p).map(|r| (0..200).map(|i| (i * p + r) as u64 * 7 % 1000).collect()).collect();
        let ranks = [0u64, 100, 400, 799];
        let got = multi_select_on_machine(p, MachineModel::free(), &parts, &ranks, &cfg()).unwrap();
        assert_eq!(got, oracle(&parts, &ranks));
    }

    #[test]
    fn unsorted_and_duplicate_rank_requests() {
        let p = 3;
        let parts: Vec<Vec<u64>> =
            (0..p).map(|r| (0..100).map(|i| (i + r) as u64).collect()).collect();
        let ranks = [250u64, 0, 250, 42, 299];
        let got = multi_select_on_machine(p, MachineModel::free(), &parts, &ranks, &cfg()).unwrap();
        assert_eq!(got, oracle(&parts, &ranks));
    }

    #[test]
    fn heavy_duplicates() {
        let p = 4;
        let parts: Vec<Vec<u64>> = (0..p).map(|_| [1u64, 2, 2, 2, 3].repeat(40)).collect();
        let n: usize = parts.iter().map(Vec::len).sum();
        let ranks: Vec<u64> = (0..10).map(|i| (i * n / 10) as u64).collect();
        let got = multi_select_on_machine(p, MachineModel::free(), &parts, &ranks, &cfg()).unwrap();
        assert_eq!(got, oracle(&parts, &ranks));
    }

    #[test]
    fn empty_rank_list() {
        let parts: Vec<Vec<u64>> = vec![vec![1], vec![2]];
        let got = multi_select_on_machine(2, MachineModel::free(), &parts, &[], &cfg()).unwrap();
        assert!(got.is_empty());
    }

    #[test]
    fn matches_single_select() {
        let p = 4;
        let parts = (0..p)
            .map(|r| (0..300).map(|i| ((i * 37 + r * 11) % 500) as u64).collect())
            .collect::<Vec<_>>();
        let k = 600;
        let multi = multi_select_on_machine(p, MachineModel::free(), &parts, &[k], &cfg()).unwrap();
        let single = crate::select_on_machine(
            p,
            MachineModel::free(),
            &parts,
            k,
            crate::Algorithm::Randomized,
            &cfg(),
        )
        .unwrap();
        assert_eq!(multi[0], single.value);
    }

    #[test]
    fn many_ranks_at_scale() {
        let p = 8;
        let n = 80_000usize;
        let parts: Vec<Vec<u64>> = (0..p)
            .map(|r| {
                (0..n / p)
                    .map(|i| ((i * p + r) as u64).wrapping_mul(0x9E3779B9) % 1_000_000)
                    .collect()
            })
            .collect();
        let ranks: Vec<u64> = (1..20).map(|i| (i * n / 20) as u64).collect();
        let got = multi_select_on_machine(p, MachineModel::free(), &parts, &ranks, &cfg()).unwrap();
        assert_eq!(got, oracle(&parts, &ranks));
    }

    #[test]
    fn out_of_range_rank_fails() {
        let parts: Vec<Vec<u64>> = vec![vec![1], vec![2]];
        let err =
            multi_select_on_machine(2, MachineModel::free(), &parts, &[5], &cfg()).unwrap_err();
        assert!(format!("{err}").contains("out of range"));
    }

    #[test]
    fn borrowed_form_matches_oracle_and_preserves_the_multiset() {
        // The engine's shape: a borrowed resident slice per processor plus a
        // small owned delta clone; answers must match the oracle over the
        // union, and the borrowed storage must come back permuted-not-lost.
        let p = 4;
        let parts: Vec<Vec<u64>> =
            (0..p).map(|r| (0..500).map(|i| ((i * 13 + r * 7) % 911) as u64).collect()).collect();
        let extras: Vec<Vec<u64>> =
            (0..p).map(|r| (0..20).map(|i| (1000 + i * 3 + r as u64) % 911).collect()).collect();
        let union: Vec<Vec<u64>> =
            (0..p).map(|r| parts[r].iter().chain(extras[r].iter()).copied().collect()).collect();
        let n: u64 = union.iter().map(|v| v.len() as u64).sum();
        let ranks = [0u64, 17, n / 2, n - 1];
        let expect = oracle(&union, &ranks);

        let outs = cgselect_runtime::Machine::with_model(p, MachineModel::free())
            .run(|proc| {
                let mut local = parts[proc.rank()].clone();
                let got = parallel_multi_select_in(
                    proc,
                    &mut local,
                    extras[proc.rank()].clone(),
                    n,
                    &ranks,
                    &cfg(),
                );
                (got, local)
            })
            .unwrap();
        for (rank, (got, local)) in outs.into_iter().enumerate() {
            assert_eq!(got, expect);
            // In-place partitioning permutes but never loses elements.
            let mut a = local;
            a.sort_unstable();
            let mut b = parts[rank].clone();
            b.sort_unstable();
            assert_eq!(a, b, "rank {rank} slice multiset changed");
        }
    }

    #[test]
    fn lockstep_windows_resolve_disjoint_ranges_with_shared_rounds() {
        // Two disjoint windows per processor (low half / high half of a
        // global 0..1000 range, dealt round-robin) resolved in one lockstep
        // pass; collective rounds must be far below two sequential passes.
        let p = 4;
        let per = 250usize; // per processor, per window
        let low: Vec<Vec<u64>> =
            (0..p).map(|r| (0..per).map(|i| ((i * p + r) * 2) as u64 % 1000).collect()).collect();
        let high: Vec<Vec<u64>> = (0..p)
            .map(|r| (0..per).map(|i| 1000 + ((i * p + r) * 3) as u64 % 1000).collect())
            .collect();
        let n_low: u64 = (p * per) as u64;
        let n_high: u64 = (p * per) as u64;
        let mut all_low: Vec<u64> = low.iter().flatten().copied().collect();
        let mut all_high: Vec<u64> = high.iter().flatten().copied().collect();
        all_low.sort_unstable();
        all_high.sort_unstable();

        let outs = cgselect_runtime::Machine::with_model(p, MachineModel::free())
            .run(|proc| {
                let mut a = low[proc.rank()].clone();
                let mut b = high[proc.rank()].clone();
                let windows = vec![
                    RankedWindow {
                        slice: &mut a,
                        extra: Vec::new(),
                        n: n_low,
                        ranks: vec![(0, 0), (n_low / 2, 1)],
                    },
                    RankedWindow {
                        slice: &mut b,
                        extra: Vec::new(),
                        n: n_high,
                        ranks: vec![(n_high / 3, 2), (n_high - 1, 3)],
                    },
                ];
                let c0 = proc.comm_stats().collective_ops;
                let (got, _) = parallel_multi_select_windows(proc, windows, 4, &cfg());
                (got, proc.comm_stats().collective_ops - c0)
            })
            .unwrap();
        for (got, _) in &outs {
            assert_eq!(got[0], Some(all_low[0]));
            assert_eq!(got[1], Some(all_low[(n_low / 2) as usize]));
            assert_eq!(got[2], Some(all_high[(n_high / 3) as usize]));
            assert_eq!(got[3], Some(all_high[(n_high - 1) as usize]));
        }
        // Lockstep sharing: two windows together must cost well under two
        // independent passes (each pass would pay its own rounds).
        let shared = outs[0].1;
        let single = cgselect_runtime::Machine::with_model(p, MachineModel::free())
            .run(|proc| {
                let mut a = low[proc.rank()].clone();
                let c0 = proc.comm_stats().collective_ops;
                let _ = parallel_multi_select_in(
                    proc,
                    &mut a,
                    Vec::new(),
                    n_low,
                    &[0, n_low / 2],
                    &cfg(),
                );
                proc.comm_stats().collective_ops - c0
            })
            .unwrap()[0];
        assert!(
            shared < 2 * single,
            "two lockstep windows ({shared} collective ops) must beat two passes (2×{single})"
        );
    }

    #[test]
    fn reference_mode_changes_neither_answers_nor_rounds() {
        // The wall-clock contract: branchless kernels and the Floyd–Rivest
        // finisher may change only wall time — answers and the collective
        // sequence must be bit-identical to the scalar reference path. A
        // sparse rank set over a large window drives the FR finisher;
        // the dense set drives the sort path; both must agree.
        let p = 4;
        let parts: Vec<Vec<u64>> = (0..p)
            .map(|r| (0..2000).map(|i| ((i * 29 + r * 13) % 7919) as u64).collect())
            .collect();
        let n = (p * 2000) as u64;
        let rank_sets: Vec<Vec<u64>> =
            vec![vec![n / 2], vec![0, n / 4, n / 2, n - 1], (0..40).map(|i| i * n / 40).collect()];
        for ranks in rank_sets {
            let run = |reference: bool| {
                let out = cgselect_seqsel::with_scalar_reference_mode(reference, || {
                    cgselect_runtime::Machine::with_model(p, MachineModel::free())
                        .run(|proc| {
                            let c0 = proc.comm_stats().collective_ops;
                            let got = parallel_multi_select(
                                proc,
                                parts[proc.rank()].clone(),
                                &ranks,
                                &cfg(),
                            );
                            (got, proc.comm_stats().collective_ops - c0)
                        })
                        .unwrap()
                });
                out.into_iter().next().expect("p >= 1")
            };
            let (kernel_ans, kernel_rounds) = run(false);
            let (ref_ans, ref_rounds) = run(true);
            assert_eq!(kernel_ans, ref_ans, "answers must not depend on the kernel path");
            assert_eq!(kernel_rounds, ref_rounds, "rounds must not depend on the kernel path");
            assert_eq!(kernel_ans, oracle(&parts, &ranks));
        }
    }

    #[test]
    fn windows_with_empty_rank_lists_are_skipped() {
        let outs = cgselect_runtime::Machine::with_model(2, MachineModel::free())
            .run(|proc| {
                let mut data = vec![proc.rank() as u64 * 2, proc.rank() as u64 * 2 + 1];
                let windows =
                    vec![RankedWindow { slice: &mut data, extra: Vec::new(), n: 4, ranks: vec![] }];
                parallel_multi_select_windows(proc, windows, 0, &cfg())
            })
            .unwrap();
        assert!(outs.iter().all(|(got, carves)| got.is_empty() && carves == &[Vec::new()]));
    }
}
