//! Branchless, autovectorizable inner loops for the wall-clock hot paths.
//!
//! The per-element hot loops of the whole system are *prefix counting*
//! (`count_below`: how many elements fall at or below a probe value),
//! *bound partitioning* (`partition_bound`: split a slice into admitted /
//! rejected halves — the bucket structure's splits and the inner step of
//! [`crate::partition_by_bounds`]), the *three-way partition*
//! (`partition3`: the pivot or bracket cut of quickselect, BFPRT, the
//! bucket structure, the engine's multi-select carve and fast randomized
//! selection's owned rounds) and the *zone narrowing* of the paper's
//! Algorithms 1, 3 and 4 (`count_zones`, then `keep_zone` or `copy_zone`). The original loops are scalar and branchy —
//! every element costs a data-dependent branch, which on shuffled keys
//! means a pipeline flush about every other element.
//!
//! The count and partition kernels are drop-in replacements obeying one
//! contract: **identical outputs, identical [`OpCount`] charges, identical
//! output permutation** — only the wall-clock time changes. The
//! measured-cost model that the conformance and round-parity suites pin
//! (answers, collective rounds, charged ops) is bit-for-bit untouched,
//! while the loop bodies are restructured so LLVM can emit SIMD for
//! primitive keys (`u32`/`u64`/`i64`): predicated sums instead of branches
//! for counting, and a count + branchless-compress + pair-swap scheme
//! instead of the branchy two-pointer walk for partitioning.
//!
//! The zone kernels replace a partition where only one side is ever read
//! again. A narrowing round needs the global zone sizes (one fused count,
//! then one Combine) and, afterwards, the one zone that holds the target:
//! [`keep_zone`] keeps it in place and in order, [`copy_zone`] copies it
//! out of a borrowed slice, and neither moves the discarded elements.
//! Their oracles are the standard library's: `iter().filter().count()` for
//! the count and `Vec::retain` for the keep.
//!
//! The scalar originals of the other kernels are kept as `*_reference`
//! functions (and [`crate::partition_by_bounds_reference`], the multiway
//! walk stepping with [`partition_bound_reference`], and
//! [`crate::partition3`]). No library code calls them — there is no mode
//! that routes through them, and the `api_surface` test
//! `library_code_calls_no_scalar_reference` fails if one appears. They
//! serve two purposes only: they are the test oracles that the differential
//! tests (proptest plus exhaustive small-pattern sweeps) pin every kernel
//! to, and the baseline the `wallclock` bench bin (`BENCH_wall.json`) and
//! the `perf` probes time the kernels against.

use crate::ops::OpCount;
use crate::splitters::SepBound;

/// Chunk width of the predicated-sum loops: small enough that a chunk's
/// partial sums live in registers, large enough that LLVM unrolls each
/// chunk into full-width SIMD lanes.
const LANES: usize = 64;

#[inline]
fn count_le_raw<T: Copy + Ord>(data: &[T], value: T) -> u64 {
    let mut total = 0u64;
    for chunk in data.chunks(LANES) {
        let mut acc = 0u32;
        for &x in chunk {
            acc += u32::from(x <= value);
        }
        total += u64::from(acc);
    }
    total
}

#[inline]
fn count_lt_raw<T: Copy + Ord>(data: &[T], value: T) -> u64 {
    let mut total = 0u64;
    for chunk in data.chunks(LANES) {
        let mut acc = 0u32;
        for &x in chunk {
            acc += u32::from(x < value);
        }
        total += u64::from(acc);
    }
    total
}

/// Number of elements the bound admits, without charging — the shared
/// counting pass of the kernels below.
#[inline]
fn count_by_bound_raw<T: Copy + Ord>(data: &[T], bound: SepBound<T>) -> u64 {
    if bound.inclusive {
        count_le_raw(data, bound.value)
    } else {
        count_lt_raw(data, bound.value)
    }
}

/// Branchless prefix count: how many elements are `<= value` (inclusive) or
/// `< value` (exclusive). Charges one comparison per element, exactly like
/// [`count_below_reference`]; the loop body is a predicated sum that LLVM
/// autovectorizes for primitive keys.
pub fn count_below_kernel<T: Copy + Ord>(
    data: &[T],
    value: T,
    inclusive: bool,
    cmps: &mut u64,
) -> u64 {
    *cmps += data.len() as u64;
    if inclusive {
        count_le_raw(data, value)
    } else {
        count_lt_raw(data, value)
    }
}

/// The scalar prefix-count loop the engine's probe phase originally ran:
/// a filtered iterator with the inclusivity branch inside the predicate.
/// Kept as the differential-test reference and the wall-clock baseline.
pub fn count_below_reference<T: Copy + Ord>(
    data: &[T],
    value: T,
    inclusive: bool,
    cmps: &mut u64,
) -> u64 {
    *cmps += data.len() as u64;
    data.iter().filter(|&&x| if inclusive { x <= value } else { x < value }).count() as u64
}

/// One of the three zones a bracket `[lo, hi]` (`lo ≤ hi`) cuts a multiset
/// into. A single pivot is the bracket `[p, p]`, whose middle zone is the
/// pivot's equality class.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Zone {
    /// `x < lo`.
    Below,
    /// `lo ≤ x ≤ hi`.
    Between,
    /// `x > hi`.
    Above,
}

impl Zone {
    /// Comparisons one membership test makes.
    fn cmps(self) -> u64 {
        match self {
            Zone::Between => 2,
            Zone::Below | Zone::Above => 1,
        }
    }
}

/// What one [`count_zones`] sweep learns about a slice: the sizes of its
/// three zones, and whether they already lie in ascending order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ZoneCounts {
    /// Sizes of the zones `(< lo, [lo, hi], > hi)`.
    pub sizes: (u64, u64, u64),
    /// Every `x < lo` precedes every other element.
    below_first: bool,
    /// Every `x > hi` follows every other element.
    above_last: bool,
}

impl ZoneCounts {
    /// Number of elements in `zone`.
    pub fn size(&self, zone: Zone) -> usize {
        let (below, between, above) = self.sizes;
        (match zone {
            Zone::Below => below,
            Zone::Between => between,
            Zone::Above => above,
        }) as usize
    }

    /// Where `zone` starts when it is one block already in ascending place.
    fn block(&self, zone: Zone) -> Option<usize> {
        let (below, between, _) = self.sizes;
        match zone {
            Zone::Below => self.below_first.then_some(0),
            Zone::Between => (self.below_first && self.above_last).then_some(below as usize),
            Zone::Above => self.above_last.then_some((below + between) as usize),
        }
    }
}

/// Fused zone count: the sizes of the zones `(< lo, [lo, hi], > hi)` in one
/// branchless sweep of predicated sums that LLVM autovectorizes for
/// primitive keys. Per chunk the sweep also notes the last chunk holding an
/// `x < lo` and the first holding an `x > hi`; one scan of each of those
/// two chunks then tells whether the zones already lie in ascending order
/// (as a sorted input's do), in which case [`keep_zone`] and [`copy_zone`]
/// move the kept zone as one block and test nothing.
///
/// A single pivot (`lo == hi`) classifies each element with one three-way
/// comparison (`<`, `=` or `>` the pivot) and is charged one comparison per
/// element, as the paper's pivot scan is; the sweep sums `x == lo` in place
/// of `x ≤ hi`, the cheaper vector comparison. A bracket costs two
/// comparisons per element. The two chunk scans are charged as made.
pub fn count_zones<T: Copy + Ord>(data: &[T], lo: T, hi: T, ops: &mut OpCount) -> ZoneCounts {
    assert!(lo <= hi, "count_zones requires lo <= hi");
    ops.cmps += if lo == hi { 1 } else { 2 } * data.len() as u64;
    let sweep = if lo == hi {
        zone_sweep(data, |x| x < lo, |x| x == lo, |lt, eq| lt + eq)
    } else {
        zone_sweep(data, |x| x < lo, |x| x <= hi, |_, le| le)
    };
    let (lt, le) = (sweep.lt as usize, sweep.le as usize);
    // The last `x < lo` sits at `lt − 1` exactly when all of them come first.
    let below_first = sweep.last_below_chunk.is_none_or(|c| {
        let chunk = &data[c * LANES..data.len().min((c + 1) * LANES)];
        let from_end = chunk.iter().rev().take_while(|&&x| x >= lo).count();
        ops.cmps += from_end as u64 + 1;
        c * LANES + chunk.len() - from_end == lt
    });
    // The first `x > hi` sits at `le` exactly when all of them come last.
    let above_last = sweep.first_above_chunk.is_none_or(|c| {
        let chunk = &data[c * LANES..data.len().min((c + 1) * LANES)];
        let before = chunk.iter().take_while(|&&x| x <= hi).count();
        ops.cmps += before as u64 + 1;
        c * LANES + before == le
    });
    ZoneCounts {
        sizes: (sweep.lt, sweep.le - sweep.lt, (data.len() - le) as u64),
        below_first,
        above_last,
    }
}

/// Totals of one zone sweep, and the chunks that hold the last `x < lo`
/// and the first `x > hi`.
struct Sweep {
    lt: u64,
    le: u64,
    last_below_chunk: Option<usize>,
    first_above_chunk: Option<usize>,
}

/// Sums `below` and `b` per chunk; `le` turns a chunk's two sums into its
/// count of `x ≤ hi`.
#[inline]
fn zone_sweep<T: Copy>(
    data: &[T],
    below: impl Fn(T) -> bool,
    b: impl Fn(T) -> bool,
    le: impl Fn(u32, u32) -> u32,
) -> Sweep {
    let mut sweep = Sweep { lt: 0, le: 0, last_below_chunk: None, first_above_chunk: None };
    for (c, chunk) in data.chunks(LANES).enumerate() {
        let (mut acc_lt, mut acc_b) = (0u32, 0u32);
        for &x in chunk {
            acc_lt += u32::from(below(x));
            acc_b += u32::from(b(x));
        }
        let acc_le = le(acc_lt, acc_b);
        if acc_lt > 0 {
            sweep.last_below_chunk = Some(c);
        }
        if sweep.first_above_chunk.is_none() && (acc_le as usize) < chunk.len() {
            sweep.first_above_chunk = Some(c);
        }
        sweep.lt += u64::from(acc_lt);
        sweep.le += u64::from(acc_le);
    }
    sweep
}

/// Keeps, in place and in their order, the elements of `data` that lie in
/// `zone` of `[lo, hi]`, given the slice's [`count_zones`] result; the rest
/// are dropped.
///
/// The counts make four shortcuts exact: keeping everything touches
/// nothing, keeping nothing clears, a zone already in ascending place moves
/// as one block with no test, and otherwise the scan skips the rejected
/// elements before the first survivor and the run of survivors that starts
/// there (moved as one block), and stops as soon as the last survivor has
/// been written. Between those points the compaction is branchless: every
/// element is stored at the write cursor, which advances by the membership
/// bit. Charges one comparison per membership test and one move per
/// survivor that changes place.
///
/// # Panics
/// Panics if `lo > hi`, and may panic if `counts` is not `data`'s.
pub fn keep_zone<T: Copy + Ord>(
    data: &mut Vec<T>,
    lo: T,
    hi: T,
    zone: Zone,
    counts: ZoneCounts,
    ops: &mut OpCount,
) {
    assert!(lo <= hi, "keep_zone requires lo <= hi");
    let kept = counts.size(zone);
    assert!(kept <= data.len(), "keep_zone: {kept} survivors of {} elements", data.len());
    if kept == data.len() {
        return;
    }
    if let Some(start) = counts.block(zone) {
        if start > 0 && kept > 0 {
            data.copy_within(start..start + kept, 0);
            ops.moves += kept as u64;
        }
    } else if kept > 0 {
        let (tested, moved) = match zone {
            Zone::Below => compact(data, kept, |x| x < lo),
            Zone::Between => compact(data, kept, |x| (lo <= x) & (x <= hi)),
            Zone::Above => compact(data, kept, |x| x > hi),
        };
        ops.cmps += zone.cmps() * tested;
        ops.moves += moved;
    }
    data.truncate(kept);
}

/// [`keep_zone`] from a borrowed slice: appends to `out` exactly the
/// elements of `data` that lie in `zone` of `[lo, hi]`, in their order,
/// reserving room for them first. Takes the same shortcuts as
/// [`keep_zone`], and copies the first run of survivors as one block.
/// Charges one comparison per membership test and one move per survivor.
///
/// # Panics
/// Panics if `lo > hi`, and may panic if `counts` is not `data`'s.
pub fn copy_zone<T: Copy + Ord>(
    data: &[T],
    lo: T,
    hi: T,
    zone: Zone,
    counts: ZoneCounts,
    out: &mut Vec<T>,
    ops: &mut OpCount,
) {
    assert!(lo <= hi, "copy_zone requires lo <= hi");
    let kept = counts.size(zone);
    assert!(kept <= data.len(), "copy_zone: {kept} survivors of {} elements", data.len());
    if kept == 0 {
        return;
    }
    ops.moves += kept as u64;
    let start = if kept == data.len() { Some(0) } else { counts.block(zone) };
    if let Some(start) = start {
        out.extend_from_slice(&data[start..start + kept]);
        return;
    }
    out.reserve(kept);
    let tested = match zone {
        Zone::Below => copy_compact(data, out, kept, |x| x < lo),
        Zone::Between => copy_compact(data, out, kept, |x| (lo <= x) & (x <= hi)),
        Zone::Above => copy_compact(data, out, kept, |x| x > hi),
    };
    ops.cmps += zone.cmps() * tested;
}

/// Length of the leading run of `data` whose elements all satisfy `keep`.
/// Whole chunks are classified by a predicated count, so long runs are
/// crossed at vector speed.
#[inline]
fn leading_run<T: Copy>(data: &[T], keep: &impl Fn(T) -> bool) -> usize {
    let mut run = 0;
    for chunk in data.chunks(LANES) {
        let members = chunk.iter().map(|&x| u32::from(keep(x))).sum::<u32>() as usize;
        if members < chunk.len() {
            return run + chunk.iter().take_while(|&&x| keep(x)).count();
        }
        run += chunk.len();
    }
    run
}

/// Locates the settled part of a keep of `1 ≤ kept < len` survivors: the
/// first survivor's position `start` and the length `run ≥ 1` of the run of
/// survivors beginning there.
#[inline]
fn first_run<T: Copy>(data: &[T], kept: usize, keep: &impl Fn(T) -> bool) -> (usize, usize) {
    let start = leading_run(data, &|x| !keep(x));
    (start, leading_run(&data[start..start + kept], keep))
}

/// Stable compaction of the `kept` elements satisfying `keep` to the front
/// of `data`: the first run moves as a block, the rest through the
/// branchless cursor. Returns `(membership tests, survivors moved)`, the
/// tests being one per element up to the last survivor.
#[inline]
fn compact<T: Copy>(data: &mut [T], kept: usize, keep: impl Fn(T) -> bool) -> (u64, u64) {
    let (start, run) = first_run(data, kept, &keep);
    let block = if start > 0 { run } else { 0 };
    if block > 0 {
        data.copy_within(start..start + run, 0);
    }
    if run == kept {
        return ((start + run) as u64, block as u64);
    }
    // `data[start + run]` ended the run, so it is out of the zone.
    let (mut w, mut i) = (run, start + run + 1);
    while w < kept {
        let x = data[i];
        data[w] = x;
        w += usize::from(keep(x));
        i += 1;
    }
    (i as u64, (block + kept - run) as u64)
}

/// [`compact`] appending to `out`: the first run is copied as a block, the
/// rest through the branchless cursor over a pre-filled tail. Returns the
/// number of membership tests.
#[inline]
fn copy_compact<T: Copy>(
    data: &[T],
    out: &mut Vec<T>,
    kept: usize,
    keep: impl Fn(T) -> bool,
) -> u64 {
    let (start, run) = first_run(data, kept, &keep);
    let base = out.len();
    out.extend_from_slice(&data[start..start + run]);
    if run == kept {
        return (start + run) as u64;
    }
    out.resize(base + kept, data[start]);
    let tail = &mut out[base..];
    // `data[start + run]` ended the run, so it is out of the zone.
    let (mut w, mut i) = (run, start + run + 1);
    while w < kept {
        let x = data[i];
        tail[w] = x;
        w += usize::from(keep(x));
        i += 1;
    }
    i as u64
}

/// The original two-pointer bound partition (scan from both ends, swap the
/// first misplaced pair, repeat): `[admitted | rejected]`, returning the
/// number of admitted elements. Kept as the differential-test reference and
/// the wall-clock baseline for [`partition_bound_kernel`].
pub fn partition_bound_reference<T: Copy + Ord>(
    data: &mut [T],
    bound: SepBound<T>,
    ops: &mut OpCount,
) -> usize {
    let mut i = 0usize;
    let mut j = data.len();
    loop {
        while i < j {
            ops.cmps += 1;
            if bound.admits(&data[i]) {
                i += 1;
            } else {
                break;
            }
        }
        while i < j {
            ops.cmps += 1;
            if !bound.admits(&data[j - 1]) {
                j -= 1;
            } else {
                break;
            }
        }
        if i >= j {
            return i;
        }
        data.swap(i, j - 1);
        ops.moves += 3;
        i += 1;
        j -= 1;
    }
}

/// Block width of the partition kernel's compress loops: the offset
/// buffers live on the stack and stay L1-resident, and every swap's
/// partners come from blocks scanned moments earlier, so the data is still
/// in cache when it is moved.
const BLOCK: usize = 128;

/// Branchless bound partition: identical permutation and identical
/// [`OpCount`] charges as [`partition_bound_reference`], restructured in
/// the style of a block partition (Edelkamp & Weiß's BlockQuicksort) so
/// the hot loops carry no data-dependent branches.
///
/// 1. A predicated-sum pass computes the admitted count `a` (SIMD) — the
///    exact spot where the reference's two pointers meet.
/// 2. Fixed-size blocks are scanned from both ends toward that cut, each
///    block compressing its misplaced positions (rejected in `[0, a)`,
///    admitted in `[a, n)`) into a stack buffer with a branch-free guarded
///    index write.
/// 3. Buffered positions are swapped pairwise as soon as both sides hold
///    some, replaying the reference walk's exact pairing: the k-th
///    smallest misplaced-low position with the k-th *largest*
///    misplaced-high position.
///
/// Knowing `a` up front is what makes the easy version of the block scheme
/// correct here: blocks never cross the cut, so every buffered position is
/// genuinely misplaced, both sides buffer exactly the same total, and no
/// leftover-cleanup pass (which would perturb the permutation) exists.
///
/// The reference's data-dependent comparison count has a closed form the
/// kernel charges directly: every position is tested once, plus one
/// double-test of position `a` iff the backward pointer has to walk through
/// a rejected run to meet the stuck forward pointer (`a < a_S`, where `a_S`
/// is the smallest admitted position at or above `a`; `n` when no swap
/// happens). The `exhaustive_patterns_match_reference` test proves the form
/// against the reference over every admit/reject pattern up to n = 12.
pub fn partition_bound_kernel<T: Copy + Ord>(
    data: &mut [T],
    bound: SepBound<T>,
    ops: &mut OpCount,
) -> usize {
    let n = data.len();
    let a = count_by_bound_raw(data, bound) as usize;
    // Misplaced positions buffered per block; writes stay in-bounds because
    // a block never holds more than BLOCK misplaced elements.
    let mut offs_l = [0usize; BLOCK];
    let mut offs_r = [0usize; BLOCK];
    let (mut num_l, mut num_r) = (0usize, 0usize);
    let (mut start_l, mut start_r) = (0usize, 0usize);
    let mut lb = 0usize; // next unscanned low-side position
    let mut rb = n; // high side is scanned downward from rb - 1
    let mut s = 0u64;
    let mut a_s = n; // smallest admitted position at or above `a` so far
    loop {
        while num_l == 0 && lb < a {
            let size = BLOCK.min(a - lb);
            for k in 0..size {
                offs_l[num_l] = lb + k;
                num_l += usize::from(!bound.admits(&data[lb + k]));
            }
            lb += size;
            start_l = 0;
        }
        if num_l == 0 {
            break; // low side fully scanned and fully paired: done
        }
        while num_r == 0 && rb > a {
            let size = BLOCK.min(rb - a);
            for k in 0..size {
                offs_r[num_r] = rb - 1 - k;
                num_r += usize::from(bound.admits(&data[rb - 1 - k]));
            }
            rb -= size;
            start_r = 0;
        }
        debug_assert!(num_r > 0, "misplaced counts must pair up");
        let pairs = num_l.min(num_r);
        for k in 0..pairs {
            data.swap(offs_l[start_l + k], offs_r[start_r + k]);
        }
        start_l += pairs;
        start_r += pairs;
        num_l -= pairs;
        num_r -= pairs;
        // The high side is scanned in descending order, so the last swap of
        // this round touched the smallest admitted-high position yet seen.
        a_s = offs_r[start_r - 1];
        s += pairs as u64;
    }
    ops.cmps += n as u64 + u64::from(a < a_s);
    ops.moves += 3 * s;
    a
}

/// Three-way partition with the exact permutation and charges of its scalar
/// reference [`crate::partition3`], restructured so both comparisons of an
/// element are computed up front as flags (one setcc each) instead of a
/// dependent branch chain. The swap decisions still branch — the Dutch-flag
/// permutation is inherently sequential, and multi-select pivot choices
/// depend on physical element order, so this loop must reproduce it
/// move-for-move. Charges replicate the reference's short-circuit counting:
/// one comparison when `x < lo`, two otherwise.
pub fn partition3_kernel<T: Copy + Ord>(
    data: &mut [T],
    lo: T,
    hi: T,
    ops: &mut OpCount,
) -> (usize, usize) {
    assert!(lo <= hi, "partition3 requires lo <= hi");
    let mut lt = 0usize;
    let mut i = 0usize;
    let mut gt = data.len();
    // Invariant: data[..lt] < lo, data[lt..i] in [lo, hi], data[gt..] > hi.
    while i < gt {
        let x = data[i];
        let is_lt = x < lo;
        let is_gt = x > hi;
        ops.cmps += 2 - u64::from(is_lt);
        if is_lt {
            if lt != i {
                data.swap(lt, i);
                ops.moves += 3;
            }
            lt += 1;
            i += 1;
        } else if is_gt {
            gt -= 1;
            data.swap(i, gt);
            ops.moves += 3;
        } else {
            i += 1;
        }
    }
    (lt, gt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::partition3;
    use crate::rng::KernelRng;

    fn check_partition_pair<T: Copy + Ord + std::fmt::Debug>(data: &[T], bound: SepBound<T>) {
        let mut a = data.to_vec();
        let mut b = data.to_vec();
        let mut ops_a = OpCount::new();
        let mut ops_b = OpCount::new();
        let cut_a = partition_bound_reference(&mut a, bound, &mut ops_a);
        let cut_b = partition_bound_kernel(&mut b, bound, &mut ops_b);
        assert_eq!(cut_a, cut_b, "cut for {data:?} by {bound:?}");
        assert_eq!(a, b, "permutation for {data:?} by {bound:?}");
        assert_eq!(ops_a, ops_b, "charges for {data:?} by {bound:?}");
    }

    #[test]
    fn exhaustive_patterns_match_reference() {
        // Every admit/reject pattern up to n = 12: elements are 0 (admitted)
        // or 1 (rejected) against the bound `x <= 0`. This is exhaustive
        // over the partition's decision space — the walk only observes the
        // admit bit — so it proves the closed-form charge in the kernel.
        for n in 0..=12usize {
            for pattern in 0u32..(1 << n) {
                let data: Vec<u64> = (0..n).map(|i| u64::from(pattern >> i & 1)).collect();
                check_partition_pair(&data, SepBound::le(0u64));
            }
        }
    }

    #[test]
    fn random_and_adversarial_inputs_match_reference() {
        let mut rng = KernelRng::new(97);
        for len in [0usize, 1, 2, 3, 7, 64, 65, 1000] {
            let random: Vec<u64> = (0..len).map(|_| rng.next_u64() % 50).collect();
            let sorted: Vec<u64> = (0..len as u64).collect();
            let reverse: Vec<u64> = (0..len as u64).rev().collect();
            let equal: Vec<u64> = vec![7; len];
            for data in [&random, &sorted, &reverse, &equal] {
                for v in [0u64, 7, 25, 49, 1000] {
                    check_partition_pair(data, SepBound::le(v));
                    check_partition_pair(data, SepBound::lt(v));
                }
            }
        }
        // Hand-picked edges: a mixed slice around one of its own values, a
        // bound below and above every element, all elements equal to the
        // bound, the empty slice and a single element on either side.
        let edges: [(&[u64], u64); 7] = [
            (&[5, 1, 9, 3, 7, 2, 8], 5),
            (&[1, 2, 3], 0),
            (&[1, 2, 3], 10),
            (&[4, 4, 4, 4], 4),
            (&[], 4),
            (&[7], 7),
            (&[7], 6),
        ];
        for (data, v) in edges {
            check_partition_pair(data, SepBound::le(v));
            check_partition_pair(data, SepBound::lt(v));
        }
    }

    #[test]
    fn count_kernel_matches_reference_across_key_types() {
        let mut rng = KernelRng::new(11);
        macro_rules! check_type {
            ($t:ty, $conv:expr) => {
                for len in [0usize, 1, 63, 64, 65, 513] {
                    let data: Vec<$t> = (0..len).map(|_| $conv(rng.next_u64())).collect();
                    for &v in data.iter().take(5).chain([&$conv(0), &$conv(u64::MAX)]) {
                        for inclusive in [false, true] {
                            let mut c_ref = 0u64;
                            let mut c_ker = 0u64;
                            assert_eq!(
                                count_below_reference(&data, v, inclusive, &mut c_ref),
                                count_below_kernel(&data, v, inclusive, &mut c_ker),
                            );
                            assert_eq!(c_ref, c_ker);
                        }
                    }
                }
            };
        }
        check_type!(u64, |x| x);
        check_type!(u32, |x| x as u32);
        check_type!(i64, |x| x as i64);
    }

    /// Checks the fused count against `filter().count()`, and for every zone
    /// the in-place keep against `Vec::retain` and the copying keep (onto a
    /// non-empty vector) against `filter().collect()` — order included.
    fn check_zones<T: Copy + Ord + std::fmt::Debug>(data: &[T], lo: T, hi: T) {
        let mut ops = OpCount::new();
        let counts = count_zones(data, lo, hi, &mut ops);
        let lt = data.iter().filter(|&&x| x < lo).count() as u64;
        let le = data.iter().filter(|&&x| x <= hi).count() as u64;
        let n = data.len() as u64;
        assert_eq!(counts.sizes, (lt, le - lt, n - le), "{data:?} [{lo:?}, {hi:?}]");
        let sweep = if lo == hi { n } else { 2 * n };
        assert!((sweep..=sweep + 2 * 65).contains(&ops.cmps), "count charges {}", ops.cmps);
        for zone in [Zone::Below, Zone::Between, Zone::Above] {
            let kept = counts.size(zone) as u64;
            let holds = |x: T| match zone {
                Zone::Below => x < lo,
                Zone::Between => lo <= x && x <= hi,
                Zone::Above => x > hi,
            };
            let mut want = data.to_vec();
            want.retain(|&x| holds(x));

            let mut got = data.to_vec();
            let mut ops = OpCount::new();
            keep_zone(&mut got, lo, hi, zone, counts, &mut ops);
            assert_eq!(got, want, "keep {zone:?} of {data:?} [{lo:?}, {hi:?}]");
            assert!(ops.cmps <= zone.cmps() * n && ops.moves <= kept);
            if kept == n || kept == 0 {
                assert_eq!(ops, OpCount::new(), "keep-all and keep-none do no work");
            }

            let mut out = data[..data.len().min(2)].to_vec();
            let mut ops = OpCount::new();
            copy_zone(data, lo, hi, zone, counts, &mut out, &mut ops);
            let head = data.len().min(2);
            assert_eq!(&out[..head], &data[..head], "copy_zone appends");
            assert_eq!(out[head..], want[..], "copy {zone:?} of {data:?} [{lo:?}, {hi:?}]");
            assert_eq!(ops.moves, kept);
        }
    }

    #[test]
    fn zone_kernels_match_filter_and_retain_across_key_types() {
        let mut rng = KernelRng::new(43);
        macro_rules! check_type {
            ($t:ty, $conv:expr) => {
                for len in [0usize, 1, 2, 5, 63, 64, 65, 300] {
                    let random: Vec<$t> = (0..len).map(|_| $conv(rng.next_u64())).collect();
                    let dups: Vec<$t> = (0..len).map(|_| $conv(rng.next_u64() % 4)).collect();
                    let two: Vec<$t> = (0..len).map(|i| $conv((i % 2) as u64)).collect();
                    let equal: Vec<$t> = vec![$conv(3); len];
                    let mut sorted = random.clone();
                    sorted.sort_unstable();
                    let reverse: Vec<$t> = sorted.iter().rev().copied().collect();
                    let mut sorted_dups = dups.clone();
                    sorted_dups.sort_unstable();
                    for data in [&random, &dups, &two, &equal, &sorted, &reverse, &sorted_dups] {
                        let mut probes: Vec<$t> = data.iter().take(4).copied().collect();
                        probes.extend([$conv(0), $conv(1), $conv(3), $conv(u64::MAX)]);
                        for &a in &probes {
                            for &b in &probes {
                                check_zones(data, a.min(b), a.max(b));
                            }
                        }
                    }
                }
            };
        }
        check_type!(u64, |x| x);
        check_type!(u32, |x| x as u32);
        check_type!(i64, |x| x as i64);
    }

    #[test]
    fn keep_tests_only_what_is_unsettled() {
        let keep = |data: &[u64], lo: u64, hi: u64, zone: Zone| {
            let mut v = data.to_vec();
            let counts = count_zones(&v, lo, hi, &mut OpCount::new());
            let mut ops = OpCount::new();
            keep_zone(&mut v, lo, hi, zone, counts, &mut ops);
            (v, ops)
        };
        // Zones in ascending place (sorted data) move as one block and are
        // not tested again.
        let sorted: Vec<u64> = (0..100).collect();
        let (v, ops) = keep(&sorted, 30, 39, Zone::Between);
        assert_eq!((v, ops), ((30..40).collect(), OpCount { cmps: 0, moves: 10 }));
        let (v, ops) = keep(&sorted, 10, 10, Zone::Below);
        assert_eq!((v, ops), ((0..10).collect(), OpCount::new()));
        let (v, ops) = keep(&sorted, 89, 89, Zone::Above);
        assert_eq!((v, ops), ((90..100).collect(), OpCount { cmps: 0, moves: 10 }));
        // Otherwise the scan skips the rejected prefix, moves the first run
        // as a block and ends at the last survivor.
        let (v, ops) = keep(&[9, 1, 9, 2, 9, 9, 9, 9], 5, 5, Zone::Below);
        assert_eq!((v, ops), (vec![1, 2], OpCount { cmps: 4, moves: 2 }));
        let reverse: Vec<u64> = (0..100).rev().collect();
        let (v, ops) = keep(&reverse, 89, 89, Zone::Above);
        assert_eq!((v, ops), ((90..100).rev().collect(), OpCount { cmps: 10, moves: 0 }));
    }

    #[test]
    fn partition3_kernel_matches_partition3() {
        let mut rng = KernelRng::new(31);
        for len in [0usize, 1, 2, 17, 256] {
            for _ in 0..8 {
                let data: Vec<i64> = (0..len).map(|_| (rng.next_u64() % 21) as i64 - 10).collect();
                for (lo, hi) in [(-3i64, 4), (0, 0), (-10, 10), (5, 5)] {
                    let mut a = data.clone();
                    let mut b = data.clone();
                    let mut ops_a = OpCount::new();
                    let mut ops_b = OpCount::new();
                    let ra = partition3(&mut a, lo, hi, &mut ops_a);
                    let rb = partition3_kernel(&mut b, lo, hi, &mut ops_b);
                    assert_eq!(ra, rb);
                    assert_eq!(a, b, "permutation must match for {data:?} [{lo}, {hi}]");
                    assert_eq!(ops_a, ops_b, "charges must match for {data:?} [{lo}, {hi}]");
                }
            }
        }
    }
}
