//! Branchless, autovectorizable inner loops for the wall-clock hot paths.
//!
//! The per-element hot loops of the whole system are *prefix counting*
//! (`count_below`: how many elements fall at or below a probe value),
//! *bound partitioning* (`partition_bound`: split a slice into admitted /
//! rejected halves — the `≤ pivot` scan of the paper's Algorithms 1 and 3,
//! the bucket structure's splits, and the inner step of
//! [`crate::partition_by_bounds`]) and the *three-way partition*
//! (`partition3`: every selection algorithm's pivot or bracket cut). The
//! original loops are scalar and branchy — every element costs a
//! data-dependent branch, which on shuffled keys means a pipeline flush
//! about every other element.
//!
//! Every kernel here is a drop-in replacement obeying one contract:
//! **identical outputs, identical [`OpCount`] charges, identical output
//! permutation** — only the wall-clock time changes. The measured-cost
//! model that the conformance and round-parity suites pin (answers,
//! collective rounds, charged ops) is bit-for-bit untouched, while the loop
//! bodies are restructured so LLVM can emit SIMD for primitive keys
//! (`u32`/`u64`/`i64`): predicated sums instead of branches for counting,
//! and a count + branchless-compress + pair-swap scheme instead of the
//! branchy two-pointer walk for partitioning.
//!
//! The scalar originals are kept as `*_reference` functions (and
//! [`crate::partition_by_bounds_reference`], the multiway walk stepping with
//! [`partition_bound_reference`], and [`crate::partition3`]). No library
//! code calls them — there is no mode that routes through them, and the
//! `api_surface` test `library_code_calls_no_scalar_reference` fails if
//! one appears. They serve two purposes only: they are the test oracles
//! that the differential tests (proptest plus exhaustive small-pattern
//! sweeps) pin every kernel to, and the baseline the `wallclock` bench bin
//! (`BENCH_wall.json`) and the `perf` probes time the kernels against.

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
