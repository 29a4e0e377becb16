//! The scalar three-way partition and the insertion-sort base case.

use crate::ops::OpCount;

/// Three-way partition into `[< lo | lo ≤ · ≤ hi | > hi]`, returning
/// `(a, b)` such that `data[..a] < lo`, `data[a..b]` is within the closed
/// range, and `data[b..] > hi`.
///
/// With `lo == hi` this is the classic Dutch-flag partition around one pivot
/// value; with `lo < hi` it is Step 5 of the paper's fast randomized
/// selection ("Partition Lᵢ into < k₁, [k₁, k₂] and > k₂").
///
/// This is the scalar reference for [`crate::partition3_kernel`], which
/// every selection algorithm runs: the kernel is pinned to it move for move
/// and charge for charge. Only tests and the `perf` probes call it; it keeps
/// its name rather than `partition3_reference` because the probe
/// `seqsel.partition3_ns_per_elem` imports it under this one.
///
/// # Panics
/// Panics if `lo > hi`.
pub fn partition3<T: Copy + Ord>(
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
        ops.cmps += 1;
        if data[i] < lo {
            if lt != i {
                data.swap(lt, i);
                ops.moves += 3;
            }
            lt += 1;
            i += 1;
        } else {
            ops.cmps += 1;
            if data[i] > hi {
                gt -= 1;
                data.swap(i, gt);
                ops.moves += 3;
            } else {
                i += 1;
            }
        }
    }
    (lt, gt)
}

/// Insertion sort with measured costs; the base case of the selection
/// kernels (and the "sort directly once the problem is small" step of the
/// paper's sequential algorithms).
pub fn insertion_sort<T: Copy + Ord>(data: &mut [T], ops: &mut OpCount) {
    for i in 1..data.len() {
        let x = data[i];
        ops.moves += 1;
        let mut j = i;
        while j > 0 {
            ops.cmps += 1;
            if data[j - 1] > x {
                data[j] = data[j - 1];
                ops.moves += 1;
                j -= 1;
            } else {
                break;
            }
        }
        data[j] = x;
        ops.moves += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::{partition_bound_kernel, partition_bound_reference};
    use crate::splitters::SepBound;

    /// The `[≤ pivot | > pivot]` scan of the paper's Algorithms 1 and 3
    /// (Step 4), run by the kernel and by its scalar reference.
    fn check_partition_le(v: Vec<i64>, pivot: i64) {
        let mut orig = v.clone();
        orig.sort_unstable();
        type Partition = fn(&mut [i64], SepBound<i64>, &mut OpCount) -> usize;
        let runs: [Partition; 2] = [partition_bound_kernel, partition_bound_reference];
        for partition in runs {
            let mut w = v.clone();
            let mut ops = OpCount::new();
            let idx = partition(&mut w, SepBound::le(pivot), &mut ops);
            assert!(w[..idx].iter().all(|&x| x <= pivot), "{w:?} idx={idx}");
            assert!(w[idx..].iter().all(|&x| x > pivot), "{w:?} idx={idx}");
            let mut sorted = w.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, orig, "partition must permute, not alter");
            assert!(ops.cmps as usize >= w.len(), "every element is examined");
        }
    }

    #[test]
    fn partition_le_basics() {
        check_partition_le(vec![5, 1, 9, 3, 7, 2, 8], 5);
        check_partition_le(vec![1, 2, 3], 0); // pivot below everything
        check_partition_le(vec![1, 2, 3], 10); // pivot above everything
        check_partition_le(vec![4, 4, 4, 4], 4); // all equal to pivot
        check_partition_le(vec![], 4);
        check_partition_le(vec![7], 7);
        check_partition_le(vec![7], 6);
    }

    #[test]
    fn partition3_three_zones() {
        let mut v = vec![9, 1, 5, 5, 7, 0, 5, 3, 8, 2];
        let mut ops = OpCount::new();
        let (a, b) = partition3(&mut v, 3, 5, &mut ops);
        assert!(v[..a].iter().all(|&x| x < 3), "{v:?}");
        assert!(v[a..b].iter().all(|&x| (3..=5).contains(&x)), "{v:?}");
        assert!(v[b..].iter().all(|&x| x > 5), "{v:?}");
        assert_eq!(a, 3); // 1, 0, 2
        assert_eq!(b - a, 4); // 5, 5, 5, 3
    }

    #[test]
    fn partition3_single_pivot_handles_duplicates() {
        let mut v = vec![2; 100];
        let mut ops = OpCount::new();
        let (a, b) = partition3(&mut v, 2, 2, &mut ops);
        assert_eq!((a, b), (0, 100));
    }

    #[test]
    fn partition3_empty_and_degenerate() {
        let mut v: Vec<u8> = vec![];
        let mut ops = OpCount::new();
        assert_eq!(partition3(&mut v, 1, 2, &mut ops), (0, 0));
        let mut v = vec![10u8];
        assert_eq!(partition3(&mut v, 1, 2, &mut ops), (0, 0));
        let mut v = vec![0u8];
        assert_eq!(partition3(&mut v, 1, 2, &mut ops), (1, 1));
    }

    #[test]
    #[should_panic(expected = "lo <= hi")]
    fn partition3_rejects_inverted_range() {
        let mut v = vec![1, 2, 3];
        let mut ops = OpCount::new();
        let _ = partition3(&mut v, 5, 4, &mut ops);
    }

    #[test]
    fn insertion_sort_sorts_and_counts() {
        let mut v = vec![5, 3, 8, 1, 9, 2, 7];
        let mut ops = OpCount::new();
        insertion_sort(&mut v, &mut ops);
        assert_eq!(v, vec![1, 2, 3, 5, 7, 8, 9]);
        assert!(ops.cmps > 0 && ops.moves > 0);

        // Sorted input: n-1 comparisons, no shifting beyond bookkeeping.
        let mut v: Vec<u32> = (0..100).collect();
        let mut ops = OpCount::new();
        insertion_sort(&mut v, &mut ops);
        assert_eq!(ops.cmps, 99);
    }
}
