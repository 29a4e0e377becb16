//! Shared-splitter bucket boundaries for distributed bucket indexes.
//!
//! The paper's bucket structure ([`crate::Buckets`]) is *local*: every
//! processor derives its own separators from its own data. A distributed
//! engine that wants a *global* per-bucket histogram needs the opposite —
//! one splitter vector agreed by all processors, against which each shard
//! partitions its local data so that "bucket `i`" means the same value
//! range everywhere (Nowicki's regular-sampling multiple selection works
//! this way).
//!
//! A splitter here is a [`SepBound`] — an upper boundary that is either
//! *inclusive* (`x ≤ v`) or *exclusive* (`x < v`). The exclusive flavour is
//! what lets a refinement isolate an exact equality class: inserting the
//! pair `(v, exclusive), (v, inclusive)` around a resolved answer `v`
//! carves the buckets `(…, v)`, `[v, v]`, `(v, …)` — and a bucket that is
//! a pure equality class can later be answered from counts alone, with no
//! element scan. Because both bounds mention only the shared value `v`,
//! every shard splits identically and the global histogram stays valid.

use crate::kernels::{partition_bound_kernel, partition_bound_reference, scalar_reference_mode};
use crate::ops::OpCount;

/// An upper bucket boundary: admits `x ≤ value` (inclusive) or `x < value`
/// (exclusive).
///
/// Bounds are totally ordered by `(value, inclusive)` with the exclusive
/// bound *first*, so a sorted bound vector `s₀ < s₁ < …` defines buckets
/// `B₀ = {x : s₀ admits x}`, `Bᵢ = {x : sᵢ admits x, sᵢ₋₁ does not}`, plus
/// a final bucket for everything no bound admits.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct SepBound<T> {
    /// The boundary value.
    pub value: T,
    /// `false`: the bucket below this bound excludes `value` itself.
    pub inclusive: bool,
}

impl<T: Copy + Ord> SepBound<T> {
    /// An inclusive boundary (`x ≤ value` falls below it).
    pub fn le(value: T) -> Self {
        SepBound { value, inclusive: true }
    }

    /// An exclusive boundary (`x < value` falls below it).
    pub fn lt(value: T) -> Self {
        SepBound { value, inclusive: false }
    }

    /// True if `x` belongs at or below this boundary.
    #[inline]
    pub fn admits(&self, x: &T) -> bool {
        if self.inclusive {
            *x <= self.value
        } else {
            *x < self.value
        }
    }
}

/// The index of the bucket `x` belongs to under sorted `bounds` (buckets
/// number `0 ..= bounds.len()`): the first bound admitting `x`, or
/// `bounds.len()` when none does. `O(log B)` comparisons, charged to `ops`.
pub fn bucket_of<T: Copy + Ord>(bounds: &[SepBound<T>], x: &T, ops: &mut OpCount) -> usize {
    let mut cmps = 0u64;
    let idx = bounds.partition_point(|b| {
        cmps += 1;
        !b.admits(x)
    });
    ops.cmps += cmps.max(1);
    idx
}

/// Number of comparisons [`bucket_of`] charges for one lookup among `len`
/// sorted bounds. The standard library's `partition_point` runs a
/// branchless size-halving bisection that probes exactly
/// `⌈log₂ len⌉ + 1` times regardless of where the target lands (replayed
/// here as the same size-halving loop), and `bucket_of` floors the charge
/// at 1. This lets a batch merge charge exactly what the per-probe binary
/// searches it replaces would have charged, without performing them. A
/// grid test pins it against the real [`bucket_of`] so any change to the
/// standard library's bisection schedule is caught immediately.
pub fn bucket_search_cmps(len: usize) -> u64 {
    let mut size = len;
    let mut cmps = 0u64;
    while size > 1 {
        size -= size / 2;
        cmps += 1;
    }
    if len > 0 {
        cmps += 1;
    }
    cmps.max(1)
}

/// Multiway in-place partition of `data` by strictly increasing `bounds`:
/// afterwards the elements of bucket `i` occupy `data[ret[i]..ret[i+1]]`.
///
/// Returns the bucket offsets — `bounds.len() + 2` entries, first `0`, last
/// `data.len()`, non-decreasing (empty buckets are allowed, unlike the
/// local [`crate::Buckets`] structure). Iterative halving over the bound
/// vector (an explicit worklist, safe for worker-thread stacks at any
/// bound-set size): `O(n log B)` measured comparisons. Each halving step
/// runs the branchless [`crate::partition_bound_kernel`] — or the scalar
/// reference walk under [`crate::with_scalar_reference_mode`] — both of
/// which charge identical measured costs.
///
/// # Panics
/// Panics (debug builds) if `bounds` is not strictly increasing.
pub fn partition_by_bounds<T: Copy + Ord>(
    data: &mut [T],
    bounds: &[SepBound<T>],
    ops: &mut OpCount,
) -> Vec<usize> {
    debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]), "bounds must be strictly increasing");
    let mut offsets = vec![0usize; bounds.len() + 2];
    *offsets.last_mut().expect("non-empty") = data.len();
    let reference = scalar_reference_mode();
    // Worklist entries (dlo, dhi, blo, bhi): partition data[dlo..dhi] by
    // bounds[blo..bhi]. Children are pushed right-then-left so pops replay
    // the old recursion's depth-first order exactly.
    let mut work = vec![(0usize, data.len(), 0usize, bounds.len())];
    while let Some((dlo, dhi, blo, bhi)) = work.pop() {
        if blo == bhi {
            continue;
        }
        let mid = blo + (bhi - blo) / 2;
        let seg = &mut data[dlo..dhi];
        let cut = if reference {
            partition_bound_reference(seg, bounds[mid], ops)
        } else {
            partition_bound_kernel(seg, bounds[mid], ops)
        };
        // Everything in seg[..cut] falls at or below bounds[mid]; the
        // bucket starting after bounds[mid] therefore begins at dlo + cut.
        offsets[mid + 1] = dlo + cut;
        work.push((dlo + cut, dhi, mid + 1, bhi));
        work.push((dlo, dlo + cut, blo, mid));
    }
    offsets
}

#[cfg(test)]
mod tests {
    use super::*;

    fn oracle_bucket(bounds: &[SepBound<u64>], x: u64) -> usize {
        bounds.iter().position(|b| b.admits(&x)).unwrap_or(bounds.len())
    }

    #[test]
    fn bound_ordering_puts_exclusive_first() {
        assert!(SepBound::lt(5u64) < SepBound::le(5u64));
        assert!(SepBound::le(4u64) < SepBound::lt(5u64));
        assert!(!SepBound::lt(5u64).admits(&5));
        assert!(SepBound::le(5u64).admits(&5));
        assert!(SepBound::lt(5u64).admits(&4));
    }

    #[test]
    fn bucket_of_matches_linear_scan() {
        let bounds =
            vec![SepBound::le(10u64), SepBound::lt(20), SepBound::le(20), SepBound::le(35)];
        let mut ops = OpCount::new();
        for x in [0u64, 10, 11, 19, 20, 21, 35, 36, 1000] {
            assert_eq!(bucket_of(&bounds, &x, &mut ops), oracle_bucket(&bounds, x), "x={x}");
        }
        assert!(ops.cmps > 0);
    }

    #[test]
    fn eq_class_isolation_via_paired_bounds() {
        // (v, exclusive) + (v, inclusive) carve out the pure equality class.
        let bounds = vec![SepBound::lt(7u64), SepBound::le(7)];
        let mut data = vec![9u64, 7, 1, 7, 3, 7, 12, 0, 7];
        let mut ops = OpCount::new();
        let off = partition_by_bounds(&mut data, &bounds, &mut ops);
        assert_eq!(off, vec![0, 3, 7, 9]);
        assert!(data[off[0]..off[1]].iter().all(|&x| x < 7));
        assert_eq!(&data[off[1]..off[2]], &[7, 7, 7, 7]);
        assert!(data[off[2]..].iter().all(|&x| x > 7));
    }

    #[test]
    fn multiway_partition_matches_bucket_of() {
        let bounds: Vec<SepBound<u64>> =
            vec![SepBound::le(100), SepBound::le(250), SepBound::lt(600), SepBound::le(600)];
        let mut rng = crate::KernelRng::new(5);
        let mut data: Vec<u64> = (0..500).map(|_| rng.next_u64() % 800).collect();
        let orig = data.clone();
        let mut ops = OpCount::new();
        let off = partition_by_bounds(&mut data, &bounds, &mut ops);
        assert_eq!(off.len(), bounds.len() + 2);
        assert_eq!((off[0], *off.last().unwrap()), (0, data.len()));
        for b in 0..bounds.len() + 1 {
            for &x in &data[off[b]..off[b + 1]] {
                assert_eq!(oracle_bucket(&bounds, x), b, "x={x} in bucket {b}");
            }
        }
        // Multiset preserved.
        let (mut a, mut b) = (data, orig);
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
        assert!(ops.cmps > 0);
    }

    #[test]
    fn bucket_search_cmps_matches_bucket_of_charges() {
        // Pin the integer replay against the real binary search over every
        // (bound count, landing bucket) pair on a grid — if the standard
        // library ever changes its bisection schedule, this fails loudly.
        for len in 0..=33usize {
            let bounds: Vec<SepBound<u64>> =
                (0..len as u64).map(|i| SepBound::le(10 * i)).collect();
            for bucket in 0..=len {
                let x = if bucket == 0 { 0 } else { 10 * (bucket as u64 - 1) + 5 };
                let mut ops = OpCount::new();
                assert_eq!(bucket_of(&bounds, &x, &mut ops), bucket);
                assert_eq!(ops.cmps, bucket_search_cmps(len), "len={len} bucket={bucket}");
            }
        }
    }

    #[test]
    fn reference_and_kernel_partitions_agree() {
        let bounds: Vec<SepBound<u64>> =
            vec![SepBound::le(100), SepBound::lt(300), SepBound::le(300), SepBound::le(550)];
        let mut rng = crate::KernelRng::new(42);
        let data: Vec<u64> = (0..700).map(|_| rng.next_u64() % 800).collect();
        let mut kernel = data.clone();
        let mut reference = data;
        let mut ops_k = OpCount::new();
        let mut ops_r = OpCount::new();
        let off_k = crate::with_scalar_reference_mode(false, || {
            partition_by_bounds(&mut kernel, &bounds, &mut ops_k)
        });
        let off_r = crate::with_scalar_reference_mode(true, || {
            partition_by_bounds(&mut reference, &bounds, &mut ops_r)
        });
        assert_eq!(off_k, off_r);
        assert_eq!(kernel, reference, "same permutation either way");
        assert_eq!(ops_k, ops_r, "same measured charges either way");
    }

    #[test]
    fn degenerate_bound_chain_runs_iteratively() {
        // A strictly increasing bound per key value — the worklist must
        // handle arbitrarily large bound sets without deep native stacks.
        let n = 1usize << 14;
        let bounds: Vec<SepBound<u64>> = (0..n as u64).map(SepBound::le).collect();
        let mut data: Vec<u64> = (0..n as u64).rev().collect();
        let mut ops = OpCount::new();
        let off = partition_by_bounds(&mut data, &bounds, &mut ops);
        assert_eq!(off.len(), n + 2);
        for (i, &x) in data.iter().enumerate() {
            assert_eq!(x, i as u64);
            assert_eq!((off[i], off[i + 1]), (i, i + 1));
        }
    }

    #[test]
    fn empty_buckets_and_empty_inputs() {
        let bounds = vec![SepBound::le(5u64), SepBound::le(10), SepBound::le(20)];
        let mut data: Vec<u64> = vec![30, 31, 32];
        let mut ops = OpCount::new();
        let off = partition_by_bounds(&mut data, &bounds, &mut ops);
        assert_eq!(off, vec![0, 0, 0, 0, 3]); // everything past every bound
        let mut none: Vec<u64> = Vec::new();
        let off = partition_by_bounds(&mut none, &bounds, &mut ops);
        assert_eq!(off, vec![0, 0, 0, 0, 0]);
        let mut flat = vec![1u64, 2, 3];
        let off = partition_by_bounds(&mut flat, &[], &mut ops);
        assert_eq!(off, vec![0, 3]);
    }
}
