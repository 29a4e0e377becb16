//! Randomized quickselect (the sequential kernel of the paper's Algorithm 3).

use crate::kernels::partition3_kernel;
use crate::ops::OpCount;
use crate::partition::insertion_sort;
use crate::rng::KernelRng;

/// Below this window size the kernel sorts directly (the paper's "once the
/// number of elements falls below a constant, solve directly by sorting").
const SMALL: usize = 24;

/// Returns the element of 0-based rank `k` in `data` in expected `O(n)` time.
///
/// Uses a uniformly random pivot and a three-way partition, so heavy
/// duplicate keys cannot degrade it to quadratic behaviour. The slice is
/// permuted. Comparisons and moves are accumulated into `ops`.
///
/// ```
/// use cgselect_seqsel::{quickselect, KernelRng, OpCount};
///
/// let mut data = vec![9, 2, 7, 4, 1, 8];
/// let mut ops = OpCount::new();
/// let median = quickselect(&mut data, 2, &mut KernelRng::new(1), &mut ops);
/// assert_eq!(median, 4);
/// ```
///
/// # Panics
/// Panics if `k >= data.len()`.
pub fn quickselect<T: Copy + Ord>(
    data: &mut [T],
    k: usize,
    rng: &mut KernelRng,
    ops: &mut OpCount,
) -> T {
    assert!(k < data.len(), "rank {k} out of range for {} elements", data.len());
    let mut lo = 0usize;
    let mut hi = data.len();
    loop {
        if hi - lo <= SMALL {
            insertion_sort(&mut data[lo..hi], ops);
            return data[k];
        }
        let pivot = data[lo + rng.below((hi - lo) as u64) as usize];
        let (a, b) = partition3_kernel(&mut data[lo..hi], pivot, pivot, ops);
        let (a, b) = (lo + a, lo + b);
        if k < a {
            hi = a;
        } else if k < b {
            return pivot;
        } else {
            lo = b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn oracle(mut v: Vec<i64>, k: usize) -> i64 {
        v.sort_unstable();
        v[k]
    }

    #[test]
    fn selects_every_rank_small() {
        let base = vec![9i64, -3, 7, 7, 0, 42, 5, -3, 8, 1, 2];
        for k in 0..base.len() {
            let mut v = base.clone();
            let mut ops = OpCount::new();
            let mut rng = KernelRng::new(k as u64);
            assert_eq!(
                quickselect(&mut v, k, &mut rng, &mut ops),
                oracle(base.clone(), k),
                "k={k}"
            );
        }
    }

    #[test]
    fn selects_on_large_random_input() {
        let mut rng = KernelRng::new(11);
        let base: Vec<i64> = (0..50_000).map(|_| rng.next_u64() as i64).collect();
        for k in [0, 1, 24_999, 49_998, 49_999] {
            let mut v = base.clone();
            let mut ops = OpCount::new();
            assert_eq!(quickselect(&mut v, k, &mut rng, &mut ops), oracle(base.clone(), k));
        }
    }

    #[test]
    fn all_duplicates_terminate_quickly() {
        let mut v = vec![7u64; 100_000];
        let mut ops = OpCount::new();
        let mut rng = KernelRng::new(1);
        assert_eq!(quickselect(&mut v, 50_000, &mut rng, &mut ops), 7);
        // One 3-way partition pass should settle it: ~2 comparisons per
        // element, far below the quadratic blowup a 2-way partition gives.
        assert!(ops.cmps < 400_000, "cmps = {}", ops.cmps);
    }

    #[test]
    fn sorted_and_reversed_inputs() {
        let asc: Vec<i64> = (0..10_000).collect();
        let desc: Vec<i64> = (0..10_000).rev().collect();
        for base in [asc, desc] {
            let mut v = base.clone();
            let mut ops = OpCount::new();
            let mut rng = KernelRng::new(5);
            assert_eq!(quickselect(&mut v, 1234, &mut rng, &mut ops), 1234);
        }
    }

    #[test]
    fn expected_linear_cost_on_random_data() {
        // Expected comparisons for quickselect ~ c*n with c around 3-4;
        // allow generous headroom but reject superlinear behaviour.
        let mut rng = KernelRng::new(99);
        let n = 1 << 17;
        let mut v: Vec<u64> = (0..n).map(|_| rng.next_u64()).collect();
        let mut ops = OpCount::new();
        let _ = quickselect(&mut v, (n / 2) as usize, &mut rng, &mut ops);
        assert!(ops.cmps < 12 * n, "quickselect did {} cmps on n={n}", ops.cmps);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rank_out_of_range_panics() {
        let mut v = vec![1, 2, 3];
        let mut ops = OpCount::new();
        let mut rng = KernelRng::new(0);
        let _ = quickselect(&mut v, 3, &mut rng, &mut ops);
    }
}
