//! Deterministic BFPRT selection (Blum–Floyd–Pratt–Rivest–Tarjan), the
//! sequential kernel of the paper's Algorithm 1.

use crate::kernels::partition3_kernel;
use crate::ops::OpCount;
use crate::partition::insertion_sort;

const SMALL: usize = 40;

/// Returns the element of 0-based rank `k` in `data` in worst-case `O(n)`.
///
/// Classic medians-of-groups-of-5: each group is insertion-sorted, the group
/// medians are compacted to a prefix, their median is found recursively and
/// used as the partition pivot, which guarantees that at least ~30% of the
/// window is discarded per round. The constant factor is substantially
/// larger than quickselect's — the paper's measurements (its central
/// "randomized beats deterministic by an order of magnitude" claim) hinge on
/// exactly this, which is why the kernels report measured operation counts.
///
/// The slice is permuted. Comparisons and moves are accumulated into `ops`.
///
/// # Panics
/// Panics if `k >= data.len()`.
pub fn median_of_medians_select<T: Copy + Ord>(data: &mut [T], k: usize, ops: &mut OpCount) -> T {
    assert!(k < data.len(), "rank {k} out of range for {} elements", data.len());
    let mut lo = 0usize;
    let mut hi = data.len();
    loop {
        let n = hi - lo;
        if n <= SMALL {
            insertion_sort(&mut data[lo..hi], ops);
            return data[k];
        }

        // Medians of groups of 5, compacted to the front of the window.
        let mut m = 0usize;
        let mut g = lo;
        while g < hi {
            let end = (g + 5).min(hi);
            insertion_sort(&mut data[g..end], ops);
            let med = g + (end - g - 1) / 2;
            data.swap(lo + m, med);
            ops.moves += 3;
            m += 1;
            g = end;
        }

        // Median of the medians prefix, found recursively.
        let pivot = median_of_medians_select(&mut data[lo..lo + m], (m - 1) / 2, ops);

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
    use crate::quickselect;
    use crate::rng::KernelRng;

    fn oracle(mut v: Vec<i64>, k: usize) -> i64 {
        v.sort_unstable();
        v[k]
    }

    #[test]
    fn selects_every_rank_small() {
        let base = vec![3i64, 3, 3, 1, 2, 9, -5, 0, 7, 7, 7, 7, 4];
        for k in 0..base.len() {
            let mut v = base.clone();
            let mut ops = OpCount::new();
            assert_eq!(
                median_of_medians_select(&mut v, k, &mut ops),
                oracle(base.clone(), k),
                "k={k}"
            );
        }
    }

    #[test]
    fn matches_oracle_on_larger_inputs() {
        let mut rng = KernelRng::new(5);
        for n in [41usize, 100, 1000, 20_000] {
            let base: Vec<i64> = (0..n).map(|_| (rng.next_u64() % 1000) as i64).collect();
            for k in [0, n / 3, n / 2, n - 1] {
                let mut v = base.clone();
                let mut ops = OpCount::new();
                assert_eq!(
                    median_of_medians_select(&mut v, k, &mut ops),
                    oracle(base.clone(), k),
                    "n={n} k={k}"
                );
            }
        }
    }

    #[test]
    fn worst_case_is_linear() {
        // Sorted input, the adversarial case for naive quickselect: BFPRT
        // must stay linear. Assert the op count is bounded by c*n.
        let n = 1 << 16;
        let base: Vec<i64> = (0..n).collect();
        let mut v = base.clone();
        let mut ops = OpCount::new();
        let _ = median_of_medians_select(&mut v, (n / 2) as usize, &mut ops);
        assert!(ops.total() < 80 * n as u64, "BFPRT did {} ops on n={n}", ops.total());
    }

    #[test]
    fn deterministic_constant_exceeds_quickselect() {
        // The crux of the paper's headline result: on the same random input,
        // BFPRT performs several times more work than quickselect.
        let mut rng = KernelRng::new(17);
        let n = 1 << 16;
        let base: Vec<u64> = (0..n).map(|_| rng.next_u64()).collect();

        let mut det_ops = OpCount::new();
        let mut v = base.clone();
        let det = median_of_medians_select(&mut v, n / 2, &mut det_ops);

        let mut rnd_ops = OpCount::new();
        let mut v = base.clone();
        let rnd = quickselect(&mut v, n / 2, &mut rng, &mut rnd_ops);

        assert_eq!(det, rnd);
        let ratio = det_ops.total() as f64 / rnd_ops.total() as f64;
        assert!(ratio > 2.0, "expected BFPRT to cost well over 2x quickselect, got {ratio:.2}x");
    }

    #[test]
    fn all_equal_input() {
        let mut v = vec![5u8; 1000];
        let mut ops = OpCount::new();
        assert_eq!(median_of_medians_select(&mut v, 500, &mut ops), 5);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rank_out_of_range_panics() {
        let mut v = vec![1];
        let mut ops = OpCount::new();
        let _ = median_of_medians_select(&mut v, 1, &mut ops);
    }
}
