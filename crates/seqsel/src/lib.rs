//! # cgselect-seqsel — sequential selection kernels with measured costs
//!
//! The parallel selection algorithms of the paper repeatedly run *sequential*
//! selection on each processor's local data: BFPRT median-of-medians for the
//! deterministic algorithms (Blum–Floyd–Pratt–Rivest–Tarjan), randomized
//! quickselect / Floyd–Rivest for the randomized ones, plus partitioning,
//! weighted medians and the bucket structure of the bucket-based algorithm.
//!
//! Every kernel takes an [`OpCount`] accumulator and reports the number of
//! **comparisons and element moves it actually performed**. The parallel
//! layer charges these measured counts to the machine's virtual clock, so
//! the constant-factor gap the paper observes between deterministic and
//! randomized selection (an order of magnitude on the CM-5) emerges from
//! real kernel behaviour instead of being assumed.
//!
//! This crate is dependency-free (apart from dev-dependencies) and usable on
//! its own as a plain sequential selection library.
//!
//! ## Rank convention
//!
//! Ranks are **0-based**: `select(data, k)` returns the element that would
//! be at index `k` if `data` were sorted. The paper's median (the element of
//! 1-based rank ⌈N/2⌉) is rank [`median_rank`]`(n) = (n−1)/2`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod buckets;
mod floyd_rivest;
mod heap_select;
mod introselect;
mod kernels;
mod median_of_medians;
mod ops;
mod partition;
mod quickselect;
mod rng;
mod sort_select;
mod splitters;
mod weighted_median;

pub use buckets::Buckets;
pub use floyd_rivest::{floyd_rivest_multi_select, floyd_rivest_select};
pub use heap_select::heap_select;
pub use introselect::introselect;
pub use kernels::{
    count_below_kernel, count_below_reference, partition3_kernel, partition_bound_kernel,
    partition_bound_reference, scalar_reference_mode, with_scalar_reference_mode,
};
pub use median_of_medians::median_of_medians_select;
pub use ops::OpCount;
pub use partition::{insertion_sort, partition3, partition_le};
pub use quickselect::quickselect;
pub use rng::KernelRng;
pub use sort_select::sort_select;
pub use splitters::{bucket_of, bucket_search_cmps, partition_by_bounds, SepBound};
pub use weighted_median::weighted_median;

/// 0-based rank of the paper's median (1-based rank ⌈N/2⌉) among `n` items.
///
/// # Panics
/// Panics if `n == 0`.
#[inline]
pub fn median_rank(n: usize) -> usize {
    assert!(n > 0, "median of an empty set is undefined");
    (n - 1) / 2
}

/// Converts the paper's 1-based rank to this crate's 0-based rank.
///
/// # Panics
/// Panics if `rank1 == 0`.
#[inline]
pub fn rank_from_one_based(rank1: usize) -> usize {
    assert!(rank1 >= 1, "1-based ranks start at 1");
    rank1 - 1
}

/// Which sequential kernel a parallel algorithm uses for its local
/// selections. The paper's *hybrid* experiment (§5) swaps the deterministic
/// kernels of the deterministic parallel algorithms for randomized ones.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LocalKernel {
    /// Classic BFPRT median-of-medians: deterministic `O(n)` with a large
    /// constant — the sequential algorithm of Blum et al. that the paper's
    /// deterministic parallel algorithms are built on.
    Deterministic,
    /// Randomized quickselect: expected `O(n)` with a small constant.
    Randomized,
    /// Introselect (`slice::select_nth_unstable`): deterministic and
    /// worst-case linear with quickselect-like constants. Used to *build*
    /// the bucket structure, which only needs exact splits, not the classic
    /// algorithm's identity.
    IntroSelect,
}

/// Runs the chosen sequential kernel on `data`, returning the element of
/// 0-based rank `k`.
pub fn select_with<T: Copy + Ord>(
    kernel: LocalKernel,
    data: &mut [T],
    k: usize,
    rng: &mut KernelRng,
    ops: &mut OpCount,
) -> T {
    match kernel {
        LocalKernel::Deterministic => median_of_medians_select(data, k, ops),
        LocalKernel::Randomized => quickselect(data, k, rng, ops),
        LocalKernel::IntroSelect => introselect(data, k, ops),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_rank_matches_paper() {
        // Paper: median has 1-based rank ceil(N/2).
        for n in 1..50usize {
            let one_based = n.div_ceil(2);
            assert_eq!(median_rank(n), one_based - 1, "n={n}");
        }
    }

    #[test]
    fn one_based_conversion() {
        assert_eq!(rank_from_one_based(1), 0);
        assert_eq!(rank_from_one_based(10), 9);
    }

    #[test]
    #[should_panic(expected = "empty set")]
    fn median_rank_rejects_empty() {
        let _ = median_rank(0);
    }

    #[test]
    fn select_with_dispatches_all_kernels() {
        let mut rng = KernelRng::new(7);
        let mut ops = OpCount::default();
        for kernel in
            [LocalKernel::Deterministic, LocalKernel::Randomized, LocalKernel::IntroSelect]
        {
            let mut v = vec![5u64, 1, 4, 2, 3];
            assert_eq!(select_with(kernel, &mut v, 2, &mut rng, &mut ops), 3);
        }
        assert!(ops.cmps > 0);
    }
}
