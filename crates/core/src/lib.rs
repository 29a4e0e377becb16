//! # cgselect-core — parallel selection on coarse-grained machines
//!
//! The primary contribution of *Al-Furaih, Aluru, Goil, Ranka — "Practical
//! Algorithms for Selection on Coarse-Grained Parallel Computers"* (IPPS
//! 1996): given `n` elements distributed over `p` processors and a rank
//! `k`, find the element of rank `k`. Four algorithms are implemented, all
//! iterative — each round estimates a pivot, partitions every processor's
//! remaining elements against it, and discards the zone that cannot contain
//! the target, until at most `p²` elements survive and are solved
//! sequentially:
//!
//! | Algorithm | Pivot rule | Iterations | Needs load balance? |
//! |---|---|---|---|
//! | [`Algorithm::MedianOfMedians`] | median of local medians | `O(log n)` | yes (Step 7) |
//! | [`Algorithm::BucketBased`] | *weighted* median of local medians over `log p` preprocessed buckets | `O(log n)` | no |
//! | [`Algorithm::Randomized`] | shared-seed uniform random element | expected `O(log n)` | optional |
//! | [`Algorithm::FastRandomized`] | sampled bracket `[k₁, k₂]` around the target | `O(log log n)` w.h.p. | optional |
//!
//! The paper's CM-5 evaluation (reproduced in this repository's benchmark
//! harness) finds the randomized algorithms an order of magnitude faster
//! than the deterministic ones, and fast-randomized + load balancing the
//! most robust choice across input distributions.
//!
//! ## Quick example
//!
//! ```
//! use cgselect_core::{parallel_median, Algorithm, SelectionConfig};
//! use cgselect_runtime::{Machine, MachineModel};
//!
//! let machine = Machine::with_model(4, MachineModel::cm5());
//! let cfg = SelectionConfig::default();
//! let outs = machine
//!     .run(|proc| {
//!         // Each processor holds 1000 locally generated values.
//!         let base = proc.rank() as u64 * 1000;
//!         let mine: Vec<u64> = (base..base + 1000).collect();
//!         parallel_median(proc, mine, Algorithm::Randomized, &cfg).value
//!     })
//!     .unwrap();
//! assert_eq!(outs, vec![1999; 4]); // rank ⌈4000/2⌉ (1-based) = 0-based 1999
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod bucket;
mod common;
mod config;
mod driver;
mod fast_randomized;
mod median_of_medians;
mod multi;
mod outcome;
mod randomized;
mod top_k;
mod weighted;

pub use config::SelectionConfig;
pub use driver::{median_on_machine, parallel_median, parallel_select, select_on_machine};
pub use multi::{
    multi_select_on_machine, parallel_multi_select, parallel_multi_select_in,
    parallel_multi_select_windows, Carve, RankedWindow,
};
pub use outcome::{MachineSelection, SelectionOutcome};
pub use top_k::{parallel_top_k, top_k_on_machine};
pub use weighted::{parallel_weighted_median, parallel_weighted_select, Weighted};

// Re-exported so downstream users configure everything from one crate.
pub use cgselect_balance::{BalanceReport, Balancer};
pub use cgselect_seqsel::LocalKernel;
pub use cgselect_sort::SampleSortAlgo;

/// The four parallel selection algorithms of the paper (§3).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Algorithm {
    /// Algorithm 1: deterministic median-of-medians.
    MedianOfMedians,
    /// Algorithm 2: deterministic bucket-based selection.
    BucketBased,
    /// Algorithm 3: randomized selection.
    Randomized,
    /// Algorithm 4: fast randomized selection.
    FastRandomized,
}

impl Algorithm {
    /// All four, in the paper's order.
    pub const ALL: [Algorithm; 4] = [
        Algorithm::MedianOfMedians,
        Algorithm::BucketBased,
        Algorithm::Randomized,
        Algorithm::FastRandomized,
    ];

    /// Display name matching the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::MedianOfMedians => "Median of Medians",
            Algorithm::BucketBased => "Bucket Based",
            Algorithm::Randomized => "Randomized",
            Algorithm::FastRandomized => "Fast Randomized",
        }
    }

    /// True for the two deterministic algorithms.
    pub fn is_deterministic(&self) -> bool {
        matches!(self, Algorithm::MedianOfMedians | Algorithm::BucketBased)
    }
}

/// Internal per-algorithm result, before the driver attaches timing.
pub(crate) struct AlgoResult<T> {
    pub value: T,
    pub iterations: u32,
    pub unsuccessful: u32,
    pub balance: BalanceReport,
    /// Global n at the start of each iteration.
    pub survivors: Vec<u64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn algorithm_metadata() {
        assert_eq!(Algorithm::ALL.len(), 4);
        assert!(Algorithm::MedianOfMedians.is_deterministic());
        assert!(Algorithm::BucketBased.is_deterministic());
        assert!(!Algorithm::Randomized.is_deterministic());
        assert!(!Algorithm::FastRandomized.is_deterministic());
        let names: Vec<_> = Algorithm::ALL.iter().map(|a| a.name()).collect();
        assert_eq!(names.len(), 4);
    }
}
