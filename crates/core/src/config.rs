//! Configuration knobs for the parallel selection algorithms.

use cgselect_balance::Balancer;
use cgselect_seqsel::LocalKernel;
use cgselect_sort::SampleSortAlgo;

use crate::Algorithm;

/// Tuning parameters shared by all four algorithms.
///
/// The defaults reproduce the paper's setup: termination at `n ≤ p²`,
/// sample-size exponent ε = 0.6 (the paper's experimentally chosen value),
/// bracket width δ = √(|S|·ln n), no load balancing, and the
/// algorithm-appropriate sequential kernel.
#[derive(Clone, Debug)]
pub struct SelectionConfig {
    /// Master seed. The shared random stream (identical on every processor,
    /// as the paper requires for the randomized pivot choice) is derived
    /// from it, as are per-processor sampling streams.
    pub seed: u64,
    /// Load balancing strategy applied at the end of each iteration
    /// (ignored by the bucket-based algorithm, which never moves data).
    pub balancer: Balancer,
    /// Iterate while `n > threshold_coeff · p²` (the paper uses `n > p²`,
    /// i.e. coefficient 1); below that, survivors are gathered on P0 and
    /// solved sequentially.
    pub threshold_coeff: usize,
    /// Lower floor for the sequential-finish threshold, so that tiny
    /// machines (p = 1, 2) don't iterate all the way down to a handful of
    /// elements. The effective threshold is
    /// `max(threshold_coeff · p², min_sequential)`.
    pub min_sequential: usize,
    /// Fast randomized selection samples ~`n^epsilon` keys per iteration.
    pub epsilon: f64,
    /// Multiplier on the bracket offset δ = `delta_coeff · √(|S| ln n)`.
    pub delta_coeff: f64,
    /// Sequential kernel override. `None` picks the algorithm-appropriate
    /// kernel (deterministic for Algorithms 1–2, randomized for 3–4);
    /// `Some(LocalKernel::Randomized)` on a deterministic algorithm
    /// reproduces the paper's *hybrid* experiment.
    pub local_kernel: Option<LocalKernel>,
    /// Parallel sort used for the fast-randomized sample.
    pub sample_sort: SampleSortAlgo,
    /// Safety valve: abort (panic) if an algorithm exceeds this many
    /// iterations, which would indicate a livelock bug rather than slow
    /// convergence.
    pub max_iters: u32,
}

impl Default for SelectionConfig {
    fn default() -> Self {
        SelectionConfig {
            seed: 0x5EED,
            balancer: Balancer::None,
            threshold_coeff: 1,
            min_sequential: 1024,
            epsilon: 0.6,
            delta_coeff: 1.0,
            local_kernel: None,
            sample_sort: SampleSortAlgo::Psrs,
            max_iters: 10_000,
        }
    }
}

impl SelectionConfig {
    /// Config with a specific seed, otherwise defaults.
    pub fn with_seed(seed: u64) -> Self {
        SelectionConfig { seed, ..Self::default() }
    }

    /// Builder-style balancer choice.
    pub fn balancer(mut self, balancer: Balancer) -> Self {
        self.balancer = balancer;
        self
    }

    /// Builder-style kernel override.
    pub fn kernel(mut self, kernel: LocalKernel) -> Self {
        self.local_kernel = Some(kernel);
        self
    }

    /// Builder-style sample-sort choice.
    pub fn sample_sort(mut self, algo: SampleSortAlgo) -> Self {
        self.sample_sort = algo;
        self
    }

    /// The sequential kernel an algorithm actually uses under this config.
    pub fn kernel_for(&self, algorithm: Algorithm) -> LocalKernel {
        self.local_kernel.unwrap_or(if algorithm.is_deterministic() {
            LocalKernel::Deterministic
        } else {
            LocalKernel::Randomized
        })
    }

    /// The sequential-finish threshold for a `p`-processor machine.
    pub fn threshold(&self, p: usize) -> u64 {
        ((self.threshold_coeff * p * p).max(self.min_sequential)) as u64
    }

    /// Validates parameter ranges; called once by the driver.
    pub fn validate(&self) {
        assert!(self.threshold_coeff >= 1, "threshold_coeff must be >= 1");
        assert!(
            self.epsilon > 0.0 && self.epsilon < 1.0,
            "epsilon must lie in (0, 1), got {}",
            self.epsilon
        );
        assert!(self.delta_coeff > 0.0, "delta_coeff must be positive");
        assert!(self.max_iters >= 1, "max_iters must be >= 1");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper() {
        let cfg = SelectionConfig::default();
        assert_eq!(cfg.epsilon, 0.6);
        assert_eq!(cfg.threshold_coeff, 1);
        assert_eq!(cfg.balancer, Balancer::None);
        cfg.validate();
    }

    #[test]
    fn kernel_defaults_are_algorithm_appropriate() {
        let cfg = SelectionConfig::default();
        assert_eq!(cfg.kernel_for(Algorithm::MedianOfMedians), LocalKernel::Deterministic);
        assert_eq!(cfg.kernel_for(Algorithm::BucketBased), LocalKernel::Deterministic);
        assert_eq!(cfg.kernel_for(Algorithm::Randomized), LocalKernel::Randomized);
        assert_eq!(cfg.kernel_for(Algorithm::FastRandomized), LocalKernel::Randomized);
        // Hybrid override.
        let hybrid = cfg.kernel(LocalKernel::Randomized);
        assert_eq!(hybrid.kernel_for(Algorithm::MedianOfMedians), LocalKernel::Randomized);
    }

    #[test]
    fn threshold_applies_floor_and_scales_with_p() {
        let cfg = SelectionConfig::default();
        assert_eq!(cfg.threshold(2), 1024); // floor dominates
        assert_eq!(cfg.threshold(64), (64 * 64)); // p^2 dominates above floor
        let cfg = SelectionConfig { threshold_coeff: 4, ..Default::default() };
        assert_eq!(cfg.threshold(64), 4 * 64 * 64);
    }

    #[test]
    #[should_panic(expected = "epsilon")]
    fn rejects_bad_epsilon() {
        SelectionConfig { epsilon: 1.5, ..Default::default() }.validate();
    }
}
