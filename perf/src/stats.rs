//! Timing and order statistics over the benchmark's own samples.

use std::time::Instant;

/// Runs `f` and returns its result with the wall seconds it took.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// The `q`-quantile of an ascending slice, linearly interpolated between the
/// two nearest order statistics (`q = 0.5` of an even-length slice is the
/// mean of the middle pair).
///
/// # Panics
/// Panics on an empty slice.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Sorts a copy of `samples` ascending (NaN-free by construction: every
/// sample is a measured duration or count).
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    v
}

/// Median of an unsorted sample; `0.0` when empty (a layer that saw no
/// calls reports zero time, not a panic).
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        percentile_sorted(&sorted(samples), 0.5)
    }
}

/// Arithmetic mean; `0.0` when empty.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// The op latencies of one block of the timed loop, with the share of the
/// machine's CPU time the hypervisor took away while it ran.
pub struct Block {
    pub latencies_us: Vec<f64>,
    pub steal_share: f64,
}

impl Block {
    /// A block the hypervisor visibly interfered with.
    pub fn disturbed(&self) -> bool {
        self.steal_share >= STEAL_LIMIT
    }
}

/// Steal share from which a block counts as disturbed. Undisturbed blocks
/// read 0 or one scheduler tick (≈ 0.7 % of a block); blocks at 1–3 % already
/// run 1.3 × slower, blocks above 8 % run 2.3 × slower.
pub const STEAL_LIMIT: f64 = 0.01;

/// The interference filter of the end-to-end latency metrics: the op
/// latencies of the `keep` least disturbed blocks. Disturbed blocks rank
/// last; the others rank by mean latency.
///
/// The sandbox slows down in bursts of seconds to minutes that have nothing
/// to do with the code under test; a burst inflates every statistic of the
/// ops it covers. Work and op shape are the same in every block, so a code
/// change moves all blocks alike and still shows, while the blocks a burst
/// covers are dropped.
pub fn quietest(blocks: &[Block], keep: usize) -> Vec<f64> {
    let mut ranked: Vec<&Block> = blocks.iter().collect();
    ranked.sort_by(|a, b| {
        let key = |blk: &Block| (blk.disturbed(), mean(&blk.latencies_us));
        key(a).partial_cmp(&key(b)).expect("latencies are never NaN")
    });
    ranked.iter().take(keep).flat_map(|blk| blk.latencies_us.iter().copied()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate_between_order_statistics() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile_sorted(&s, 0.0), 1.0);
        assert_eq!(percentile_sorted(&s, 1.0), 4.0);
        assert_eq!(percentile_sorted(&s, 0.5), 2.5);
        assert!((percentile_sorted(&s, 0.9) - 3.7).abs() < 1e-12);
        assert_eq!(percentile_sorted(&[7.0], 0.9), 7.0);
    }

    #[test]
    fn median_and_mean_of_unsorted_samples() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn quietest_prefers_undisturbed_then_fast_blocks() {
        let block =
            |latency: f64, steal_share: f64| Block { latencies_us: vec![latency; 4], steal_share };
        // A burst triples two blocks; one of them also shows as steal. A
        // third block is as fast as the rest but was stolen from.
        let blocks = [
            block(1.0, 0.0),
            block(3.0, 0.0),
            block(3.0, 0.05),
            block(1.1, 0.0),
            block(1.0, 0.02),
            block(1.2, 0.005),
        ];
        assert_eq!(quietest(&blocks, 3), [[1.0; 4], [1.1; 4], [1.2; 4]].concat());
        // Disturbed blocks are used only when nothing else is left.
        assert_eq!(quietest(&blocks, 5)[16..], [1.0; 4]);
        // A uniform slowdown (a real regression) survives the filter.
        let slower: Vec<Block> =
            blocks.iter().map(|b| block(b.latencies_us[0] * 1.2, b.steal_share)).collect();
        assert!((mean(&quietest(&slower, 3)) - 1.1 * 1.2).abs() < 1e-12);
    }

    #[test]
    fn p90_ignores_a_single_outlier_among_many() {
        let mut s: Vec<f64> = (0..200).map(|i| i as f64).collect();
        s[199] = 1e9;
        assert!(percentile_sorted(&sorted(&s), 0.9) < 200.0);
    }
}
