//! Algorithm 4 — Fast randomized parallel selection.

use cgselect_balance::{rebalance, BalanceReport};
use cgselect_runtime::{Key, Proc, PHASE_SORT};
use cgselect_seqsel::{partition3, KernelRng, OpCount};
use cgselect_sort::sorted_ranks_of;

use crate::common::{apply_step, bracket_ranks, combine_zone_counts, finish, Narrow};
use crate::randomized::random_pivot_step;
use crate::{AlgoResult, Algorithm, SelectionConfig};

/// Runs fast randomized selection (paper Algorithm 4, after Rajasekaran et
/// al.): `O(log log n)` iterations w.h.p.
///
/// Each iteration samples ~`n^ε` keys (ε = 0.6 per the paper's tuning),
/// parallel-sorts the sample, brackets the target between the sample
/// elements of ranks `m ± δ` (`m = k·|S|/n`, `δ = √(|S|·ln n)`), three-way
/// partitions the data against the bracket `[k₁, k₂]` and keeps the zone
/// containing the target. With high probability that zone is the middle
/// one, whose expected size shrinks super-geometrically. When the target
/// falls outside the bracket (an *unsuccessful* iteration), the paper's
/// modification still discards everything on the far side rather than
/// retrying the sample.
///
/// A degeneracy guard handles bracket-covers-everything rounds on heavily
/// duplicated data: if no element would be discarded, the round falls back
/// to one shared-pivot discard step (Algorithm 3's body), which always
/// makes progress.
pub(crate) fn run<T: Key>(
    proc: &mut Proc,
    mut data: Vec<T>,
    k0: u64,
    n0: u64,
    cfg: &SelectionConfig,
) -> AlgoResult<T> {
    let p = proc.nprocs();
    let threshold = cfg.threshold(p);
    let kernel = cfg.kernel_for(Algorithm::FastRandomized);
    let mut shared_rng = KernelRng::new(cfg.seed);
    let mut local_rng = KernelRng::derive(cfg.seed, proc.rank() as u64 + 1);

    let mut nr = Narrow { n: n0, k: k0 };
    let mut iterations = 0u32;
    let mut unsuccessful = 0u32;
    let mut balance = BalanceReport::default();
    let mut early: Option<T> = None;
    let mut survivors = Vec::new();

    while nr.n > threshold {
        survivors.push(nr.n);
        iterations += 1;
        assert!(
            iterations <= cfg.max_iters,
            "fast randomized selection exceeded {} iterations (n={}, k={})",
            cfg.max_iters,
            nr.n,
            nr.k
        );

        // Step 1: draw a local sample of expected size nᵢ·n^(ε−1).
        let ni = data.len() as u64;
        let frac = (nr.n as f64).powf(cfg.epsilon - 1.0);
        let si = if ni == 0 { 0 } else { ((ni as f64 * frac).ceil() as u64).min(ni) };
        for j in 0..si {
            let r = j + local_rng.below(ni - j);
            data.swap(j as usize, r as usize);
        }
        proc.charge_ops(3 * si);
        let sample: Vec<T> = data[..si as usize].to_vec();
        proc.charge_ops(si);

        // Steps 2–4: parallel-sort the sample; fetch k₁ and k₂.
        let s_total = proc.combine(si, |a, b| a + b);
        debug_assert!(s_total > 0, "sample cannot be empty while n > 0");
        let delta = cfg.delta_coeff * ((s_total as f64) * (nr.n as f64).ln()).sqrt();
        let (k1, k2) = bracket_ranks(nr.k, nr.n, s_total, delta);
        proc.phase_begin(PHASE_SORT);
        let vs = sorted_ranks_of(proc, cfg.sample_sort, sample, &[k1, k2]);
        proc.phase_end(PHASE_SORT);
        let (v1, v2) = (vs[0], vs[1]);
        debug_assert!(v1 <= v2);

        // Step 5: three-way partition into < k₁ | [k₁, k₂] | > k₂.
        let mut ops = OpCount::new();
        let (a, b) = partition3(&mut data, v1, v2, &mut ops);
        proc.charge_ops(ops.total());

        // Steps 6–7: combine the zone counts.
        let counts = combine_zone_counts(proc, a, b, data.len());

        // Step 8: narrow (with the degeneracy guard).
        if counts.1 == nr.n {
            if v1 == v2 {
                // The whole remaining set equals v1.
                early = Some(v1);
                break;
            }
            // Bracket swallowed everything but spans distinct values: fall
            // back to one guaranteed-progress pivot-discard round.
            if let Some(v) = random_pivot_step(proc, &mut data, &mut nr, &mut shared_rng) {
                early = Some(v);
                break;
            }
        } else {
            let (step, successful) = nr.decide_bracket(counts, a, b);
            if !successful {
                unsuccessful += 1;
            }
            apply_step(proc, &mut data, &step);
        }

        // Optional load balancing between iterations.
        balance.absorb(rebalance(cfg.balancer, proc, &mut data));
    }

    // Steps 9–10: gather survivors, solve sequentially, broadcast.
    let value = match early {
        Some(v) => v,
        None => finish(proc, data, nr.k, kernel, &mut local_rng),
    };
    AlgoResult { value, iterations, unsuccessful, balance, survivors }
}
