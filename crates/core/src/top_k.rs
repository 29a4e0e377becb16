//! Distributed top-k extraction: the k smallest elements, left distributed.
//!
//! A natural companion to selection (and a common reason users reach for
//! it): find the k-th smallest element with any of the paper's algorithms,
//! then keep exactly the k smallest elements *in place* on their owning
//! processors — no global sort, no gather of the data.

use cgselect_runtime::{Key, Proc};
use cgselect_seqsel::{partition3_kernel, OpCount};

use crate::{parallel_select, Algorithm, SelectionConfig, SelectionOutcome};

/// Reduces this processor's `data` to its share of the k smallest elements
/// of the distributed multiset (the shares together are exactly k
/// elements; ties at the threshold value are broken by processor rank).
///
/// Returns the local share and the instrumentation of the underlying
/// selection.
///
/// ```
/// use cgselect_core::{top_k_on_machine, Algorithm, SelectionConfig};
/// use cgselect_runtime::MachineModel;
///
/// let parts: Vec<Vec<u64>> = vec![vec![50, 10], vec![40, 20, 30]];
/// let shares = top_k_on_machine(
///     2,
///     MachineModel::free(),
///     &parts,
///     3,
///     Algorithm::Randomized,
///     &SelectionConfig::default(),
/// )
/// .unwrap();
/// let mut kept: Vec<u64> = shares.into_iter().flatten().collect();
/// kept.sort_unstable();
/// assert_eq!(kept, vec![10, 20, 30]);
/// ```
///
/// # Panics
/// Panics if the distributed set is empty or `k` exceeds its total size
/// (`k == total` is allowed and keeps everything).
pub fn parallel_top_k<T: Key>(
    proc: &mut Proc,
    data: Vec<T>,
    k: u64,
    algorithm: Algorithm,
    cfg: &SelectionConfig,
) -> (Vec<T>, Option<SelectionOutcome<T>>) {
    let total = proc.combine(data.len() as u64, |a, b| a + b);
    assert!(total > 0, "top-k of an empty distributed set");
    assert!(k <= total, "k = {k} exceeds the {total} available elements");
    if k == 0 {
        return (Vec::new(), None);
    }
    if k == total {
        return (data, None);
    }

    // The k-th smallest element (0-based rank k-1) is the threshold.
    // parallel_select only reads its input, so the data is partitioned in
    // place afterwards.
    let outcome = parallel_select(proc, &data, k - 1, algorithm, cfg);
    let threshold = outcome.value;

    let mut data = data;
    let mut ops = OpCount::new();
    let (lt, eq) = partition3_kernel(&mut data, threshold, threshold, &mut ops);
    proc.charge_ops(ops.total());

    // Everything strictly below the threshold is in; the remaining quota
    // is filled from the threshold's equality class in rank order.
    let local = (lt as u64, (eq - lt) as u64);
    let (c_lt, _c_eq) = proc.combine(local, |a, b| (a.0 + b.0, a.1 + b.1));
    debug_assert!(c_lt < k, "threshold rank k-1 implies fewer than k strictly-smaller");
    let quota = k - c_lt;
    let eq_before = proc.exclusive_prefix_sum((eq - lt) as u64);
    let my_eq_take = quota.saturating_sub(eq_before).min((eq - lt) as u64) as usize;

    data.truncate(lt + my_eq_take);
    (data, Some(outcome))
}

/// Whole-machine convenience for [`parallel_top_k`]: returns the per-rank
/// shares of the k smallest elements.
pub fn top_k_on_machine<T: Key>(
    p: usize,
    model: cgselect_runtime::MachineModel,
    parts: &[Vec<T>],
    k: u64,
    algorithm: Algorithm,
    cfg: &SelectionConfig,
) -> Result<Vec<Vec<T>>, cgselect_runtime::RunError> {
    assert_eq!(parts.len(), p, "need exactly one data vector per processor");
    cgselect_runtime::Machine::with_model(p, model)
        .run(|proc| parallel_top_k(proc, parts[proc.rank()].clone(), k, algorithm, cfg).0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgselect_runtime::MachineModel;

    fn cfg() -> SelectionConfig {
        SelectionConfig { min_sequential: 32, ..SelectionConfig::with_seed(3) }
    }

    fn check(parts: Vec<Vec<u64>>, k: u64) {
        let p = parts.len();
        let shares =
            top_k_on_machine(p, MachineModel::free(), &parts, k, Algorithm::Randomized, &cfg())
                .unwrap();
        let mut got: Vec<u64> = shares.iter().flatten().copied().collect();
        got.sort_unstable();
        let mut all: Vec<u64> = parts.iter().flatten().copied().collect();
        all.sort_unstable();
        all.truncate(k as usize);
        assert_eq!(got, all, "k={k}");
        // Each share must be a sub-multiset of its owner's original data.
        for (share, orig) in shares.iter().zip(&parts) {
            for v in share {
                assert!(orig.contains(v));
            }
        }
    }

    #[test]
    fn extracts_k_smallest() {
        let parts: Vec<Vec<u64>> =
            vec![vec![50, 10, 90, 30], vec![20, 80, 60], vec![70, 40, 0, 100]];
        for k in [0u64, 1, 3, 5, 7, 11] {
            check(parts.clone(), k);
        }
    }

    #[test]
    fn duplicates_at_the_threshold() {
        // Many copies of the threshold value: exactly k must survive.
        let parts: Vec<Vec<u64>> = vec![vec![5; 10], vec![5; 10], vec![1, 2, 5, 5, 9]];
        for k in [1u64, 2, 3, 12, 20] {
            check(parts.clone(), k);
        }
    }

    #[test]
    fn k_equals_total_keeps_everything() {
        let parts: Vec<Vec<u64>> = vec![vec![3, 1], vec![2]];
        check(parts, 3);
    }

    #[test]
    fn large_scale_with_all_algorithms() {
        let p = 4;
        let parts: Vec<Vec<u64>> = (0..p)
            .map(|r| {
                (0..2000).map(|i| ((i * p + r) as u64).wrapping_mul(2654435761) % 100_000).collect()
            })
            .collect();
        for algo in Algorithm::ALL {
            let shares =
                top_k_on_machine(p, MachineModel::free(), &parts, 500, algo, &cfg()).unwrap();
            let total: usize = shares.iter().map(Vec::len).sum();
            assert_eq!(total, 500, "algo {algo:?}");
            let max_kept = shares.iter().flatten().max().unwrap();
            let mut all: Vec<u64> = parts.iter().flatten().copied().collect();
            all.sort_unstable();
            assert!(*max_kept <= all[499]);
        }
    }

    #[test]
    fn k_too_large_fails_collectively() {
        let parts: Vec<Vec<u64>> = vec![vec![1], vec![2]];
        let err =
            top_k_on_machine(2, MachineModel::free(), &parts, 3, Algorithm::Randomized, &cfg())
                .unwrap_err();
        assert!(format!("{err}").contains("exceeds"), "{err}");
    }
}
