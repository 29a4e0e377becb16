//! Algorithm 1 — Median of Medians parallel selection.

use cgselect_balance::BalanceReport;
use cgselect_runtime::{Key, Proc};
use cgselect_seqsel::{median_rank, select_with, KernelRng, OpCount};

use crate::common::{balance_round, finish, pivot_narrow, Local, Narrow};
use crate::{AlgoResult, Algorithm, SelectionConfig};

/// Runs the median-of-medians selection algorithm (paper Algorithm 1): per
/// iteration, every processor finds its local median, processor 0 finds the
/// median of those medians and broadcasts it as the estimated median, every
/// processor counts its remaining elements against it, a Combine
/// determines which zone survives and only that zone is kept
/// ([`pivot_narrow`]), and the data is re-balanced (paper Step 7 — this
/// algorithm's pivot guarantee *needs* near-equal counts).
///
/// The local median selection permutes the data, so the first one copies
/// the caller's part.
pub(crate) fn run<T: Key>(
    proc: &mut Proc,
    mut data: Local<'_, T>,
    k0: u64,
    n0: u64,
    cfg: &SelectionConfig,
) -> AlgoResult<T> {
    let p = proc.nprocs();
    let threshold = cfg.threshold(p);
    let kernel = cfg.kernel_for(Algorithm::MedianOfMedians);
    let mut local_rng = KernelRng::derive(cfg.seed, proc.rank() as u64 + 1);
    let mut p0_rng = KernelRng::derive(cfg.seed, 0x9000);

    let mut nr = Narrow { n: n0, k: k0 };
    let mut iterations = 0u32;
    let mut balance = BalanceReport::default();
    let mut early: Option<T> = None;
    let mut survivors = Vec::new();

    while nr.n > threshold {
        survivors.push(nr.n);
        iterations += 1;
        assert!(
            iterations <= cfg.max_iters,
            "median-of-medians exceeded {} iterations (n={}, k={})",
            cfg.max_iters,
            nr.n,
            nr.k
        );

        // Step 1: local median (processors whose set is exhausted abstain).
        let mi: Option<T> = if data.is_empty() {
            None
        } else {
            let mut ops = OpCount::new();
            let rank = median_rank(data.len());
            let m = select_with(kernel, data.to_mut(), rank, &mut local_rng, &mut ops);
            proc.charge_ops(ops.total());
            Some(m)
        };

        // Steps 2–3: gather medians; P0 selects their median; broadcast.
        let gathered = proc.gather(0, mi);
        let mom_opt: Option<T> = gathered.map(|list| {
            let mut vals: Vec<T> = list.into_iter().flatten().collect();
            assert!(!vals.is_empty(), "n > 0 but every processor is empty");
            let mut ops = OpCount::new();
            let rank = median_rank(vals.len());
            let m = select_with(kernel, &mut vals, rank, &mut p0_rng, &mut ops);
            proc.charge_ops(ops.total());
            m
        });
        let mom: T = proc.broadcast(0, mom_opt);

        // Steps 4–6: count, combine, keep.
        if let Some(v) = pivot_narrow(proc, &mut data, &mut nr, mom) {
            early = Some(v);
            break;
        }

        // Step 7: load balance.
        balance_round(proc, cfg.balancer, &mut data, &mut balance);
    }

    // Steps 8–9: gather survivors, solve sequentially, broadcast.
    let value = match early {
        Some(v) => v,
        None => finish(proc, data.into_vec(), nr.k, kernel, &mut local_rng),
    };
    AlgoResult { value, iterations, unsuccessful: 0, balance, survivors }
}
