//! Algorithm 2 — Bucket-based parallel selection.

use cgselect_balance::BalanceReport;
use cgselect_runtime::{Key, Proc};
use cgselect_seqsel::{
    median_rank, weighted_median, Buckets, KernelRng, LocalKernel, OpCount, Zone,
};

use crate::common::{finish, Narrow};
use crate::{AlgoResult, Algorithm, SelectionConfig};

/// Runs bucket-based parallel selection (paper Algorithm 2, after
/// Rajasekaran et al.).
///
/// Two ideas distinguish it from median-of-medians:
///
/// 1. the estimated median is the **weighted** median of the local medians
///    (weights = remaining counts), so the fixed-fraction discard guarantee
///    survives arbitrary imbalance and **no load balancing is ever needed**
///    — data never moves between processors until the final gather;
/// 2. each processor preprocesses its data into `log p` value-ordered
///    buckets (`O((n/p)·log log p)`), after which both per-iteration local
///    operations (median by rank, split by the estimated median) cost only
///    `O(log log p + n/(p log p))` instead of `O(n/p)`.
///
/// The active set on each processor is a window into the bucket structure
/// that always starts and ends on bucket boundaries.
pub(crate) fn run<T: Key>(
    proc: &mut Proc,
    data: Vec<T>,
    k0: u64,
    n0: u64,
    cfg: &SelectionConfig,
) -> AlgoResult<T> {
    let p = proc.nprocs();
    let threshold = cfg.threshold(p);
    let kernel = cfg.kernel_for(Algorithm::BucketBased);
    let mut local_rng = KernelRng::derive(cfg.seed, proc.rank() as u64 + 1);

    // Step 0: bucket preprocessing. The structure only needs *exact*
    // splits, not the classic Blum-et-al. algorithm's identity, so it is
    // always built with the cheap deterministic introselect — the
    // deterministic/randomized kernel axis (including the paper's hybrid
    // experiment) applies to the *per-iteration* local selections below,
    // which use the same deterministic kernel as Algorithm 1 by default.
    let build_kernel = LocalKernel::IntroSelect;
    let nbuckets = if p <= 2 { 1 } else { (usize::BITS - (p - 1).leading_zeros()) as usize };
    let mut ops = OpCount::new();
    let mut buckets = Buckets::build(data, nbuckets.max(1), build_kernel, &mut local_rng, &mut ops);
    proc.charge_ops(ops.total());
    let mut window = buckets.full_window();

    let mut nr = Narrow { n: n0, k: k0 };
    let mut iterations = 0u32;
    let mut early: Option<T> = None;
    let mut survivors = Vec::new();

    while nr.n > threshold {
        survivors.push(nr.n);
        iterations += 1;
        assert!(
            iterations <= cfg.max_iters,
            "bucket-based selection exceeded {} iterations (n={}, k={})",
            cfg.max_iters,
            nr.n,
            nr.k
        );

        // Step 1: local median of the active window, through the buckets.
        let mi: Option<(T, u64)> = if window.is_empty() {
            None
        } else {
            let len = window.len();
            let mut ops = OpCount::new();
            let m = buckets.select_rank(
                window.clone(),
                median_rank(len),
                kernel,
                &mut local_rng,
                &mut ops,
            );
            proc.charge_ops(ops.total());
            Some((m, len as u64))
        };

        // Steps 2–3: gather (median, count) pairs; P0 computes the
        // weighted median; broadcast.
        let gathered = proc.gather(0, mi);
        let wm_opt: Option<T> = gathered.map(|list| {
            let pairs: Vec<(T, u64)> = list.into_iter().flatten().collect();
            assert!(!pairs.is_empty(), "n > 0 but every processor is empty");
            let mut ops = OpCount::new();
            let wm = weighted_median(&pairs, &mut ops);
            proc.charge_ops(ops.total());
            wm
        });
        let wm: T = proc.broadcast(0, wm_opt);

        // Steps 4–6: bracket split through the buckets (only the straddling
        // bucket is scanned), combine counts, narrow the window.
        let mut ops = OpCount::new();
        let (lt, le) = buckets.split_bracket(window.clone(), wm, &mut ops);
        proc.charge_ops(ops.total());
        let local = (lt as u64, (le - lt) as u64, (window.len() - le) as u64);
        let counts = proc.combine(local, |x, y| (x.0 + y.0, x.1 + y.1, x.2 + y.2));
        match nr.decide_eq(counts) {
            None => {
                early = Some(wm);
                break;
            }
            Some(Zone::Below) => window = window.start..window.start + lt,
            Some(Zone::Above) => window = window.start + le..window.end,
            Some(Zone::Between) => unreachable!("decide_eq keeps no middle zone"),
        }
    }

    // Steps 7–8: gather the surviving window, solve sequentially, broadcast.
    let value = match early {
        Some(v) => v,
        None => {
            let remaining = buckets.window_elements(window);
            proc.charge_ops(remaining.len() as u64);
            finish(proc, remaining, nr.k, kernel, &mut local_rng)
        }
    };
    AlgoResult { value, iterations, unsuccessful: 0, balance: BalanceReport::default(), survivors }
}
