//! Algorithm 3 — Randomized parallel selection.

use cgselect_balance::BalanceReport;
use cgselect_runtime::{Key, Proc};
use cgselect_seqsel::KernelRng;

use crate::common::{balance_round, finish, pivot_narrow, Local, Narrow};
use crate::{AlgoResult, Algorithm, SelectionConfig};

/// One pivot-discard round of randomized selection, shared with the
/// fast-randomized algorithm's degeneracy fallback.
///
/// Every processor draws the *same* global index from the shared stream
/// (paper §3.3: same generator, same seed on all processors); a parallel
/// prefix locates the owner, who publishes the element; everyone counts
/// its zones against it, a Combine decides the surviving zone, and only
/// that zone is kept ([`pivot_narrow`]). Returns `Some(pivot)` if the
/// target's rank landed in the pivot's equality class.
pub(crate) fn random_pivot_step<T: Key>(
    proc: &mut Proc,
    data: &mut Local<'_, T>,
    nr: &mut Narrow,
    shared_rng: &mut KernelRng,
) -> Option<T> {
    // Steps 0–3: shared draw; prefix-sum ownership; owner broadcast.
    let idx = shared_rng.below(nr.n);
    let len = data.len() as u64;
    let before = proc.exclusive_prefix_sum(len);
    let mine = (before <= idx && idx < before + len).then(|| data[(idx - before) as usize]);
    let guess: T = proc.bcast_from_owner(mine);

    // Steps 4–6: count, combine, keep.
    pivot_narrow(proc, data, nr, guess)
}

/// Runs randomized parallel selection (paper Algorithm 3): expected
/// `O(log n)` iterations, each discarding about half of the remaining
/// elements around a uniformly random pivot. The first round counts on
/// the caller's slice and copies only its survivors.
pub(crate) fn run<T: Key>(
    proc: &mut Proc,
    mut data: Local<'_, T>,
    k0: u64,
    n0: u64,
    cfg: &SelectionConfig,
) -> AlgoResult<T> {
    let p = proc.nprocs();
    let threshold = cfg.threshold(p);
    let kernel = cfg.kernel_for(Algorithm::Randomized);
    let mut shared_rng = KernelRng::new(cfg.seed);
    let mut local_rng = KernelRng::derive(cfg.seed, proc.rank() as u64 + 1);

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
            "randomized selection exceeded {} iterations (n={}, k={})",
            cfg.max_iters,
            nr.n,
            nr.k
        );
        if let Some(v) = random_pivot_step(proc, &mut data, &mut nr, &mut shared_rng) {
            early = Some(v);
            break;
        }
        // Step 7 (optional): load balance.
        balance_round(proc, cfg.balancer, &mut data, &mut balance);
    }

    let value = match early {
        Some(v) => v,
        None => finish(proc, data.into_vec(), nr.k, kernel, &mut local_rng),
    };
    AlgoResult { value, iterations, unsuccessful: 0, balance, survivors }
}
