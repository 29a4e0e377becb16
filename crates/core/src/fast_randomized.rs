//! Algorithm 4 — Fast randomized parallel selection.

use cgselect_balance::BalanceReport;
use cgselect_runtime::{Key, Proc, PHASE_SORT};
use cgselect_seqsel::{count_zones, partition3_kernel, KernelRng, OpCount, Zone, ZoneCounts};
use cgselect_sort::sorted_ranks_of;

use crate::common::{balance_round, bracket_ranks, finish, sum_zones, Local, Narrow};
use crate::randomized::random_pivot_step;
use crate::{AlgoResult, Algorithm, SelectionConfig};

/// Runs fast randomized selection (paper Algorithm 4, after Rajasekaran et
/// al.): `O(log log n)` iterations w.h.p.
///
/// Each iteration samples ~`n^ε` keys (ε = 0.6 per the paper's tuning),
/// parallel-sorts the sample, brackets the target between the sample
/// elements of ranks `m ± δ` (`m = k·|S|/n`, `δ = √(|S|·ln n)`), splits
/// the data into zones against the bracket `[k₁, k₂]` and keeps only the
/// zone containing the target. With high probability that zone is the
/// middle one, whose expected size shrinks super-geometrically. When the
/// target falls outside the bracket (an *unsuccessful* iteration), the
/// paper's modification still discards everything on the far side rather
/// than retrying the sample.
///
/// The caller's slice is never partitioned: it is only counted, and the
/// first round that discards some of it copies just the survivors out.
/// Owned survivors are partitioned in place, as the paper's Step 5 does.
/// (Counting and keeping in those rounds too makes them so cheap that load
/// balancing no longer pays off on sorted input, which reverses the
/// paper's finding that it does for this algorithm.)
///
/// A degeneracy guard handles bracket-covers-everything rounds on heavily
/// duplicated data: if no element would be discarded, the round falls back
/// to one shared-pivot discard step (Algorithm 3's body), which always
/// makes progress.
pub(crate) fn run<T: Key>(
    proc: &mut Proc,
    mut data: Local<'_, T>,
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

        // Step 1: draw a local sample of expected size nᵢ·n^(ε−1), by index
        // with replacement (the sample only proposes the bracket).
        let ni = data.len() as u64;
        let frac = (nr.n as f64).powf(cfg.epsilon - 1.0);
        let si = if ni == 0 { 0 } else { ((ni as f64 * frac).ceil() as u64).min(ni) };
        let sample: Vec<T> = (0..si).map(|_| data[local_rng.below(ni) as usize]).collect();
        proc.charge_ops(2 * si);

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

        // Steps 5–7: split into < k₁ | [k₁, k₂] | > k₂ and combine the
        // zone counts.
        let mut ops = OpCount::new();
        let split = match data.owned_mut() {
            Some(owned) => {
                let (a, b) = partition3_kernel(owned, v1, v2, &mut ops);
                Split::Cut(a, b)
            }
            None => Split::Counted(count_zones(&data, v1, v2, &mut ops)),
        };
        proc.charge_ops(ops.total());
        let counts = sum_zones(proc, split.sizes(data.len()));

        // Step 8: keep the target's zone (with the degeneracy guard).
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
            let (zone, successful) = nr.decide_bracket(counts);
            if !successful {
                unsuccessful += 1;
            }
            match split {
                Split::Cut(a, b) => {
                    let owned = data.owned_mut().expect("a cut vector is owned");
                    keep_cut(proc, owned, zone, a, b);
                }
                Split::Counted(local) => data.keep(proc, v1, v2, zone, local),
            }
        }

        // Optional load balancing between iterations.
        balance_round(proc, cfg.balancer, &mut data, &mut balance);
    }

    // Steps 9–10: gather survivors, solve sequentially, broadcast.
    let value = match early {
        Some(v) => v,
        None => finish(proc, data.into_vec(), nr.k, kernel, &mut local_rng),
    };
    AlgoResult { value, iterations, unsuccessful, balance, survivors }
}

/// This processor's Step 5 split against the bracket.
enum Split {
    /// Owned survivors partitioned in place: `[..a)` below the bracket,
    /// `[a..b)` in it, `[b..)` above it.
    Cut(usize, usize),
    /// The caller's slice, counted only.
    Counted(ZoneCounts),
}

impl Split {
    /// Local zone sizes of a `len`-element split.
    fn sizes(&self, len: usize) -> (u64, u64, u64) {
        match *self {
            Split::Cut(a, b) => (a as u64, (b - a) as u64, (len - b) as u64),
            Split::Counted(counts) => counts.sizes,
        }
    }
}

/// Keeps `zone` of a vector partitioned at `a ≤ b`, charging the element
/// moves that a front drain makes.
fn keep_cut<T: Key>(proc: &mut Proc, data: &mut Vec<T>, zone: Zone, a: usize, b: usize) {
    match zone {
        Zone::Below => data.truncate(a),
        Zone::Between => {
            data.truncate(b);
            data.drain(..a);
            proc.charge_ops(data.len() as u64);
        }
        Zone::Above => {
            data.drain(..b);
            proc.charge_ops(data.len() as u64);
        }
    }
}
