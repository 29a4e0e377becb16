//! Machinery shared by all four selection algorithms: the iterative
//! narrowing state, the three-way counting step, and the sequential finish.

use cgselect_runtime::{Key, Proc, PHASE_FINISH};
use cgselect_seqsel::{
    partition3_kernel, partition_bound_kernel, select_with, KernelRng, LocalKernel, OpCount,
    SepBound,
};

/// Global narrowing state carried across iterations: `n` elements remain in
/// play and the target has 0-based rank `k` among them.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Narrow {
    pub n: u64,
    pub k: u64,
}

/// Outcome of one three-way narrowing decision.
pub(crate) enum Step {
    /// Keep the `< pivot` zone (local prefix of length `.0`).
    Low(usize),
    /// The target equals the pivot: selection is done.
    Done,
    /// Keep the `> hi` zone (local suffix starting at `.0`).
    High(usize),
    /// Keep the middle `[lo, hi]` zone (local `[a, b)`), used by fast
    /// randomized selection.
    Mid(usize, usize),
}

impl Narrow {
    /// Decides which zone survives given the global three-zone counts
    /// `(c_lt, c_eq_or_mid, c_gt)` and this processor's local zone bounds
    /// `(a, b)` (as returned by `partition3_kernel`). Updates `n`/`k` accordingly.
    ///
    /// For the single-pivot algorithms the middle zone is the pivot's
    /// equality class, so landing in it means the pivot *is* the answer —
    /// the degenerate-duplicate livelock of a two-way `≤`/`>` split (keep
    /// "everything ≤ max" forever) cannot occur.
    pub fn decide_eq(&mut self, counts: (u64, u64, u64), a: usize, b: usize) -> Step {
        let (c_lt, c_eq, _c_gt) = counts;
        debug_assert!(self.k < self.n);
        if self.k < c_lt {
            self.n = c_lt;
            Step::Low(a)
        } else if self.k < c_lt + c_eq {
            Step::Done
        } else {
            self.k -= c_lt + c_eq;
            self.n -= c_lt + c_eq;
            Step::High(b)
        }
    }

    /// Bracket decision for fast randomized selection: the middle zone is
    /// `[k₁, k₂]`, kept when the target's rank falls inside it. Returns
    /// `(step, successful)` where `successful` is false when the target
    /// fell outside the bracket (the paper's "unsuccessful iteration" —
    /// the far side is still discarded, per the paper's modification).
    pub fn decide_bracket(&mut self, counts: (u64, u64, u64), a: usize, b: usize) -> (Step, bool) {
        let (c_less, c_mid, c_high) = counts;
        debug_assert!(self.k < self.n);
        if self.k < c_less {
            self.n = c_less;
            (Step::Low(a), false)
        } else if self.k < c_less + c_mid {
            self.k -= c_less;
            self.n = c_mid;
            (Step::Mid(a, b), true)
        } else {
            self.k -= c_less + c_mid;
            self.n = c_high;
            debug_assert_eq!(self.n, c_high);
            (Step::High(b), false)
        }
    }
}

/// Algorithm 4's bracket arithmetic: the ranks, in a sorted sample of `s ≥ 1`
/// keys drawn from `n`, between which the element of global rank `k` is
/// expected — `k₁ = ⌊m − δ⌋` and `k₂ = ⌈m + δ⌉` around `m = k·s/n`, each
/// clamped into the sample (a bracket reaching past either end stops at
/// the sample's minimum or maximum).
pub(crate) fn bracket_ranks(k: u64, n: u64, s: u64, delta: f64) -> (u64, u64) {
    let m = (k as f64) * (s as f64) / (n as f64);
    let max_rank = (s - 1) as f64;
    (
        (m - delta).floor().clamp(0.0, max_rank) as u64,
        (m + delta).ceil().clamp(0.0, max_rank) as u64,
    )
}

/// Applies a [`Step`] to the physical local vector, charging the element
/// moves that the shrink actually performs (a front drain shifts the
/// surviving suffix).
pub(crate) fn apply_step<T: Key>(proc: &mut Proc, data: &mut Vec<T>, step: &Step) {
    match *step {
        Step::Low(a) => data.truncate(a),
        Step::High(b) => {
            data.drain(..b);
            proc.charge_ops(data.len() as u64);
        }
        Step::Mid(a, b) => {
            data.truncate(b);
            data.drain(..a);
            proc.charge_ops(data.len() as u64);
        }
        Step::Done => {}
    }
}

/// The paper's Steps 4–6 for the single-pivot algorithms (1 and 3): a
/// two-way `≤ pivot` partition of the local window, one Combine of the
/// global count, and the rank/window update — exactly the pseudo-code's
/// cheap per-iteration scan.
///
/// A two-way split alone can livelock on duplicate-heavy data (pivot =
/// maximum of the remaining set ⇒ "keep ≤" retains everything); when that
/// degenerate round is detected the function re-partitions three-way to
/// isolate the pivot's equality class, which either answers the query
/// outright or strictly shrinks the set. Returns `Some(pivot)` when the
/// target's rank falls in the pivot's equality class.
pub(crate) fn two_way_narrow<T: Key>(
    proc: &mut Proc,
    data: &mut Vec<T>,
    nr: &mut Narrow,
    pivot: T,
) -> Option<T> {
    let mut ops = OpCount::new();
    let idx = partition_bound_kernel(data, SepBound::le(pivot), &mut ops);
    proc.charge_ops(ops.total());
    let count = proc.combine(idx as u64, |a, b| a + b);
    debug_assert!(count >= 1, "the pivot itself always lands in the <= zone");
    if nr.k < count {
        if count == nr.n {
            // Degenerate: pivot >= every remaining element.
            let mut ops = OpCount::new();
            let (a, b) = partition3_kernel(data, pivot, pivot, &mut ops);
            proc.charge_ops(ops.total());
            let counts = combine_zone_counts(proc, a, b, data.len());
            let step = nr.decide_eq(counts, a, b);
            if matches!(step, Step::Done) {
                return Some(pivot);
            }
            apply_step(proc, data, &step);
        } else {
            data.truncate(idx);
            nr.n = count;
        }
    } else {
        data.drain(..idx);
        proc.charge_ops(data.len() as u64);
        nr.k -= count;
        nr.n -= count;
    }
    None
}

/// The epilogue every algorithm shares (its Steps "Gather / sequential
/// selection on P0 / Broadcast"): gather the survivors, solve sequentially
/// with the configured kernel, publish the answer.
pub(crate) fn finish<T: Key>(
    proc: &mut Proc,
    local: Vec<T>,
    k: u64,
    kernel: LocalKernel,
    rng: &mut KernelRng,
) -> T {
    proc.phase_begin(PHASE_FINISH);
    let gathered = proc.gather_flat(0, local);
    let result = gathered.map(|mut all| {
        assert!(
            (k as usize) < all.len(),
            "finish: rank {k} out of range for {} surviving elements (internal invariant)",
            all.len()
        );
        let mut ops = OpCount::new();
        let v = select_with(kernel, &mut all, k as usize, rng, &mut ops);
        proc.charge_ops(ops.total());
        v
    });
    let v = proc.broadcast(0, result);
    proc.phase_end(PHASE_FINISH);
    v
}

/// Combines local `(a, b, rest)` zone sizes into global zone counts with a
/// single Combine of a 3-tuple (one collective, as in the paper's Step 5/6
/// pair — we fuse the two Combines into one message of three counters).
pub(crate) fn combine_zone_counts(
    proc: &mut Proc,
    a: usize,
    b: usize,
    len: usize,
) -> (u64, u64, u64) {
    let local = (a as u64, (b - a) as u64, (len - b) as u64);
    proc.combine(local, |x, y| (x.0 + y.0, x.1 + y.1, x.2 + y.2))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decide_eq_narrows_correctly() {
        // 10 lt, 3 eq, 7 gt; target rank 11 is inside the eq class.
        let mut nr = Narrow { n: 20, k: 11 };
        assert!(matches!(nr.decide_eq((10, 3, 7), 4, 6), Step::Done));

        let mut nr = Narrow { n: 20, k: 4 };
        assert!(matches!(nr.decide_eq((10, 3, 7), 4, 6), Step::Low(4)));
        assert_eq!((nr.n, nr.k), (10, 4));

        let mut nr = Narrow { n: 20, k: 15 };
        assert!(matches!(nr.decide_eq((10, 3, 7), 4, 6), Step::High(6)));
        assert_eq!((nr.n, nr.k), (7, 2));
    }

    #[test]
    fn bracket_ranks_center_on_the_scaled_rank_and_clamp_into_the_sample() {
        // k = 500 of n = 1000 in a sample of 100: m = 50.
        assert_eq!(bracket_ranks(500, 1000, 100, 7.5), (42, 58));
        assert_eq!(bracket_ranks(0, 1000, 100, 7.5), (0, 8));
        assert_eq!(bracket_ranks(999, 1000, 100, 7.5), (92, 99));
        assert_eq!(bracket_ranks(3, 10, 1, 2.0), (0, 0));
    }

    #[test]
    fn decide_bracket_marks_unsuccessful() {
        let mut nr = Narrow { n: 100, k: 3 };
        let (step, ok) = nr.decide_bracket((10, 50, 40), 1, 6);
        assert!(matches!(step, Step::Low(1)));
        assert!(!ok);
        assert_eq!((nr.n, nr.k), (10, 3));

        let mut nr = Narrow { n: 100, k: 30 };
        let (step, ok) = nr.decide_bracket((10, 50, 40), 1, 6);
        assert!(matches!(step, Step::Mid(1, 6)));
        assert!(ok);
        assert_eq!((nr.n, nr.k), (50, 20));

        let mut nr = Narrow { n: 100, k: 99 };
        let (step, ok) = nr.decide_bracket((10, 50, 40), 1, 6);
        assert!(matches!(step, Step::High(6)));
        assert!(!ok);
        assert_eq!((nr.n, nr.k), (40, 39));
    }
}
