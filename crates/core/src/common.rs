//! Machinery shared by all four selection algorithms: the iterative
//! narrowing state, the count-then-keep round, and the sequential finish.

use std::ops::Deref;

use cgselect_balance::{rebalance, BalanceReport, Balancer};
use cgselect_runtime::{Key, Proc, PHASE_FINISH};
use cgselect_seqsel::{
    copy_zone, count_zones, keep_zone, select_with, KernelRng, LocalKernel, OpCount, Zone,
    ZoneCounts,
};

/// A processor's remaining elements. Until a round first discards some of
/// them they are the caller's slice, read in place; from then on they are
/// the survivors, in an owned buffer.
///
/// The buffer is reserved at the slice's length by [`Local::borrowed`],
/// which the driver calls before the selection's first message is
/// allocated. Reserving touches no page until survivors are written, and
/// it hands the allocator the same request at the same point of every
/// selection, so each one reuses the block the previous one freed. Sized
/// instead to the first round's survivors, or reserved after the first
/// messages, the blocks landed in new places from one selection to the
/// next, the allocator kept the freed ones resident, and peak memory grew.
pub(crate) struct Local<'a, T> {
    input: Option<&'a [T]>,
    kept: Vec<T>,
}

impl<'a, T: Key> Local<'a, T> {
    /// Reads `input` in place until the first discard, with the buffer for
    /// the survivors reserved.
    pub(crate) fn borrowed(input: &'a [T]) -> Self {
        Local { input: Some(input), kept: Vec::with_capacity(input.len()) }
    }

    /// The elements as an owned vector, copying the caller's slice if no
    /// round has discarded yet.
    pub(crate) fn to_mut(&mut self) -> &mut Vec<T> {
        if let Some(input) = self.input.take() {
            self.kept.extend_from_slice(input);
        }
        &mut self.kept
    }

    /// The owned survivors, once a round has discarded some of the
    /// caller's elements; `None` while the slice is still read in place.
    pub(crate) fn owned_mut(&mut self) -> Option<&mut Vec<T>> {
        self.input.is_none().then_some(&mut self.kept)
    }

    /// The elements as an owned vector (see [`Local::to_mut`]).
    pub(crate) fn into_vec(mut self) -> Vec<T> {
        self.to_mut();
        self.kept
    }

    /// Keeps only `zone` of `[lo, hi]`, given this processor's `counts`.
    /// Keeping everything leaves the caller's slice unread; the first real
    /// discard copies only the survivors out of it, and later ones compact
    /// the buffer in place.
    pub(crate) fn keep(&mut self, proc: &mut Proc, lo: T, hi: T, zone: Zone, counts: ZoneCounts) {
        if counts.size(zone) == self.len() {
            return;
        }
        let mut ops = OpCount::new();
        match self.input.take() {
            Some(input) => copy_zone(input, lo, hi, zone, counts, &mut self.kept, &mut ops),
            None => keep_zone(&mut self.kept, lo, hi, zone, counts, &mut ops),
        }
        proc.charge_ops(ops.total());
    }
}

impl<T> Deref for Local<'_, T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        self.input.unwrap_or(&self.kept)
    }
}

/// Sizes of the three zones `(< lo, [lo, hi], > hi)` of a bracket.
pub(crate) type Zones = (u64, u64, u64);

/// Global narrowing state carried across iterations: `n` elements remain in
/// play and the target has 0-based rank `k` among them.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Narrow {
    pub n: u64,
    pub k: u64,
}

impl Narrow {
    /// Single-pivot decision from the global zone counts of the bracket
    /// `[pivot, pivot]`: the zone that holds the target, or `None` when the
    /// target lies in the pivot's equality class — the pivot is the answer.
    /// Updates `n`/`k` to the kept zone.
    ///
    /// Because the equality class is a zone of its own, every round either
    /// answers or discards the pivot with its class, so duplicate-heavy
    /// inputs cannot stall the narrowing.
    pub(crate) fn decide_eq(&mut self, counts: Zones) -> Option<Zone> {
        let (c_lt, c_eq, _c_gt) = counts;
        debug_assert!(self.k < self.n);
        if self.k < c_lt {
            self.n = c_lt;
            Some(Zone::Below)
        } else if self.k < c_lt + c_eq {
            None
        } else {
            self.k -= c_lt + c_eq;
            self.n -= c_lt + c_eq;
            Some(Zone::Above)
        }
    }

    /// Bracket decision for fast randomized selection: the middle zone is
    /// `[k₁, k₂]`, kept when the target's rank falls inside it. Returns
    /// `(zone, successful)` where `successful` is false when the target
    /// fell outside the bracket (the paper's "unsuccessful iteration" —
    /// the far side is still discarded, per the paper's modification).
    pub(crate) fn decide_bracket(&mut self, counts: Zones) -> (Zone, bool) {
        let (c_less, c_mid, c_high) = counts;
        debug_assert!(self.k < self.n);
        if self.k < c_less {
            self.n = c_less;
            (Zone::Below, false)
        } else if self.k < c_less + c_mid {
            self.k -= c_less;
            self.n = c_mid;
            (Zone::Between, true)
        } else {
            self.k -= c_less + c_mid;
            self.n = c_high;
            (Zone::Above, false)
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

/// Steps "partition, Combine" of a narrowing round without the partition:
/// one fused sweep counts this processor's zones of `[lo, hi]`, and one
/// Combine of the three counts sums them. Returns this processor's counts
/// and the global zone sizes.
pub(crate) fn combine_zone_counts<T: Key>(
    proc: &mut Proc,
    data: &[T],
    lo: T,
    hi: T,
) -> (ZoneCounts, Zones) {
    let mut ops = OpCount::new();
    let local = count_zones(data, lo, hi, &mut ops);
    proc.charge_ops(ops.total());
    (local, sum_zones(proc, local.sizes))
}

/// One Combine of this processor's three zone sizes (a single collective,
/// as in the paper's Step 5/6 pair — the two Combines fused into one
/// message of three counters): the global zone sizes.
pub(crate) fn sum_zones(proc: &mut Proc, local: Zones) -> Zones {
    proc.combine(local, |x, y| (x.0 + y.0, x.1 + y.1, x.2 + y.2))
}

/// The paper's Steps 4–6 for the single-pivot algorithms (1 and 3): count
/// the zones of `[pivot, pivot]`, Combine them, and keep the zone holding
/// the target. Returns `Some(pivot)` when the target's rank falls in the
/// pivot's equality class.
pub(crate) fn pivot_narrow<T: Key>(
    proc: &mut Proc,
    data: &mut Local<'_, T>,
    nr: &mut Narrow,
    pivot: T,
) -> Option<T> {
    let (local, global) = combine_zone_counts(proc, data, pivot, pivot);
    match nr.decide_eq(global) {
        None => Some(pivot),
        Some(zone) => {
            data.keep(proc, pivot, pivot, zone, local);
            None
        }
    }
}

/// The optional load-balance step between rounds. `Balancer::None` moves
/// nothing, so it is skipped and leaves a borrowed slice borrowed.
pub(crate) fn balance_round<T: Key>(
    proc: &mut Proc,
    balancer: Balancer,
    data: &mut Local<'_, T>,
    report: &mut BalanceReport,
) {
    if balancer != Balancer::None {
        report.absorb(rebalance(balancer, proc, data.to_mut()));
    }
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decide_eq_narrows_correctly() {
        // 10 lt, 3 eq, 7 gt; target rank 11 is inside the eq class.
        let mut nr = Narrow { n: 20, k: 11 };
        assert_eq!(nr.decide_eq((10, 3, 7)), None);

        let mut nr = Narrow { n: 20, k: 4 };
        assert_eq!(nr.decide_eq((10, 3, 7)), Some(Zone::Below));
        assert_eq!((nr.n, nr.k), (10, 4));

        let mut nr = Narrow { n: 20, k: 15 };
        assert_eq!(nr.decide_eq((10, 3, 7)), Some(Zone::Above));
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
        assert_eq!(nr.decide_bracket((10, 50, 40)), (Zone::Below, false));
        assert_eq!((nr.n, nr.k), (10, 3));

        let mut nr = Narrow { n: 100, k: 30 };
        assert_eq!(nr.decide_bracket((10, 50, 40)), (Zone::Between, true));
        assert_eq!((nr.n, nr.k), (50, 20));

        let mut nr = Narrow { n: 100, k: 99 };
        assert_eq!(nr.decide_bracket((10, 50, 40)), (Zone::Above, false));
        assert_eq!((nr.n, nr.k), (40, 39));
    }
}
