//! The deterministic mergeable ε-sketch: a **signed** pair of compactor
//! hierarchies in the Munro–Paterson / deterministic-KLL style.
//!
//! One hierarchy ([`Compactors`]) summarises a stream: level `h` holds
//! items of weight `2^h`. A new item is appended to level 0; when a level
//! fills to the capacity `k` it is **compacted**: sorted, then every other
//! item (alternating the starting parity deterministically) is promoted to
//! the next level with doubled weight. Total mass `Σ weight` always equals
//! the number of items the hierarchy has seen, and each compaction at level
//! `h` moves any value's estimated rank by at most `2^h`; the hierarchy
//! *maintains its own worst-case error* in `err` rather than quoting an
//! asymptotic.
//!
//! The sketch holds two of them: **added** summarises every
//! [`offer`](EpsSketch::offer), **removed** every
//! [`remove`](EpsSketch::remove), and the represented multiset is *added −
//! removed* ([`population`](EpsSketch::population) is the difference of the
//! two masses). Queries read one joint sorted view in which added items
//! weigh `+2^h` and removed items `−2^h` (a value's removed items sort
//! before its added ones); the **signed prefix** of that view estimates a
//! value's rank among the survivors. Each side's estimate is off by at most
//! its own `err`, so the errors add:
//!
//! * value → rank ([`EpsSketch::rank_of`]): error ≤
//!   [`count_error_bound`](EpsSketch::count_error_bound)
//!   `= added.err + removed.err`;
//! * rank → value ([`EpsSketch::query_rank`]): the returned value's rank
//!   window among the survivors is within
//!   [`rank_error_bound`](EpsSketch::rank_error_bound)
//!   `= count_error_bound + w_max − 1` of the target, where `w_max` is the
//!   largest item weight on either side (the discretization gap of picking
//!   one weighted item).
//!
//! A signed prefix is not monotone — a run of removed items dips it — so
//! `query_rank` searches its **running maximum** instead: the first view
//! position at which the maximum reaches `target + 1`. The bound survives
//! because the quantity being estimated, the true rank function, *is*
//! monotone: every position before the hit has a signed prefix `≤ target`,
//! so the hit value's strict rank is at most `target + err`; at the hit the
//! prefix itself is `≥ target + 1` and only added items of the same value
//! follow it, so its inclusive rank is at least `target + 1 − err`. The
//! value returned may no longer be resident (every copy of it may have been
//! removed); the guarantee is on its rank window, with an absent value
//! occupying its insertion position.
//!
//! Summed over a stream of `n` items each side's error is
//! `O((n/k)·log(n/k))` — deterministic, no RNG anywhere, so equal
//! offer/remove streams give bit-identical sketches on every backend and
//! every host. With an empty removed side every answer and bound is exactly
//! the unsigned sketch's.
//!
//! `merge` concatenates levels side by side, adds the `err` terms, and
//! re-compacts: the bound is **closed under merge**, which is what lets
//! shard sketches ride migration/join/retire snapshots and still sum to a
//! valid global guarantee.

use cgselect_runtime::wiremsg::{decode_frame, encode_slice};
use cgselect_runtime::{Key, WireMsg, WireMsgError, WireReader};

/// One compactor hierarchy: the summary of one stream of items (everything
/// offered, or everything removed).
#[derive(Clone, Debug, PartialEq, Eq)]
struct Compactors<T> {
    /// Number of items pushed (or merged in); the total mass.
    n: u64,
    /// Accumulated worst-case rank error from every compaction so far.
    err: u64,
    /// `levels[h]` holds unsorted items of weight `2^h`.
    levels: Vec<Vec<T>>,
    /// Per-level compaction parity: which half survives next time.
    parities: Vec<bool>,
}

impl<T: Key> Compactors<T> {
    fn new() -> Self {
        Compactors { n: 0, err: 0, levels: Vec::new(), parities: Vec::new() }
    }

    /// True when no item is stored (nothing pushed yet, or capacity 0).
    fn is_empty(&self) -> bool {
        self.levels.iter().all(|l| l.is_empty())
    }

    /// Counts one item and, unless the capacity `k` is 0, stores it.
    fn push(&mut self, k: usize, x: T) {
        self.n += 1;
        if k == 0 {
            return;
        }
        if self.levels.is_empty() {
            self.levels.push(Vec::with_capacity(k));
            self.parities.push(false);
        }
        self.levels[0].push(x);
        if self.levels[0].len() >= k {
            self.compact(k, 0);
        }
    }

    /// Folds `other` in: counts and errors add; items are absorbed level by
    /// level and re-compacted unless the capacity `k` is 0.
    fn absorb(&mut self, k: usize, other: &Compactors<T>) {
        self.n += other.n;
        self.err += other.err;
        if k == 0 || other.is_empty() {
            // A disabled sketch absorbs only the counts; with no storage
            // there is nothing to answer from, and the engine never routes
            // queries here.
            return;
        }
        while self.levels.len() < other.levels.len() {
            self.levels.push(Vec::new());
            self.parities.push(false);
        }
        for (h, level) in other.levels.iter().enumerate() {
            self.levels[h].extend_from_slice(level);
        }
        let mut h = 0;
        while h < self.levels.len() {
            if self.levels[h].len() >= k {
                self.compact(k, h);
            }
            h += 1;
        }
    }

    /// Compacts level `h`: sort, hold one item back if the count is odd,
    /// promote every other item (alternating parity) with doubled weight.
    /// Adds `2^h` to the worst-case error and cascades if the next level
    /// fills.
    fn compact(&mut self, k: usize, h: usize) {
        if self.levels.len() <= h + 1 {
            self.levels.push(Vec::new());
            self.parities.push(false);
        }
        let mut buf = std::mem::take(&mut self.levels[h]);
        buf.sort_unstable();
        // An odd survivor stays at this level so promotion always pairs
        // items; mass is conserved either way.
        if buf.len() % 2 == 1 {
            let stay = buf.pop().expect("nonempty odd buffer");
            self.levels[h].push(stay);
        }
        let parity = self.parities[h];
        self.parities[h] = !parity;
        let mut i = usize::from(parity);
        while i < buf.len() {
            self.levels[h + 1].push(buf[i]);
            i += 2;
        }
        self.err += 1u64 << h;
        if self.levels[h + 1].len() >= k {
            self.compact(k, h + 1);
        }
    }

    /// The largest item weight currently held (1 when nothing is stored).
    fn max_weight(&self) -> u64 {
        self.levels
            .iter()
            .enumerate()
            .rev()
            .find(|(_, level)| !level.is_empty())
            .map_or(1, |(h, _)| 1u64 << h)
    }

    /// Whether capacity `k` can hold this hierarchy: none when `k = 0` (a
    /// disabled sketch only counts), else a stored mass equal to `n` —
    /// every hierarchy with storage conserves mass — which also rules out
    /// weights that overflow.
    fn fits(&self, k: usize) -> bool {
        if k == 0 {
            return self.levels.is_empty();
        }
        let mass = self.levels.iter().enumerate().try_fold(0u64, |mass, (h, level)| {
            (level.len() as u64).checked_mul(1u64 << h).and_then(|w| mass.checked_add(w))
        });
        mass == Some(self.n)
    }
}

/// `(n, err, levels)`, each level a `(parity, items)` pair.
impl<T: Key> WireMsg for Compactors<T> {
    fn wire_encode(&self, out: &mut Vec<u8>) {
        (self.n, self.err, self.levels.len()).wire_encode(out);
        for (level, parity) in self.levels.iter().zip(&self.parities) {
            parity.wire_encode(out);
            encode_slice(level, out);
        }
    }

    /// Checks the level count against the bytes that remain before
    /// reserving anything for it; [`Compactors::fits`] checks the mass.
    fn wire_decode(r: &mut WireReader<'_>) -> Result<Self, WireMsgError> {
        let (n, err, num_levels) = <(u64, u64, usize)>::wire_decode(r)?;
        // A level costs at least its parity byte and its length.
        if num_levels > u64::BITS as usize || num_levels > r.remaining() / 9 {
            return Err(WireMsgError::new(format!("{num_levels} compactor levels")));
        }
        let (parities, levels) =
            (0..num_levels).map(|_| <(bool, Vec<T>)>::wire_decode(r)).collect::<Result<_, _>>()?;
        Ok(Compactors { n, err, levels, parities })
    }
}

/// A deterministic mergeable quantile sketch of a multiset under insertion
/// **and removal**, with a self-reported worst-case rank-error bound.
#[derive(Clone, Debug)]
pub struct EpsSketch<T> {
    /// Compactor capacity per level; `0` disables the sketch (offers and
    /// removals are counted but nothing is stored).
    k: usize,
    /// Everything offered.
    added: Compactors<T>,
    /// Everything removed.
    removed: Compactors<T>,
    /// Lazily built joint sorted view for queries: `(item, signed
    /// cumulative weight floored at 0, running maximum of that)`.
    /// Invalidated by every mutation, excluded from equality and the wire
    /// encoding.
    view: Option<Vec<(T, u64, u64)>>,
}

/// Equality of sketch *state* — the query cache is excluded, so a freshly
/// decoded sketch equals the one that was encoded.
impl<T: Key> PartialEq for EpsSketch<T> {
    fn eq(&self, other: &Self) -> bool {
        self.k == other.k && self.added == other.added && self.removed == other.removed
    }
}

impl<T: Key> Eq for EpsSketch<T> {}

impl<T: Key> EpsSketch<T> {
    /// An empty sketch with compactor capacity `k` (0 disables storage).
    pub fn new(k: usize) -> Self {
        EpsSketch { k, added: Compactors::new(), removed: Compactors::new(), view: None }
    }

    /// Builds a sketch of `data` by offering every element in order.
    pub fn from_data(k: usize, data: &[T]) -> Self {
        let mut s = EpsSketch::new(k);
        for &x in data {
            s.offer(x);
        }
        s
    }

    /// The compactor capacity this sketch was built with.
    pub fn capacity(&self) -> usize {
        self.k
    }

    /// Total mass: how many elements the sketch represents (offered minus
    /// removed).
    pub fn population(&self) -> u64 {
        self.added.n - self.removed.n
    }

    /// How many removals the sketch carries since it was last built from
    /// data — what the shards' re-sketch rule weighs against the resident
    /// mass.
    pub(crate) fn removed_mass(&self) -> u64 {
        self.removed.n
    }

    /// Offers one element. Deterministic: equal offer/remove streams
    /// produce bit-identical sketches.
    pub fn offer(&mut self, x: T) {
        self.added.push(self.k, x);
        self.view = None;
    }

    /// Removes one occurrence of `x` from the represented multiset. The
    /// caller vouches that an occurrence is there to remove (offered, or
    /// merged in, and not removed since): the sketch only summarises both
    /// streams and cannot tell.
    pub fn remove(&mut self, x: T) {
        debug_assert!(self.removed.n < self.added.n, "remove from an empty multiset");
        self.removed.push(self.k, x);
        self.view = None;
    }

    /// Discards the current state — removals included — and re-sketches
    /// `data`. Used when the represented multiset changed wholesale
    /// (rebalance) or the removed side has grown heavy enough to be worth
    /// shedding.
    pub fn rebuild(&mut self, data: &[T]) {
        *self = EpsSketch::from_data(self.k, data);
    }

    /// Folds `other` into `self`, side by side. The error bound is closed
    /// under merge: the merged sketch's bound is valid for the union
    /// multiset.
    pub fn merge(&mut self, other: &EpsSketch<T>) {
        self.added.absorb(self.k, &other.added);
        self.removed.absorb(self.k, &other.removed);
        self.view = None;
    }

    /// Guaranteed absolute error of [`rank_of`](Self::rank_of) estimates:
    /// the compaction error accumulated on both sides. `0` while the sketch
    /// is lossless (neither side has compacted yet).
    pub fn count_error_bound(&self) -> u64 {
        self.added.err + self.removed.err
    }

    /// Guaranteed absolute rank error of [`query_rank`](Self::query_rank)
    /// answers: compaction error plus the weight-discretization gap.
    pub fn rank_error_bound(&self) -> u64 {
        self.count_error_bound() + (self.added.max_weight().max(self.removed.max_weight()) - 1)
    }

    /// The joint sorted view, built on first use after a mutation.
    fn view(&mut self) -> &[(T, u64, u64)] {
        if self.view.is_none() {
            // Removed items go in first and the sort is stable, so at equal
            // values they stay first: within a value the signed prefix only
            // dips before it rises. (The stable sort also merges the sorted
            // runs compaction leaves in every level instead of re-sorting.)
            let mut items: Vec<(T, bool, u64)> = Vec::new();
            for (side, added) in [(&self.removed, false), (&self.added, true)] {
                for (h, level) in side.levels.iter().enumerate() {
                    items.extend(level.iter().map(|&x| (x, added, 1u64 << h)));
                }
            }
            items.sort_by_key(|&(x, _, _)| x);
            let (mut plus, mut minus, mut peak) = (0u64, 0u64, 0u64);
            let view = items
                .into_iter()
                .map(|(x, added, w)| {
                    if added {
                        plus += w;
                    } else {
                        minus += w;
                    }
                    let signed = plus.saturating_sub(minus);
                    peak = peak.max(signed);
                    (x, signed, peak)
                })
                .collect();
            self.view = Some(view);
        }
        self.view.as_deref().expect("view just built")
    }

    /// A value whose rank window among the represented elements is within
    /// [`rank_error_bound`](Self::rank_error_bound) of 0-based `target`
    /// (for any `target < population`). It was offered at some point but
    /// may have been removed since; an absent value's window is its
    /// insertion position.
    ///
    /// # Panics
    /// Panics if the sketch holds no items.
    pub fn query_rank(&mut self, target: u64) -> T {
        let view = self.view();
        assert!(!view.is_empty(), "rank query over an empty sketch");
        // First item at which the running maximum of the signed prefix
        // covers the target (+1: ranks are 0-based, weights are counts).
        let i = view.partition_point(|&(_, _, peak)| peak < target + 1);
        view[i.min(view.len() - 1)].0
    }

    /// Estimated number of represented elements admitted by the probe
    /// (`x < value`, or `x ≤ value` when `inclusive`): within
    /// [`count_error_bound`](Self::count_error_bound) of the true count.
    /// Never exceeds the population (mass is conserved).
    pub fn rank_of(&mut self, value: T, inclusive: bool) -> u64 {
        let n = self.population();
        let view = self.view();
        let i = if inclusive {
            view.partition_point(|&(x, _, _)| x <= value)
        } else {
            view.partition_point(|&(x, _, _)| x < value)
        };
        let est = if i == 0 { 0 } else { view[i - 1].1 };
        est.min(n)
    }

    /// `m` evenly rank-spaced elements (ascending, possibly with repeats) —
    /// the deterministic splitter seed for the bucket index. Empty when the
    /// sketch represents or holds no items.
    pub fn quantile_points(&mut self, m: usize) -> Vec<T> {
        let n = self.population();
        if m == 0 || n == 0 || self.added.is_empty() {
            return Vec::new();
        }
        (0..m)
            .map(|j| {
                let target =
                    if m == 1 { n / 2 } else { (j as u64).saturating_mul(n - 1) / (m as u64 - 1) };
                self.query_rank(target)
            })
            .collect()
    }

    /// Canonical byte encoding of the sketch state (query cache excluded):
    /// the capacity, then the added and the removed hierarchy.
    /// Bit-identical for equal sketches, including mid-stream parities.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.k.wire_encode(&mut out);
        self.added.wire_encode(&mut out);
        self.removed.wire_encode(&mut out);
        out
    }

    /// Decodes a [`to_bytes`](Self::to_bytes) encoding. Returns `None` on
    /// truncated or malformed input — a count the remaining bytes cannot
    /// back, a stored mass that disagrees with its count, more removed than
    /// added, trailing bytes — without reserving memory for a count it has
    /// not checked.
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        let (k, added, removed) =
            decode_frame::<(usize, Compactors<T>, Compactors<T>)>(bytes).ok()?;
        (added.fits(k) && removed.fits(k) && removed.n <= added.n).then_some(EpsSketch {
            k,
            added,
            removed,
            view: None,
        })
    }
}

/// On the wire a sketch rides as its [`to_bytes`](EpsSketch::to_bytes)
/// encoding behind its length, so shard snapshots and exports pass the
/// same checks as the persistence path.
impl<T: Key> WireMsg for EpsSketch<T> {
    fn wire_encode(&self, out: &mut Vec<u8>) {
        let bytes = self.to_bytes();
        bytes.len().wire_encode(out);
        out.extend_from_slice(&bytes);
    }

    fn wire_decode(r: &mut WireReader<'_>) -> Result<Self, WireMsgError> {
        let len = usize::wire_decode(r)?;
        EpsSketch::from_bytes(r.take(len)?)
            .ok_or_else(|| WireMsgError::new("malformed ε-sketch payload"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn oracle_rank(sorted: &[u64], v: u64, inclusive: bool) -> u64 {
        if inclusive {
            sorted.partition_point(|&x| x <= v) as u64
        } else {
            sorted.partition_point(|&x| x < v) as u64
        }
    }

    /// Distance from `target` to the rank window of `v`: `[count_lt,
    /// count_le − 1]`, or the insertion position when `v` is absent.
    fn rank_distance(sorted: &[u64], v: u64, target: u64) -> u64 {
        let lo = oracle_rank(sorted, v, false);
        let hi = oracle_rank(sorted, v, true).saturating_sub(1).max(lo);
        if target < lo {
            lo - target
        } else {
            target.saturating_sub(hi)
        }
    }

    #[test]
    fn lossless_below_capacity() {
        let mut s = EpsSketch::new(64);
        for x in (0..50u64).rev() {
            s.offer(x);
        }
        assert_eq!(s.rank_error_bound(), 0);
        assert_eq!(s.count_error_bound(), 0);
        for r in 0..50 {
            assert_eq!(s.query_rank(r), r);
        }
        for v in [0u64, 7, 49, 100] {
            assert_eq!(s.rank_of(v, false), v.min(50));
            assert_eq!(s.rank_of(v, true), (v + 1).min(50));
        }
    }

    #[test]
    fn mass_is_conserved_through_compaction() {
        let mut s = EpsSketch::new(16);
        for x in 0..10_000u64 {
            s.offer(x.wrapping_mul(2654435761) % 100_003);
        }
        assert_eq!(s.population(), 10_000);
        let mass: u64 = s.added.levels.iter().enumerate().map(|(h, l)| (l.len() as u64) << h).sum();
        assert_eq!(mass, 10_000, "compaction must conserve total mass");
    }

    #[test]
    fn errors_stay_within_the_reported_bound() {
        let n = 50_000u64;
        let mut s = EpsSketch::new(256);
        let mut data: Vec<u64> = (0..n).map(|i| i.wrapping_mul(48271) % 1_000_003).collect();
        for &x in &data {
            s.offer(x);
        }
        data.sort_unstable();
        let bound = s.rank_error_bound();
        assert!(bound > 0 && bound < n / 10, "bound {bound} out of expected range");
        for target in [0u64, 1, n / 4, n / 2, 3 * n / 4, n - 1] {
            let v = s.query_rank(target);
            let dist = rank_distance(&data, v, target);
            assert!(dist <= bound, "target {target}: value {v} off by {dist} > bound {bound}");
        }
        let cbound = s.count_error_bound();
        for v in [0u64, 250_000, 500_000, 999_999] {
            let est = s.rank_of(v, false);
            let truth = oracle_rank(&data, v, false);
            assert!(est.abs_diff(truth) <= cbound, "rank_of({v}) {est} vs {truth} > {cbound}");
        }
    }

    #[test]
    fn merge_is_closed_under_the_bound() {
        let mut a = EpsSketch::new(64);
        let mut b = EpsSketch::new(64);
        let mut all: Vec<u64> = Vec::new();
        for i in 0..20_000u64 {
            let x = i.wrapping_mul(2654435761) % 65_521;
            if i % 2 == 0 {
                a.offer(x);
            } else {
                b.offer(x);
            }
            all.push(x);
        }
        all.sort_unstable();
        a.merge(&b);
        assert_eq!(a.population(), 20_000);
        let bound = a.rank_error_bound();
        for target in [0u64, 5000, 10_000, 19_999] {
            let v = a.query_rank(target);
            let dist = rank_distance(&all, v, target);
            assert!(dist <= bound, "merged: target {target} off by {dist} > bound {bound}");
        }
    }

    #[test]
    fn equal_streams_give_bit_identical_sketches() {
        let stream: Vec<u64> = (0..5000u64).map(|i| i.wrapping_mul(69621) % 9973).collect();
        let a = EpsSketch::from_data(32, &stream);
        let b = EpsSketch::from_data(32, &stream);
        assert_eq!(a, b);
        assert_eq!(a.to_bytes(), b.to_bytes());
    }

    #[test]
    fn byte_roundtrip_is_identity_mid_stream() {
        let mut s = EpsSketch::new(16);
        for i in 0..777u64 {
            s.offer(i.wrapping_mul(48271) % 1009);
        }
        let bytes = s.to_bytes();
        let mut back: EpsSketch<u64> = EpsSketch::from_bytes(&bytes).expect("decodes");
        assert_eq!(back, s);
        assert_eq!(back.to_bytes(), bytes);
        // The restored sketch continues the stream identically.
        for i in 777..1500u64 {
            let x = i.wrapping_mul(48271) % 1009;
            s.offer(x);
            back.offer(x);
        }
        assert_eq!(back, s);
        assert!(EpsSketch::<u64>::from_bytes(&bytes[..bytes.len() - 1]).is_none());
    }

    #[test]
    fn a_sketch_rides_the_wire_as_its_length_prefixed_bytes() {
        use cgselect_runtime::wiremsg::encode_frame;
        let mut s = EpsSketch::new(8);
        for x in 0..500u64 {
            s.offer(x.wrapping_mul(0x9E37_79B9) % 1000);
        }
        let frame = encode_frame(&s);
        assert_eq!(frame, encode_frame(&s.to_bytes()));
        let back: EpsSketch<u64> = decode_frame(&frame).expect("decodes");
        assert_eq!((&back, back.to_bytes()), (&s, s.to_bytes()));
        // A truncated payload is a typed error, not a panic.
        let err = decode_frame::<EpsSketch<u64>>(&frame[..frame.len() - 1]).unwrap_err();
        assert!(err.detail.contains("truncated"), "{err}");
    }

    /// A mid-stream sketch with both sides compacted, and the survivors.
    fn churned() -> (EpsSketch<u64>, Vec<u64>) {
        let mut s = EpsSketch::new(16);
        let stream: Vec<u64> = (0..777u64).map(|i| i.wrapping_mul(48271) % 1009).collect();
        for &x in &stream {
            s.offer(x);
        }
        for &x in &stream[100..400] {
            s.remove(x);
        }
        let mut survivors = [&stream[..100], &stream[400..]].concat();
        survivors.sort_unstable();
        (s, survivors)
    }

    #[test]
    fn removals_subtract_and_the_two_sides_errors_add() {
        let (mut s, survivors) = churned();
        assert_eq!(s.population(), survivors.len() as u64);
        assert_eq!(s.removed_mass(), 300);
        assert!(s.added.err > 0 && s.removed.err > 0, "both sides must have compacted");
        assert_eq!(s.count_error_bound(), s.added.err + s.removed.err);
        let cbound = s.count_error_bound();
        for v in (0..=1010u64).step_by(7) {
            for inclusive in [false, true] {
                let est = s.rank_of(v, inclusive);
                let truth = oracle_rank(&survivors, v, inclusive);
                assert!(est.abs_diff(truth) <= cbound, "rank_of({v}) {est} vs {truth} > {cbound}");
            }
        }
        let bound = s.rank_error_bound();
        for target in 0..survivors.len() as u64 {
            let v = s.query_rank(target);
            let dist = rank_distance(&survivors, v, target);
            assert!(dist <= bound, "target {target}: value {v} off by {dist} > bound {bound}");
        }
        // Rebuilding sheds the removed side and its share of the error.
        s.rebuild(&survivors);
        assert_eq!((s.removed_mass(), s.removed.err), (0, 0));
        assert_eq!(s, EpsSketch::from_data(16, &survivors));
    }

    #[test]
    fn a_value_removed_as_often_as_it_was_added_never_lifts_the_prefix() {
        // Lossless on both sides: the removed copies of 50 sort before the
        // added ones, so the signed prefix never overshoots inside the tie.
        let mut s = EpsSketch::new(64);
        for x in [10u64, 50, 50, 50, 90] {
            s.offer(x);
        }
        for _ in 0..3 {
            s.remove(50);
        }
        assert_eq!((s.population(), s.rank_error_bound()), (2, 0));
        assert_eq!((s.query_rank(0), s.query_rank(1)), (10, 90));
        assert_eq!((s.rank_of(50, false), s.rank_of(50, true)), (1, 1));
    }

    #[test]
    fn signed_byte_roundtrip_is_identity_and_continues_identically() {
        let (mut s, _) = churned();
        let bytes = s.to_bytes();
        let mut back: EpsSketch<u64> = EpsSketch::from_bytes(&bytes).expect("decodes");
        assert_eq!(back, s);
        assert_eq!(back.to_bytes(), bytes);
        for i in 0..300u64 {
            let x = i.wrapping_mul(48271) % 1009;
            s.offer(x);
            back.offer(x);
            if i % 3 == 0 {
                s.remove(x);
                back.remove(x);
            }
        }
        assert_eq!(back, s);
    }

    /// Byte offsets of every count field (`n`, level count, level lengths)
    /// of both hierarchies in a `to_bytes` encoding of `u64` keys.
    fn count_field_offsets(bytes: &[u8]) -> Vec<usize> {
        let u64_at = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize;
        let mut fields = Vec::new();
        let mut at = 8; // past k
        for _side in 0..2 {
            fields.extend([at, at + 16]); // n, (err), level count
            let levels = u64_at(at + 16);
            at += 24;
            for _ in 0..levels {
                fields.push(at + 1); // past the parity byte
                at += 9 + 8 * u64_at(at + 1);
            }
        }
        assert_eq!(at, bytes.len(), "the walker must consume the encoding exactly");
        fields
    }

    #[test]
    fn malformed_payloads_are_rejected_without_trusting_their_counts() {
        let (s, _) = churned();
        let bytes = s.to_bytes();
        let decode = EpsSketch::<u64>::from_bytes;

        // Truncated anywhere, or extended: never a misparse.
        for cut in 0..bytes.len() {
            assert!(decode(&bytes[..cut]).is_none(), "prefix of {cut} bytes must be rejected");
        }
        assert!(decode(&[bytes.as_slice(), &[0]].concat()).is_none());

        // Hostile counts on either side: a count the remaining bytes cannot
        // back is refused before anything is reserved for it (this used to
        // abort the process in `Vec::with_capacity`).
        let header =
            |fields: &[u64]| fields.iter().flat_map(|f| f.to_le_bytes()).collect::<Vec<_>>();
        let empty_side = [0u64, 0, 0];
        for hostile in [u64::MAX, 1 << 61, 1 << 40, 65] {
            // [k, n, err, levels = hostile]
            assert!(decode(&header(&[16, 0, 0, hostile])).is_none());
            // added side empty, removed side's level count hostile
            assert!(decode(&header(&[&[16], &empty_side[..], &[0, 0, hostile]].concat())).is_none());
            // one level whose length is hostile: [parity][len]
            let mut level = header(&[16, 0, 0, 1]);
            level.push(0);
            level.extend(hostile.to_le_bytes());
            level.extend(header(&empty_side));
            assert!(decode(&level).is_none());
        }
        // More removed than added, and a parity byte that is not 0/1.
        assert!(decode(&header(&[0, 1, 0, 0, 2, 0, 0])).is_none());
        let parity_at = 8 + 24;
        let mut bad_parity = bytes.clone();
        bad_parity[parity_at] = 2;
        assert!(decode(&bad_parity).is_none());

        // Bit flips. A flip inside a count field always breaks the parse or
        // the mass check; a flip elsewhere (a key, `err`, `k`, a parity's
        // low bit) may describe another well-formed sketch, which must then
        // be exactly what decodes — never a panic, never a repaired value.
        let counts = count_field_offsets(&bytes);
        for bit in 0..bytes.len() * 8 {
            let mut flipped = bytes.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            match decode(&flipped) {
                None => {}
                Some(mut got) => {
                    assert!(
                        !counts.iter().any(|&at| (at..at + 8).contains(&(bit / 8))),
                        "a flipped count field (bit {bit}) must be rejected"
                    );
                    assert_eq!(got.to_bytes(), flipped, "bit {bit}: decode must be canonical");
                    let _ = (got.rank_error_bound(), got.rank_of(500, true), got.query_rank(0));
                }
            }
        }
    }

    #[test]
    fn disabled_sketch_counts_but_stores_nothing() {
        let mut s = EpsSketch::new(0);
        for x in 0..100u64 {
            s.offer(x);
        }
        assert_eq!(s.population(), 100);
        assert!(s.added.levels.is_empty());
        assert!(s.quantile_points(8).is_empty());
    }

    #[test]
    fn quantile_points_are_sorted_and_cover_the_range() {
        let mut s = EpsSketch::new(128);
        for i in 0..10_000u64 {
            s.offer(i);
        }
        let pts = s.quantile_points(16);
        assert_eq!(pts.len(), 16);
        assert!(pts.windows(2).all(|w| w[0] <= w[1]), "points must ascend: {pts:?}");
        assert!(pts[0] <= 1000 && pts[15] >= 9000, "points must span the range: {pts:?}");
    }
}
