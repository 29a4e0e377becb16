//! Property-test wall around the deterministic ε-sketch — the accuracy
//! contract behind the zero-collective serving rung.
//!
//! Seven properties, each exercised across **all eight** paper workload
//! distributions per generated case, so every distribution sees the full
//! case budget (>= 10^4 cases per distribution across the suite). The
//! first three cover a sketch that only ever grows; the next three repeat
//! them for the **signed** sketch under interleaved `offer` / `remove`
//! streams, always against the *surviving* multiset; the last pins the two
//! together.
//!
//! 1. **Accuracy**: for *every* rank `0..n`, `query_rank` returns a value
//!    whose rank window is within `rank_error_bound()` of the target, and
//!    `rank_of` estimates are within `count_error_bound()` of the sorted
//!    oracle — with the bounds exactly `0` while the sketch is still
//!    lossless (`n < k`, before the first compaction).
//! 2. **Merge closure**: `merge(a, b)` answers for the union multiset
//!    within the *merged* sketch's self-reported bound, regardless of
//!    how the stream was split.
//! 3. **Wire fidelity**: `to_bytes` → `from_bytes` is bit-identical,
//!    including mid-stream compactor parities, and the restored sketch
//!    continues the stream exactly like the original.
//! 4. **Signed accuracy**: after any interleaving of offers and removals
//!    (removals drawn from the elements currently present, duplicates
//!    included), `population()` is added − removed, and every `rank_of` and
//!    `query_rank` is within the self-reported bound of the survivors.
//! 5. **Signed merge closure**: the same holds for the merge of two signed
//!    sketches, for any split of the operation stream.
//! 6. **Signed wire fidelity**: the encoding round-trips bit-identically
//!    mid-stream with a non-empty removed side.
//! 7. **Unsigned equivalence**: a sketch that never saw `remove` gives the
//!    answers and bounds of the unsigned compactor hierarchy it replaced
//!    (kept below as the reference) — what keeps removal-free workloads
//!    exactly where they were.
//!
//! A returned value is judged by its rank window `[count_lt, count_le − 1]`
//! among the survivors; a value with no surviving copy occupies its
//! insertion position.

use cgselect::{generate, Distribution, EpsSketch};
use proptest::prelude::*;

const ALL_DISTRIBUTIONS: [Distribution; 8] = [
    Distribution::Random,
    Distribution::Sorted,
    Distribution::ReverseSorted,
    Distribution::FewDistinct(17),
    Distribution::Gaussian,
    Distribution::Zipf,
    Distribution::OrganPipe,
    Distribution::AllEqual,
];

/// One flat stream drawn from the paper's workload generator.
fn stream(dist: Distribution, n: usize, seed: u64) -> Vec<u64> {
    generate(dist, n, 4, seed).into_iter().flatten().collect()
}

fn oracle_rank(sorted: &[u64], v: u64, inclusive: bool) -> u64 {
    if inclusive {
        sorted.partition_point(|&x| x <= v) as u64
    } else {
        sorted.partition_point(|&x| x < v) as u64
    }
}

/// Distance from `target` to the nearest true rank of `v`: duplicates
/// occupy the rank interval `[lo, hi]`, a value absent from `sorted` its
/// insertion position `lo`.
fn rank_distance(sorted: &[u64], v: u64, target: u64) -> u64 {
    let lo = oracle_rank(sorted, v, false);
    let hi = oracle_rank(sorted, v, true).saturating_sub(1).max(lo);
    if target < lo {
        lo - target
    } else {
        target.saturating_sub(hi)
    }
}

/// Every rank and a spread of count probes of `sketch` against the sorted
/// survivors, each within the sketch's self-reported bound.
fn check_against_survivors(
    sketch: &mut EpsSketch<u64>,
    sorted: &[u64],
    what: &str,
) -> Result<(), TestCaseError> {
    let m = sorted.len() as u64;
    prop_assert_eq!(sketch.population(), m, "{}: population is added − removed", what);
    let (bound, cbound) = (sketch.rank_error_bound(), sketch.count_error_bound());
    prop_assert!(cbound <= bound, "{what}: count bound may not exceed the rank bound");
    for target in 0..m {
        let v = sketch.query_rank(target);
        let off = rank_distance(sorted, v, target);
        prop_assert!(off <= bound, "{what}: rank {target} -> {v} off by {off} > {bound}");
    }
    let probes = sorted
        .iter()
        .step_by(1 + sorted.len() / 16)
        .flat_map(|&v| [v, v.saturating_sub(1), v.saturating_add(1)])
        .chain([0, u64::MAX]);
    for v in probes {
        for inclusive in [false, true] {
            let est = sketch.rank_of(v, inclusive);
            let truth = oracle_rank(sorted, v, inclusive);
            prop_assert!(est <= m, "{what}: rank_of({v}) = {est} exceeds the population {m}");
            prop_assert!(
                est.abs_diff(truth) <= cbound,
                "{what}: rank_of({v}, {inclusive}) = {est}, truth {truth}, bound {cbound}"
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4000))]

    /// Property 1: every rank query and every count probe lands within the
    /// sketch's self-reported bound, on every distribution.
    #[test]
    fn every_query_is_within_the_reported_bound(
        n in 16usize..257,
        k in 8usize..49,
        seed in any::<u64>(),
    ) {
        for dist in ALL_DISTRIBUTIONS {
            let data = stream(dist, n, seed);
            let mut sketch = EpsSketch::from_data(k, &data);
            let bound = sketch.rank_error_bound();
            if n < k {
                prop_assert_eq!(bound, 0, "{dist:?}: lossless sketches are exact");
            }
            prop_assert!(bound < n as u64, "{dist:?}: bound {bound} is vacuous for n={n}");
            let mut sorted = data;
            sorted.sort_unstable();
            check_against_survivors(&mut sketch, &sorted, &format!("{dist:?} n={n} k={k}"))?;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4000))]

    /// Property 2: the error bound is closed under merge — a merged sketch
    /// answers for the union multiset within its own reported bound, for
    /// any split of the stream.
    #[test]
    fn merge_preserves_the_bound_for_any_split(
        n in 16usize..257,
        k in 8usize..49,
        split_num in 0u64..101,
        seed in any::<u64>(),
    ) {
        for dist in ALL_DISTRIBUTIONS {
            let data = stream(dist, n, seed);
            let cut = (n * split_num as usize) / 100;
            let mut a = EpsSketch::from_data(k, &data[..cut]);
            let b = EpsSketch::from_data(k, &data[cut..]);

            // Merging an empty sketch is the identity on state and bytes.
            let before = a.to_bytes();
            a.merge(&EpsSketch::new(k));
            prop_assert_eq!(a.to_bytes(), before, "merging empty must be identity");

            a.merge(&b);
            let bound = a.rank_error_bound();
            prop_assert!(bound < n as u64, "{dist:?}: merged bound {bound} vacuous for n={n}");
            let mut sorted = data;
            sorted.sort_unstable();
            let what = format!("{dist:?} n={n} k={k} cut={cut} merged");
            check_against_survivors(&mut a, &sorted, &what)?;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2500))]

    /// Property 3: the wire encoding is a bit-identical snapshot of the
    /// full compactor state — including mid-stream parities — and the
    /// decoded sketch continues the stream exactly like the original.
    #[test]
    fn byte_roundtrip_is_bit_identical_mid_stream(
        n in 16usize..257,
        k in 8usize..49,
        pause_num in 0u64..101,
        seed in any::<u64>(),
    ) {
        for dist in ALL_DISTRIBUTIONS {
            let data = stream(dist, n, seed);
            let pause = (n * pause_num as usize) / 100;

            // Snapshot mid-stream, at an arbitrary pause point.
            let mut original = EpsSketch::from_data(k, &data[..pause]);
            let bytes = original.to_bytes();
            let mut restored: EpsSketch<u64> =
                EpsSketch::from_bytes(&bytes).expect("canonical bytes must decode");
            prop_assert_eq!(&restored, &original, "{dist:?}: decoded state must match");
            prop_assert_eq!(
                restored.to_bytes(),
                bytes.clone(),
                "{dist:?}: re-encoding must be stable"
            );
            prop_assert_eq!(restored.capacity(), k);
            prop_assert_eq!(restored.population(), pause as u64);

            // Both copies finish the stream and stay bit-identical: the
            // snapshot captured the compaction parities, not just values.
            for &x in &data[pause..] {
                original.offer(x);
                restored.offer(x);
            }
            prop_assert_eq!(&restored, &original, "{dist:?}: continuation must not diverge");
            prop_assert_eq!(
                restored.to_bytes(),
                original.to_bytes(),
                "{dist:?}: continued encodings must match byte for byte"
            );

            // Truncation anywhere is rejected, not misparsed.
            if !bytes.is_empty() {
                let cut = bytes.len() - 1 - (seed as usize % bytes.len());
                prop_assert!(
                    EpsSketch::<u64>::from_bytes(&bytes[..cut]).is_none(),
                    "{dist:?}: truncated encodings must be rejected"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The signed sketch: interleaved offer / remove streams.
// ---------------------------------------------------------------------------

/// One step of an interleaved stream, tagged with the position in the data
/// stream of the element it offers or removes.
#[derive(Clone, Copy, Debug)]
enum Op {
    Offer(usize, u64),
    Remove(usize, u64),
}

/// Interleaves removals into `data`'s offers: after each offer, with
/// probability `remove_pct` %, one element *currently present* is removed —
/// the oldest survivor when `fifo` (a sliding window), a uniformly random
/// one otherwise; a duplicate value is as likely as its multiplicity.
/// Returns the operations and the survivors in arrival order.
fn interleave(data: &[u64], remove_pct: u64, fifo: bool, seed: u64) -> (Vec<Op>, Vec<u64>) {
    let mut state = seed | 1;
    let mut next = move || {
        // xorshift64: any deterministic, seed-driven choice will do.
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut ops = Vec::with_capacity(2 * data.len());
    let mut present: Vec<(usize, u64)> = Vec::with_capacity(data.len());
    for (i, &x) in data.iter().enumerate() {
        ops.push(Op::Offer(i, x));
        present.push((i, x));
        if next() % 100 < remove_pct {
            let at = if fifo { 0 } else { (next() % present.len() as u64) as usize };
            let (origin, gone) = present.remove(at);
            ops.push(Op::Remove(origin, gone));
        }
    }
    (ops, present.into_iter().map(|(_, x)| x).collect())
}

fn apply(sketch: &mut EpsSketch<u64>, ops: &[Op]) {
    for &op in ops {
        match op {
            Op::Offer(_, x) => sketch.offer(x),
            Op::Remove(_, x) => sketch.remove(x),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4000))]

    /// Property 4: under any interleaving of offers and removals the signed
    /// sketch answers for the surviving multiset within its own bound, on
    /// every distribution — and exactly while neither side has compacted.
    #[test]
    fn interleaved_removals_stay_within_the_reported_bound(
        n in 16usize..257,
        k in 8usize..49,
        remove_pct in 0u64..101,
        fifo in any::<bool>(),
        seed in any::<u64>(),
    ) {
        for dist in ALL_DISTRIBUTIONS {
            let data = stream(dist, n, seed);
            let (ops, mut survivors) = interleave(&data, remove_pct, fifo, seed);
            let mut sketch = EpsSketch::new(k);
            apply(&mut sketch, &ops);
            if n < k {
                prop_assert_eq!(sketch.rank_error_bound(), 0, "{:?}: lossless sides are exact", dist);
            }
            survivors.sort_unstable();
            let what = format!("{dist:?} n={n} k={k} remove={remove_pct}% fifo={fifo}");
            check_against_survivors(&mut sketch, &survivors, &what)?;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4000))]

    /// Property 5: the bound is closed under `merge` of two *signed*
    /// sketches, for any split of the elements between them (an element's
    /// removal goes to the sketch that holds it, as on the shards).
    #[test]
    fn merge_of_signed_sketches_preserves_the_bound_for_any_split(
        n in 16usize..257,
        k in 8usize..49,
        remove_pct in 0u64..101,
        fifo in any::<bool>(),
        split_num in 0u64..101,
        seed in any::<u64>(),
    ) {
        for dist in ALL_DISTRIBUTIONS {
            let data = stream(dist, n, seed);
            let (ops, mut survivors) = interleave(&data, remove_pct, fifo, seed);
            let cut = (n * split_num as usize) / 100;
            let mut a = EpsSketch::new(k);
            let mut b = EpsSketch::new(k);
            for &op in &ops {
                let (Op::Offer(origin, _) | Op::Remove(origin, _)) = op;
                apply(if origin < cut { &mut a } else { &mut b }, &[op]);
            }
            let summed = a.count_error_bound() + b.count_error_bound();
            a.merge(&b);
            prop_assert!(a.count_error_bound() >= summed, "{:?}: merged errors add", dist);
            survivors.sort_unstable();
            let what = format!("{dist:?} n={n} k={k} remove={remove_pct}% cut={cut} merged");
            check_against_survivors(&mut a, &survivors, &what)?;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2500))]

    /// Property 6: the encoding is a bit-identical snapshot mid-stream with
    /// a non-empty removed side, and the decoded sketch continues the
    /// operation stream exactly like the original.
    #[test]
    fn signed_byte_roundtrip_is_bit_identical_mid_stream(
        n in 16usize..257,
        k in 8usize..49,
        remove_pct in 1u64..101,
        pause_num in 0u64..101,
        seed in any::<u64>(),
    ) {
        for dist in ALL_DISTRIBUTIONS {
            let data = stream(dist, n, seed);
            let (ops, _) = interleave(&data, remove_pct, false, seed);
            let pause = (ops.len() * pause_num as usize) / 100;

            let mut original = EpsSketch::new(k);
            apply(&mut original, &ops[..pause]);
            let bytes = original.to_bytes();
            let mut restored: EpsSketch<u64> =
                EpsSketch::from_bytes(&bytes).expect("canonical bytes must decode");
            prop_assert_eq!(&restored, &original, "{:?}: decoded state must match", dist);
            prop_assert_eq!(restored.to_bytes(), bytes.clone(), "{:?}: re-encoding is stable", dist);
            prop_assert_eq!(restored.population(), original.population());

            apply(&mut original, &ops[pause..]);
            apply(&mut restored, &ops[pause..]);
            prop_assert_eq!(&restored, &original, "{:?}: continuation must not diverge", dist);
            prop_assert_eq!(restored.to_bytes(), original.to_bytes());

            let cut = bytes.len() - 1 - (seed as usize % bytes.len());
            prop_assert!(
                EpsSketch::<u64>::from_bytes(&bytes[..cut]).is_none(),
                "{:?}: truncated encodings must be rejected", dist
            );
        }
    }
}

/// The unsigned compactor hierarchy the signed sketch replaced, kept as the
/// reference for property 7: one hierarchy, one cumulative-weight view.
struct UnsignedReference {
    k: usize,
    err: u64,
    levels: Vec<Vec<u64>>,
    parities: Vec<bool>,
}

impl UnsignedReference {
    fn from_data(k: usize, data: &[u64]) -> Self {
        let mut s =
            UnsignedReference { k, err: 0, levels: vec![Vec::new()], parities: vec![false] };
        for &x in data {
            s.levels[0].push(x);
            if s.levels[0].len() >= k {
                s.compact(0);
            }
        }
        s
    }

    fn compact(&mut self, h: usize) {
        if self.levels.len() <= h + 1 {
            self.levels.push(Vec::new());
            self.parities.push(false);
        }
        let mut buf = std::mem::take(&mut self.levels[h]);
        buf.sort_unstable();
        if buf.len() % 2 == 1 {
            self.levels[h].push(buf.pop().expect("odd buffer"));
        }
        let parity = self.parities[h];
        self.parities[h] = !parity;
        self.levels[h + 1].extend(buf.iter().skip(usize::from(parity)).step_by(2));
        self.err += 1 << h;
        if self.levels[h + 1].len() >= self.k {
            self.compact(h + 1);
        }
    }

    fn rank_error_bound(&self) -> u64 {
        let top = self.levels.iter().rposition(|l| !l.is_empty()).unwrap_or(0);
        self.err + (1 << top) - 1
    }

    /// `(value, cumulative weight)` ascending by value.
    fn view(&self) -> Vec<(u64, u64)> {
        let mut items: Vec<(u64, u64)> = self
            .levels
            .iter()
            .enumerate()
            .flat_map(|(h, l)| l.iter().map(move |&x| (x, 1u64 << h)))
            .collect();
        items.sort_unstable();
        let mut cum = 0;
        for item in &mut items {
            cum += item.1;
            item.1 = cum;
        }
        items
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2500))]

    /// Property 7: with an empty removed side the signed sketch *is* the
    /// unsigned one — same bounds, same element for every rank, same
    /// estimate for every probe.
    #[test]
    fn a_sketch_that_never_removes_answers_like_the_unsigned_reference(
        n in 16usize..257,
        k in 8usize..49,
        seed in any::<u64>(),
    ) {
        for dist in ALL_DISTRIBUTIONS {
            let data = stream(dist, n, seed);
            let mut sketch = EpsSketch::from_data(k, &data);
            let reference = UnsignedReference::from_data(k, &data);
            prop_assert_eq!(sketch.count_error_bound(), reference.err, "{:?}", dist);
            prop_assert_eq!(sketch.rank_error_bound(), reference.rank_error_bound(), "{:?}", dist);
            let view = reference.view();
            for target in 0..n as u64 {
                let i = view.partition_point(|&(_, cum)| cum < target + 1);
                prop_assert_eq!(sketch.query_rank(target), view[i].0, "{:?}: rank {}", dist, target);
            }
            for &(v, _) in view.iter().step_by(1 + view.len() / 16) {
                for (probe, inclusive) in [(v, false), (v, true), (v.saturating_add(1), false)] {
                    let i = if inclusive {
                        view.partition_point(|&(x, _)| x <= probe)
                    } else {
                        view.partition_point(|&(x, _)| x < probe)
                    };
                    let want = if i == 0 { 0 } else { view[i - 1].1 };
                    prop_assert_eq!(sketch.rank_of(probe, inclusive), want, "{:?}: probe {}", dist, probe);
                }
            }
        }
    }
}
