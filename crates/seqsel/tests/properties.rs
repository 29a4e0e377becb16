//! Property-based tests: every sequential kernel must agree with the
//! sort-based oracle on arbitrary inputs, and the structural primitives
//! must satisfy their postconditions.

use cgselect_seqsel::{
    copy_zone, count_zones, floyd_rivest_select, keep_zone, median_of_medians_select, partition3,
    partition_bound_kernel, quickselect, weighted_median, Buckets, KernelRng, LocalKernel, OpCount,
    SepBound, Zone,
};
use proptest::prelude::*;

fn oracle(mut v: Vec<i64>, k: usize) -> i64 {
    v.sort_unstable();
    v[k]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn quickselect_matches_oracle(
        v in prop::collection::vec(-1000i64..1000, 1..400),
        k_frac in 0.0f64..1.0,
        seed in any::<u64>(),
    ) {
        let k = ((v.len() as f64) * k_frac) as usize % v.len();
        let mut rng = KernelRng::new(seed);
        let mut ops = OpCount::new();
        let mut w = v.clone();
        prop_assert_eq!(quickselect(&mut w, k, &mut rng, &mut ops), oracle(v, k));
    }

    #[test]
    fn median_of_medians_matches_oracle(
        v in prop::collection::vec(-1000i64..1000, 1..400),
        k_frac in 0.0f64..1.0,
    ) {
        let k = ((v.len() as f64) * k_frac) as usize % v.len();
        let mut ops = OpCount::new();
        let mut w = v.clone();
        prop_assert_eq!(median_of_medians_select(&mut w, k, &mut ops), oracle(v, k));
    }

    #[test]
    fn floyd_rivest_matches_oracle(
        v in prop::collection::vec(-1000i64..1000, 1..400),
        k_frac in 0.0f64..1.0,
    ) {
        let k = ((v.len() as f64) * k_frac) as usize % v.len();
        let mut ops = OpCount::new();
        let mut w = v.clone();
        prop_assert_eq!(floyd_rivest_select(&mut w, k, &mut ops), oracle(v, k));
    }

    #[test]
    fn floyd_rivest_matches_oracle_large(
        seed in any::<u64>(),
        k_frac in 0.0f64..1.0,
        modulus in prop::sample::select(vec![3u64, 100, u64::MAX]),
    ) {
        // Exercise the sampling path (> 600 elements) with varying tie density.
        let mut rng = KernelRng::new(seed);
        let v: Vec<i64> = (0..3000).map(|_| (rng.next_u64() % modulus) as i64).collect();
        let k = ((v.len() as f64) * k_frac) as usize % v.len();
        let mut ops = OpCount::new();
        let mut w = v.clone();
        prop_assert_eq!(floyd_rivest_select(&mut w, k, &mut ops), oracle(v, k));
    }

    #[test]
    fn partition_bound_kernel_postconditions(
        v in prop::collection::vec(-50i64..50, 0..200),
        value in -60i64..60,
        inclusive in any::<bool>(),
    ) {
        let bound = if inclusive { SepBound::le(value) } else { SepBound::lt(value) };
        let mut w = v.clone();
        let mut ops = OpCount::new();
        let idx = partition_bound_kernel(&mut w, bound, &mut ops);
        prop_assert!(w[..idx].iter().all(|x| bound.admits(x)));
        prop_assert!(w[idx..].iter().all(|x| !bound.admits(x)));
        let mut a = v; a.sort_unstable();
        let mut b = w; b.sort_unstable();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn partition3_postconditions(
        v in prop::collection::vec(-50i64..50, 0..200),
        bounds in (-60i64..60, -60i64..60),
    ) {
        let (lo, hi) = (bounds.0.min(bounds.1), bounds.0.max(bounds.1));
        let mut w = v.clone();
        let mut ops = OpCount::new();
        let (a, b) = partition3(&mut w, lo, hi, &mut ops);
        prop_assert!(a <= b && b <= w.len());
        prop_assert!(w[..a].iter().all(|&x| x < lo));
        prop_assert!(w[a..b].iter().all(|&x| (lo..=hi).contains(&x)));
        prop_assert!(w[b..].iter().all(|&x| x > hi));
        let mut s1 = v; s1.sort_unstable();
        let mut s2 = w; s2.sort_unstable();
        prop_assert_eq!(s1, s2);
    }

    #[test]
    fn weighted_median_halves_the_weight(
        items in prop::collection::vec((-100i64..100, 1u64..20), 1..60),
    ) {
        let mut ops = OpCount::new();
        let m = weighted_median(&items, &mut ops);
        let total: u64 = items.iter().map(|(_, w)| w).sum();
        let below: u64 = items.iter().filter(|(v, _)| *v < m).map(|(_, w)| w).sum();
        let up_to: u64 = items.iter().filter(|(v, _)| *v <= m).map(|(_, w)| w).sum();
        prop_assert!(below < total.div_ceil(2));
        prop_assert!(up_to >= total.div_ceil(2));
    }

    #[test]
    fn buckets_preserve_multiset_and_order(
        v in prop::collection::vec(0u64..64, 0..300),
        nb in 1usize..10,
        seed in any::<u64>(),
    ) {
        let mut rng = KernelRng::new(seed);
        let mut ops = OpCount::new();
        let b = Buckets::build(v.clone(), nb, LocalKernel::Randomized, &mut rng, &mut ops);
        b.debug_validate();
        let mut got = b.data().to_vec();
        got.sort_unstable();
        let mut want = v;
        want.sort_unstable();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn buckets_split_le_counts_exactly(
        v in prop::collection::vec(0u64..64, 1..300),
        nb in 1usize..8,
        splits in prop::collection::vec(0u64..70, 1..6),
        seed in any::<u64>(),
    ) {
        let mut rng = KernelRng::new(seed);
        let mut ops = OpCount::new();
        let mut b = Buckets::build(v.clone(), nb, LocalKernel::Randomized, &mut rng, &mut ops);
        for s in splits {
            let w = b.full_window();
            let cnt = b.split_le(w, s, &mut ops);
            let want = v.iter().filter(|&&x| x <= s).count();
            prop_assert_eq!(cnt, want);
            b.debug_validate();
        }
    }

    #[test]
    fn buckets_select_rank_matches_oracle(
        v in prop::collection::vec(-500i64..500, 1..300),
        nb in 1usize..8,
        k_frac in 0.0f64..1.0,
        seed in any::<u64>(),
    ) {
        let k = ((v.len() as f64) * k_frac) as usize % v.len();
        let mut rng = KernelRng::new(seed);
        let mut ops = OpCount::new();
        let mut b = Buckets::build(v.clone(), nb, LocalKernel::Randomized, &mut rng, &mut ops);
        let w = b.full_window();
        let got = b.select_rank(w, k, LocalKernel::Randomized, &mut rng, &mut ops);
        prop_assert_eq!(got, oracle(v, k));
    }

    #[test]
    fn zone_count_and_keep_match_filter_and_retain(
        v in prop::collection::vec(-20i64..20, 0..300),
        a in -25i64..25,
        b in -25i64..25,
        sorted in any::<bool>(),
    ) {
        let mut v = v;
        if sorted {
            v.sort_unstable();
        }
        let (lo, hi) = (a.min(b), a.max(b));
        let mut ops = OpCount::new();
        let counts = count_zones(&v, lo, hi, &mut ops);
        let lt = v.iter().filter(|&&x| x < lo).count() as u64;
        let le = v.iter().filter(|&&x| x <= hi).count() as u64;
        prop_assert_eq!(counts.sizes, (lt, le - lt, v.len() as u64 - le));
        for zone in [Zone::Below, Zone::Between, Zone::Above] {
            let holds = |x: i64| match zone {
                Zone::Below => x < lo,
                Zone::Between => lo <= x && x <= hi,
                Zone::Above => x > hi,
            };
            let want: Vec<i64> = v.iter().copied().filter(|&x| holds(x)).collect();
            let mut kept_in_place = v.clone();
            keep_zone(&mut kept_in_place, lo, hi, zone, counts, &mut ops);
            prop_assert_eq!(&kept_in_place, &want);
            let mut copied = Vec::new();
            copy_zone(&v, lo, hi, zone, counts, &mut copied, &mut ops);
            prop_assert_eq!(&copied, &want);
        }
    }
}
