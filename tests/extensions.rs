//! Integration tests for the library's extensions beyond the paper:
//! multi-rank selection, top-k extraction, weighted quantiles, and
//! communication accounting.

use cgselect::{
    multi_select_on_machine, parallel_top_k, parallel_weighted_select, Algorithm, CommStats,
    Distribution, Machine, MachineModel, SelectionConfig,
};
use proptest::prelude::*;

fn cfg() -> SelectionConfig {
    SelectionConfig { min_sequential: 32, ..SelectionConfig::with_seed(61) }
}

#[test]
fn multi_select_equals_repeated_single_select() {
    let p = 4;
    let parts = cgselect::generate(Distribution::Random, 4000, p, 3);
    let ranks = [0u64, 999, 2000, 3999];
    let multi = multi_select_on_machine(p, MachineModel::free(), &parts, &ranks, &cfg()).unwrap();
    for (i, &k) in ranks.iter().enumerate() {
        let single = cgselect::select_on_machine(
            p,
            MachineModel::free(),
            &parts,
            k,
            Algorithm::FastRandomized,
            &cfg(),
        )
        .unwrap();
        assert_eq!(multi[i], single.value, "rank {k}");
    }
}

#[test]
fn top_k_then_select_again_is_consistent() {
    // The maximum of the top-k set must equal the k-th smallest element.
    let p = 4;
    let parts = cgselect::generate(Distribution::Random, 8000, p, 5);
    let k = 1234u64;
    let kth = cgselect::select_on_machine(
        p,
        MachineModel::free(),
        &parts,
        k - 1,
        Algorithm::Randomized,
        &cfg(),
    )
    .unwrap()
    .value;

    let shares = cgselect::top_k_on_machine(
        p,
        MachineModel::free(),
        &parts,
        k,
        Algorithm::Randomized,
        &cfg(),
    )
    .unwrap();
    let total: usize = shares.iter().map(Vec::len).sum();
    assert_eq!(total as u64, k);
    let max = shares.iter().flatten().max().unwrap();
    assert_eq!(*max, kth);
}

#[test]
fn weighted_select_with_unit_weights_is_plain_selection() {
    let p = 3;
    let parts = cgselect::generate(Distribution::Random, 3000, p, 7);
    let weighted: Vec<Vec<(u64, u64)>> =
        parts.iter().map(|v| v.iter().map(|&x| (x, 1)).collect()).collect();
    let k = 1500u64;
    let plain = cgselect::select_on_machine(
        p,
        MachineModel::free(),
        &parts,
        k - 1,
        Algorithm::Randomized,
        &cfg(),
    )
    .unwrap()
    .value;
    let out = Machine::with_model(p, MachineModel::free())
        .run(|proc| parallel_weighted_select(proc, weighted[proc.rank()].clone(), k, &cfg()))
        .unwrap();
    assert_eq!(out[0], plain);
}

#[test]
fn selection_accounts_for_all_messages() {
    let p = 4;
    let parts = cgselect::generate(Distribution::Random, 4000, p, 9);
    let results = Machine::with_model(p, MachineModel::cm5())
        .run(|proc| {
            let out = cgselect::parallel_select(
                proc,
                &parts[proc.rank()],
                2000,
                Algorithm::Randomized,
                &cfg(),
            );
            (out.comm, proc.comm_stats())
        })
        .unwrap();
    for (comm, whole) in &results {
        // The whole program includes the selection's entry barrier, so it
        // can only count at least as much traffic as the selection itself.
        assert!(whole.msgs_sent >= comm.msgs_sent);
        assert!(whole.bytes_sent >= comm.bytes_sent);
    }
    // Global conservation: every message sent was received, byte for byte.
    let sum = |f: fn(&CommStats) -> u64| results.iter().map(|(_, whole)| f(whole)).sum::<u64>();
    assert_eq!(sum(|c| c.msgs_sent), sum(|c| c.msgs_recv));
    assert_eq!(sum(|c| c.bytes_sent), sum(|c| c.bytes_recv));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn multi_select_matches_oracle(
        parts in prop::collection::vec(prop::collection::vec(0u64..128, 0..60), 1..5)
            .prop_filter("non-empty", |ps| ps.iter().any(|v| !v.is_empty())),
        fracs in prop::collection::vec(0.0f64..1.0, 1..6),
        seed in any::<u64>(),
    ) {
        let total: usize = parts.iter().map(Vec::len).sum();
        let ranks: Vec<u64> =
            fracs.iter().map(|f| ((total as f64 * f) as u64).min(total as u64 - 1)).collect();
        let mut all: Vec<u64> = parts.iter().flatten().copied().collect();
        all.sort_unstable();
        let want: Vec<u64> = ranks.iter().map(|&r| all[r as usize]).collect();
        let cfg = SelectionConfig { min_sequential: 16, ..SelectionConfig::with_seed(seed) };
        let got =
            multi_select_on_machine(parts.len(), MachineModel::free(), &parts, &ranks, &cfg)
                .unwrap();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn top_k_matches_oracle(
        parts in prop::collection::vec(prop::collection::vec(0u64..64, 0..60), 1..5)
            .prop_filter("non-empty", |ps| ps.iter().any(|v| !v.is_empty())),
        k_frac in 0.0f64..=1.0,
        seed in any::<u64>(),
    ) {
        let total: usize = parts.iter().map(Vec::len).sum();
        let k = ((total as f64) * k_frac) as u64;
        let cfg = SelectionConfig { min_sequential: 16, ..SelectionConfig::with_seed(seed) };
        let p = parts.len();
        let shares = Machine::with_model(p, MachineModel::free())
            .run(|proc| {
                parallel_top_k(proc, parts[proc.rank()].clone(), k, Algorithm::Randomized, &cfg).0
            })
            .unwrap();
        let mut got: Vec<u64> = shares.into_iter().flatten().collect();
        got.sort_unstable();
        let mut all: Vec<u64> = parts.iter().flatten().copied().collect();
        all.sort_unstable();
        all.truncate(k as usize);
        prop_assert_eq!(got, all);
    }

    #[test]
    fn weighted_select_matches_oracle(
        parts in prop::collection::vec(
            prop::collection::vec((0u64..100, 0u64..10), 0..50), 1..5)
            .prop_filter("positive weight", |ps| {
                ps.iter().flatten().map(|(_, w)| *w).sum::<u64>() > 0
            }),
        t_frac in 0.0f64..1.0,
        seed in any::<u64>(),
    ) {
        let total_w: u64 = parts.iter().flatten().map(|(_, w)| *w).sum();
        let target = 1 + ((total_w - 1) as f64 * t_frac) as u64;
        let mut all: Vec<(u64, u64)> = parts.iter().flatten().copied().collect();
        all.sort_unstable();
        let mut acc = 0u64;
        let mut want = None;
        for (k, w) in &all {
            acc += w;
            if acc >= target {
                want = Some(*k);
                break;
            }
        }
        let cfg = SelectionConfig { min_sequential: 16, ..SelectionConfig::with_seed(seed) };
        let p = parts.len();
        let out = Machine::with_model(p, MachineModel::free())
            .run(|proc| parallel_weighted_select(proc, parts[proc.rank()].clone(), target, &cfg))
            .unwrap();
        prop_assert_eq!(out[0], want.unwrap());
    }
}
