//! Cross-algorithm correctness: every algorithm × every balancer × a zoo of
//! input layouts must agree with the sort-based oracle.

use cgselect_core::{
    median_on_machine, select_on_machine, Algorithm, Balancer, LocalKernel, SampleSortAlgo,
    SelectionConfig,
};
use cgselect_runtime::MachineModel;
use cgselect_seqsel::KernelRng;

fn oracle(parts: &[Vec<u64>], k: u64) -> u64 {
    let mut all: Vec<u64> = parts.iter().flatten().copied().collect();
    all.sort_unstable();
    all[k as usize]
}

/// A small config so tests exercise several parallel iterations even on
/// modest inputs (default min_sequential=1024 would short-circuit them).
fn test_cfg(seed: u64) -> SelectionConfig {
    SelectionConfig { min_sequential: 32, ..SelectionConfig::with_seed(seed) }
}

fn layouts(p: usize, n: usize, seed: u64) -> Vec<(&'static str, Vec<Vec<u64>>)> {
    let mut rng = KernelRng::new(seed);
    let chunk = n / p;
    let mut out = Vec::new();

    // Random per-processor data (the paper's "random" input).
    let random: Vec<Vec<u64>> =
        (0..p).map(|_| (0..chunk).map(|_| rng.next_u64() % 100_000).collect()).collect();
    out.push(("random", random));

    // Globally sorted, blocked (the paper's worst case): proc i holds
    // i*n/p .. (i+1)*n/p - 1.
    let sorted: Vec<Vec<u64>> =
        (0..p).map(|i| ((i * chunk) as u64..((i + 1) * chunk) as u64).collect()).collect();
    out.push(("sorted", sorted));

    // Reverse-sorted blocks.
    let rev: Vec<Vec<u64>> =
        (0..p).map(|i| ((i * chunk) as u64..((i + 1) * chunk) as u64).rev().collect()).collect();
    out.push(("reverse", rev));

    // Heavy duplicates: only 4 distinct values.
    let dup: Vec<Vec<u64>> =
        (0..p).map(|_| (0..chunk).map(|_| rng.next_u64() % 4).collect()).collect();
    out.push(("duplicates", dup));

    // All equal.
    out.push(("all-equal", (0..p).map(|_| vec![7u64; chunk]).collect()));

    // Wildly imbalanced: everything on the last processor.
    let mut hoard: Vec<Vec<u64>> = vec![Vec::new(); p];
    hoard[p - 1] = (0..n as u64).map(|i| i * 17 % 10_007).collect();
    out.push(("hoarded", hoard));

    out
}

#[test]
fn all_algorithms_match_oracle_on_all_layouts() {
    let p = 4;
    let n = 600;
    for (name, parts) in layouts(p, n, 1) {
        let total: usize = parts.iter().map(Vec::len).sum();
        for algo in Algorithm::ALL {
            for k in [0u64, (total / 3) as u64, (total / 2) as u64, (total - 1) as u64] {
                let got =
                    select_on_machine(p, MachineModel::free(), &parts, k, algo, &test_cfg(42))
                        .unwrap();
                assert_eq!(got.value, oracle(&parts, k), "layout={name} algo={algo:?} k={k}");
            }
        }
    }
}

#[test]
fn narrowing_algorithms_answer_on_all_equal_and_two_valued_inputs() {
    // Every round's pivot or bracket lands on one of at most two values,
    // so only the three-way zone counts keep these inputs from stalling.
    let p = 4;
    let mut rng = KernelRng::new(5);
    let two_valued: Vec<Vec<u64>> = (0..p)
        .map(|_| (0..150).map(|_| [3u64, 9][(rng.next_u64() % 2) as usize]).collect())
        .collect();
    let skewed: Vec<Vec<u64>> =
        (0..p).map(|r| vec![if r == 0 { 1 } else { 2 }; 100 + 50 * r]).collect();
    let inputs =
        [("all-equal", vec![vec![7u64; 150]; p]), ("two-valued", two_valued), ("skewed", skewed)];
    for (name, parts) in &inputs {
        let n: usize = parts.iter().map(Vec::len).sum();
        for algo in [Algorithm::MedianOfMedians, Algorithm::Randomized, Algorithm::FastRandomized] {
            for balancer in [Balancer::None, Balancer::GlobalExchange] {
                for k in [0, (n as u64 - 1) / 2, n as u64 - 1] {
                    let cfg = test_cfg(8).balancer(balancer);
                    let got =
                        select_on_machine(p, MachineModel::free(), parts, k, algo, &cfg).unwrap();
                    assert_eq!(got.value, oracle(parts, k), "{name} {algo:?} {balancer:?} k={k}");
                }
            }
        }
    }
}

#[test]
fn select_on_machine_leaves_the_parts_unchanged() {
    let p = 4;
    for (name, parts) in layouts(p, 600, 3) {
        let before = parts.clone();
        for algo in Algorithm::ALL {
            let cfg = test_cfg(9).balancer(Balancer::GlobalExchange);
            select_on_machine(p, MachineModel::free(), &parts, 300, algo, &cfg).unwrap();
            assert_eq!(parts, before, "layout={name} algo={algo:?}");
        }
    }
}

#[test]
fn all_balancers_with_randomized_algorithms() {
    let p = 4;
    let parts = layouts(p, 400, 2);
    for (name, parts) in parts {
        let total: usize = parts.iter().map(Vec::len).sum();
        let k = (total / 2) as u64;
        for algo in [Algorithm::Randomized, Algorithm::FastRandomized, Algorithm::MedianOfMedians] {
            for bal in [
                Balancer::None,
                Balancer::Omlb,
                Balancer::ModOmlb,
                Balancer::DimExchange,
                Balancer::GlobalExchange,
            ] {
                let cfg = test_cfg(3).balancer(bal);
                let got =
                    select_on_machine(p, MachineModel::free(), &parts, k, algo, &cfg).unwrap();
                assert_eq!(
                    got.value,
                    oracle(&parts, k),
                    "layout={name} algo={algo:?} balancer={bal:?}"
                );
            }
        }
    }
}

#[test]
fn non_power_of_two_machines() {
    for p in [1usize, 3, 5, 7] {
        let parts = layouts(p, 60 * p, 4);
        for (name, parts) in parts {
            let total: usize = parts.iter().map(Vec::len).sum();
            let k = (total * 2 / 3) as u64;
            // Bitonic sample sort requires power-of-two p; PSRS (default)
            // must work everywhere.
            for algo in Algorithm::ALL {
                let got = select_on_machine(p, MachineModel::free(), &parts, k, algo, &test_cfg(5))
                    .unwrap();
                assert_eq!(got.value, oracle(&parts, k), "p={p} layout={name} algo={algo:?}");
            }
        }
    }
}

#[test]
fn sample_sort_backends_agree() {
    let p = 8;
    let (_, parts) = layouts(p, 1600, 6).remove(0);
    let k = 800;
    let want = oracle(&parts, k);
    for ss in [SampleSortAlgo::Psrs, SampleSortAlgo::Bitonic, SampleSortAlgo::GatherSort] {
        let cfg = test_cfg(7).sample_sort(ss);
        let got =
            select_on_machine(p, MachineModel::free(), &parts, k, Algorithm::FastRandomized, &cfg)
                .unwrap();
        assert_eq!(got.value, want, "sample_sort={ss:?}");
    }
}

#[test]
fn hybrid_kernel_override_still_correct() {
    let p = 4;
    let (_, parts) = layouts(p, 800, 8).remove(0);
    let k = 123;
    for algo in [Algorithm::MedianOfMedians, Algorithm::BucketBased] {
        let cfg = test_cfg(9).kernel(LocalKernel::Randomized);
        let got = select_on_machine(p, MachineModel::free(), &parts, k, algo, &cfg).unwrap();
        assert_eq!(got.value, oracle(&parts, k), "hybrid {algo:?}");
    }
}

#[test]
fn median_convenience_matches_paper_definition() {
    let p = 3;
    let parts: Vec<Vec<u64>> = vec![vec![5, 1], vec![9, 3], vec![7]];
    // Sorted: 1 3 5 7 9; N=5, 1-based rank ceil(5/2)=3 -> value 5.
    let got =
        median_on_machine(p, MachineModel::free(), &parts, Algorithm::Randomized, &test_cfg(1))
            .unwrap();
    assert_eq!(got.value, 5);

    let parts: Vec<Vec<u64>> = vec![vec![4, 2], vec![8, 6], vec![]];
    // Sorted: 2 4 6 8; N=4, 1-based rank 2 -> value 4.
    let got =
        median_on_machine(p, MachineModel::free(), &parts, Algorithm::Randomized, &test_cfg(1))
            .unwrap();
    assert_eq!(got.value, 4);
}

#[test]
fn extreme_ranks_and_tiny_inputs() {
    let parts: Vec<Vec<u64>> = vec![vec![10], vec![], vec![30, 20]];
    for algo in Algorithm::ALL {
        for (k, want) in [(0u64, 10u64), (1, 20), (2, 30)] {
            let got =
                select_on_machine(3, MachineModel::free(), &parts, k, algo, &test_cfg(11)).unwrap();
            assert_eq!(got.value, want, "algo={algo:?} k={k}");
        }
    }
}

#[test]
fn value_identical_on_every_processor() {
    let p = 5;
    let (_, parts) = layouts(p, 500, 12).remove(0);
    let got = select_on_machine(
        p,
        MachineModel::free(),
        &parts,
        77,
        Algorithm::FastRandomized,
        &test_cfg(13),
    )
    .unwrap();
    for o in &got.per_proc {
        assert_eq!(o.value, got.value);
    }
}

#[test]
fn rank_out_of_range_fails_collectively() {
    let parts: Vec<Vec<u64>> = vec![vec![1], vec![2]];
    let err =
        select_on_machine(2, MachineModel::free(), &parts, 2, Algorithm::Randomized, &test_cfg(1))
            .unwrap_err();
    assert!(format!("{err}").contains("out of range"), "{err}");
}

#[test]
fn empty_distributed_set_fails() {
    let parts: Vec<Vec<u64>> = vec![vec![], vec![]];
    let err =
        select_on_machine(2, MachineModel::free(), &parts, 0, Algorithm::Randomized, &test_cfg(1))
            .unwrap_err();
    assert!(format!("{err}").contains("empty"), "{err}");
}

#[test]
fn instrumentation_is_coherent() {
    let p = 4;
    let (_, parts) = layouts(p, 2000, 14).remove(0);
    let cfg = SelectionConfig {
        min_sequential: 64,
        balancer: Balancer::GlobalExchange,
        ..SelectionConfig::with_seed(15)
    };
    let got =
        select_on_machine(p, MachineModel::cm5(), &parts, 1000, Algorithm::FastRandomized, &cfg)
            .unwrap();
    assert!(got.iterations() >= 1);
    for o in &got.per_proc {
        assert!(o.total_seconds > 0.0);
        assert!(o.lb_seconds >= 0.0 && o.lb_seconds <= o.total_seconds);
        assert!(o.sort_seconds > 0.0, "fast randomized must sort samples");
        assert!(o.sort_seconds <= o.total_seconds);
        assert!(o.finish_seconds > 0.0);
        assert!(o.ops > 0);
        assert!(o.comm.msgs_sent > 0);
    }
    // Load balancing with GlobalExchange on imbalance-producing runs should
    // at least have recorded phase time.
    assert!(got.lb_makespan() > 0.0);
}

#[test]
fn deterministic_given_seed() {
    let p = 4;
    let (_, parts) = layouts(p, 1200, 16).remove(0);
    let cfg = test_cfg(99);
    let run = || {
        select_on_machine(p, MachineModel::cm5(), &parts, 600, Algorithm::FastRandomized, &cfg)
            .unwrap()
    };
    let a = run();
    let b = run();
    assert_eq!(a.value, b.value);
    assert_eq!(a.iterations(), b.iterations());
    for (x, y) in a.per_proc.iter().zip(&b.per_proc) {
        assert_eq!(x.total_seconds, y.total_seconds, "virtual time must be reproducible");
        assert_eq!(x.ops, y.ops);
        assert_eq!(x.comm, y.comm);
    }
}

#[test]
fn fast_randomized_converges_in_few_iterations() {
    // O(log log n) iterations: for n = 2^20 that is ~4-5; allow 10.
    let p = 8;
    let n = 1 << 17;
    let mut rng = KernelRng::new(21);
    let parts: Vec<Vec<u64>> =
        (0..p).map(|_| (0..n / p).map(|_| rng.next_u64()).collect()).collect();
    let got = select_on_machine(
        p,
        MachineModel::free(),
        &parts,
        (n / 2) as u64,
        Algorithm::FastRandomized,
        &SelectionConfig::with_seed(22),
    )
    .unwrap();
    assert!(
        got.iterations() <= 10,
        "fast randomized took {} iterations on n={n}",
        got.iterations()
    );
    assert_eq!(got.value, oracle(&parts, (n / 2) as u64));
}

#[test]
fn randomized_iterations_logarithmic() {
    let p = 8;
    let n = 1 << 17;
    let mut rng = KernelRng::new(23);
    let parts: Vec<Vec<u64>> =
        (0..p).map(|_| (0..n / p).map(|_| rng.next_u64()).collect()).collect();
    let got = select_on_machine(
        p,
        MachineModel::free(),
        &parts,
        (n / 2) as u64,
        Algorithm::Randomized,
        &SelectionConfig::with_seed(24),
    )
    .unwrap();
    // Expected ~ 1.4 log2(n/p^2) ≈ 15; generous cap at 60.
    assert!(
        (2..=60).contains(&got.iterations()),
        "randomized took {} iterations",
        got.iterations()
    );
}
