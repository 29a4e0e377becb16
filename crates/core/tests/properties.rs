//! Property tests: arbitrary distributed multisets, arbitrary ranks, all
//! four algorithms — the selected element must equal the oracle's, and the
//! bookkeeping must stay coherent. The lockstep multi-select pass gets the
//! same treatment over a deterministic grid of machine sizes and window
//! shapes, and so does the carve it returns: every cut it reports must be
//! where the slice really is cut.

use cgselect_core::{
    parallel_multi_select_windows, select_on_machine, Algorithm, Balancer, RankedWindow,
    SelectionConfig,
};
use cgselect_runtime::{Machine, MachineModel};
use cgselect_seqsel::{KernelRng, SepBound};
use proptest::prelude::*;

fn oracle(parts: &[Vec<u64>], k: u64) -> u64 {
    let mut all: Vec<u64> = parts.iter().flatten().copied().collect();
    all.sort_unstable();
    all[k as usize]
}

/// Strategy: 1-6 processors, each holding 0..80 values from a small domain
/// (to force duplicate-heavy cases often).
fn parts_strategy() -> impl Strategy<Value = Vec<Vec<u64>>> {
    prop::collection::vec(prop::collection::vec(0u64..64, 0..80), 1..6)
        .prop_filter("need at least one element", |ps| ps.iter().any(|v| !v.is_empty()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_algorithm_matches_oracle(
        parts in parts_strategy(),
        k_frac in 0.0f64..1.0,
        seed in any::<u64>(),
        algo in prop::sample::select(Algorithm::ALL.to_vec()),
    ) {
        let total: usize = parts.iter().map(Vec::len).sum();
        let k = (((total as f64) * k_frac) as usize).min(total - 1) as u64;
        let cfg = SelectionConfig { min_sequential: 16, ..SelectionConfig::with_seed(seed) };
        let got = select_on_machine(parts.len(), MachineModel::free(), &parts, k, algo, &cfg)
            .unwrap();
        prop_assert_eq!(got.value, oracle(&parts, k));
        // Every processor agrees.
        for o in &got.per_proc {
            prop_assert_eq!(o.value, got.value);
        }
    }

    #[test]
    fn balancers_never_change_the_answer(
        parts in parts_strategy(),
        k_frac in 0.0f64..1.0,
        seed in any::<u64>(),
        bal in prop::sample::select(vec![
            Balancer::Omlb, Balancer::ModOmlb, Balancer::DimExchange, Balancer::GlobalExchange,
        ]),
        algo in prop::sample::select(vec![
            Algorithm::MedianOfMedians, Algorithm::Randomized, Algorithm::FastRandomized,
        ]),
    ) {
        let total: usize = parts.iter().map(Vec::len).sum();
        let k = (((total as f64) * k_frac) as usize).min(total - 1) as u64;
        let cfg = SelectionConfig {
            min_sequential: 16,
            balancer: bal,
            ..SelectionConfig::with_seed(seed)
        };
        let got = select_on_machine(parts.len(), MachineModel::free(), &parts, k, algo, &cfg)
            .unwrap();
        prop_assert_eq!(got.value, oracle(&parts, k));
    }

    #[test]
    fn virtual_times_are_positive_and_phases_bounded(
        parts in parts_strategy(),
        seed in any::<u64>(),
        algo in prop::sample::select(Algorithm::ALL.to_vec()),
    ) {
        let total: usize = parts.iter().map(Vec::len).sum();
        let k = (total / 2) as u64;
        let cfg = SelectionConfig { min_sequential: 16, ..SelectionConfig::with_seed(seed) };
        let got = select_on_machine(parts.len(), MachineModel::cm5(), &parts, k, algo, &cfg)
            .unwrap();
        for o in &got.per_proc {
            prop_assert!(o.total_seconds >= 0.0);
            prop_assert!(o.lb_seconds <= o.total_seconds + 1e-12);
            prop_assert!(o.sort_seconds <= o.total_seconds + 1e-12);
            prop_assert!(o.finish_seconds <= o.total_seconds + 1e-12);
        }
    }
}

/// One window of a lockstep pass as the test describes it: per-processor
/// borrowed slices and owned overflows, and the ranks wanted.
struct WindowSpec {
    slices: Vec<Vec<u64>>,
    extras: Vec<Vec<u64>>,
    ranks: Vec<u64>,
}

impl WindowSpec {
    /// Deals `values` round-robin over processors `first..p` (processors
    /// below `first` hold an empty slice), plus `extra` overflow elements
    /// per processor taken from the front of `values`.
    fn deal(values: Vec<u64>, p: usize, first: usize, extra: usize, ranks: Vec<u64>) -> Self {
        let mut extras = vec![Vec::new(); p];
        let mut slices = vec![Vec::new(); p];
        for (i, v) in values.into_iter().enumerate() {
            if i < extra * p {
                extras[i % p].push(v);
            } else {
                slices[first + i % (p - first)].push(v);
            }
        }
        WindowSpec { slices, extras, ranks }
    }

    fn population(&self) -> u64 {
        self.slices.iter().chain(&self.extras).map(|v| v.len() as u64).sum()
    }

    fn sorted(&self) -> Vec<u64> {
        let mut all: Vec<u64> = self.slices.iter().chain(&self.extras).flatten().copied().collect();
        all.sort_unstable();
        all
    }
}

/// Runs one lockstep pass over `specs` on `p` processors and checks every
/// processor's answers against the sorted-vector oracle, every borrowed
/// slice against its multiset, and every window's carve against the slice
/// it describes. Returns the collective ops the pass cost.
fn check_windows(p: usize, specs: &[WindowSpec], cfg: &SelectionConfig) -> u64 {
    let out_len: usize = specs.iter().map(|w| w.ranks.len()).sum();
    let outs = Machine::with_model(p, MachineModel::free())
        .run(|proc| {
            let me = proc.rank();
            let mut slices: Vec<Vec<u64>> = specs.iter().map(|w| w.slices[me].clone()).collect();
            let mut slot = 0;
            let windows = slices
                .iter_mut()
                .zip(specs)
                .map(|(slice, w)| RankedWindow {
                    slice,
                    extra: w.extras[me].clone(),
                    n: w.population(),
                    ranks: w
                        .ranks
                        .iter()
                        .map(|&r| {
                            slot += 1;
                            (r, slot - 1)
                        })
                        .collect(),
                })
                .collect();
            let c0 = proc.comm_stats().collective_ops;
            let (got, carves) = parallel_multi_select_windows(proc, windows, out_len, cfg);
            (got, proc.comm_stats().collective_ops - c0, slices, carves)
        })
        .unwrap();
    let expect: Vec<Option<u64>> = specs
        .iter()
        .flat_map(|w| {
            let all = w.sorted();
            w.ranks.iter().map(move |&r| Some(all[r as usize]))
        })
        .collect();
    let bounds_of = |carve: &[(SepBound<u64>, usize)]| -> Vec<SepBound<u64>> {
        carve.iter().map(|&(bound, _)| bound).collect()
    };
    for (me, (got, ops, slices, carves)) in outs.iter().enumerate() {
        assert_eq!(*got, expect, "processor {me} disagrees with the oracle");
        assert_eq!(*ops, outs[0].1, "processors count different collectives");
        assert_eq!(carves.len(), specs.len(), "one carve per window");
        for (w, ((slice, spec), carve)) in slices.iter().zip(specs).zip(carves).enumerate() {
            let (mut a, mut b) = (slice.clone(), spec.slices[me].clone());
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "processor {me}: a borrowed slice is not a permutation of its input");

            let at = format!("processor {me}, window {w}");
            let rounds = !spec.ranks.is_empty() && spec.population() > cfg.threshold(p);
            assert_eq!(carve.is_empty(), !rounds, "{at}: a carve exactly when a round cut");
            assert_eq!(bounds_of(carve), bounds_of(&outs[0].3[w]), "{at}: bounds differ from P0's");
            assert!(carve.windows(2).all(|c| c[0].0 < c[1].0), "{at}: bounds must increase");
            assert!(carve.windows(2).all(|c| c[0].1 <= c[1].1), "{at}: offsets must not decrease");
            for &(bound, cut) in carve {
                assert!(cut <= slice.len(), "{at}: cut {cut} outside a slice of {}", slice.len());
                assert!(slice[..cut].iter().all(|x| bound.admits(x)), "{at}: left of {bound:?}");
                assert!(!slice[cut..].iter().any(|x| bound.admits(x)), "{at}: right of {bound:?}");
            }
        }
    }
    outs[0].1
}

const SHAPES: [&str; 6] = ["uniform", "sorted", "organ-pipe", "few-distinct", "two-value", "equal"];

fn shaped(shape: &str, n: usize, rng: &mut KernelRng) -> Vec<u64> {
    (0..n as u64)
        .map(|i| match shape {
            "uniform" => rng.below(1 << 40),
            "sorted" => i,
            "organ-pipe" => i.min(n as u64 - i),
            "few-distinct" => rng.below(5),
            "two-value" => 7 + 2 * u64::from(i >= n as u64 / 2),
            _ => 42,
        })
        .collect()
}

#[test]
fn lockstep_windows_match_the_oracle_on_every_shape() {
    let cfg = |seed| SelectionConfig { min_sequential: 64, ..SelectionConfig::with_seed(seed) };
    for p in [1usize, 2, 3, 4, 8] {
        for shape in SHAPES {
            for seed in 0..3u64 {
                let mut rng = KernelRng::derive(seed, p as u64);
                let n = 3000 + rng.below(500) as usize;
                let m = n as u64;
                let specs = [
                    // Several ranks, one duplicated, two adjacent, both ends;
                    // an overflow on every processor; processor 0 holds no
                    // slice when it has peers.
                    WindowSpec::deal(
                        shaped(shape, n, &mut rng),
                        p,
                        usize::from(p > 1),
                        10,
                        vec![m / 2, 0, m / 2, m / 2 + 1, m - 1, m / 3],
                    ),
                    // Just above the finish threshold: one round, then done.
                    WindowSpec::deal(
                        shaped(shape, 65 + seed as usize, &mut rng),
                        p,
                        0,
                        0,
                        vec![31],
                    ),
                    // One rank in a window that lives on the last processor
                    // alone: everyone else samples and partitions nothing.
                    WindowSpec::deal(shaped(shape, n, &mut rng), p, p - 1, 0, vec![rng.below(m)]),
                    // Nobody asks for a rank: never touched, an empty carve.
                    WindowSpec::deal(shaped(shape, 200, &mut rng), p, 0, 3, vec![]),
                ];
                check_windows(p, &specs, &cfg(seed));
            }
        }
    }
}

#[test]
fn a_missed_bracket_costs_a_round_never_an_answer() {
    // With δ ≈ 0 the bracket is two neighbouring sample values, so most
    // ranks fall outside it; they must still come back exact, and inside a
    // round budget far below the default safety valve. Rounds that discard
    // nothing stall into shared-pivot cuts, which land in the carve like
    // any bracket cut.
    for shape in SHAPES {
        for p in [2usize, 4] {
            let cfg = SelectionConfig {
                min_sequential: 64,
                delta_coeff: 1e-9,
                max_iters: 64,
                ..SelectionConfig::with_seed(3)
            };
            let mut rng = KernelRng::derive(9, p as u64);
            let n = 20_000u64;
            let ranks = vec![n / 7, n / 2, n / 2 + 40, n - 2];
            let spec = WindowSpec::deal(shaped(shape, n as usize, &mut rng), p, 0, 5, ranks);
            check_windows(p, &[spec], &cfg);
        }
    }
}

#[test]
fn duplicate_classes_resolve_in_the_bracket_round_itself() {
    // A bracket whose two sample values coincide cuts out that value's
    // equality class, which answers from counts alone: an all-equal window
    // (any ranks) and a two-value window (ranks clear of the value change)
    // cost exactly one sample Concatenate and one count Combine — no pivot
    // round, no finish.
    let cfg = SelectionConfig { min_sequential: 64, ..SelectionConfig::with_seed(11) };
    let one_bracket_round = 4; // gather + broadcast, reduce + broadcast
    for p in [2usize, 3, 8] {
        let n = 6000u64;
        let mut rng = KernelRng::new(1);
        let equal =
            WindowSpec::deal(shaped("equal", n as usize, &mut rng), p, 0, 0, vec![0, n / 2, n - 1]);
        assert_eq!(check_windows(p, &[equal], &cfg), one_bracket_round);
        let two = WindowSpec::deal(
            shaped("two-value", n as usize, &mut rng),
            p,
            0,
            0,
            vec![n / 4, 3 * n / 4],
        );
        assert_eq!(check_windows(p, &[two], &cfg), one_bracket_round);
    }
}

#[test]
fn sixteen_one_rank_windows_finish_inside_twenty_collectives() {
    // The engine's exact batch in miniature: 16 windows of 2^15 uniform
    // keys, one rank each, p = 2, default tuning. Sampled brackets take a
    // window below the finish threshold in three rounds (4 collective ops
    // each) plus the shared finish; the pivot-only pass this replaced took
    // about 85. Counts are exact, so each seed repeats its own.
    for seed in [1u64, 7, 42] {
        let cfg = SelectionConfig::with_seed(seed);
        let run = || {
            let mut rng = KernelRng::new(seed);
            let n = 1usize << 15;
            let specs: Vec<WindowSpec> = (0..16)
                .map(|_| {
                    let values = shaped("uniform", n, &mut rng);
                    WindowSpec::deal(values, 2, 0, 0, vec![rng.below(n as u64)])
                })
                .collect();
            check_windows(2, &specs, &cfg)
        };
        let ops = run();
        assert!(ops <= 20, "seed {seed}: {ops} collective ops for 16 one-rank windows");
        assert_eq!(ops, run(), "seed {seed}: the count must repeat exactly");
    }
}
