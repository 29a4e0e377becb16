//! `oneshot_select`: the paper's experiment itself. Every op spins up a
//! machine per selection and never touches the engine.

use std::time::Instant;

use cgselect_core::{select_on_machine, Algorithm, Balancer, SelectionConfig};
use cgselect_runtime::MachineModel;
use cgselect_seqsel::KernelRng;
use cgselect_workloads::{generate, Distribution};

use crate::engine_run::P;
use crate::oracle::Verdict;
use crate::spans::Recorder;

pub const N: usize = 1 << 21;

/// The selections of one op, in order, with their span names. The two
/// deterministic algorithms are five times slower and would make the op
/// bimodal; they are measured by the layer probes only.
const SELECTIONS: [(Algorithm, usize, &str); 4] = [
    (Algorithm::Randomized, 0, "core.select.randomized.random"),
    (Algorithm::Randomized, 1, "core.select.randomized.sorted"),
    (Algorithm::FastRandomized, 0, "core.select.fast_randomized.random"),
    (Algorithm::FastRandomized, 1, "core.select.fast_randomized.sorted"),
];

pub struct OneshotRun {
    /// `[Random, Sorted]` inputs, one vector per processor each.
    inputs: [Vec<Vec<u64>>; 2],
    /// Sorted copy of each input.
    oracles: [Vec<u64>; 2],
    rng: KernelRng,
    ops: u64,
    pub verdict: Verdict,
}

impl OneshotRun {
    /// Generates both inputs; returns the seconds spent inside
    /// `workloads::generate` (the oracle's sort is not the repository's work).
    pub fn setup(seed: u64) -> (Self, f64) {
        let start = Instant::now();
        let inputs = [
            generate(Distribution::Random, N, P, seed),
            generate(Distribution::Sorted, N, P, seed),
        ];
        let setup_s = start.elapsed().as_secs_f64();
        let oracles = inputs.clone().map(|parts| {
            let mut all: Vec<u64> = parts.into_iter().flatten().collect();
            all.sort_unstable();
            all
        });
        let run = OneshotRun {
            inputs,
            oracles,
            rng: KernelRng::derive(seed, 0x5E1EC7),
            ops: 0,
            verdict: Verdict::default(),
        };
        (run, setup_s)
    }

    /// One op: one random rank selected by both randomized algorithms on both
    /// inputs. Returns the summed latency of the four selections in
    /// microseconds.
    pub fn run_op(&mut self, rec: &mut Recorder) -> f64 {
        rec.set_op(self.ops);
        self.ops += 1;
        let op_span = rec.enter("op");
        let gen = rec.enter("gen");
        let k = self.rng.below(N as u64);
        let cfg =
            SelectionConfig::with_seed(self.rng.next_u64()).balancer(Balancer::GlobalExchange);
        rec.exit(gen);

        let mut latency_us = 0.0;
        let mut values = [None; SELECTIONS.len()];
        for (slot, &(algorithm, input, name)) in SELECTIONS.iter().enumerate() {
            let span = rec.enter(name);
            let start = Instant::now();
            let selected =
                select_on_machine(P, MachineModel::cm5(), &self.inputs[input], k, algorithm, &cfg);
            latency_us += start.elapsed().as_secs_f64() * 1e6;
            rec.exit(span);
            values[slot] = selected.ok().map(|s| s.value);
        }

        let verify = rec.enter("verify");
        let wrong: Vec<String> = SELECTIONS
            .iter()
            .zip(values)
            .filter(|((_, input, _), got)| *got != Some(self.oracles[*input][k as usize]))
            .map(|((_, _, name), got)| format!("{name} rank {k}: got {got:?}"))
            .collect();
        self.verdict.record(wrong);
        rec.exit(verify);
        rec.exit(op_span);
        latency_us
    }
}
