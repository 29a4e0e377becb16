//! Public entry points: in-SPMD selection and whole-machine convenience.

use cgselect_runtime::{
    Key, Machine, MachineModel, Proc, RunError, PHASE_FINISH, PHASE_LOAD_BALANCE, PHASE_SORT,
};
use cgselect_seqsel::median_rank;

use crate::common::Local;
use crate::{
    bucket, fast_randomized, median_of_medians, randomized, Algorithm, MachineSelection,
    SelectionConfig, SelectionOutcome,
};

/// Selects the element of 0-based global rank `k` from the distributed
/// multiset whose local part on this processor is `data`. The input is only
/// read: the randomized algorithms count on it and copy just the survivors
/// of their first round, the deterministic ones take their own copy.
///
/// Must be called collectively (SPMD) by every processor of the machine
/// with the same `k`, `algorithm` and `cfg`. Returns the selected element
/// (identical on every processor) together with this processor's
/// instrumentation.
///
/// # Panics
/// Panics if the distributed set is empty or `k` is out of range (the
/// check is collective, so every processor fails identically), or if the
/// configuration is invalid.
pub fn parallel_select<T: Key>(
    proc: &mut Proc,
    data: &[T],
    k: u64,
    algorithm: Algorithm,
    cfg: &SelectionConfig,
) -> SelectionOutcome<T> {
    cfg.validate();
    // The working buffer is reserved before the first message is allocated.
    let local = Local::borrowed(data);
    proc.barrier(); // synchronize clocks so total_seconds is a makespan
    let n0 = proc.combine(data.len() as u64, |a, b| a + b);
    assert!(n0 > 0, "parallel_select on an empty distributed set");
    assert!(k < n0, "rank {k} out of range for {n0} elements");

    let t0 = proc.now();
    let ops0 = proc.ops_charged();
    let comm0 = proc.comm_stats();
    let lb0 = proc.phase_time(PHASE_LOAD_BALANCE);
    let sort0 = proc.phase_time(PHASE_SORT);
    let fin0 = proc.phase_time(PHASE_FINISH);

    let res = match algorithm {
        Algorithm::MedianOfMedians => median_of_medians::run(proc, local, k, n0, cfg),
        Algorithm::BucketBased => bucket::run(proc, local.into_vec(), k, n0, cfg),
        Algorithm::Randomized => randomized::run(proc, local, k, n0, cfg),
        Algorithm::FastRandomized => fast_randomized::run(proc, local, k, n0, cfg),
    };

    SelectionOutcome {
        value: res.value,
        iterations: res.iterations,
        unsuccessful_iterations: res.unsuccessful,
        total_seconds: proc.now() - t0,
        lb_seconds: proc.phase_time(PHASE_LOAD_BALANCE) - lb0,
        sort_seconds: proc.phase_time(PHASE_SORT) - sort0,
        finish_seconds: proc.phase_time(PHASE_FINISH) - fin0,
        comm: proc.comm_stats().since(&comm0),
        ops: proc.ops_charged() - ops0,
        balance: res.balance,
        survivors: res.survivors,
    }
}

/// Selects the median (the paper's definition: 1-based rank ⌈N/2⌉).
pub fn parallel_median<T: Key>(
    proc: &mut Proc,
    data: &[T],
    algorithm: Algorithm,
    cfg: &SelectionConfig,
) -> SelectionOutcome<T> {
    let n = proc.combine(data.len() as u64, |a, b| a + b);
    assert!(n > 0, "median of an empty distributed set");
    parallel_select(proc, data, median_rank(n as usize) as u64, algorithm, cfg)
}

/// Spins up a whole machine, hands each processor its part of `parts` (one
/// vector per processor, borrowed, never cloned), runs one parallel
/// selection, and returns the value plus per-processor instrumentation.
/// This is the entry point used by the examples and the experiment harness.
///
/// # Panics
/// Panics if `parts.len() != p`.
pub fn select_on_machine<T: Key>(
    p: usize,
    model: MachineModel,
    parts: &[Vec<T>],
    k: u64,
    algorithm: Algorithm,
    cfg: &SelectionConfig,
) -> Result<MachineSelection<T>, RunError> {
    let outcomes = Machine::with_model(p, model)
        .run_distributed(parts, |proc, mine| parallel_select(proc, mine, k, algorithm, cfg))?;
    let value = outcomes[0].value;
    debug_assert!(
        outcomes.iter().all(|o| o.value == value),
        "processors disagree on the selected value"
    );
    Ok(MachineSelection { value, per_proc: outcomes })
}

/// Like [`select_on_machine`] but for the median.
pub fn median_on_machine<T: Key>(
    p: usize,
    model: MachineModel,
    parts: &[Vec<T>],
    algorithm: Algorithm,
    cfg: &SelectionConfig,
) -> Result<MachineSelection<T>, RunError> {
    let n: usize = parts.iter().map(Vec::len).sum();
    assert!(n > 0, "median of an empty distributed set");
    select_on_machine(p, model, parts, median_rank(n) as u64, algorithm, cfg)
}
