//! Failure-mode tests: what happens when the SPMD discipline is violated
//! or inputs are malformed. The runtime must fail loudly with diagnostics,
//! never hang silently or corrupt results.

use std::time::Duration;

use cgselect::{Algorithm, Machine, MachineModel, SelectionConfig};

fn small_timeout() -> Machine {
    Machine::with_model(2, MachineModel::free()).recv_timeout(Duration::from_millis(200))
}

#[test]
fn divergent_rank_parameters_are_caught() {
    // Processors disagree on k: the collective input validation (a Combine
    // over n and the shared assert) means the guilty processor panics on
    // its own assert or the runs diverge into a protocol error — either
    // way `run` returns an error instead of wrong data.
    let err = small_timeout()
        .run(|proc| {
            let mine: Vec<u64> = (0..100).collect();
            // Rank 0 asks for rank 10, rank 1 for rank 20: the random
            // streams agree but the narrowing decisions diverge.
            let k = if proc.rank() == 0 { 10 } else { 20 };
            cgselect::parallel_select(
                proc,
                &mine,
                k,
                Algorithm::Randomized,
                &SelectionConfig { min_sequential: 8, ..SelectionConfig::with_seed(3) },
            )
            .value
        })
        .unwrap_err();
    let msg = format!("{err}");
    assert!(
        msg.contains("timed out")
            || msg.contains("unconsumed")
            || msg.contains("owner")
            || msg.contains("panicked"),
        "unexpected diagnostic: {msg}"
    );
}

#[test]
fn divergent_algorithms_are_caught() {
    let err = small_timeout()
        .run(|proc| {
            let mine: Vec<u64> = (0..200).collect();
            let algo =
                if proc.rank() == 0 { Algorithm::Randomized } else { Algorithm::MedianOfMedians };
            cgselect::parallel_select(
                proc,
                &mine,
                50,
                algo,
                &SelectionConfig { min_sequential: 8, ..SelectionConfig::with_seed(4) },
            )
            .value
        })
        .unwrap_err();
    // Any loud failure is acceptable; silence is not.
    assert!(!format!("{err}").is_empty());
}

#[test]
fn missing_collective_participant_times_out_with_context() {
    let err = small_timeout()
        .run(|proc| {
            if proc.rank() == 0 {
                let _ = proc.combine(1u64, |a, b| a + b);
            }
            // rank 1 skips the collective entirely
        })
        .unwrap_err();
    let msg = format!("{err}");
    // Depending on interleaving, the divergence surfaces as a timeout, an
    // unconsumed message, or a payload-type mismatch where the skipped
    // collective's slot was taken by the end-of-run barrier — all loud,
    // all pointing at the diverged communication.
    assert!(
        msg.contains("timed out")
            || msg.contains("unconsumed")
            || msg.contains("unexpected payload type"),
        "diagnostic should mention the stuck state: {msg}"
    );
}

#[test]
fn nan_free_float_keys_select_correctly_with_infinities() {
    use cgselect::OrdF64;
    let parts: Vec<Vec<OrdF64>> = vec![
        vec![OrdF64(f64::NEG_INFINITY), OrdF64(1.0)],
        vec![OrdF64(f64::INFINITY), OrdF64(-3.5), OrdF64(0.0)],
    ];
    let cfg = SelectionConfig { min_sequential: 4, ..SelectionConfig::with_seed(5) };
    for (k, want) in [(0u64, f64::NEG_INFINITY), (1, -3.5), (2, 0.0), (3, 1.0), (4, f64::INFINITY)]
    {
        let sel = cgselect::select_on_machine(
            2,
            MachineModel::free(),
            &parts,
            k,
            Algorithm::Randomized,
            &cfg,
        )
        .unwrap();
        assert_eq!(sel.value.get(), want, "k={k}");
    }
}

#[test]
fn invalid_config_fails_before_any_communication() {
    let err = Machine::with_model(2, MachineModel::free())
        .run(|proc| {
            let cfg = SelectionConfig { epsilon: 2.0, ..SelectionConfig::default() };
            cgselect::parallel_select(
                proc,
                &[proc.rank() as u64],
                0,
                Algorithm::FastRandomized,
                &cfg,
            )
            .value
        })
        .unwrap_err();
    assert!(format!("{err}").contains("epsilon"), "{err}");
}
