//! Collective-round accounting shared by tests and benchmarks.
//!
//! The engine's core claim — a batch of `R` rank-type queries costs
//! `O(log n + R)` collective rounds instead of `O(R·log n)` — is asserted
//! by `tests/engine.rs` and measured by the `engine` bench binary. Both
//! must count rounds *identically* or the test proves something the bench
//! does not report; this module is the single implementation they share.

use cgselect_runtime::Key;

use crate::{Engine, EngineError, Request};

/// How [`measure_rounds`] executes a request set.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecutionMode {
    /// The whole set as one coalesced [`Engine::run`] batch.
    Batched,
    /// Each query as its own single-element batch (the baseline the
    /// micro-batcher exists to beat).
    PerQuery,
}

/// What one [`measure_rounds`] run observed.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RoundsMeasurement {
    /// Queries executed.
    pub queries: usize,
    /// Collective operations started, per processor (summed across the
    /// per-query executions in [`ExecutionMode::PerQuery`] mode).
    pub collective_ops: u64,
    /// Virtual-time makespan (summed across per-query executions).
    pub makespan: f64,
    /// Messages sent (summed across per-query executions).
    pub msgs_sent: u64,
}

impl RoundsMeasurement {
    /// Collective rounds paid per query — the figure of merit batching
    /// amortizes. Zero when no queries were measured.
    pub fn rounds_per_query(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            self.collective_ops as f64 / self.queries as f64
        }
    }
}

/// Executes `requests` on `engine` in the given mode and returns the
/// collective-round accounting. This is THE definition of "collective
/// rounds per query" — `tests/engine.rs` asserts on it and the `engine`
/// bench binary reports it, so the two cannot drift apart.
pub fn measure_rounds<T: Key>(
    engine: &mut Engine<T>,
    requests: &[Request<T>],
    mode: ExecutionMode,
) -> Result<RoundsMeasurement, EngineError> {
    let mut m = RoundsMeasurement { queries: requests.len(), ..Default::default() };
    match mode {
        ExecutionMode::Batched => {
            let report = engine.run(requests)?;
            m.collective_ops = report.collective_ops;
            m.makespan = report.makespan;
            m.msgs_sent = report.comm.msgs_sent;
        }
        ExecutionMode::PerQuery => {
            for r in requests {
                let report = engine.run(std::slice::from_ref(r))?;
                m.collective_ops += report.collective_ops;
                m.makespan += report.makespan;
                m.msgs_sent += report.comm.msgs_sent;
            }
        }
    }
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Bounds, EngineConfig};
    use cgselect_runtime::MachineModel;

    #[test]
    fn batched_mode_beats_per_query_mode() {
        // Baseline path (index off): with the resident index, the per-query
        // repeats would be served from the histogram and this would measure
        // the cache instead of batching.
        let mut engine: Engine<u64> =
            Engine::new(EngineConfig::new(4).model(MachineModel::free()).index_buckets(0)).unwrap();
        engine.ingest((0..20_000u64).rev().collect()).unwrap();
        // Ranks plus one of each value-direction kind: their probes share
        // one Combine round in a batch and pay one each per query.
        let mut queries: Vec<Request<u64>> = (1..=10u64).map(|i| Request::rank(i * 1500)).collect();
        queries.push(Request::rank_of(7_777));
        queries.push(Request::count_between(Bounds::closed(2_000, 11_999)));
        let batched = measure_rounds(&mut engine, &queries, ExecutionMode::Batched).unwrap();
        let single = measure_rounds(&mut engine, &queries, ExecutionMode::PerQuery).unwrap();
        assert_eq!(batched.queries, single.queries);
        assert!(batched.collective_ops > 0);
        assert!(
            batched.rounds_per_query() < single.rounds_per_query(),
            "batched {} vs per-query {} rounds/query",
            batched.rounds_per_query(),
            single.rounds_per_query()
        );
    }

    #[test]
    fn empty_query_set_measures_zero() {
        let mut engine: Engine<u64> =
            Engine::new(EngineConfig::new(2).model(MachineModel::free())).unwrap();
        engine.ingest(vec![1, 2, 3]).unwrap();
        let m = measure_rounds(&mut engine, &[], ExecutionMode::PerQuery).unwrap();
        assert_eq!(m.rounds_per_query(), 0.0);
    }
}
