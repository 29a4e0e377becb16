//! SLO accounting: folding [`RunReport`]s into the ROADMAP's service-level
//! line and gating it in CI.
//!
//! The north-star SLO is stated per batch — "95% of this batch served
//! host-side, max rank error ε·n" — plus the batching economy axis, rounds
//! per query. [`SloAccumulator`] observes every batch a workload runs,
//! [`SloReport::render_line`] emits the stable one-line format the bench
//! bins write into `results/`, and [`SloPolicy::evaluate`] turns a report
//! into the violation list the `--check` gate fails CI on.

use crate::request::{RunReport, Served};

/// The service-level numbers of one observed workload.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SloReport {
    /// Total queries observed.
    pub queries: u64,
    /// Fraction of queries served host-side with zero collectives — from
    /// the cached histogram or the deterministic ε-sketch. `1.0` for an
    /// empty report.
    pub host_served_fraction: f64,
    /// Fraction of queries served under an accuracy contract from the
    /// host-global ε-sketch specifically ([`Served::Sketch`]); a subset of
    /// `host_served_fraction`. `0.0` for an empty report.
    pub sketch_served_fraction: f64,
    /// Worst guaranteed absolute error bound any answer carried.
    pub max_rank_error: u64,
    /// Collective rounds per query (per-processor counts), the batching
    /// economy axis.
    pub rounds_per_query: f64,
}

impl SloReport {
    /// The stable one-line format bench bins write into `results/`:
    ///
    /// ```text
    /// slo queries=400 host_served=0.9525 sketch_served=0.8100 max_rank_error=12 rounds_per_query=0.8875
    /// ```
    ///
    /// `sketch_served` is the "served host-side under contract" clause:
    /// the fraction answered from the deterministic ε-sketch, whose
    /// guaranteed error feeds `max_rank_error`.
    pub fn render_line(&self) -> String {
        format!(
            "slo queries={} host_served={:.4} sketch_served={:.4} max_rank_error={} \
             rounds_per_query={:.4}",
            self.queries,
            self.host_served_fraction,
            self.sketch_served_fraction,
            self.max_rank_error,
            self.rounds_per_query
        )
    }
}

/// Folds executed batches into an [`SloReport`].
#[derive(Clone, Copy, Debug, Default)]
pub struct SloAccumulator {
    queries: u64,
    host_served: u64,
    sketch_served: u64,
    max_rank_error: u64,
    collective_ops: u64,
}

impl SloAccumulator {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Observes one executed batch.
    pub fn observe<T>(&mut self, report: &RunReport<T>) {
        for outcome in &report.outcomes {
            self.queries += 1;
            // Histogram hits and ε-sketch answers both resolve on the host
            // with zero collectives; the sketch rung is additionally
            // tracked on its own as the "served under contract" clause.
            if matches!(outcome.served, Served::Histogram | Served::Sketch) {
                self.host_served += 1;
            }
            if outcome.served == Served::Sketch {
                self.sketch_served += 1;
            }
            self.max_rank_error = self.max_rank_error.max(outcome.response.max_error());
        }
        self.collective_ops += report.collective_ops;
    }

    /// The service-level numbers of everything observed so far.
    pub fn report(&self) -> SloReport {
        SloReport {
            queries: self.queries,
            host_served_fraction: if self.queries == 0 {
                1.0
            } else {
                self.host_served as f64 / self.queries as f64
            },
            sketch_served_fraction: if self.queries == 0 {
                0.0
            } else {
                self.sketch_served as f64 / self.queries as f64
            },
            max_rank_error: self.max_rank_error,
            rounds_per_query: if self.queries == 0 {
                0.0
            } else {
                self.collective_ops as f64 / self.queries as f64
            },
        }
    }
}

/// Thresholds an [`SloReport`] must meet — the CI contract.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SloPolicy {
    /// At least this fraction of queries must be served host-side.
    pub min_host_served_fraction: f64,
    /// At least this fraction of queries must be served under contract
    /// from the ε-sketch (0.0 when the workload has no tolerant queries).
    pub min_sketch_served_fraction: f64,
    /// No answer may carry a guaranteed error bound above this.
    pub max_rank_error: u64,
    /// At most this many collective rounds per query.
    pub max_rounds_per_query: f64,
}

impl SloPolicy {
    /// Checks a report against the thresholds; the returned violations are
    /// empty on pass, human-readable on fail (one line per broken clause).
    pub fn evaluate(&self, report: &SloReport) -> Vec<String> {
        let mut violations = Vec::new();
        if report.host_served_fraction < self.min_host_served_fraction {
            violations.push(format!(
                "host_served {:.4} below SLO floor {:.4}",
                report.host_served_fraction, self.min_host_served_fraction
            ));
        }
        if report.sketch_served_fraction < self.min_sketch_served_fraction {
            violations.push(format!(
                "sketch_served {:.4} below SLO floor {:.4}",
                report.sketch_served_fraction, self.min_sketch_served_fraction
            ));
        }
        if report.max_rank_error > self.max_rank_error {
            violations.push(format!(
                "max_rank_error {} above SLO ceiling {}",
                report.max_rank_error, self.max_rank_error
            ));
        }
        if report.rounds_per_query > self.max_rounds_per_query {
            violations.push(format!(
                "rounds_per_query {:.4} above SLO ceiling {:.4}",
                report.rounds_per_query, self.max_rounds_per_query
            ));
        }
        violations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{CostAttribution, Outcome, Response};

    fn report_with(outcomes: Vec<Outcome<u64>>, collective_ops: u64) -> RunReport<u64> {
        RunReport {
            outcomes,
            comm: cgselect_runtime::CommStats::default(),
            collective_ops,
            makespan: 0.0,
            exact_ranks: 0,
            sketch_answers: 0,
            histogram_answers: 0,
            value_probes: 0,
            delta_occupancy: 0.0,
            span: None,
        }
    }

    fn outcome(served: Served, max_error: u64) -> Outcome<u64> {
        Outcome {
            response: Response::Count { count: 1, max_error },
            served,
            cost: CostAttribution::default(),
            freshness: crate::Freshness::default(),
        }
    }

    #[test]
    fn accumulator_folds_batches_into_the_slo_line() {
        let mut acc = SloAccumulator::new();
        acc.observe(&report_with(
            vec![outcome(Served::Histogram, 3), outcome(Served::Index, 0)],
            10,
        ));
        // An ε-sketch answer counts as host-served AND under contract.
        acc.observe(&report_with(vec![outcome(Served::Sketch, 7)], 2));
        let r = acc.report();
        assert_eq!(r.queries, 3);
        assert!((r.host_served_fraction - 2.0 / 3.0).abs() < 1e-12);
        assert!((r.sketch_served_fraction - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(r.max_rank_error, 7);
        assert_eq!(r.rounds_per_query, 4.0);
        assert_eq!(
            r.render_line(),
            "slo queries=3 host_served=0.6667 sketch_served=0.3333 max_rank_error=7 \
             rounds_per_query=4.0000"
        );
    }

    #[test]
    fn empty_accumulator_is_vacuously_healthy() {
        let r = SloAccumulator::new().report();
        assert_eq!(r.queries, 0);
        assert_eq!(r.host_served_fraction, 1.0);
        assert_eq!(r.sketch_served_fraction, 0.0);
        assert_eq!(r.rounds_per_query, 0.0);
    }

    #[test]
    fn policy_reports_each_broken_clause() {
        let policy = SloPolicy {
            min_host_served_fraction: 0.9,
            min_sketch_served_fraction: 0.5,
            max_rank_error: 5,
            max_rounds_per_query: 2.0,
        };
        let healthy = SloReport {
            queries: 100,
            host_served_fraction: 0.95,
            sketch_served_fraction: 0.8,
            max_rank_error: 5,
            rounds_per_query: 1.5,
        };
        assert!(policy.evaluate(&healthy).is_empty());
        let sick = SloReport {
            queries: 100,
            host_served_fraction: 0.5,
            sketch_served_fraction: 0.1,
            max_rank_error: 9,
            rounds_per_query: 8.0,
        };
        let violations = policy.evaluate(&sick);
        assert_eq!(violations.len(), 4, "{violations:?}");
        assert!(violations[0].contains("host_served"), "{violations:?}");
        assert!(violations[1].contains("sketch_served"), "{violations:?}");
    }
}
