//! End-to-end observability: request-scoped spans, a metrics registry, and
//! SLO evaluation.
//!
//! Telemetry elsewhere in the stack is *fragmented by construction* —
//! `runtime::trace` logs per-processor events, [`CommStats`] counts one
//! processor's traffic, `FrontendStats` counts queue behavior, and
//! [`crate::CostAttribution`] divides a batch's cost — but nothing stitches
//! one request's journey from admission to the shard phases that served it.
//! This module is that stitching layer:
//!
//! * **Spans** — every [`crate::Request`] carries an optional [`TraceId`]
//!   (stamped at frontend admission, or assigned by [`crate::Engine::run`]);
//!   the batch's [`TraceContext`] rides the `BatchPlan` — and, for the
//!   message-passing backend, the wire frames — so per-shard [`PhaseSpan`]s
//!   measured inside backend execution attach back to the requests. The
//!   assembled [`BatchSpan`] in [`crate::RunReport::span`] links each
//!   outcome to the phases that produced it.
//! * **Metrics** — [`MetricsRegistry`] holds counters, gauges, fixed-bucket
//!   histograms and latency tracks; latency percentiles are computed by the
//!   engine's *own* sketch/quantile machinery — the registry dogfoods the
//!   same [`crate::EpsSketch`] that serves tolerant quantile queries, so
//!   every percentile is within the track's self-reported rank-error bound.
//!   The standing-query subsystem reports through the same registry: a
//!   `standing_active` gauge, `standing_refresh` / `standing_zero_collective`
//!   counters, and a `refresh_wall` latency track alongside `batch_wall`.
//! * **SLO** — [`SloAccumulator`] folds [`crate::RunReport`]s into the
//!   ROADMAP's service-level line (host-served fraction, max rank error,
//!   rounds per query), which [`SloPolicy`] turns into pass/fail for the
//!   bench `--check` gate.
//!
//! Everything here is **off by default and zero-cost when disabled**: with
//! `EngineConfig::observe(false)` (the default) the engine takes one branch
//! per batch and records nothing.

mod metrics;
mod slo;

pub use metrics::{HistogramSnapshot, LatencySummary, MetricsRegistry, MetricsSnapshot};
pub use slo::{SloAccumulator, SloPolicy, SloReport};

use crate::backend::ShardBatchOutcome;
use crate::request::{Outcome, Request, RunReport, Served};
use cgselect_runtime::CommStats;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// The shard-side execution phases a batch moves through, in pipeline
/// order — the span tree's leaf labels.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Phase {
    /// Vectorized `count_below` resolution of the batch's value probes.
    Probes,
    /// Exact rank resolution (indexed candidate windows or full scan).
    Exact,
    /// Sketch gathering and rank estimation for tolerance-carrying queries.
    Sketch,
}

impl Phase {
    /// All phases in pipeline order — aligned with the engine's per-request
    /// attribution slots (`[probes, exact, sketch]`).
    pub const ALL: [Phase; 3] = [Phase::Probes, Phase::Exact, Phase::Sketch];

    /// Stable lower-case label (also the `Proc::phase_begin` label the
    /// backends use, so `runtime::trace::aggregate_phases` output lines up).
    pub fn as_str(self) -> &'static str {
        match self {
            Phase::Probes => "probes",
            Phase::Exact => "exact",
            Phase::Sketch => "sketch",
        }
    }

    /// Wire encoding of the phase.
    pub fn as_u8(self) -> u8 {
        match self {
            Phase::Probes => 0,
            Phase::Exact => 1,
            Phase::Sketch => 2,
        }
    }

    /// Inverse of [`as_u8`](Self::as_u8); `None` for an unknown byte.
    pub fn from_u8(b: u8) -> Option<Phase> {
        match b {
            0 => Some(Phase::Probes),
            1 => Some(Phase::Exact),
            2 => Some(Phase::Sketch),
            _ => None,
        }
    }
}

impl std::fmt::Display for Phase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Process-global trace-ID source: unique across engines and frontends in
/// one process, so concurrently running sessions never collide.
static NEXT_TRACE_ID: AtomicU64 = AtomicU64::new(1);

/// A request-scoped trace identifier, stamped at admission.
///
/// IDs are unique within the process, not across restarts; span *structure*
/// (phases, counts) is what conformance compares, never the IDs themselves.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceId(pub u64);

impl TraceId {
    /// Draws the next process-unique ID.
    pub fn next() -> TraceId {
        TraceId(NEXT_TRACE_ID.fetch_add(1, Ordering::Relaxed))
    }
}

impl std::fmt::Display for TraceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// The batch-level trace context that flows from the planner into backend
/// execution — and, on the message-passing backend, across the wire inside
/// the execute command frame. Its presence is also the shard-side
/// "observability on" signal.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceContext {
    /// The engine's batch sequence number.
    pub batch: u64,
    /// Trace ID of the batch's first request (the span tree's root).
    pub root: TraceId,
}

/// One shard's measurement of one execution phase: inclusive virtual time
/// plus the communication delta, taken from snapshots around the phase.
///
/// Deterministic for a given batch and machine model, which is what lets the
/// conformance suite demand *equality* across backends.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PhaseSpan {
    /// Which phase.
    pub phase: Phase,
    /// Inclusive virtual seconds the shard spent inside the phase.
    pub time: f64,
    /// Communication this shard moved during the phase.
    pub comm: CommStats,
}

/// One phase aggregated across every shard of a batch.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PhaseSummary {
    /// Which phase.
    pub phase: Phase,
    /// Makespan of the phase: the maximum inclusive virtual time any shard
    /// spent inside it.
    pub time: f64,
    /// Collective operations the phase started, per processor (rank 0's
    /// count — identical on every rank by SPMD discipline).
    pub collective_ops: u64,
    /// Communication the phase moved, summed over all shards.
    pub comm: CommStats,
}

/// One request's node in the span tree: identity, what served it, and which
/// shard-side phases it participated in.
#[derive(Clone, Debug, PartialEq)]
pub struct RequestSpan {
    /// The request's trace ID.
    pub trace: TraceId,
    /// Stable label of the request's [`crate::QueryKind`].
    pub kind: &'static str,
    /// Which subsystem produced the answer.
    pub served: Served,
    /// The backend phases this request contributed work to — empty for
    /// host-served (histogram) answers that never left the host.
    pub phases: Vec<Phase>,
    /// The request's attributed share of the batch's collective ops
    /// (mirrors [`crate::CostAttribution::collective_ops`]).
    pub collective_ops: f64,
}

/// The span tree of one executed batch: per-request nodes tied to per-phase
/// aggregates, returned in [`crate::RunReport::span`] when observability is
/// on.
#[derive(Clone, Debug, PartialEq)]
pub struct BatchSpan {
    /// The engine's batch sequence number.
    pub batch: u64,
    /// Trace ID of the first request (the root carried in the wire frames).
    pub root: TraceId,
    /// One node per request, aligned with `RunReport::outcomes`.
    pub requests: Vec<RequestSpan>,
    /// Per-phase aggregates across all shards; empty when the whole batch
    /// was served host-side and the backend never ran.
    pub phases: Vec<PhaseSummary>,
}

impl BatchSpan {
    /// Renders the span tree as indented text, one line per request:
    ///
    /// ```text
    /// batch 3 root=t17 (2 phases)
    ///   phase probes: 12.4µs, 8 collective ops
    ///   phase exact: 2381.0µs, 168 collective ops
    ///   t17 quantile served=index phases=probes,exact ops=12.5
    ///   t18 median served=histogram phases= ops=0.0
    /// ```
    pub fn render(&self) -> String {
        let mut out =
            format!("batch {} root={} ({} phases)\n", self.batch, self.root, self.phases.len());
        for p in &self.phases {
            out.push_str(&format!(
                "  phase {}: {:.1}µs, {} collective ops\n",
                p.phase,
                p.time * 1e6,
                p.collective_ops
            ));
        }
        for r in &self.requests {
            let phases: Vec<&str> = r.phases.iter().map(|p| p.as_str()).collect();
            out.push_str(&format!(
                "  {} {} served={} phases={} ops={:.1}\n",
                r.trace,
                r.kind,
                r.served,
                phases.join(","),
                r.collective_ops
            ));
        }
        out
    }
}

/// The observability wrapper's state for one batch. [`crate::Engine::run`]
/// opens it only on an observing engine, and only once the batch can no
/// longer be refused — a rejected batch consumes no trace IDs.
pub(crate) struct Observed {
    /// Flows into the batch plan (and, on the message-passing backend,
    /// across the wire).
    pub ctx: TraceContext,
    /// One ID per request: the one it was stamped with, or assigned here.
    ids: Vec<TraceId>,
    pub wall_start: Instant,
}

impl Observed {
    pub(crate) fn open<T>(batch: u64, requests: &[Request<T>]) -> Self {
        let wall_start = Instant::now();
        let ids: Vec<TraceId> =
            requests.iter().map(|r| r.trace.unwrap_or_else(TraceId::next)).collect();
        let root = ids.first().copied().unwrap_or_else(TraceId::next);
        Observed { ctx: TraceContext { batch, root }, ids, wall_start }
    }

    /// Span assembly: links each outcome back to the phases it paid for
    /// (`units` holds its slot counts per phase, in [`Phase::ALL`] order).
    pub(crate) fn span<T>(
        &self,
        requests: &[Request<T>],
        outcomes: &[Outcome<T>],
        units: &[[u64; 3]],
        shards: &[ShardBatchOutcome<T>],
    ) -> BatchSpan {
        let shard_spans: Vec<Vec<PhaseSpan>> = shards.iter().map(|o| o.spans.clone()).collect();
        let request_spans = self
            .ids
            .iter()
            .zip(requests)
            .zip(outcomes.iter().zip(units))
            .map(|((&trace, req), (outcome, units))| RequestSpan {
                trace,
                kind: req.kind.label(),
                served: outcome.served,
                phases: Phase::ALL
                    .into_iter()
                    .zip(units)
                    .filter(|&(_, u)| *u > 0)
                    .map(|(p, _)| p)
                    .collect(),
                collective_ops: outcome.cost.collective_ops,
            })
            .collect();
        BatchSpan {
            batch: self.ctx.batch,
            root: self.ctx.root,
            requests: request_spans,
            phases: summarize_phases(&shard_spans),
        }
    }

    /// Feeds the registry with one finished batch (riders included).
    pub(crate) fn record<T>(&self, m: &MetricsRegistry, report: &RunReport<T>) {
        m.counter_add("requests_total", report.outcomes.len() as u64);
        m.counter_add("batches_total", 1);
        m.counter_add("collective_ops_total", report.collective_ops);
        for o in &report.outcomes {
            m.counter_add(
                match o.served {
                    Served::Histogram => "served_histogram",
                    Served::Sketch => "served_sketch",
                    Served::Index => "served_index",
                    Served::Scan => "served_scan",
                },
                1,
            );
        }
        m.histogram_observe("batch_occupancy", report.outcomes.len() as u64);
        m.gauge_set("delta_occupancy", report.delta_occupancy);
        m.latency_observe("batch_virtual", (report.makespan * 1e9) as u64);
        m.latency_observe("batch_wall", self.wall_start.elapsed().as_nanos() as u64);
    }
}

/// Folds per-shard phase spans into per-phase batch aggregates: time is the
/// max across shards (the phase's makespan), communication is summed, and
/// the per-processor collective count is read off rank 0's delta.
pub(crate) fn summarize_phases(shards: &[Vec<PhaseSpan>]) -> Vec<PhaseSummary> {
    let Some(rank0) = shards.first() else { return Vec::new() };
    let mut out = Vec::with_capacity(rank0.len());
    for (i, span0) in rank0.iter().enumerate() {
        let mut time = 0.0f64;
        let mut comm = CommStats::default();
        for shard in shards {
            let s = &shard[i];
            debug_assert_eq!(s.phase, span0.phase, "shards disagree on phase order");
            time = time.max(s.time);
            comm = comm.merged(&s.comm);
        }
        out.push(PhaseSummary {
            phase: span0.phase,
            time,
            collective_ops: span0.comm.collective_ops,
            comm,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_ids_are_unique_and_ordered() {
        let a = TraceId::next();
        let b = TraceId::next();
        assert!(b > a);
        assert_eq!(format!("{a}"), format!("t{}", a.0));
    }

    #[test]
    fn phase_wire_encoding_roundtrips() {
        for p in Phase::ALL {
            assert_eq!(Phase::from_u8(p.as_u8()), Some(p));
        }
        assert_eq!(Phase::from_u8(7), None);
    }

    #[test]
    fn phase_summaries_max_time_and_sum_comm() {
        let mk = |time, ops, bytes| PhaseSpan {
            phase: Phase::Exact,
            time,
            comm: CommStats { collective_ops: ops, bytes_sent: bytes, ..CommStats::default() },
        };
        let shards = vec![vec![mk(2.0, 5, 100)], vec![mk(3.0, 5, 40)]];
        let agg = summarize_phases(&shards);
        assert_eq!(agg.len(), 1);
        assert_eq!(agg[0].phase, Phase::Exact);
        assert_eq!(agg[0].time, 3.0);
        assert_eq!(agg[0].collective_ops, 5, "per-processor count from rank 0");
        assert_eq!(agg[0].comm.bytes_sent, 140, "traffic summed across shards");
        assert!(summarize_phases(&[]).is_empty());
    }

    #[test]
    fn span_render_lists_phases_and_requests() {
        let span = BatchSpan {
            batch: 3,
            root: TraceId(17),
            requests: vec![RequestSpan {
                trace: TraceId(17),
                kind: "quantile",
                served: Served::Index,
                phases: vec![Phase::Probes, Phase::Exact],
                collective_ops: 12.5,
            }],
            phases: vec![PhaseSummary {
                phase: Phase::Probes,
                time: 1.0e-6,
                collective_ops: 8,
                comm: CommStats::default(),
            }],
        };
        let text = span.render();
        assert!(text.contains("batch 3 root=t17"), "{text}");
        assert!(text.contains("phase probes: 1.0µs, 8 collective ops"), "{text}");
        assert!(text.contains("t17 quantile served=index phases=probes,exact ops=12.5"), "{text}");
    }
}
