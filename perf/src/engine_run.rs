//! The four engine workloads: set-up, the closed-loop client that drives the
//! async frontend, and the twin engine the traced run replays the same ops on
//! through direct `Engine` calls.

use std::sync::Arc;
use std::time::Instant;

use cgselect_engine::{
    Engine, EngineConfig, FrontendConfig, FrontendStats, MutationReport, MutationTicket, Outcome,
    OutcomeTicket, RefreshPolicy, Request, Served, SubmissionQueue,
};
use cgselect_workloads::{generate, Distribution};

use crate::oracle::{Checker, Oracle, StandingCheck, StepResult};
use crate::spans::Recorder;
use crate::stats::timed;
use crate::stream::{base_key, Op, OpStream, Step, StreamKind};

/// Shards of every engine (and processors of every machine) in the
/// benchmark: the sandbox has two cores.
pub const P: usize = 2;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    Local,
    Channel,
    Socket,
}

/// What distinguishes one engine workload from another.
#[derive(Clone, Copy, Debug)]
pub struct EngineSpec {
    pub backend: Backend,
    /// Bulk-ingested keys resident before the first op.
    pub n: usize,
    pub stream: StreamKind,
    /// Whether the two dashboard subscriptions ride along.
    pub standing: bool,
}

/// Wall time of each set-up call into the repository, in seconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    pub generate: f64,
    pub engine_new: f64,
    pub bulk_ingest: f64,
    pub cold_first_batch: f64,
    pub frontend: f64,
}

impl SetupTimes {
    pub fn total(&self) -> f64 {
        self.generate + self.engine_new + self.bulk_ingest + self.cold_first_batch + self.frontend
    }
}

pub fn engine_config(backend: Backend) -> EngineConfig {
    let cfg = EngineConfig::new(P);
    match backend {
        Backend::Local => cfg,
        Backend::Channel => cfg.channel_mp(),
        Backend::Socket => cfg.socket_mp(),
    }
}

fn standing_requests() -> [(Request<u64>, RefreshPolicy); 2] {
    [
        (Request::median(), RefreshPolicy::EveryBatch),
        (Request::quantile(0.99), RefreshPolicy::OnDelta(0.01)),
    ]
}

/// A bulk-loaded engine whose index is built, plus the sorted copy of its
/// data. `base` caches that copy across repeated set-ups of one seed; the
/// oracle's sort is the benchmark's work, not the engine's, and is not timed.
pub fn build_engine(
    spec: &EngineSpec,
    cfg: EngineConfig,
    seed: u64,
    base: &mut Option<Arc<Vec<u64>>>,
    times: &mut SetupTimes,
) -> Engine<u64> {
    let (parts, secs) = timed(|| generate(Distribution::Random, spec.n, P, seed));
    times.generate = secs;
    let items: Vec<u64> = parts.into_iter().flatten().map(base_key).collect();
    if base.is_none() {
        let mut sorted = items.clone();
        sorted.sort_unstable();
        *base = Some(Arc::new(sorted));
    }
    let (engine, secs) = timed(|| Engine::new(cfg));
    times.engine_new = secs;
    let mut engine = engine.expect("engine start");
    times.bulk_ingest = timed(|| engine.ingest(items).expect("bulk ingest")).1;
    // The first exact batch builds the resident index.
    times.cold_first_batch = timed(|| engine.run(&[Request::median()]).expect("cold batch")).1;
    engine
}

/// The closed-loop client of one engine workload.
pub struct FrontendRun {
    queue: SubmissionQueue<u64>,
    stream: OpStream,
    pub checker: Checker,
    standing: Vec<StandingCheck>,
    /// Query batches the frontend should have formed had no group split.
    expected_batches: u64,
    ops: u64,
    worker_pids: Vec<u32>,
}

impl FrontendRun {
    /// Builds the engine, hands it to the frontend and registers the standing
    /// subscriptions, timing every call into the repository.
    pub fn setup(
        spec: &EngineSpec,
        seed: u64,
        base: &mut Option<Arc<Vec<u64>>>,
    ) -> (Self, SetupTimes) {
        let mut times = SetupTimes::default();
        let engine = build_engine(spec, engine_config(spec.backend), seed, base, &mut times);
        let oracle = Oracle::new(base.clone().expect("build_engine fills the base"));
        let checker = Checker::new(oracle, engine.mutation_version());
        let worker_pids = engine.worker_pids();
        let frontend_cfg = FrontendConfig::new().max_batch(spec.stream.group_size());
        let ((queue, standing), secs) = timed(|| {
            let queue = engine.into_frontend(frontend_cfg);
            let standing: Vec<StandingCheck> = if spec.standing {
                standing_requests()
                    .into_iter()
                    .map(|(request, policy)| {
                        let handle = queue
                            .submit_standing(request.clone(), policy)
                            .expect("admit subscription")
                            .wait()
                            .expect("subscribe");
                        StandingCheck::new(handle, request)
                    })
                    .collect()
            } else {
                Vec::new()
            };
            (queue, standing)
        });
        times.frontend = secs;
        let mut run = FrontendRun {
            queue,
            stream: OpStream::new(spec.stream, spec.n as u64, seed),
            checker,
            standing,
            expected_batches: 0,
            ops: 0,
            worker_pids,
        };
        run.checker.verify_subscribed(&mut run.standing);
        (run, times)
    }

    /// Runs one op and returns its client-observed latency in microseconds:
    /// first `submit*` call to last ticket resolved. Generation happens
    /// before that interval and verification after it.
    pub fn run_op(&mut self, rec: &mut Recorder) -> f64 {
        rec.set_op(self.ops);
        self.ops += 1;
        let op_span = rec.enter("op");
        let gen = rec.enter("gen");
        let op = self.stream.next_op();
        let to_send = op.clone();
        rec.exit(gen);
        self.expected_batches += op.read_groups() as u64;

        let start = Instant::now();
        let results = drive_frontend(&self.queue, to_send, rec);
        let latency_us = start.elapsed().as_secs_f64() * 1e6;

        let verify = rec.enter("verify");
        match results {
            Ok(results) => self.checker.verify_op(&op, &results, &mut self.standing),
            Err(e) => self.checker.record_error(e),
        }
        rec.exit(verify);
        rec.exit(op_span);
        latency_us
    }

    pub fn stream_hash(&self) -> u64 {
        self.stream.hash()
    }

    pub fn stats(&self) -> FrontendStats {
        self.queue.stats()
    }

    /// Query batches beyond one per submitted group: groups the batcher split.
    pub fn split_groups(&self) -> f64 {
        self.queue.stats().batches as f64 - self.expected_batches as f64
    }

    pub fn standing_updates(&self) -> u64 {
        self.standing.iter().map(|s| s.updates).sum()
    }

    /// Shard worker processes (empty unless the backend is `SocketMp`).
    pub fn worker_pids(&self) -> &[u32] {
        &self.worker_pids
    }

    /// Stops the frontend and the engine; joins or reaps every worker.
    pub fn shutdown(self) {
        drop(self.standing);
        drop(self.queue.shutdown());
    }
}

enum Pending {
    Mutation(MutationTicket),
    Reads(Vec<OutcomeTicket<u64>>),
}

fn resolve(pending: Vec<Pending>, results: &mut Vec<StepResult>) -> Result<(), String> {
    for p in pending {
        results.push(match p {
            Pending::Mutation(t) => {
                StepResult::Mutation(t.wait().map_err(|e| format!("mutation failed: {e}"))?)
            }
            Pending::Reads(tickets) => {
                let outcomes: Result<Vec<Outcome<u64>>, _> =
                    tickets.into_iter().map(|t| t.wait()).collect();
                StepResult::Reads(outcomes.map_err(|e| format!("request failed: {e}"))?)
            }
        });
    }
    Ok(())
}

/// Submits the op's steps in order, awaiting every outstanding ticket after
/// each read group.
fn drive_frontend(
    queue: &SubmissionQueue<u64>,
    op: Op,
    rec: &mut Recorder,
) -> Result<Vec<StepResult>, String> {
    let mut results = Vec::with_capacity(op.steps.len());
    let mut pending = Vec::new();
    for step in op.steps {
        let is_reads = matches!(step, Step::Reads(_));
        let submit = rec.enter("frontend.submit");
        let ticket = match step {
            Step::Ingest(keys) => queue.submit_ingest(keys).map(Pending::Mutation),
            Step::Delete(keys) => queue.submit_delete(keys).map(Pending::Mutation),
            Step::Reads(requests) => queue.submit_many(requests).map(Pending::Reads),
        };
        rec.exit(submit);
        pending.push(ticket.map_err(|e| format!("submission refused: {e}"))?);
        if is_reads {
            let wait = rec.enter("frontend.wait");
            let resolved = resolve(std::mem::take(&mut pending), &mut results);
            rec.exit(wait);
            resolved?;
        }
    }
    resolve(pending, &mut results)?;
    Ok(results)
}

/// Counts taken around the twin's direct `Engine::run` calls. All of them
/// are functions of the op stream alone, so they repeat exactly for a seed.
#[derive(Clone, Debug, Default)]
pub struct DirectCounts {
    pub ops: u64,
    pub runs: u64,
    pub zero_collective_runs: u64,
    pub collective_ops: u64,
    pub msgs_sent: u64,
    pub bytes_sent: u64,
    pub makespan_s: f64,
    pub delta_occupancy_sum: f64,
    pub outcomes: u64,
    pub served: [u64; 4],
    /// Durations of direct `ingest` calls, split by whether the call folded
    /// the delta run into the index.
    pub ingest_us_merging: Vec<f64>,
    pub ingest_us_plain: Vec<f64>,
}

/// The traced run's second engine: same data, same op stream, driven by
/// direct `Engine::run` / `ingest` / `delete` calls with no frontend between.
pub struct Twin {
    pub engine: Engine<u64>,
    stream: OpStream,
    pub checker: Checker,
    standing: Vec<StandingCheck>,
    pub counts: DirectCounts,
    /// Counts accumulate only while set (warm-up ops are replayed uncounted).
    pub counting: bool,
    ops: u64,
}

impl Twin {
    pub fn setup(
        spec: &EngineSpec,
        cfg: EngineConfig,
        seed: u64,
        base: &mut Option<Arc<Vec<u64>>>,
        times: &mut SetupTimes,
    ) -> Self {
        let engine = build_engine(spec, cfg, seed, base, times);
        let oracle = Oracle::new(base.clone().expect("build_engine fills the base"));
        let checker = Checker::new(oracle, engine.mutation_version());
        let mut twin = Twin {
            engine,
            stream: OpStream::new(spec.stream, spec.n as u64, seed),
            checker,
            standing: Vec::new(),
            counts: DirectCounts::default(),
            counting: false,
            ops: 0,
        };
        if spec.standing {
            twin.subscribe(standing_requests().into());
        }
        twin
    }

    /// Registers standing queries and checks their inaugural updates.
    pub fn subscribe(&mut self, requests: Vec<(Request<u64>, RefreshPolicy)>) {
        let first = self.standing.len();
        for (request, policy) in requests {
            let handle = self.engine.subscribe(request.clone(), policy);
            self.standing.push(StandingCheck::new(handle, request));
        }
        self.engine.refresh_standing().expect("inaugural refresh");
        self.checker.verify_subscribed(&mut self.standing[first..]);
    }

    /// Replays the stream's next op; returns its duration in microseconds.
    pub fn run_op(&mut self, rec: &mut Recorder) -> f64 {
        let op = self.stream.next_op();
        self.replay(&op, rec)
    }

    /// Drives `op` through direct engine calls and verifies the results.
    pub fn replay(&mut self, op: &Op, rec: &mut Recorder) -> f64 {
        rec.set_op(self.ops);
        self.ops += 1;
        let start = Instant::now();
        let results = self.drive(op, rec);
        let elapsed_us = start.elapsed().as_secs_f64() * 1e6;
        if self.counting {
            self.counts.ops += 1;
        }
        match results {
            Ok(results) => self.checker.verify_op(op, &results, &mut self.standing),
            Err(e) => self.checker.record_error(e),
        }
        elapsed_us
    }

    fn drive(&mut self, op: &Op, rec: &mut Recorder) -> Result<Vec<StepResult>, String> {
        let mut results = Vec::with_capacity(op.steps.len());
        for step in &op.steps {
            results.push(match step {
                Step::Ingest(keys) => StepResult::Mutation(self.ingest(keys.clone(), rec)?),
                Step::Delete(keys) => {
                    let span = rec.enter("engine.delete");
                    let report = self.engine.delete(keys);
                    rec.exit(span);
                    self.refresh_standing(rec)?;
                    StepResult::Mutation(report.map_err(|e| format!("delete failed: {e}"))?)
                }
                Step::Reads(requests) => StepResult::Reads(self.run(requests, rec)?),
            });
        }
        Ok(results)
    }

    fn ingest(&mut self, keys: Vec<u64>, rec: &mut Recorder) -> Result<MutationReport, String> {
        let merges_before = self.engine.index_health().delta_merges;
        let span = rec.enter("engine.ingest");
        let start = Instant::now();
        let report = self.engine.ingest(keys);
        let us = start.elapsed().as_secs_f64() * 1e6;
        rec.exit(span);
        if self.counting {
            if self.engine.index_health().delta_merges > merges_before {
                self.counts.ingest_us_merging.push(us);
            } else {
                self.counts.ingest_us_plain.push(us);
            }
        }
        self.refresh_standing(rec)?;
        report.map_err(|e| format!("ingest failed: {e}"))
    }

    /// What the frontend's batcher does after every mutation.
    fn refresh_standing(&mut self, rec: &mut Recorder) -> Result<(), String> {
        if self.engine.standing_active() == 0 {
            return Ok(());
        }
        let span = rec.enter("standing.refresh");
        let refreshed = self.engine.refresh_standing();
        rec.exit(span);
        refreshed.map(|_| ()).map_err(|e| format!("standing refresh failed: {e}"))
    }

    pub fn run(
        &mut self,
        requests: &[Request<u64>],
        rec: &mut Recorder,
    ) -> Result<Vec<Outcome<u64>>, String> {
        let span = rec.enter("engine.run");
        let report = self.engine.run(requests);
        rec.exit(span);
        let report = report.map_err(|e| format!("run failed: {e}"))?;
        if self.counting {
            let c = &mut self.counts;
            c.runs += 1;
            c.zero_collective_runs += (report.collective_ops == 0) as u64;
            c.collective_ops += report.collective_ops;
            c.msgs_sent += report.comm.msgs_sent;
            c.bytes_sent += report.comm.bytes_sent;
            c.makespan_s += report.makespan;
            c.delta_occupancy_sum += report.delta_occupancy;
            c.outcomes += report.outcomes.len() as u64;
            for o in &report.outcomes {
                c.served[served_slot(o.served)] += 1;
            }
        }
        Ok(report.outcomes)
    }
}

/// Index of a provenance in [`DirectCounts::served`].
fn served_slot(served: Served) -> usize {
    match served {
        Served::Histogram => 0,
        Served::Sketch => 1,
        Served::Index => 2,
        Served::Scan => 3,
    }
}
