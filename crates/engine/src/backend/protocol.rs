//! The host↔worker command/reply protocol of the message-passing backend
//! (`super::mp`), identical on every transport.
//!
//! # Framing
//!
//! Every command and reply travels as one frame:
//!
//! ```text
//! [ version: u8 = 2 ][ seq: u64 LE ][ body ... ]
//! ```
//!
//! * `version` pins the protocol revision; a mismatch is a typed
//!   [`RunError::WireProtocol`] error, never a misparse.
//! * `seq` is the **batch sequence number**: the host stamps every command
//!   round with a fresh value and workers echo it in their reply. The
//!   collect loop discards replies whose `seq` doesn't match the current
//!   round, so a slow-but-alive worker that was declared unresponsive can
//!   never deliver its stale reply into a later round's collect.
//! * `body` starts with a one-byte command tag (host → worker) or reply
//!   status (worker → host), followed by fields in the [`super::wire`]
//!   codec.
//!
//! On a byte stream (the process transport) each frame is additionally
//! length-prefixed with a `u32` LE. The thread transport sends one frame
//! per channel message, so no length prefix is needed there.
//!
//! # Reply collection
//!
//! [`collect_frame`] applies **one shared deadline** across all workers of a
//! round: the worst-case host stall for a round is `reply_timeout`, not
//! `p × reply_timeout`, no matter how many shards straggle.

use std::time::Instant;

use cgselect_balance::Balancer;
use cgselect_core::SelectionConfig;
use cgselect_runtime::{Key, Proc, RunError, WireMsgError};
use cgselect_seqsel::SepBound;
use crossbeam::channel::Receiver;

use crate::index::{BucketStats, ShardIndex};
use crate::sketch::EpsSketch;

use super::ops::{self, Shard};
use super::wire::{Reader, WireResult, Writer};
use super::{BackendError, BatchPlan, PhaseOps, ShardBatchOutcome, ShardDeletion};

/// Protocol revision carried in every frame header. Revision 2 added the
/// splitter bounds to the BUILD_INDEX reply and the probe-refinement stats
/// to the EXECUTE reply; revision 3 the re-sketch flag to the DELETE reply
/// and the removed side to every ε-sketch payload.
pub(crate) const WIRE_VERSION: u8 = 3;

/// Size of the frame header (`version` byte + `seq` u64).
pub(crate) const FRAME_HEADER_BYTES: usize = 9;

// Command frame tags (host -> worker). 0–15 are the data-plane verbs; 16+
// are the control-plane verbs (membership, migration, liveness) plus the
// process transport's INIT.
pub(crate) const CMD_EXIT: u8 = 0;
pub(crate) const CMD_INGEST: u8 = 1;
pub(crate) const CMD_DELETE: u8 = 2;
pub(crate) const CMD_REBALANCE: u8 = 3;
pub(crate) const CMD_BUILD_INDEX: u8 = 4;
pub(crate) const CMD_MERGE_DELTA: u8 = 5;
pub(crate) const CMD_EXECUTE: u8 = 6;
pub(crate) const CMD_EXPORT_SKETCH: u8 = 7;
pub(crate) const CMD_FABRIC_BIND: u8 = 16;
pub(crate) const CMD_FABRIC_CONNECT: u8 = 17;
pub(crate) const CMD_EXPORT: u8 = 18;
pub(crate) const CMD_IMPORT: u8 = 19;
pub(crate) const CMD_PING: u8 = 20;
pub(crate) const CMD_INIT: u8 = 21;

// Reply frame status bytes (worker -> host).
pub(crate) const REPLY_OK: u8 = 0;
pub(crate) const REPLY_PANICKED: u8 = 1;
pub(crate) const REPLY_PENDING_MESSAGES: u8 = 2;
pub(crate) const REPLY_UNBALANCED_PHASES: u8 = 3;
pub(crate) const REPLY_WIRE_ERROR: u8 = 4;

/// Wraps a body in the versioned, sequence-numbered frame header.
pub(crate) fn encode_framed(seq: u64, body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER_BYTES + body.len());
    out.push(WIRE_VERSION);
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(body);
    out
}

/// Splits a frame into its sequence number and body, verifying the version
/// byte.
pub(crate) fn split_framed(frame: &[u8]) -> Result<(u64, &[u8]), WireMsgError> {
    if frame.len() < FRAME_HEADER_BYTES {
        return Err(WireMsgError::new(format!(
            "frame of {} bytes is shorter than the {FRAME_HEADER_BYTES}-byte header",
            frame.len()
        )));
    }
    if frame[0] != WIRE_VERSION {
        return Err(WireMsgError::new(format!(
            "wire version mismatch: got {}, this build speaks {WIRE_VERSION}",
            frame[0]
        )));
    }
    let seq = u64::from_le_bytes(frame[1..9].try_into().expect("length checked"));
    Ok((seq, &frame[FRAME_HEADER_BYTES..]))
}

/// Collects one reply body for `rank` from its reply port, under a deadline
/// **shared across the whole round**: the caller computes `deadline` once
/// and passes it to every rank's collect, so stragglers overlap instead of
/// serializing their timeouts.
///
/// Frames whose sequence number doesn't match `seq` are stale replies from
/// an earlier round (a worker that was declared unresponsive but was merely
/// slow); they are discarded without ending the wait.
pub(crate) fn collect_frame(
    rx: &Receiver<Vec<u8>>,
    deadline: Instant,
    seq: u64,
    rank: usize,
) -> Result<Vec<u8>, BackendError> {
    loop {
        let remaining = deadline.saturating_duration_since(Instant::now());
        match rx.recv_timeout(remaining) {
            Ok(frame) => {
                let (frame_seq, body) =
                    split_framed(&frame).map_err(|e| wire_protocol_error(rank, e))?;
                if frame_seq == seq {
                    return Ok(body.to_vec());
                }
                // Stale (or future — impossible for a correct worker) reply:
                // discard and keep waiting within the same deadline.
            }
            // Timeout or disconnect: the reply was lost or the worker died
            // without reporting.
            Err(_) => return Err(BackendError::WorkerUnresponsive { rank }),
        }
    }
}

/// Converts a decode failure on `rank`'s frame into the typed backend error.
pub(crate) fn wire_protocol_error(rank: usize, e: WireMsgError) -> BackendError {
    BackendError::Runtime(RunError::WireProtocol { rank, detail: e.detail })
}

/// Root-cause triage over all failed ranks of one round trip: a failure a
/// worker *reported* (panic, protocol violation) beats a silent rank —
/// silence is usually fallout of someone else's death racing the reply
/// deadline, and must never mask the reported root cause no matter which
/// rank the host happened to poll first. Within the reported failures,
/// non-secondary beats timeout/disconnect fallout; a silent rank beats
/// pure secondary fallout (a dropped reply can itself be the root cause).
pub(crate) fn triage(failures: Vec<BackendError>) -> BackendError {
    debug_assert!(!failures.is_empty());
    let reported = failures
        .iter()
        .find(|e| !e.is_secondary() && !matches!(e, BackendError::WorkerUnresponsive { .. }));
    let unresponsive =
        failures.iter().find(|e| matches!(e, BackendError::WorkerUnresponsive { .. }));
    reported.or(unresponsive).or_else(|| failures.first()).cloned().expect("failures is non-empty")
}

/// Splits a reply body into its ok-payload or typed error.
pub(crate) fn decode_reply_status(rank: usize, body: Vec<u8>) -> Result<Vec<u8>, BackendError> {
    let status = body.first().copied();
    Err(match status {
        Some(REPLY_OK) => return Ok(body),
        Some(REPLY_UNBALANCED_PHASES) => BackendError::Runtime(RunError::UnbalancedPhases { rank }),
        Some(REPLY_PANICKED | REPLY_PENDING_MESSAGES | REPLY_WIRE_ERROR) => {
            // These carry one string; a half-written one from a dying
            // worker is itself a typed error, never an abort.
            let detail = decode_reply(rank, &body, |r| r.str())?;
            match status {
                Some(REPLY_PANICKED) => BackendError::WorkerPanicked { rank, message: detail },
                Some(REPLY_PENDING_MESSAGES) => {
                    BackendError::Runtime(RunError::PendingMessages { rank, detail })
                }
                _ => BackendError::Runtime(RunError::WireProtocol { rank, detail }),
            }
        }
        other => BackendError::WorkerPanicked {
            rank,
            message: format!("malformed reply frame (status {other:?})"),
        },
    })
}

// ---------------------------------------------------------------------
// Per-verb body codecs (the host's verbs and the worker's dispatch).
// ---------------------------------------------------------------------

pub(crate) fn encode_ingest<T: Key>(chunk: &[T]) -> Vec<u8> {
    let mut w = Writer::new(CMD_INGEST);
    w.keys(chunk);
    w.into_frame()
}

pub(crate) fn encode_delete<T: Key>(values: &[T]) -> Vec<u8> {
    let mut w = Writer::new(CMD_DELETE);
    w.keys(values);
    w.into_frame()
}

pub(crate) fn encode_build_index(buckets: usize) -> Vec<u8> {
    let mut w = Writer::new(CMD_BUILD_INDEX);
    w.usize(buckets);
    w.into_frame()
}

/// Decodes one reply payload with its verb's field decoder, requiring the
/// frame be consumed exactly; a failure is a typed error on `rank`.
pub(crate) fn decode_reply<R>(
    rank: usize,
    body: &[u8],
    fields: impl FnOnce(&mut Reader<'_>) -> WireResult<R>,
) -> Result<R, BackendError> {
    let mut r = Reader::new(body);
    let decoded = fields(&mut r).and_then(|v| r.finish().map(|()| v));
    decoded.map_err(|e| wire_protocol_error(rank, e))
}

pub(crate) fn decode_sketch_reply<T: Key>(r: &mut Reader<'_>) -> WireResult<EpsSketch<T>> {
    r.eps_sketch::<T>()
}

pub(crate) fn decode_u64_reply(r: &mut Reader<'_>) -> WireResult<u64> {
    r.u64()
}

pub(crate) fn decode_deletion_reply(r: &mut Reader<'_>) -> WireResult<ShardDeletion> {
    Ok(ShardDeletion { remaining: r.u64()?, removed: r.u64s()?, resketched: r.bool()? })
}

pub(crate) fn decode_bucket_stats_reply<T: Key>(r: &mut Reader<'_>) -> WireResult<BucketStats<T>> {
    r.bucket_stats::<T>()
}

/// BUILD_INDEX replies carry the agreed splitter bounds alongside the
/// shard's bucket stats so the host can mirror the shared splitter array
/// without re-deriving it.
pub(crate) fn decode_index_build_reply<T: Key>(
    r: &mut Reader<'_>,
) -> WireResult<(Vec<SepBound<T>>, BucketStats<T>)> {
    Ok((r.sep_bounds::<T>()?, r.bucket_stats::<T>()?))
}

/// Serializes one batch plan. Only the per-batch pivot seed crosses the
/// wire; workers rebuild the full `SelectionConfig` from their deployment
/// copy. The coalesced rank set rides as runs and the value probes as
/// `(key, inclusive)` pairs.
pub(crate) fn encode_execute<T: Key>(plan: &BatchPlan<T>) -> Vec<u8> {
    let mut w = Writer::new(CMD_EXECUTE);
    w.u64(plan.selection.seed);
    w.bool(plan.use_index);
    w.u64(plan.full_total);
    w.u64(plan.delta_total);
    w.rank_set(&plan.exact_ranks);
    w.probes(&plan.value_probes);
    w.usize(plan.groups.len());
    for g in plan.groups.iter() {
        w.group(g);
    }
    w.trace_context(&plan.trace);
    w.into_frame()
}

pub(crate) fn decode_execute<T: Key>(
    r: &mut Reader<'_>,
    base: &SelectionConfig,
) -> WireResult<BatchPlan<T>> {
    let mut selection = base.clone();
    selection.seed = r.u64()?;
    let use_index = r.bool()?;
    let full_total = r.u64()?;
    let delta_total = r.u64()?;
    let exact_ranks = r.rank_set()?;
    let value_probes = r.probes::<T>()?;
    let group_count = r.usize()?;
    let groups = (0..group_count).map(|_| r.group()).collect::<WireResult<_>>()?;
    let trace = r.trace_context()?;
    Ok(BatchPlan {
        groups: std::sync::Arc::new(groups),
        exact_ranks: std::sync::Arc::new(exact_ranks),
        value_probes: std::sync::Arc::new(value_probes),
        selection,
        use_index,
        full_total,
        delta_total,
        trace,
    })
}

pub(crate) fn encode_outcome<T: Key>(w: &mut Writer, o: &ShardBatchOutcome<T>) {
    w.usize(o.exact.len());
    for v in &o.exact {
        w.opt_key(*v);
    }
    w.usize(o.refines.len());
    for stats in &o.refines {
        w.bucket_stats(stats);
    }
    w.usize(o.probe_refines.len());
    for stats in &o.probe_refines {
        w.bucket_stats(stats);
    }
    w.u64s(&o.probe_counts);
    w.u64(o.phase_ops.probes);
    w.u64(o.phase_ops.exact);
    w.u64(o.phase_ops.sketch);
    w.comm_stats(&o.comm);
    w.f64(o.elapsed);
    w.phase_spans(&o.spans);
}

pub(crate) fn decode_outcome<T: Key>(r: &mut Reader<'_>) -> WireResult<ShardBatchOutcome<T>> {
    let exact_len = r.usize()?;
    let exact = (0..exact_len).map(|_| r.opt_key::<T>()).collect::<WireResult<_>>()?;
    let refines_len = r.usize()?;
    let refines = (0..refines_len).map(|_| r.bucket_stats::<T>()).collect::<WireResult<_>>()?;
    let probe_refines_len = r.usize()?;
    let probe_refines =
        (0..probe_refines_len).map(|_| r.bucket_stats::<T>()).collect::<WireResult<_>>()?;
    let probe_counts = r.u64s()?;
    let phase_ops = PhaseOps { probes: r.u64()?, exact: r.u64()?, sketch: r.u64()? };
    let comm = r.comm_stats()?;
    let elapsed = r.f64()?;
    let spans = r.phase_spans()?;
    Ok(ShardBatchOutcome {
        exact,
        refines,
        probe_refines,
        probe_counts,
        phase_ops,
        comm,
        elapsed,
        spans,
    })
}

// ---------------------------------------------------------------------
// Control-plane codecs: fabric wiring and the shard snapshot that rides
// EXPORT replies and IMPORT commands.
// ---------------------------------------------------------------------

pub(crate) fn encode_fabric_bind(epoch: u64, rank: usize, p: usize) -> Vec<u8> {
    let mut w = Writer::new(CMD_FABRIC_BIND);
    w.u64(epoch);
    w.usize(rank);
    w.usize(p);
    w.into_frame()
}

/// The `(epoch, rank, p)` of a FABRIC_BIND command.
pub(crate) fn decode_fabric_bind(body: &[u8]) -> WireResult<(u64, usize, usize)> {
    let mut r = Reader::new(body);
    let bind = (r.u64()?, r.usize()?, r.usize()?);
    r.finish()?;
    Ok(bind)
}

/// A control verb's failure reply.
pub(crate) fn encode_wire_error(detail: &str) -> Vec<u8> {
    let mut w = Writer::new(REPLY_WIRE_ERROR);
    w.str(detail);
    w.into_frame()
}

pub(crate) fn encode_snapshot<T: Key>(w: &mut Writer, shard: &Shard<T>) {
    w.keys(&shard.data);
    match &shard.index {
        Some(idx) => {
            w.bool(true);
            // A SepBound is structurally a probe pair: (value, inclusive).
            let pairs: Vec<(T, bool)> = idx.bounds.iter().map(|b| (b.value, b.inclusive)).collect();
            w.probes(&pairs);
            let offsets: Vec<u64> = idx.offsets.iter().map(|&o| o as u64).collect();
            w.u64s(&offsets);
        }
        None => w.bool(false),
    }
    // The ε-sketch rides its canonical byte encoding mid-stream: the
    // restored sketch is bit-identical, accumulated error bound included.
    w.eps_sketch(&shard.sketch);
}

/// Total over arbitrary bytes: besides the field codecs' own checks, an
/// index is installed only once [`ShardIndex::from_snapshot`] has proved it
/// describes `data` — a wrong length, a decreasing pair, an offset past the
/// data or a bucket holding a foreign value is a typed error here, not a
/// slice panic (or a silently wrong answer) batches later.
pub(crate) fn decode_snapshot<T: Key>(r: &mut Reader<'_>) -> WireResult<Shard<T>> {
    let data = r.keys::<T>()?;
    let index = if r.bool()? {
        let bounds = r
            .probes::<T>()?
            .into_iter()
            .map(|(value, inclusive)| SepBound { value, inclusive })
            .collect();
        let offsets = r
            .u64s()?
            .into_iter()
            .map(usize::try_from)
            .collect::<Result<Vec<usize>, _>>()
            .map_err(|_| WireMsgError::new("snapshot index offset overflows usize"))?;
        Some(ShardIndex::from_snapshot(bounds, offsets, &data).map_err(WireMsgError::new)?)
    } else {
        None
    };
    let sketch = r.eps_sketch::<T>()?;
    Ok(Shard { data, index, sketch })
}

/// IMPORT mode: restore the snapshot exactly, replacing the shard.
pub(crate) const IMPORT_REPLACE: u8 = 0;
/// IMPORT mode: append the snapshot's data, merge its sketch, drop the index.
pub(crate) const IMPORT_MERGE: u8 = 1;

/// Forwards an EXPORT reply (status byte + snapshot) as an IMPORT command.
pub(crate) fn encode_import(mode: u8, export_reply: &[u8]) -> Vec<u8> {
    let mut w = Writer::new(CMD_IMPORT);
    w.u8(mode);
    w.raw(&export_reply[1..]); // splice the snapshot past the status byte
    w.into_frame()
}

pub(crate) fn decode_import<T: Key>(body: &[u8]) -> WireResult<(u8, Shard<T>)> {
    let mut r = Reader::new(body);
    let mode = r.u8()?;
    let snap = decode_snapshot::<T>(&mut r)?;
    r.finish()?;
    Ok((mode, snap))
}

/// The command that *resets* a surviving shard's index during recovery: a
/// merge-import of the empty snapshot (nothing to add; merging an empty
/// ε-sketch is the identity, so the survivor's sketch — still a valid
/// summary of its unchanged multiset — is kept as is).
///
/// The reset is load-bearing. A batch that died mid-collective may have
/// left a survivor's candidate windows half permuted under bounds that were
/// never refined, and the next index build *re-cuts the resident runs* it
/// finds (`index::recut_shard_index`), trusting every bucket it does not
/// cut. Dropping the index makes that build the degenerate case — one
/// bucket spanning the data, partitioned from nothing.
pub(crate) fn encode_index_reset<T: Key>() -> Vec<u8> {
    let mut w = Writer::new(REPLY_OK);
    encode_snapshot(
        &mut w,
        &Shard::<T> { data: Vec::new(), index: None, sketch: EpsSketch::new(0) },
    );
    encode_import(IMPORT_MERGE, &w.into_frame())
}

/// Deployment configuration a worker needs to serve the shared command set
/// — what reaches a remote shard process as argv/config, never per-command.
#[derive(Clone)]
pub(crate) struct WorkerConfig {
    pub rank: usize,
    pub sketch_capacity: usize,
    pub selection: SelectionConfig,
    pub balancer: Balancer,
}

/// Dispatches one data-plane command body against the worker's shard and
/// returns the reply body. Malformed commands surface as
/// [`RunError::WireProtocol`]; every served program ends with the
/// [`Proc::finish_program`] protocol check.
pub(crate) fn run_command<T: Key>(
    proc: &mut Proc,
    shard: &mut Shard<T>,
    cfg: &WorkerConfig,
    body: &[u8],
) -> Result<Vec<u8>, RunError> {
    let wire = |e: WireMsgError| RunError::WireProtocol { rank: cfg.rank, detail: e.detail };
    let mut r = Reader::new(body);
    let mut w = Writer::new(REPLY_OK);
    match body.first().copied() {
        Some(CMD_INGEST) => {
            let items = r.keys::<T>().map_err(wire)?;
            r.finish().map_err(wire)?;
            w.u64(ops::ingest_shard(proc, shard, items));
        }
        Some(CMD_DELETE) => {
            let values = r.keys::<T>().map_err(wire)?;
            r.finish().map_err(wire)?;
            let d = ops::delete_shard(proc, shard, &values);
            w.u64(d.remaining);
            w.u64s(&d.removed);
            w.bool(d.resketched);
        }
        Some(CMD_REBALANCE) => {
            r.finish().map_err(wire)?;
            w.u64(ops::rebalance_shard(proc, shard, cfg.balancer));
        }
        Some(CMD_BUILD_INDEX) => {
            let buckets = r.usize().map_err(wire)?;
            r.finish().map_err(wire)?;
            let (bounds, stats) = ops::build_index_shard(proc, shard, buckets);
            w.sep_bounds(&bounds);
            w.bucket_stats(&stats);
        }
        Some(CMD_MERGE_DELTA) => {
            r.finish().map_err(wire)?;
            w.bucket_stats(&ops::merge_delta_shard(proc, shard));
        }
        Some(CMD_EXPORT_SKETCH) => {
            // Pure local read: the shard ships its ε-sketch bytes and no
            // collective fires — the host merges exports by itself.
            r.finish().map_err(wire)?;
            w.eps_sketch(&shard.sketch);
        }
        Some(CMD_EXECUTE) => {
            let plan = decode_execute::<T>(&mut r, &cfg.selection).map_err(wire)?;
            r.finish().map_err(wire)?;
            let o = ops::execute_shard(proc, shard, &plan);
            encode_outcome(&mut w, &o);
        }
        other => {
            return Err(RunError::WireProtocol {
                rank: cfg.rank,
                detail: format!("unknown command tag {other:?}"),
            })
        }
    }
    proc.finish_program()?;
    Ok(w.into_frame())
}

/// Encodes a non-panic failure (`finish_program` violation or wire decode
/// error) as a reply body.
pub(crate) fn encode_protocol_error(err: &RunError) -> Vec<u8> {
    match err {
        RunError::PendingMessages { detail, .. } => {
            let mut w = Writer::new(REPLY_PENDING_MESSAGES);
            w.str(detail);
            w.into_frame()
        }
        RunError::UnbalancedPhases { .. } => Writer::new(REPLY_UNBALANCED_PHASES).into_frame(),
        RunError::WireProtocol { detail, .. } => encode_wire_error(detail),
        // run_command only produces the variants above.
        other => {
            let mut w = Writer::new(REPLY_PANICKED);
            w.str(&format!("unexpected protocol error: {other}"));
            w.into_frame()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel::unbounded;
    use std::time::Duration;

    #[test]
    fn frame_header_round_trips() {
        let frame = encode_framed(0xDEAD_BEEF, b"payload");
        let (seq, body) = split_framed(&frame).unwrap();
        assert_eq!(seq, 0xDEAD_BEEF);
        assert_eq!(body, b"payload");
    }

    #[test]
    fn version_mismatch_is_a_typed_error() {
        let mut frame = encode_framed(1, b"x");
        frame[0] = 99;
        let err = split_framed(&frame).unwrap_err();
        assert!(err.detail.contains("version mismatch"), "{err}");
    }

    #[test]
    fn short_frames_are_a_typed_error() {
        assert!(split_framed(&[WIRE_VERSION, 0, 0]).is_err());
        assert!(split_framed(&[]).is_err());
    }

    #[test]
    fn collect_discards_stale_sequence_numbers() {
        let (tx, rx) = unbounded::<Vec<u8>>();
        // A late reply from batch 6 sits queued when the host collects
        // batch 7: it must be discarded, and the genuine reply returned.
        tx.send(encode_framed(6, &[REPLY_OK, 0xAA])).unwrap();
        tx.send(encode_framed(7, &[REPLY_OK, 0xBB])).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        let body = collect_frame(&rx, deadline, 7, 0).unwrap();
        assert_eq!(body, vec![REPLY_OK, 0xBB]);
        // The stale frame is gone, not deferred.
        assert!(rx.try_recv().is_err());
    }

    #[test]
    fn collect_times_out_as_unresponsive() {
        let (_tx, rx) = unbounded::<Vec<u8>>();
        let deadline = Instant::now() + Duration::from_millis(20);
        let err = collect_frame(&rx, deadline, 1, 3).unwrap_err();
        assert_eq!(err, BackendError::WorkerUnresponsive { rank: 3 });
    }

    #[test]
    fn collect_rejects_corrupt_headers() {
        let (tx, rx) = unbounded::<Vec<u8>>();
        tx.send(vec![0xFF; 12]).unwrap();
        let deadline = Instant::now() + Duration::from_secs(1);
        let err = collect_frame(&rx, deadline, 1, 2).unwrap_err();
        assert!(
            matches!(err, BackendError::Runtime(RunError::WireProtocol { rank: 2, .. })),
            "{err:?}"
        );
    }

    fn panicked(rank: usize, message: &str) -> BackendError {
        BackendError::WorkerPanicked { rank, message: message.into() }
    }

    #[test]
    fn triage_prefers_reported_root_cause_over_silence() {
        // The regression shape: a lower rank's reply misses the deadline
        // (silence) while a higher rank's genuine panic sits queued — the
        // panic must win regardless of the host's rank-order polling.
        let err = triage(vec![
            BackendError::WorkerUnresponsive { rank: 0 },
            panicked(1, "proc 1 timed out after 30s waiting for (src=2, tag=0x1)"),
            panicked(2, "injected fault: shard worker 2 panicked mid-batch"),
        ]);
        assert_eq!(err, panicked(2, "injected fault: shard worker 2 panicked mid-batch"));
    }

    #[test]
    fn triage_prefers_silence_over_pure_secondary_fallout() {
        // Only timeout fallout + a silent rank: the dropped reply is the
        // best root-cause candidate available.
        let err = triage(vec![
            panicked(0, "proc 0 timed out after 1s waiting for (src=2, tag=0x1)"),
            BackendError::WorkerUnresponsive { rank: 2 },
        ]);
        assert_eq!(err, BackendError::WorkerUnresponsive { rank: 2 });
    }

    #[test]
    fn triage_falls_back_to_secondary_fallout() {
        let secondary = panicked(1, "all senders disconnected");
        assert_eq!(triage(vec![secondary.clone()]), secondary);
    }

    #[test]
    fn triage_prefers_protocol_errors_over_silence() {
        let protocol =
            BackendError::Runtime(RunError::PendingMessages { rank: 1, detail: "x".into() });
        let err = triage(vec![BackendError::WorkerUnresponsive { rank: 0 }, protocol.clone()]);
        assert_eq!(err, protocol);
    }

    mod stale_reply_props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// Late replies never cross batch boundaries: whatever mix of
            /// stale (earlier-sequence) and future frames sits queued ahead
            /// of the current round's reply, the collect loop hands back
            /// exactly the frame stamped with the current sequence number.
            #[test]
            fn late_replies_never_cross_batch_boundaries(
                current_seq in 1u64..50,
                offsets in prop::collection::vec((0u64..60, any::<u8>()), 0..12),
            ) {
                let (tx, rx) = unbounded::<Vec<u8>>();
                for (seq, marker) in &offsets {
                    if *seq != current_seq {
                        tx.send(encode_framed(*seq, &[REPLY_OK, *marker])).unwrap();
                    }
                }
                tx.send(encode_framed(current_seq, &[REPLY_OK, 0x42])).unwrap();
                let deadline = Instant::now() + Duration::from_secs(5);
                let body = collect_frame(&rx, deadline, current_seq, 0).unwrap();
                prop_assert_eq!(body, vec![REPLY_OK, 0x42]);
            }

            /// If only mismatched-sequence frames ever arrive, the worker is
            /// reported unresponsive — a stale reply must not masquerade as
            /// this round's answer.
            #[test]
            fn stale_only_queues_time_out(
                current_seq in 1u64..50,
                stale in prop::collection::vec(0u64..60, 1..8),
            ) {
                let (tx, rx) = unbounded::<Vec<u8>>();
                for seq in &stale {
                    if *seq != current_seq {
                        tx.send(encode_framed(*seq, &[REPLY_OK])).unwrap();
                    }
                }
                drop(tx);
                let deadline = Instant::now() + Duration::from_millis(50);
                let err = collect_frame(&rx, deadline, current_seq, 7).unwrap_err();
                prop_assert_eq!(err, BackendError::WorkerUnresponsive { rank: 7 });
            }
        }
    }

    /// A shard with a real index (equality-class pair, an empty bucket, a
    /// delta run) and a fed sketch, as an IMPORT body.
    fn valid_import_body() -> Vec<u8> {
        let mut shard: Shard<u64> = ops::init_shard(8);
        for x in [5u64, 1, 9, 7, 3, 3, 8, 2, 6, 4, 0, 11, 13, 12, 7, 7] {
            shard.sketch.offer(x);
            shard.data.push(x);
        }
        let bounds = vec![SepBound::lt(4u64), SepBound::lt(7), SepBound::le(7), SepBound::le(9)];
        let (idx, _) = crate::index::recut_shard_index(
            &mut shard.data[..13],
            None,
            bounds,
            &mut cgselect_seqsel::OpCount::new(),
        );
        shard.index = Some(idx);
        let mut w = Writer::new(REPLY_OK);
        encode_snapshot(&mut w, &shard);
        encode_import(IMPORT_REPLACE, &w.into_frame())
    }

    #[test]
    fn snapshot_decoding_is_total_over_truncated_and_bit_flipped_bytes() {
        let body = valid_import_body();
        let (mode, shard) = decode_import::<u64>(&body).expect("the valid snapshot decodes");
        assert_eq!(mode, IMPORT_REPLACE);
        assert_eq!(shard.index.as_ref().expect("index rides the snapshot").num_buckets(), 5);
        // Every strict prefix is refused (never a panic, never a shard).
        for cut in 0..body.len() {
            assert!(decode_import::<u64>(&body[..cut]).is_err(), "prefix of {cut} bytes decoded");
        }
        // Every single-bit flip is refused, or decodes to a shard whose
        // index still describes its data: what the re-cut relies on.
        let mut survived = 0;
        for bit in 0..body.len() * 8 {
            let mut flipped = body.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            let Ok((_, shard)) = decode_import::<u64>(&flipped) else { continue };
            survived += 1;
            if let Some(idx) = &shard.index {
                let again =
                    ShardIndex::from_snapshot(idx.bounds.clone(), idx.offsets.clone(), &shard.data);
                assert_eq!(again.map(|i| i.minmax), Ok(idx.minmax.clone()), "bit {bit}");
                assert!(idx.delta_start() <= shard.data.len());
            }
        }
        assert!(survived > 0, "a flipped key inside its bucket's range must still decode");
    }

    #[test]
    fn a_snapshot_index_that_does_not_describe_its_data_is_refused() {
        // An index over data [1, 2, 5, 9], as it would arrive on the wire.
        let decode = |bounds: [SepBound<u64>; 2], offsets: &[u64]| {
            let mut w = Writer::new(REPLY_OK);
            w.keys(&[1u64, 2, 5, 9]);
            w.bool(true);
            w.probes(&bounds.map(|b| (b.value, b.inclusive)));
            w.u64s(offsets);
            w.eps_sketch(&EpsSketch::<u64>::new(0));
            let frame = w.into_frame();
            let decoded = decode_snapshot::<u64>(&mut Reader::new(&frame));
            decoded.map(|shard| shard.index.expect("an index was sent").minmax)
        };
        let le = SepBound::le;
        assert_eq!(
            decode([le(2), le(5)], &[0, 2, 3, 4]).expect("the index that describes the data"),
            vec![Some((1, 2)), Some((5, 5)), Some((9, 9))]
        );
        for (bounds, offsets, why) in [
            ([le(2), le(5)], &[0u64, 2, 3][..], "offsets for"),
            ([le(2), le(5)], &[1, 2, 3, 4], "start at 0"),
            ([le(2), le(5)], &[0, 3, 2, 4], "never decrease"),
            ([le(2), le(5)], &[0, 2, 3, 5], "the shard holds 4"),
            ([le(5), le(2)], &[0, 2, 3, 4], "strictly increasing"),
            ([le(2), le(2)], &[0, 2, 2, 4], "strictly increasing"),
            // In range, well formed — and wrong: 5 sits in the bucket `≤ 2`,
            // or 2 in the bucket above it.
            ([le(2), le(5)], &[0, 3, 3, 4], "outside its bounds"),
            ([le(2), le(5)], &[0, 1, 3, 4], "outside its bounds"),
        ] {
            match decode(bounds, offsets) {
                Err(e) => assert!(e.detail.contains(why), "{offsets:?}: {e}"),
                Ok(_) => panic!("{bounds:?} / {offsets:?} decoded; expected a refusal: {why}"),
            }
        }
    }

    #[test]
    fn truncated_reply_bodies_become_typed_errors() {
        // A half-written panic report from a dying worker must not abort
        // the host: the status decode itself is fallible.
        let mut w = Writer::new(REPLY_PANICKED);
        w.str("the full panic message");
        let mut body = w.into_frame();
        body.truncate(body.len() - 5);
        let err = decode_reply_status(4, body).unwrap_err();
        assert!(
            matches!(err, BackendError::Runtime(RunError::WireProtocol { rank: 4, .. })),
            "{err:?}"
        );
    }
}
