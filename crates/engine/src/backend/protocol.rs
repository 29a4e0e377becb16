//! The host↔worker command/reply protocol of the message-passing backend
//! (`super::mp`), identical on every transport.
//!
//! # Framing
//!
//! Every command and reply travels as one frame:
//!
//! ```text
//! [ version: u8 ][ seq: u64 LE ][ body ... ]
//! ```
//!
//! * `version` pins the protocol revision ([`WIRE_VERSION`]); a mismatch
//!   is a typed [`RunError::WireProtocol`] error, never a misparse.
//! * `seq` is the **batch sequence number**: the host stamps every command
//!   round with a fresh value and workers echo it in their reply. The
//!   collect loop discards replies whose `seq` doesn't match the current
//!   round, so a slow-but-alive worker that was declared unresponsive can
//!   never deliver its stale reply into a later round's collect.
//! * `body` starts with a one-byte command tag (host → worker) or reply
//!   status (worker → host), followed by fields in the runtime's
//!   [`WireMsg`] codec — the one the collectives speak — and is decoded
//!   through one [`WireReader`]. A reply is `REPLY_OK` and the verb's
//!   result, or `REPLY_ERR` and the worker's [`RunError`] in that type's
//!   own codec: a failure crosses the wire as the typed value it is.
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

use std::sync::mpsc::Receiver;
use std::sync::Arc;
use std::time::Instant;

use cgselect_balance::Balancer;
use cgselect_core::SelectionConfig;
use cgselect_runtime::wiremsg::{decode_frame, encode_slice};
use cgselect_runtime::{Key, Proc, RunError, WireMsg, WireMsgError, WireReader};
use cgselect_seqsel::SepBound;

use crate::index::{BucketStats, Group, ShardIndex};
use crate::obs::TraceContext;
use crate::query::RankSet;
use crate::sketch::EpsSketch;

use super::ops::{self, Shard};
use super::{BackendError, BatchPlan, ShardBatchOutcome, ShardDeletion};

/// Protocol revision carried in every frame header. Revision 2 added the
/// splitter bounds to the BUILD_INDEX reply and the probe-refinement stats
/// to the EXECUTE reply; revision 3 the re-sketch flag to the DELETE reply
/// and the removed side to every ε-sketch payload; revision 4 dropped the
/// index flag and the full population from EXECUTE; revision 5 folded the
/// four failure statuses into one `REPLY_ERR` carrying a [`RunError`].
pub(crate) const WIRE_VERSION: u8 = 5;

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

// Reply frame status bytes (worker -> host): the verb's result follows OK,
// the worker's `RunError` follows ERR.
pub(crate) const REPLY_OK: u8 = 0;
pub(crate) const REPLY_ERR: u8 = 1;

/// Wraps a body in the versioned, sequence-numbered frame header.
pub(crate) fn encode_framed(seq: u64, body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER_BYTES + body.len());
    (WIRE_VERSION, seq).wire_encode(&mut out);
    out.extend_from_slice(body);
    out
}

/// Splits a frame into its sequence number and body, verifying the version
/// byte.
pub(crate) fn split_framed(frame: &[u8]) -> Result<(u64, &[u8]), WireMsgError> {
    let mut r = WireReader::new(frame);
    let (version, seq) = <(u8, u64)>::wire_decode(&mut r)?;
    if version != WIRE_VERSION {
        return Err(WireMsgError::new(format!(
            "wire version mismatch: got {version}, this build speaks {WIRE_VERSION}"
        )));
    }
    Ok((seq, r.take(r.remaining())?))
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
/// rank the host happened to poll first — and a silent rank beats pure
/// fallout ([`BackendError::is_secondary`]): a dropped reply can itself be
/// the root cause. Ties go to the lowest rank.
pub(crate) fn triage(failures: Vec<BackendError>) -> BackendError {
    failures
        .into_iter()
        .min_by_key(|e| match e {
            BackendError::WorkerUnresponsive { .. } => 1,
            e if e.is_secondary() => 2,
            _ => 0,
        })
        .expect("a failed round has failures")
}

/// Splits a reply body into its ok-payload or the worker's typed error,
/// stamped with the rank whose link it came from. A body that does not
/// decode — say, a half-written one from a dying worker — is itself a
/// typed error, never an abort.
pub(crate) fn decode_reply_status(rank: usize, body: Vec<u8>) -> Result<Vec<u8>, BackendError> {
    let err = match body.first() {
        Some(&REPLY_OK) => return Ok(body),
        Some(&REPLY_ERR) => decode_fields::<RunError>(&body).map(|e| e.at_rank(rank)),
        other => Err(WireMsgError::new(format!("unknown reply status {other:?}"))),
    };
    Err(err.map_or_else(|e| wire_protocol_error(rank, e), BackendError::Runtime))
}

// ---------------------------------------------------------------------
// Per-verb bodies: a tag byte, then the fields as `WireMsg` values.
// ---------------------------------------------------------------------

/// A body of one tag and one field.
fn encode_body(tag: u8, field: &impl WireMsg) -> Vec<u8> {
    let mut out = vec![tag];
    field.wire_encode(&mut out);
    out
}

/// The fields of a body, past its tag byte: exactly one `M`, no trailing
/// bytes.
pub(crate) fn decode_fields<M: WireMsg>(body: &[u8]) -> Result<M, WireMsgError> {
    decode_frame(body.get(1..).unwrap_or_default())
}

/// A body whose one field is a list, encoded in place.
fn encode_list<T: WireMsg>(tag: u8, items: &[T]) -> Vec<u8> {
    let mut out = vec![tag];
    encode_slice(items, &mut out);
    out
}

/// Separator bounds ride as `(value, inclusive)` pairs: `seqsel`, which
/// defines them, knows no wire codec.
fn bound_pairs<T: Key>(bounds: &[SepBound<T>]) -> Vec<(T, bool)> {
    bounds.iter().map(|b| (b.value, b.inclusive)).collect()
}

fn bounds_of<T: Key>(pairs: Vec<(T, bool)>) -> Vec<SepBound<T>> {
    pairs.into_iter().map(|(value, inclusive)| SepBound { value, inclusive }).collect()
}

pub(crate) fn encode_ingest<T: Key>(chunk: &[T]) -> Vec<u8> {
    encode_list(CMD_INGEST, chunk)
}

pub(crate) fn encode_delete<T: Key>(values: &[T]) -> Vec<u8> {
    encode_list(CMD_DELETE, values)
}

pub(crate) fn encode_build_index(buckets: usize) -> Vec<u8> {
    encode_body(CMD_BUILD_INDEX, &buckets)
}

/// Serializes one batch plan. Only the per-batch pivot seed crosses the
/// wire; workers rebuild the full `SelectionConfig` from their deployment
/// copy. The coalesced rank set rides as runs and the value probes as
/// `(key, inclusive)` pairs.
pub(crate) fn encode_execute<T: Key>(plan: &BatchPlan<T>) -> Vec<u8> {
    let mut out = encode_body(CMD_EXECUTE, &(plan.selection.seed, plan.delta_total));
    plan.exact_ranks.wire_encode(&mut out);
    plan.value_probes.wire_encode(&mut out);
    plan.groups.wire_encode(&mut out);
    plan.trace.wire_encode(&mut out);
    out
}

/// The fields [`encode_execute`] writes, in order.
type ExecuteFields<T> = (u64, u64, RankSet, (Vec<(T, bool)>, Vec<Group>, Option<TraceContext>));

pub(crate) fn decode_execute<T: Key>(
    body: &[u8],
    base: &SelectionConfig,
) -> Result<BatchPlan<T>, WireMsgError> {
    let (seed, delta_total, exact_ranks, (value_probes, groups, trace)) =
        decode_fields::<ExecuteFields<T>>(body)?;
    // The shards count probes by one forward merge against their bounds,
    // which holds only for a batch sorted by value — as the planner ships
    // it. Worker input is outside input: refuse any other order here.
    if let Some(i) = value_probes.windows(2).position(|w| w[1].0 < w[0].0) {
        return Err(WireMsgError::new(format!(
            "EXECUTE value probes must be sorted by value: probe {} is below probe {i}",
            i + 1
        )));
    }
    Ok(BatchPlan {
        groups: Arc::new(groups),
        exact_ranks: Arc::new(exact_ranks),
        value_probes: Arc::new(value_probes),
        selection: SelectionConfig { seed, ..base.clone() },
        delta_total,
        trace,
    })
}

// Reply bodies: the `REPLY_OK` status byte, then the verb's result.

pub(crate) fn encode_u64_reply(v: u64) -> Vec<u8> {
    encode_body(REPLY_OK, &v)
}

pub(crate) fn encode_deletion_reply(d: &ShardDeletion) -> Vec<u8> {
    encode_body(REPLY_OK, d)
}

/// BUILD_INDEX replies carry the agreed splitter bounds alongside the
/// shard's bucket stats so the host can mirror the shared splitter array
/// without re-deriving it.
pub(crate) fn encode_index_build_reply<T: Key>(
    bounds: &[SepBound<T>],
    stats: &BucketStats<T>,
) -> Vec<u8> {
    let mut out = encode_list(REPLY_OK, &bound_pairs(bounds));
    stats.wire_encode(&mut out);
    out
}

pub(crate) fn decode_index_build_reply<T: Key>(
    body: &[u8],
) -> Result<(Vec<SepBound<T>>, BucketStats<T>), WireMsgError> {
    let (pairs, stats) = decode_fields(body)?;
    Ok((bounds_of(pairs), stats))
}

pub(crate) fn encode_bucket_stats_reply<T: Key>(stats: &BucketStats<T>) -> Vec<u8> {
    encode_body(REPLY_OK, stats)
}

pub(crate) fn encode_outcome_reply<T: Key>(o: &ShardBatchOutcome<T>) -> Vec<u8> {
    encode_body(REPLY_OK, o)
}

pub(crate) fn encode_sketch_reply<T: Key>(sketch: &EpsSketch<T>) -> Vec<u8> {
    encode_body(REPLY_OK, sketch)
}

// ---------------------------------------------------------------------
// Control-plane codecs: fabric wiring and the shard snapshot that rides
// EXPORT replies and IMPORT commands.
// ---------------------------------------------------------------------

/// FABRIC_BIND carries `(epoch, rank, p)`.
pub(crate) fn encode_fabric_bind(epoch: u64, rank: usize, p: usize) -> Vec<u8> {
    encode_body(CMD_FABRIC_BIND, &(epoch, rank, p))
}

/// FABRIC_CONNECT carries the epoch of the BIND it completes.
pub(crate) fn encode_fabric_connect(epoch: u64) -> Vec<u8> {
    encode_body(CMD_FABRIC_CONNECT, &epoch)
}

pub(crate) fn decode_fabric_connect(body: &[u8]) -> Result<u64, WireMsgError> {
    decode_fields(body)
}

/// A failed command's reply: `REPLY_ERR`, then the error (its rank is not
/// on the wire).
pub(crate) fn encode_error_reply(err: &RunError) -> Vec<u8> {
    encode_body(REPLY_ERR, err)
}

/// An EXPORT reply: the shard snapshot an IMPORT command forwards.
pub(crate) fn encode_export_reply<T: Key>(shard: &Shard<T>) -> Vec<u8> {
    encode_body(REPLY_OK, shard)
}

/// A shard snapshot: `(data, index, sketch)`, the index as an optional
/// `(bounds, offsets)` pair. The ε-sketch rides its canonical byte
/// encoding, so the restored sketch is bit-identical, accumulated error
/// bound included.
///
/// Total over arbitrary bytes: besides the field codecs' own checks, an
/// index is installed only once [`ShardIndex::from_snapshot`] has proved it
/// describes `data` — a wrong length, a decreasing pair, an offset past the
/// data or a bucket holding a foreign value is a typed error here, not a
/// slice panic (or a silently wrong answer) batches later.
impl<T: Key> WireMsg for Shard<T> {
    fn wire_encode(&self, out: &mut Vec<u8>) {
        self.data.wire_encode(out);
        self.index
            .as_ref()
            .map(|idx| (bound_pairs(&idx.bounds), idx.offsets.clone()))
            .wire_encode(out);
        self.sketch.wire_encode(out);
    }

    fn wire_decode(r: &mut WireReader<'_>) -> Result<Self, WireMsgError> {
        let (data, index, sketch) =
            <(Vec<T>, Option<(Vec<(T, bool)>, Vec<usize>)>, EpsSketch<T>)>::wire_decode(r)?;
        let index = match index {
            Some((pairs, offsets)) => Some(
                ShardIndex::from_snapshot(bounds_of(pairs), offsets, &data)
                    .map_err(WireMsgError::new)?,
            ),
            None => None,
        };
        Ok(Shard { data, index, sketch })
    }
}

/// IMPORT mode: restore the snapshot exactly, replacing the shard.
pub(crate) const IMPORT_REPLACE: u8 = 0;
/// IMPORT mode: append the snapshot's data, merge its sketch, drop the index.
pub(crate) const IMPORT_MERGE: u8 = 1;

/// Forwards an EXPORT reply (status byte + snapshot) as an IMPORT command:
/// `(mode, snapshot)`.
pub(crate) fn encode_import(mode: u8, export_reply: &[u8]) -> Vec<u8> {
    let mut out = encode_body(CMD_IMPORT, &mode);
    out.extend_from_slice(&export_reply[1..]); // splice the snapshot past the status byte
    out
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
    let empty = Shard::<T> { data: Vec::new(), index: None, sketch: EpsSketch::new(0) };
    encode_import(IMPORT_MERGE, &encode_export_reply(&empty))
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
    let reply = match body.first().copied() {
        Some(CMD_INGEST) => {
            let items = decode_fields(body).map_err(wire)?;
            encode_u64_reply(ops::ingest_shard(proc, shard, items))
        }
        Some(CMD_DELETE) => {
            let values: Vec<T> = decode_fields(body).map_err(wire)?;
            encode_deletion_reply(&ops::delete_shard(proc, shard, &values))
        }
        Some(CMD_REBALANCE) => {
            decode_fields::<()>(body).map_err(wire)?;
            encode_u64_reply(ops::rebalance_shard(proc, shard, cfg.balancer))
        }
        Some(CMD_BUILD_INDEX) => {
            let buckets = decode_fields(body).map_err(wire)?;
            let (bounds, stats) = ops::build_index_shard(proc, shard, buckets);
            encode_index_build_reply(&bounds, &stats)
        }
        Some(CMD_MERGE_DELTA) => {
            decode_fields::<()>(body).map_err(wire)?;
            encode_bucket_stats_reply(&ops::merge_delta_shard(proc, shard))
        }
        Some(CMD_EXPORT_SKETCH) => {
            // Pure local read: the shard ships its ε-sketch bytes and no
            // collective fires — the host merges exports by itself.
            decode_fields::<()>(body).map_err(wire)?;
            encode_sketch_reply(&shard.sketch)
        }
        Some(CMD_EXECUTE) => {
            let plan = decode_execute::<T>(body, &cfg.selection).map_err(wire)?;
            encode_outcome_reply(&ops::execute_shard(proc, shard, &plan))
        }
        other => {
            return Err(RunError::WireProtocol {
                rank: cfg.rank,
                detail: format!("unknown command tag {other:?}"),
            })
        }
    };
    proc.finish_program()?;
    Ok(reply)
}

#[cfg(test)]
mod tests {
    use super::super::PhaseOps;
    use super::*;
    use std::sync::mpsc::channel;
    use std::time::Duration;

    #[test]
    fn descending_value_probes_are_a_typed_error() {
        let plan = |value_probes: Vec<(u64, bool)>| BatchPlan {
            groups: std::sync::Arc::new(Vec::new()),
            exact_ranks: std::sync::Arc::new(crate::query::RankSet::from_runs(Vec::new())),
            value_probes: std::sync::Arc::new(value_probes),
            selection: SelectionConfig::default(),
            delta_total: 0,
            trace: None,
        };
        let decode = |probes: Vec<(u64, bool)>| {
            let frame = encode_execute(&plan(probes));
            decode_execute::<u64>(&frame, &SelectionConfig::default())
        };
        // Equal values (the `(v, <)` and `(v, ≤)` probes of one class) are
        // in order; a decrease is not.
        let sorted = vec![(3, false), (3, true), (9, true)];
        assert_eq!(*decode(sorted.clone()).unwrap().value_probes, sorted);
        let err = decode(vec![(9, true), (3, false)]).unwrap_err();
        assert!(err.detail.contains("sorted by value"), "{err}");
    }

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
    fn previous_revision_frames_are_a_typed_error() {
        // A worker still speaking the last revision must be refused by
        // version, never parsed as this revision's EXECUTE layout.
        let mut frame = encode_framed(1, &[REPLY_OK]);
        frame[0] = WIRE_VERSION - 1;
        let err = split_framed(&frame).unwrap_err();
        assert!(err.detail.contains(&format!("got {}", WIRE_VERSION - 1)), "{err}");
        let (tx, rx) = channel::<Vec<u8>>();
        tx.send(frame).unwrap();
        let err = collect_frame(&rx, Instant::now() + Duration::from_secs(1), 1, 4).unwrap_err();
        assert!(
            matches!(err, BackendError::Runtime(RunError::WireProtocol { rank: 4, .. })),
            "{err:?}"
        );
    }

    #[test]
    fn short_frames_are_a_typed_error() {
        assert!(split_framed(&[WIRE_VERSION, 0, 0]).is_err());
        assert!(split_framed(&[]).is_err());
    }

    #[test]
    fn collect_discards_stale_sequence_numbers() {
        let (tx, rx) = channel::<Vec<u8>>();
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
        let (_tx, rx) = channel::<Vec<u8>>();
        let deadline = Instant::now() + Duration::from_millis(20);
        let err = collect_frame(&rx, deadline, 1, 3).unwrap_err();
        assert_eq!(err, BackendError::WorkerUnresponsive { rank: 3 });
    }

    #[test]
    fn collect_rejects_corrupt_headers() {
        let (tx, rx) = channel::<Vec<u8>>();
        tx.send(vec![0xFF; 12]).unwrap();
        let deadline = Instant::now() + Duration::from_secs(1);
        let err = collect_frame(&rx, deadline, 1, 2).unwrap_err();
        assert!(
            matches!(err, BackendError::Runtime(RunError::WireProtocol { rank: 2, .. })),
            "{err:?}"
        );
    }

    fn panicked(rank: usize, message: &str) -> BackendError {
        BackendError::Runtime(RunError::ProcPanicked { rank, message: message.into() })
    }

    fn timed_out(rank: usize, src: usize) -> BackendError {
        let detail = "30s; virtual time 0.000000s; stashed messages: []".into();
        BackendError::Runtime(RunError::RecvTimeout { rank, src, tag: 1, detail })
    }

    fn lost(rank: usize, peer: usize) -> BackendError {
        BackendError::Runtime(RunError::PeerLost { rank, peer, tag: 1 })
    }

    #[test]
    fn triage_prefers_reported_root_cause_over_silence() {
        // The regression shape: a lower rank's reply misses the deadline
        // (silence) while a higher rank's genuine panic sits queued — the
        // panic must win regardless of the host's rank-order polling.
        let err = triage(vec![
            BackendError::WorkerUnresponsive { rank: 0 },
            timed_out(1, 2),
            panicked(2, "injected fault: shard worker 2 panicked mid-batch"),
        ]);
        assert_eq!(err, panicked(2, "injected fault: shard worker 2 panicked mid-batch"));
    }

    #[test]
    fn triage_prefers_silence_over_pure_secondary_fallout() {
        // Only timeout fallout + a silent rank: the dropped reply is the
        // best root-cause candidate available.
        let err = triage(vec![timed_out(0, 2), BackendError::WorkerUnresponsive { rank: 2 }]);
        assert_eq!(err, BackendError::WorkerUnresponsive { rank: 2 });
    }

    #[test]
    fn triage_falls_back_to_secondary_fallout() {
        assert_eq!(triage(vec![lost(1, 0)]), lost(1, 0));
        assert_eq!(triage(vec![lost(1, 0), timed_out(2, 0)]), lost(1, 0));
    }

    #[test]
    fn triage_prefers_protocol_errors_over_silence() {
        let protocol =
            BackendError::Runtime(RunError::PendingMessages { rank: 1, detail: "x".into() });
        let err = triage(vec![BackendError::WorkerUnresponsive { rank: 0 }, protocol.clone()]);
        assert_eq!(err, protocol);
    }

    #[test]
    fn error_replies_decode_to_the_rank_the_host_polled() {
        let sent = RunError::PeerLost { rank: 9, peer: 1, tag: 0x63 };
        let err = decode_reply_status(2, encode_error_reply(&sent)).unwrap_err();
        assert_eq!(err, BackendError::Runtime(RunError::PeerLost { rank: 2, peer: 1, tag: 0x63 }));
        assert!(err.is_secondary());
        let err = decode_reply_status(3, vec![7]).unwrap_err();
        assert!(
            matches!(err, BackendError::Runtime(RunError::WireProtocol { rank: 3, .. })),
            "{err:?}"
        );
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
                let (tx, rx) = channel::<Vec<u8>>();
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
                let (tx, rx) = channel::<Vec<u8>>();
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
        encode_import(IMPORT_REPLACE, &encode_export_reply(&shard))
    }

    fn decode_import(body: &[u8]) -> Result<(u8, Shard<u64>), WireMsgError> {
        decode_fields(body)
    }

    #[test]
    fn snapshot_decoding_is_total_over_truncated_and_bit_flipped_bytes() {
        let body = valid_import_body();
        let (mode, shard) = decode_import(&body).expect("the valid snapshot decodes");
        assert_eq!(mode, IMPORT_REPLACE);
        assert_eq!(shard.index.as_ref().expect("index rides the snapshot").num_buckets(), 5);
        // Every strict prefix is refused (never a panic, never a shard).
        for cut in 0..body.len() {
            assert!(decode_import(&body[..cut]).is_err(), "prefix of {cut} bytes decoded");
        }
        // Every single-bit flip is refused, or decodes to a shard whose
        // index still describes its data: what the re-cut relies on.
        let mut survived = 0;
        for bit in 0..body.len() * 8 {
            let mut flipped = body.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            let Ok((_, shard)) = decode_import(&flipped) else { continue };
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
            let mut frame = encode_list(REPLY_OK, &[1u64, 2, 5, 9]);
            Some((bound_pairs(&bounds), offsets.to_vec())).wire_encode(&mut frame);
            EpsSketch::<u64>::new(0).wire_encode(&mut frame);
            let decoded = decode_fields::<Shard<u64>>(&frame);
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
        let mut body = encode_error_reply(&RunError::ProcPanicked {
            rank: 4,
            message: "the full panic message".into(),
        });
        body.truncate(body.len() - 5);
        let err = decode_reply_status(4, body).unwrap_err();
        assert!(
            matches!(err, BackendError::Runtime(RunError::WireProtocol { rank: 4, .. })),
            "{err:?}"
        );
    }

    #[test]
    fn execute_rank_runs_past_u64_max_are_a_typed_error() {
        // Summing these runs' ends overflows; `RankSet::from_runs` would
        // panic in a debug build and wrap in a release one.
        let mut frame = encode_body(CMD_EXECUTE, &(7u64, 0u64));
        vec![(u64::MAX - 1, 5u64), (u64::MAX, 1)].wire_encode(&mut frame);
        (Vec::<(u64, bool)>::new(), Vec::<Group>::new(), None::<TraceContext>)
            .wire_encode(&mut frame);
        let err = decode_execute::<u64>(&frame, &SelectionConfig::default()).unwrap_err();
        assert!(err.detail.contains("past u64::MAX"), "{err}");
    }

    /// Decodes a body with its own decoder and encodes the result again.
    type Recode = fn(&[u8]) -> Result<Vec<u8>, WireMsgError>;

    /// The decoder of each [`golden_bodies`] entry, as a [`Recode`]. INIT
    /// only decodes (its round trip is `socket_mp`'s). An error reply
    /// recodes only under `REPLY_ERR`.
    fn recoder(name: &str) -> Recode {
        use cgselect_runtime::OrdF64;
        match name {
            "ingest" => |b| Ok(encode_ingest(&decode_fields::<Vec<u64>>(b)?)),
            "ingest_f64" => |b| Ok(encode_ingest(&decode_fields::<Vec<OrdF64>>(b)?)),
            "delete" => |b| Ok(encode_delete(&decode_fields::<Vec<u64>>(b)?)),
            "build_index" => |b| Ok(encode_build_index(decode_fields(b)?)),
            "execute" | "execute_traced" => {
                |b| Ok(encode_execute(&decode_execute::<u64>(b, &SelectionConfig::default())?))
            }
            "fabric_bind" => |b| {
                let (epoch, rank, p) = decode_fields(b)?;
                Ok(encode_fabric_bind(epoch, rank, p))
            },
            "fabric_connect" => |b| Ok(encode_fabric_connect(decode_fabric_connect(b)?)),
            "init" => |b| super::super::socket_mp::decode_init(b).map(|_| b.to_vec()),
            "import_indexed" | "import_bare" | "import_index_reset" => |b| {
                let (mode, shard) = decode_import(b)?;
                Ok(encode_import(mode, &encode_export_reply(&shard)))
            },
            "reply_outcome" => {
                |b| Ok(encode_outcome_reply(&decode_fields::<ShardBatchOutcome<u64>>(b)?))
            }
            "reply_deletion" => |b| Ok(encode_deletion_reply(&decode_fields(b)?)),
            "reply_index_build" => |b| {
                let (bounds, stats) = decode_index_build_reply::<u64>(b)?;
                Ok(encode_index_build_reply(&bounds, &stats))
            },
            "reply_bucket_stats" => {
                |b| Ok(encode_bucket_stats_reply(&decode_fields::<BucketStats<u64>>(b)?))
            }
            "reply_u64" => |b| Ok(encode_u64_reply(decode_fields(b)?)),
            "reply_sketch" => |b| Ok(encode_sketch_reply(&decode_fields::<EpsSketch<u64>>(b)?)),
            name if name.starts_with("reply_err_") => |b| match b.first() {
                Some(&REPLY_ERR) => Ok(encode_error_reply(&decode_fields::<RunError>(b)?)),
                other => Err(WireMsgError::new(format!("not an error reply: {other:?}"))),
            },
            other => panic!("no decoder for the golden body {other}"),
        }
    }

    #[test]
    fn every_golden_body_round_trips_through_its_decoder() {
        for (name, body) in golden_bodies() {
            assert_eq!(recoder(name)(&body), Ok(body), "{name}");
        }
    }

    /// Every decoder is total. Each golden body, framed as the transports
    /// carry it, is cut at every length and has every single bit flipped;
    /// the frame header and the body's own decoder must return `Ok` or
    /// `Err`, never panic.
    #[test]
    fn every_decoder_is_total_over_truncated_and_bit_flipped_frames() {
        for (name, body) in golden_bodies() {
            let recode = recoder(name);
            let decode = |frame: &[u8]| {
                let decoded = std::panic::catch_unwind(|| {
                    split_framed(frame).and_then(|(_, body)| recode(body))
                });
                assert!(decoded.is_ok(), "{name}: a decoder panicked on {}", hex(frame));
                decoded.is_ok_and(|r| r.is_ok())
            };
            let frame = encode_framed(0x0123_4567, &body);
            assert!(decode(&frame), "{name}: the golden frame decodes");
            // Every cut frame is refused.
            for cut in 0..frame.len() {
                assert!(!decode(&frame[..cut]), "{name}: {cut}-byte prefix decoded");
            }
            for bit in 0..frame.len() * 8 {
                let mut flipped = frame.clone();
                flipped[bit / 8] ^= 1 << (bit % 8);
                decode(&flipped);
            }
        }
    }

    /// One fixed instance of every command and reply body, by name. The
    /// instances set every field (multi-run rank sets, two groups, a
    /// trace context, an indexed snapshot) so a layout change anywhere
    /// shows in [`GOLDEN_BODIES`].
    fn golden_bodies() -> Vec<(&'static str, Vec<u8>)> {
        use crate::index::Group;
        use crate::obs::{Phase, PhaseSpan, TraceContext, TraceId};
        use cgselect_runtime::{CommStats, OrdF64};
        let comm = CommStats {
            msgs_sent: 1,
            bytes_sent: 2,
            msgs_recv: 3,
            bytes_recv: 4,
            collective_ops: 5,
        };
        let plan = |trace| BatchPlan::<u64> {
            groups: std::sync::Arc::new(vec![
                Group { lo: 0, hi: 1, n: 40, ranks: vec![0, 3], out: vec![0, 1] },
                Group { lo: 3, hi: 3, n: 12, ranks: vec![2], out: vec![4] },
            ]),
            exact_ranks: std::sync::Arc::new(crate::query::RankSet::from_runs(vec![
                (0, 4),
                (10, 1),
                (20, 3),
            ])),
            value_probes: std::sync::Arc::new(vec![(5, false), (5, true), (9, true)]),
            selection: SelectionConfig { seed: 0x5EED, ..SelectionConfig::default() },
            delta_total: 3,
            trace,
        };
        let mut sketch = EpsSketch::new(4);
        for x in [8u64, 3, 5, 1, 9, 2] {
            sketch.offer(x);
        }
        sketch.remove(3);
        let mut indexed: Shard<u64> = ops::init_shard(4);
        for x in [6u64, 1, 9, 4, 7, 2] {
            indexed.sketch.offer(x);
            indexed.data.push(x);
        }
        let (idx, _) = crate::index::recut_shard_index(
            &mut indexed.data[..5],
            None,
            vec![SepBound::lt(4u64), SepBound::le(7)],
            &mut cgselect_seqsel::OpCount::new(),
        );
        indexed.index = Some(idx);
        let bare = Shard::<u64> { data: vec![5, 3], index: None, sketch: EpsSketch::new(0) };
        let init_cfg = crate::EngineConfig::new(4)
            .model(cgselect_runtime::MachineModel::free())
            .sketch_capacity(8);
        let outcome = ShardBatchOutcome::<u64> {
            exact: vec![Some(5), None],
            refines: vec![vec![(2, Some((1, 4))), (0, None)]],
            probe_refines: vec![vec![(1, Some((9, 9)))]],
            probe_counts: vec![3, 4],
            phase_ops: PhaseOps { probes: 1, exact: 2, sketch: 0 },
            comm,
            elapsed: 0.5,
            spans: vec![
                PhaseSpan { phase: Phase::Probes, time: 1.5e-6, comm },
                PhaseSpan { phase: Phase::Exact, time: 0.25, comm: CommStats::default() },
            ],
        };
        vec![
            ("ingest", encode_ingest(&[3u64, 1 << 40, u64::MAX])),
            ("ingest_f64", encode_ingest(&[OrdF64(-0.0), OrdF64(1.5)])),
            ("delete", encode_delete(&[2u64, 9])),
            ("build_index", encode_build_index(64)),
            ("execute", encode_execute(&plan(None))),
            (
                "execute_traced",
                encode_execute(&plan(Some(TraceContext { batch: 7, root: TraceId(42) }))),
            ),
            ("fabric_bind", encode_fabric_bind(3, 1, 4)),
            ("fabric_connect", encode_fabric_connect(3)),
            (
                "init",
                super::super::socket_mp::encode_init(
                    u64::WIRE_TAG,
                    2,
                    &init_cfg,
                    std::time::Duration::from_millis(250),
                    std::path::Path::new("sock"),
                ),
            ),
            ("import_indexed", encode_import(IMPORT_REPLACE, &encode_export_reply(&indexed))),
            ("import_bare", encode_import(IMPORT_MERGE, &encode_export_reply(&bare))),
            ("import_index_reset", encode_index_reset::<u64>()),
            ("reply_outcome", encode_outcome_reply(&outcome)),
            (
                "reply_deletion",
                encode_deletion_reply(&ShardDeletion {
                    remaining: 10,
                    removed: vec![1, 0, 2],
                    resketched: true,
                }),
            ),
            (
                "reply_index_build",
                encode_index_build_reply(
                    &[SepBound::lt(4u64), SepBound::le(9)],
                    &vec![(2, Some((1, 3))), (0, None), (5, Some((9, 9)))],
                ),
            ),
            ("reply_bucket_stats", encode_bucket_stats_reply(&vec![(2u64, Some((1u64, 3)))])),
            ("reply_u64", encode_u64_reply(12345)),
            ("reply_sketch", encode_sketch_reply(&sketch)),
            (
                "reply_err_panicked",
                encode_error_reply(&RunError::ProcPanicked { rank: 1, message: "boom".into() }),
            ),
            (
                "reply_err_pending",
                encode_error_reply(&RunError::PendingMessages {
                    rank: 1,
                    detail: "left over".into(),
                }),
            ),
            ("reply_err_unbalanced", encode_error_reply(&RunError::UnbalancedPhases { rank: 1 })),
            ("reply_err_poisoned", encode_error_reply(&RunError::SessionPoisoned)),
            (
                "reply_err_wire",
                encode_error_reply(&RunError::WireProtocol { rank: 1, detail: "bad frame".into() }),
            ),
            (
                "reply_err_peer_lost",
                encode_error_reply(&RunError::PeerLost { rank: 1, peer: 2, tag: 0x63 }),
            ),
            (
                "reply_err_recv_timeout",
                encode_error_reply(&RunError::RecvTimeout {
                    rank: 1,
                    src: 2,
                    tag: 0x63,
                    detail: "1s".into(),
                }),
            ),
        ]
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// [`golden_bodies`] in hex, 32 bytes a line. A changed byte is a
    /// protocol change: it moves [`WIRE_VERSION`], not this table.
    const GOLDEN_BODIES: [(&str, &[&str]); 25] = [
        ("ingest", &["01030000000000000003000000000000000000000000010000ffffffffffffff", "ff"]),
        ("ingest_f64", &["0102000000000000000000000000000080000000000000f83f"]),
        ("delete", &["02020000000000000002000000000000000900000000000000"]),
        ("build_index", &["044000000000000000"]),
        (
            "execute",
            &[
                "06ed5e0000000000000300000000000000030000000000000000000000000000",
                "0004000000000000000a00000000000000010000000000000014000000000000",
                "0003000000000000000300000000000000050000000000000000050000000000",
                "0000010900000000000000010200000000000000000000000000000001000000",
                "0000000028000000000000000200000000000000000000000000000003000000",
                "0000000002000000000000000000000000000000010000000000000003000000",
                "0000000003000000000000000c00000000000000010000000000000002000000",
                "000000000100000000000000040000000000000000",
            ],
        ),
        (
            "execute_traced",
            &[
                "06ed5e0000000000000300000000000000030000000000000000000000000000",
                "0004000000000000000a00000000000000010000000000000014000000000000",
                "0003000000000000000300000000000000050000000000000000050000000000",
                "0000010900000000000000010200000000000000000000000000000001000000",
                "0000000028000000000000000200000000000000000000000000000003000000",
                "0000000002000000000000000000000000000000010000000000000003000000",
                "0000000003000000000000000c00000000000000010000000000000002000000",
                "00000000010000000000000004000000000000000107000000000000002a0000",
                "0000000000",
            ],
        ),
        ("fabric_bind", &["10030000000000000001000000000000000400000000000000"]),
        ("fabric_connect", &["110300000000000000"]),
        (
            "init",
            &[
                "15040200000000000000080000000000000080b2e60e00000000040000000000",
                "0000736f636b0000000000000000000000000000000000000000000000000000",
                "00000000000000ed5e0000000000000001000000000000000004000000000000",
                "333333333333e33f000000000000f03f0000102700000000000004",
            ],
        ),
        (
            "import_indexed",
            &[
                "1300060000000000000001000000000000000600000000000000070000000000",
                "0000040000000000000009000000000000000200000000000000010200000000",
                "0000000400000000000000000700000000000000010400000000000000000000",
                "00000000000100000000000000040000000000000005000000000000006a0000",
                "0000000000040000000000000006000000000000000100000000000000020000",
                "0000000000010200000000000000070000000000000002000000000000000002",
                "0000000000000001000000000000000600000000000000000000000000000000",
                "000000000000000000000000000000",
            ],
        ),
        (
            "import_bare",
            &[
                "1301020000000000000005000000000000000300000000000000003800000000",
                "0000000000000000000000000000000000000000000000000000000000000000",
                "000000000000000000000000000000000000000000000000000000",
            ],
        ),
        (
            "import_index_reset",
            &[
                "1301000000000000000000380000000000000000000000000000000000000000",
                "0000000000000000000000000000000000000000000000000000000000000000",
                "0000000000000000000000",
            ],
        ),
        (
            "reply_outcome",
            &[
                "0002000000000000000105000000000000000001000000000000000200000000",
                "0000000200000000000000010100000000000000040000000000000000000000",
                "0000000000010000000000000001000000000000000100000000000000010900",
                "0000000000000900000000000000020000000000000003000000000000000400",
                "0000000000000100000000000000020000000000000000000000000000000100",
                "0000000000000200000000000000030000000000000004000000000000000500",
                "000000000000000000000000e03f02000000000000000054e41071732ab93e01",
                "0000000000000002000000000000000300000000000000040000000000000005",
                "0000000000000001000000000000d03f00000000000000000000000000000000",
                "000000000000000000000000000000000000000000000000",
            ],
        ),
        (
            "reply_deletion",
            &[
                "000a000000000000000300000000000000010000000000000000000000000000",
                "00020000000000000001",
            ],
        ),
        (
            "reply_index_build",
            &[
                "0002000000000000000400000000000000000900000000000000010300000000",
                "0000000200000000000000010100000000000000030000000000000000000000",
                "000000000005000000000000000109000000000000000900000000000000",
            ],
        ),
        (
            "reply_bucket_stats",
            &["0001000000000000000200000000000000010100000000000000030000000000", "0000"],
        ),
        ("reply_u64", &["003930000000000000"]),
        (
            "reply_sketch",
            &[
                "007b000000000000000400000000000000060000000000000001000000000000",
                "0002000000000000000102000000000000000900000000000000020000000000",
                "0000000200000000000000010000000000000005000000000000000100000000",
                "0000000000000000000000010000000000000000010000000000000003000000",
                "00000000",
            ],
        ),
        ("reply_err_panicked", &["01000400000000000000626f6f6d"]),
        ("reply_err_pending", &["010109000000000000006c656674206f766572"]),
        ("reply_err_unbalanced", &["0102"]),
        ("reply_err_poisoned", &["0103"]),
        ("reply_err_wire", &["01040900000000000000626164206672616d65"]),
        ("reply_err_peer_lost", &["010502000000000000006300000000000000"]),
        ("reply_err_recv_timeout", &["01060200000000000000630000000000000002000000000000003173"]),
    ];

    #[test]
    fn every_body_matches_its_golden_bytes() {
        let bodies = golden_bodies();
        assert_eq!(bodies.len(), GOLDEN_BODIES.len());
        for ((name, body), (golden_name, golden)) in bodies.iter().zip(GOLDEN_BODIES) {
            assert_eq!(*name, golden_name);
            assert_eq!(hex(body), golden.concat(), "{name} changed on the wire");
        }
    }
}
