//! Transport abstraction for out-of-process fabrics.
//!
//! [`crate::Machine::procs`] wires the `p` processors over in-process
//! channels. A socket-backed execution backend instead runs each rank in its
//! own OS process and implements [`FabricLink`]: the runtime keeps its
//! virtual-clock accounting, `(src, tag)` matching, stashing and timeout
//! diagnostics, while the link moves opaque [`WireEnvelope`] frames between
//! the peers. Construct the per-rank handle with
//! [`crate::Machine::fabric_proc`].
//!
//! Contract for implementors:
//!
//! * **Per-peer FIFO.** Envelopes from one source must be surfaced in the
//!   order delivered; after a peer's stream ends, a single
//!   [`FabricPoll::PeerDown`] marker must follow its last envelope. The
//!   runtime relies on this to turn a dead peer into the same typed
//!   [`crate::RunError::PeerLost`] the in-process transport raises.
//! * **No reordering across `poll`.** `poll` surfaces envelopes from all
//!   peers in arrival order; the runtime stashes mismatches itself.
//! * **Unreachable is `false`.** `deliver` returns `false` when it cannot
//!   reach the peer; it carries no reason, because the runtime's only
//!   answer is the same `PeerLost` either way.

use std::time::Duration;

use crate::wiremsg::{WireMsg, WireMsgError, WireReader};

/// One message crossing a fabric: the envelope header the virtual-time model
/// needs (`sent_at` + modeled `bytes`) plus the encoded payload.
#[derive(Debug, Clone, PartialEq)]
pub struct WireEnvelope {
    /// Sending rank.
    pub src: usize,
    /// Message tag (user or collective space).
    pub tag: u64,
    /// Sender's virtual time when the send started.
    pub sent_at: f64,
    /// Modeled payload size in bytes (computed from `size_of`, not from the
    /// encoded length — keeps virtual time transport-invariant).
    pub bytes: u64,
    /// The [`crate::WireMsg`]-encoded payload.
    pub payload: Vec<u8>,
}

impl WireEnvelope {
    /// Serializes the whole envelope (header + payload) into one frame.
    pub fn to_frame(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32 + self.payload.len());
        (self.src, self.tag, self.sent_at, self.bytes).wire_encode(&mut out);
        out.extend_from_slice(&self.payload);
        out
    }

    /// Decodes an envelope previously produced by
    /// [`to_frame`](WireEnvelope::to_frame).
    pub fn from_frame(frame: &[u8]) -> Result<Self, WireMsgError> {
        let mut r = WireReader::new(frame);
        let (src, tag, sent_at, bytes) = <(usize, u64, f64, u64)>::wire_decode(&mut r)?;
        Ok(WireEnvelope { src, tag, sent_at, bytes, payload: r.take(r.remaining())?.to_vec() })
    }
}

/// One event surfaced by [`FabricLink::poll`].
#[derive(Debug)]
pub enum FabricPoll {
    /// A message arrived.
    Message(WireEnvelope),
    /// The given peer's stream ended; no further envelopes from it will
    /// arrive. Surfaced exactly once per dead peer, after its last envelope.
    PeerDown(usize),
}

/// Why a [`FabricLink::poll`] returned without an event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FabricRecvError {
    /// Nothing arrived within the timeout.
    Timeout,
    /// The link is closed: every peer stream has ended and the queue is
    /// drained.
    Closed,
}

/// A transport carrying [`WireEnvelope`]s between the ranks of one machine.
///
/// Implemented by execution backends that run ranks out of process (e.g.
/// shard workers connected over Unix sockets). See the module docs for the
/// ordering contract.
pub trait FabricLink: Send {
    /// Sends an envelope to rank `dst`; `false` means the peer is
    /// unreachable, and the runtime raises [`crate::RunError::PeerLost`], as
    /// for an in-process peer that hung up.
    fn deliver(&mut self, dst: usize, env: WireEnvelope) -> bool;

    /// Waits up to `timeout` for the next event from any peer.
    fn poll(&mut self, timeout: Duration) -> Result<FabricPoll, FabricRecvError>;

    /// Drains any queued envelopes into `(src, tag)` pairs for the
    /// end-of-program check: anything it returns is a protocol error.
    fn drain_pending(&mut self) -> Vec<(usize, u64)>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelope_frames_round_trip() {
        let env = WireEnvelope {
            src: 3,
            tag: 0x8000_0000_0000_0000 | (7 << 16),
            sent_at: 1.25,
            bytes: 40,
            payload: vec![1, 2, 3, 4, 5],
        };
        let frame = env.to_frame();
        assert_eq!(WireEnvelope::from_frame(&frame).unwrap(), env);
    }

    #[test]
    fn truncated_envelope_is_a_typed_error() {
        let env = WireEnvelope { src: 0, tag: 1, sent_at: 0.0, bytes: 8, payload: vec![9; 8] };
        let frame = env.to_frame();
        assert!(WireEnvelope::from_frame(&frame[..10]).is_err());
    }
}
