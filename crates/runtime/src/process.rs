//! The per-processor handle: point-to-point messaging and the virtual clock.

use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::time::Duration;

use crate::envelope::{Envelope, Payload, USER_TAG_LIMIT};
use crate::fabric::{FabricLink, FabricPoll, FabricRecvError, WireEnvelope};
use crate::machine::RunError;
use crate::model::MachineModel;
use crate::stats::{CommStats, PhaseTimer};
use crate::wiremsg::{decode_frame, WireMsg};

/// The transport a [`Proc`] sends and receives through: in-process channels
/// (the [`crate::Machine::procs`] crossbar) or an out-of-process
/// [`FabricLink`]. The virtual-clock accounting above this seam is identical
/// for both, which is what keeps virtual time transport-invariant.
enum Link {
    Local {
        peers: Vec<Sender<Envelope>>,
        rx: Receiver<Envelope>,
    },
    Fabric {
        link: Box<dyn FabricLink>,
        /// Peers whose stream has ended (their `PeerDown` marker was seen).
        down: Vec<bool>,
    },
}

/// Handle to one virtual processor inside a [`crate::Machine::run`] region.
///
/// A `Proc` provides:
/// * identity ([`rank`](Proc::rank), [`nprocs`](Proc::nprocs));
/// * typed point-to-point messaging ([`send`](Proc::send),
///   [`recv`](Proc::recv) and the `_vec` variants) matched by
///   `(source, tag)` with out-of-order stashing;
/// * the deterministic virtual clock ([`now`](Proc::now),
///   [`charge_ops`](Proc::charge_ops));
/// * the paper's collectives (see the methods defined in the
///   `collectives` module);
/// * counters and phase timers for the experiment harness.
pub struct Proc {
    rank: usize,
    p: usize,
    model: MachineModel,
    now: f64,
    link: Link,
    stash: Vec<Envelope>,
    pub(crate) epoch: u64,
    timeout: Duration,
    stats: CommStats,
    ops: u64,
    phases: PhaseTimer,
}

impl Proc {
    pub(crate) fn new(
        rank: usize,
        p: usize,
        model: MachineModel,
        peers: Vec<Sender<Envelope>>,
        rx: Receiver<Envelope>,
        timeout: Duration,
    ) -> Self {
        Self::with_link(rank, p, model, Link::Local { peers, rx }, timeout)
    }

    pub(crate) fn new_fabric(
        rank: usize,
        p: usize,
        model: MachineModel,
        link: Box<dyn FabricLink>,
        timeout: Duration,
    ) -> Self {
        Self::with_link(rank, p, model, Link::Fabric { link, down: vec![false; p] }, timeout)
    }

    fn with_link(
        rank: usize,
        p: usize,
        model: MachineModel,
        link: Link,
        timeout: Duration,
    ) -> Self {
        Proc {
            rank,
            p,
            model,
            now: 0.0,
            link,
            stash: Vec::new(),
            epoch: 0,
            timeout,
            stats: CommStats::default(),
            ops: 0,
            phases: PhaseTimer::new(),
        }
    }

    /// This processor's id in `0..nprocs()`.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Total number of virtual processors `p`.
    #[inline]
    pub fn nprocs(&self) -> usize {
        self.p
    }

    /// The machine cost model this run executes under.
    #[inline]
    pub fn model(&self) -> MachineModel {
        self.model
    }

    /// Current virtual time in seconds.
    #[inline]
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Elementary operations charged so far via [`charge_ops`](Proc::charge_ops).
    #[inline]
    pub fn ops_charged(&self) -> u64 {
        self.ops
    }

    /// Communication counters so far.
    #[inline]
    pub fn comm_stats(&self) -> CommStats {
        self.stats
    }

    /// Bumps the collective-operation counter (called by the collectives
    /// module once per epoch-tag allocation).
    #[inline]
    pub(crate) fn note_collective_op(&mut self) {
        self.stats.collective_ops += 1;
    }

    /// Advances the virtual clock by `n` elementary operations
    /// (`n × t_op` seconds) and bumps the operation counter.
    ///
    /// The sequential kernels report *measured* comparison + move counts
    /// here, so deterministic-vs-randomized constant factors in the
    /// reproduced figures are real, not assumed.
    #[inline]
    pub fn charge_ops(&mut self, n: u64) {
        self.ops += n;
        self.now += self.model.compute_cost(n);
    }

    /// Advances the virtual clock by `seconds` directly (rarely needed;
    /// prefer [`charge_ops`](Proc::charge_ops)).
    pub fn charge_seconds(&mut self, seconds: f64) {
        assert!(
            seconds.is_finite() && seconds >= 0.0,
            "charge_seconds requires a finite non-negative duration, got {seconds}"
        );
        self.now += seconds;
    }

    // ------------------------------------------------------------------
    // Point-to-point messaging
    // ------------------------------------------------------------------

    /// Sends a single value to `dst` under `tag`.
    ///
    /// The modeled message size is `size_of::<T>()` — computed *before* any
    /// wire encoding, so virtual time is identical on every transport. User
    /// tags must be below `2^32`; higher tags are reserved for the runtime's
    /// collectives.
    pub fn send<T: WireMsg>(&mut self, dst: usize, tag: u64, value: T) {
        assert!(tag < USER_TAG_LIMIT, "user tags must be < 2^32, got {tag:#x}");
        self.send_msg(dst, tag, std::mem::size_of::<T>() as u64, value);
    }

    /// Sends a vector of values to `dst` under `tag`; the modeled size is
    /// `len × size_of::<T>()`.
    pub fn send_vec<T: WireMsg>(&mut self, dst: usize, tag: u64, data: Vec<T>) {
        assert!(tag < USER_TAG_LIMIT, "user tags must be < 2^32, got {tag:#x}");
        let bytes = (data.len() * std::mem::size_of::<T>()) as u64;
        self.send_msg(dst, tag, bytes, data);
    }

    /// Receives the value sent by `src` under `tag`, blocking until it
    /// arrives (subject to the machine's receive timeout).
    ///
    /// # Panics
    /// Panics if the payload type differs from `T`. Unwinds with
    /// [`RunError::RecvTimeout`] on timeout (which almost always indicates
    /// mismatched SPMD communication), [`RunError::PeerLost`] if `src` is gone.
    pub fn recv<T: WireMsg>(&mut self, src: usize, tag: u64) -> T {
        assert!(tag < USER_TAG_LIMIT, "user tags must be < 2^32, got {tag:#x}");
        self.recv_raw(src, tag)
    }

    /// Receives a vector sent with [`send_vec`](Proc::send_vec).
    pub fn recv_vec<T: WireMsg>(&mut self, src: usize, tag: u64) -> Vec<T> {
        self.recv::<Vec<T>>(src, tag)
    }

    // Internal (collective) variants: no user-tag validation.

    pub(crate) fn isend<T: WireMsg>(&mut self, dst: usize, tag: u64, value: T) {
        self.send_msg(dst, tag, std::mem::size_of::<T>() as u64, value);
    }

    pub(crate) fn isend_sized<T: WireMsg>(&mut self, dst: usize, tag: u64, bytes: u64, value: T) {
        self.send_msg(dst, tag, bytes, value);
    }

    pub(crate) fn irecv<T: WireMsg>(&mut self, src: usize, tag: u64) -> T {
        self.recv_raw(src, tag)
    }

    fn send_msg<T: WireMsg>(&mut self, dst: usize, tag: u64, bytes: u64, value: T) {
        assert!(dst < self.p, "proc {} attempted to send to {} but p = {}", self.rank, dst, self.p);
        let sent_at = self.now;
        self.now += self.model.send_cost(bytes);
        self.stats.msgs_sent += 1;
        self.stats.bytes_sent += bytes;
        let rank = self.rank;
        match &mut self.link {
            Link::Local { peers, .. } => {
                let env = Envelope {
                    src: rank,
                    tag,
                    sent_at,
                    bytes,
                    payload: Payload::Local(Box::new(value)),
                };
                peers[dst].send(env).unwrap_or_else(|_| peer_lost(rank, dst, tag));
            }
            Link::Fabric { link, .. } => {
                let mut payload = Vec::new();
                value.wire_encode(&mut payload);
                let env = WireEnvelope { src: rank, tag, sent_at, bytes, payload };
                if !link.deliver(dst, env) {
                    peer_lost(rank, dst, tag);
                }
            }
        }
    }

    fn recv_raw<T: WireMsg>(&mut self, src: usize, tag: u64) -> T {
        let env = self.recv_envelope(src, tag);
        let arrival = env.sent_at
            + self.model.send_cost(env.bytes)
            + self.model.route_cost(env.src, self.rank, self.p);
        self.now = self.now.max(arrival) + self.model.recv_cost(env.bytes);
        self.stats.msgs_recv += 1;
        self.stats.bytes_recv += env.bytes;
        match env.payload {
            Payload::Local(payload) => match payload.downcast::<T>() {
                Ok(v) => *v,
                Err(_) => panic!(
                    "proc {} received (src={src}, tag={tag:#x}) with unexpected payload type; \
                     expected {}",
                    self.rank,
                    std::any::type_name::<T>()
                ),
            },
            Payload::Wire(bytes) => decode_frame::<T>(&bytes).unwrap_or_else(|e| {
                panic!(
                    "proc {} received (src={src}, tag={tag:#x}) with unexpected payload type; \
                     expected {} but decoding failed: {e}",
                    self.rank,
                    std::any::type_name::<T>()
                )
            }),
        }
    }

    fn recv_envelope(&mut self, src: usize, tag: u64) -> Envelope {
        if let Some(pos) = self.stash.iter().position(|e| e.src == src && e.tag == tag) {
            return self.stash.swap_remove(pos);
        }
        let rank = self.rank;
        let timeout = self.timeout;
        match &mut self.link {
            Link::Local { rx, .. } => loop {
                match rx.recv_timeout(timeout) {
                    Ok(e) if e.src == src && e.tag == tag => return e,
                    Ok(e) => self.stash.push(e),
                    Err(RecvTimeoutError::Timeout) => {
                        recv_timed_out(rank, src, tag, timeout, self.now, &self.stash)
                    }
                    Err(RecvTimeoutError::Disconnected) => peer_lost(rank, src, tag),
                }
            },
            Link::Fabric { link, down } => loop {
                // A dead peer can never satisfy this receive (per-peer FIFO:
                // its last envelopes were surfaced before the Down marker).
                if down[src] {
                    peer_lost(rank, src, tag);
                }
                match link.poll(timeout) {
                    Ok(FabricPoll::Message(w)) => {
                        let e = Envelope {
                            src: w.src,
                            tag: w.tag,
                            sent_at: w.sent_at,
                            bytes: w.bytes,
                            payload: Payload::Wire(w.payload),
                        };
                        if e.src == src && e.tag == tag {
                            return e;
                        }
                        self.stash.push(e);
                    }
                    Ok(FabricPoll::PeerDown(peer)) => down[peer] = true,
                    Err(FabricRecvError::Timeout) => {
                        recv_timed_out(rank, src, tag, timeout, self.now, &self.stash)
                    }
                    Err(FabricRecvError::Closed) => peer_lost(rank, src, tag),
                }
            },
        }
    }

    /// Runs the end-of-program protocol every execution backend must apply
    /// after each SPMD program: a final barrier, then a check that no
    /// unconsumed messages remain and that all phase timers are closed.
    ///
    /// [`crate::Machine::run`] and the [`crate::Session`] worker loop call
    /// this internally; external backends that own their worker threads
    /// (obtained via [`crate::Machine::procs`]) must call it themselves at
    /// the end of every program so protocol bugs become hard errors instead
    /// of silently corrupting the next program — and so communication
    /// counters advance identically no matter which backend ran the program.
    pub fn finish_program(&mut self) -> Result<(), RunError> {
        self.barrier();
        let detail = self.pending_summary();
        if !detail.is_empty() {
            return Err(RunError::PendingMessages { rank: self.rank, detail });
        }
        if !self.phases_balanced() {
            return Err(RunError::UnbalancedPhases { rank: self.rank });
        }
        Ok(())
    }

    /// Lists every unconsumed message, stashed or still queued (draining
    /// the queue); empty means none remained.
    pub(crate) fn pending_summary(&mut self) -> String {
        let mut parts: Vec<String> = self
            .stash
            .iter()
            .map(|e| format!("stashed (src={}, tag={:#x})", e.src, e.tag))
            .collect();
        match &mut self.link {
            Link::Local { rx, .. } => {
                while let Ok(e) = rx.try_recv() {
                    parts.push(format!("queued (src={}, tag={:#x})", e.src, e.tag));
                }
            }
            Link::Fabric { link, .. } => {
                for (src, tag) in link.drain_pending() {
                    parts.push(format!("queued (src={src}, tag={tag:#x})"));
                }
            }
        }
        parts.join(", ")
    }

    // ------------------------------------------------------------------
    // Phase timing
    // ------------------------------------------------------------------

    /// Opens a named phase at the current virtual time. Phases may nest;
    /// accumulated times are inclusive.
    pub fn phase_begin(&mut self, label: &'static str) {
        self.phases.begin(label, self.now);
    }

    /// Closes the innermost phase, which must be `label`.
    pub fn phase_end(&mut self, label: &'static str) {
        self.phases.end(label, self.now);
    }

    /// Accumulated virtual seconds spent in `label` so far.
    pub fn phase_time(&self, label: &str) -> f64 {
        self.phases.get(label)
    }

    pub(crate) fn phases_balanced(&self) -> bool {
        self.phases.balanced()
    }
}

/// The runtime's fallout sites unwind with the typed error itself:
/// `resume_unwind` skips the panic hook, so nothing is printed, and the
/// catch site reads the payload back through [`RunError::from_unwind`].
fn peer_lost(rank: usize, peer: usize, tag: u64) -> ! {
    std::panic::resume_unwind(Box::new(RunError::PeerLost { rank, peer, tag }))
}

fn recv_timed_out(
    rank: usize,
    src: usize,
    tag: u64,
    timeout: Duration,
    now: f64,
    stash: &[Envelope],
) -> ! {
    let stashed: Vec<String> =
        stash.iter().map(|e| format!("(src={}, tag={:#x})", e.src, e.tag)).collect();
    let detail =
        format!("{timeout:?}; virtual time {now:.6}s; stashed messages: [{}]", stashed.join(", "));
    std::panic::resume_unwind(Box::new(RunError::RecvTimeout { rank, src, tag, detail }))
}

impl std::fmt::Debug for Proc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Proc")
            .field("rank", &self.rank)
            .field("p", &self.p)
            .field("now", &self.now)
            .field("ops", &self.ops)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}
