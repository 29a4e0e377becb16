//! The message-passing backend: one host and one shard serve loop, written
//! once against a [`Transport`].
//!
//! The host holds **no shard state and no code pointer into the workers**:
//! every verb is encoded as a byte frame in the shared host↔worker protocol
//! (`super::protocol` — versioned, sequence-numbered framing over the
//! `super::wire` codec), sent down the worker's link, decoded by the
//! worker's [`serve`] loop, executed against its owned `super::ops::Shard`,
//! and answered with another byte frame. Nothing in that exchange depends on
//! *how* a frame travels, so the transport supplies only five things —
//! spawn a worker link, send a frame, the link's reply `Receiver`, stage a
//! fresh collective fabric, reap — and everything else lives here:
//!
//! * **Round trips** stamp every frame with the round's sequence number and
//!   collect replies under **one deadline shared across the whole collect
//!   loop** (p stragglers stall the host for one `reply_timeout`, not p of
//!   them; a late reply can never be mistaken for a later round's answer).
//!   Every failure — including a failed *send* — is recorded per rank and
//!   triaged for the root cause ([`protocol::triage`]); any failure poisons
//!   the backend, and later calls fail fast with [`BackendError::Poisoned`].
//! * **Membership** is a runtime operation on every transport, because the
//!   collective fabric is rebuilt per *epoch* (a BIND round, then a CONNECT
//!   round): [`ExecBackend::replace_worker`] migrates a shard bit-exactly
//!   (data, bucket runs, mid-stream ε-sketch) to a fresh worker, so the
//!   host's cached histogram stays warm; [`ExecBackend::join_worker`] /
//!   [`ExecBackend::retire_worker`] grow or shrink the ring (a retiree's
//!   data and sketch merge into a survivor — [`crate::EpsSketch::merge`] is
//!   closed under the error bound); [`ExecBackend::recover`] pings every
//!   worker, respawns the dead ones empty, resets the survivors' indexes,
//!   rewires the fabric and clears the poison.
//! * **The worker** ([`serve`]) always answers control verbs (ping, fabric
//!   wiring, shard export/import, exit); data-plane verbs need a live fabric
//!   [`Proc`]. A failed program (panic or protocol violation) is reported in
//!   the reply frame and drops the `Proc` — the worker keeps serving control
//!   verbs, which is what lets the host re-shard around a failure.
//!
//! Static dispatch on the transport keeps the hot path free of indirection;
//! the wire bytes are the same on every transport.

use std::borrow::Cow;
use std::marker::PhantomData;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use cgselect_runtime::{panic_message, Key, Proc};
use cgselect_seqsel::SepBound;
use crossbeam::channel::Receiver;

use crate::index::BucketStats;
use crate::sketch::EpsSketch;

use super::channel_mp::Fault;
use super::ops::{self, Shard};
use super::protocol::{
    self, WorkerConfig, CMD_EXECUTE, CMD_EXIT, CMD_EXPORT, CMD_FABRIC_BIND, CMD_FABRIC_CONNECT,
    CMD_IMPORT, CMD_PING, IMPORT_MERGE, IMPORT_REPLACE, REPLY_OK,
};
use super::wire::{Reader, WireResult, Writer};
use super::{
    BackendError, BackendKind, BatchPlan, ExecBackend, RecoveryReport, ShardBatchOutcome,
    ShardDeletion,
};

/// How frames reach the shard workers — the only part of the
/// message-passing backend that differs between threads and processes.
pub(crate) trait Transport: Send {
    /// One live shard worker, as the host holds it.
    type Link: Send;

    /// The backend kind engines on this transport report.
    const KIND: BackendKind;

    /// Spawns a worker with an empty shard, initially serving `rank`.
    fn spawn(&mut self, rank: usize) -> Result<Self::Link, BackendError>;

    /// Sends one protocol frame — owned when it is this link's alone, so a
    /// transport that queues frames takes it without copying; borrowed when
    /// every link gets the same bytes. `false` when the worker is gone.
    fn send(link: &mut Self::Link, frame: Cow<'_, [u8]>) -> bool;

    /// Where the link's reply frames arrive (a dropped sender — the worker
    /// died — reads as [`BackendError::WorkerUnresponsive`]).
    fn replies(link: &Self::Link) -> &Receiver<Vec<u8>>;

    /// Stages the collective fabric of `epoch` for exactly `links`, in rank
    /// order; the workers pick it up in the BIND and CONNECT rounds the
    /// host runs next.
    fn rewire(&mut self, links: &[Self::Link], epoch: u64);

    /// Waits for a worker that was sent EXIT (or is already dead) to be
    /// gone, force-stopping it where the transport can.
    fn reap(&mut self, link: Self::Link);

    /// The worker's OS process id, where it has one.
    fn pid(_link: &Self::Link) -> Option<u32> {
        None
    }
}

/// One command round's bodies: a distinct body per rank (encoded, framed
/// and handed over one rank at a time, so a bulk ingest never holds two
/// copies of itself), or one body for every rank (framed once, the same
/// bytes sent p times).
enum Bodies<'a> {
    PerRank(&'a dyn Fn(usize) -> Vec<u8>),
    Broadcast(&'a [u8]),
}

/// The message-passing execution backend (see the [module docs](self)).
pub(crate) struct MessagePassing<T: Key, Tr: Transport> {
    transport: Tr,
    links: Vec<Tr::Link>,
    reply_timeout: Duration,
    /// Fabric generation: bumped on every membership change, so a rebuild
    /// never races the mesh it replaces.
    epoch: u64,
    next_seq: u64,
    poisoned: bool,
    _marker: PhantomData<fn(T)>,
}

impl<T: Key, Tr: Transport> MessagePassing<T, Tr> {
    /// Spawns `nprocs` workers with empty shards resident and wires their
    /// collective fabric.
    pub(crate) fn start(
        transport: Tr,
        nprocs: usize,
        reply_timeout: Duration,
    ) -> Result<Self, BackendError> {
        let mut host = MessagePassing {
            transport,
            links: Vec::with_capacity(nprocs),
            reply_timeout,
            epoch: 0,
            next_seq: 1,
            poisoned: false,
            _marker: PhantomData,
        };
        for rank in 0..nprocs {
            let link = host.transport.spawn(rank)?;
            host.links.push(link);
        }
        host.rebuild_fabric()?;
        Ok(host)
    }

    fn bump_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Sends one control command to worker `rank` and waits for its reply
    /// payload under the reply timeout. Control calls never poison the
    /// backend themselves — membership verbs decide what a failure means.
    fn control_one(&mut self, rank: usize, body: &[u8]) -> Result<Vec<u8>, BackendError> {
        let seq = self.bump_seq();
        let link = &mut self.links[rank];
        if !Tr::send(link, Cow::Owned(protocol::encode_framed(seq, body))) {
            return Err(BackendError::WorkerUnresponsive { rank });
        }
        let deadline = Instant::now() + self.reply_timeout;
        protocol::collect_frame(Tr::replies(link), deadline, seq, rank)
            .and_then(|b| protocol::decode_reply_status(rank, b))
    }

    /// Sends one round of control bodies and collects each worker's reply
    /// individually under one shared deadline. A failed send is that
    /// rank's failure; everyone else's reply is still collected, so a
    /// peer's *reported* root cause is never masked.
    fn control_round(&mut self, bodies: Bodies<'_>) -> Vec<Result<Vec<u8>, BackendError>> {
        let seq = self.bump_seq();
        let links = self.links.iter_mut();
        let sent: Vec<bool> = match bodies {
            Bodies::PerRank(body_of) => links
                .enumerate()
                .map(|(rank, link)| {
                    Tr::send(link, Cow::Owned(protocol::encode_framed(seq, &body_of(rank))))
                })
                .collect(),
            Bodies::Broadcast(body) => {
                let frame = protocol::encode_framed(seq, body);
                links.map(|link| Tr::send(link, Cow::Borrowed(&frame))).collect()
            }
        };
        let deadline = Instant::now() + self.reply_timeout;
        self.links
            .iter()
            .enumerate()
            .map(|(rank, link)| {
                if !sent[rank] {
                    return Err(BackendError::WorkerUnresponsive { rank });
                }
                protocol::collect_frame(Tr::replies(link), deadline, seq, rank)
                    .and_then(|b| protocol::decode_reply_status(rank, b))
            })
            .collect()
    }

    /// The data-plane round trip: one reply payload per worker, with
    /// root-cause triage and poisoning on any failure.
    fn round_trip(&mut self, bodies: Bodies<'_>) -> Result<Vec<Vec<u8>>, BackendError> {
        if self.poisoned {
            return Err(BackendError::Poisoned);
        }
        let mut payloads = Vec::with_capacity(self.links.len());
        let mut failures: Vec<BackendError> = Vec::new();
        for result in self.control_round(bodies) {
            match result {
                Ok(payload) => payloads.push(payload),
                Err(e) => failures.push(e),
            }
        }
        if failures.is_empty() {
            return Ok(payloads);
        }
        self.poisoned = true;
        Err(protocol::triage(failures))
    }

    /// One data-plane verb: round trip, then decode every rank's payload
    /// with the verb's reply decoder, poisoning the backend on the first
    /// malformed one (a worker that writes garbage is as gone as one that
    /// panicked).
    fn call<R>(
        &mut self,
        bodies: Bodies<'_>,
        fields: impl Fn(&mut Reader<'_>) -> WireResult<R>,
    ) -> Result<Vec<R>, BackendError> {
        let payloads = self.round_trip(bodies)?;
        let decoded: Result<Vec<R>, BackendError> = payloads
            .iter()
            .enumerate()
            .map(|(rank, body)| protocol::decode_reply(rank, body, &fields))
            .collect();
        self.poisoned |= decoded.is_err();
        decoded
    }

    /// Tears down every worker's fabric and wires a fresh epoch: the
    /// transport stages it, a BIND round makes each worker drop its `Proc`
    /// and learn its — possibly new — rank, then a CONNECT round has each
    /// worker build its new `Proc`.
    fn rebuild_fabric(&mut self) -> Result<(), BackendError> {
        self.epoch += 1;
        self.transport.rewire(&self.links, self.epoch);
        let p = self.links.len();
        let epoch = self.epoch;
        let bind = |rank| protocol::encode_fabric_bind(epoch, rank, p);
        for r in self.control_round(Bodies::PerRank(&bind)) {
            r?;
        }
        let mut connect = Writer::new(CMD_FABRIC_CONNECT);
        connect.u64(self.epoch);
        for r in self.control_round(Bodies::Broadcast(&connect.into_frame())) {
            r?;
        }
        Ok(())
    }

    /// Re-reads every shard's size with one empty-ingest round (zero
    /// collectives, zero virtual time) — the resync after membership moves.
    fn sizes_round(&mut self) -> Result<Vec<u64>, BackendError> {
        self.call(Bodies::Broadcast(&protocol::encode_ingest::<T>(&[])), protocol::decode_u64_reply)
    }

    /// Sends EXIT and reaps one worker.
    fn shutdown_worker(&mut self, mut link: Tr::Link) {
        let seq = self.bump_seq();
        Tr::send(&mut link, Cow::Owned(protocol::encode_framed(seq, &[CMD_EXIT])));
        self.transport.reap(link);
    }
}

impl<T: Key, Tr: Transport> ExecBackend<T> for MessagePassing<T, Tr> {
    fn nprocs(&self) -> usize {
        self.links.len()
    }

    fn kind(&self) -> BackendKind {
        Tr::KIND
    }

    fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    fn ingest(&mut self, chunks: Vec<Vec<T>>) -> Result<Vec<u64>, BackendError> {
        assert_eq!(chunks.len(), self.links.len(), "one ingest chunk per shard");
        let body_of = |rank: usize| protocol::encode_ingest(&chunks[rank]);
        self.call(Bodies::PerRank(&body_of), protocol::decode_u64_reply)
    }

    fn delete(&mut self, values: Vec<T>) -> Result<Vec<ShardDeletion>, BackendError> {
        self.call(
            Bodies::Broadcast(&protocol::encode_delete(&values)),
            protocol::decode_deletion_reply,
        )
    }

    fn rebalance(&mut self) -> Result<Vec<u64>, BackendError> {
        self.call(Bodies::Broadcast(&[protocol::CMD_REBALANCE]), protocol::decode_u64_reply)
    }

    fn build_index(
        &mut self,
        buckets: usize,
    ) -> Result<(Vec<SepBound<T>>, Vec<BucketStats<T>>), BackendError> {
        let pairs = self.call(
            Bodies::Broadcast(&protocol::encode_build_index(buckets)),
            protocol::decode_index_build_reply::<T>,
        )?;
        let mut bounds = Vec::new();
        let mut stats = Vec::with_capacity(pairs.len());
        for (rank, (b, s)) in pairs.into_iter().enumerate() {
            if rank == 0 {
                bounds = b;
            } else {
                debug_assert_eq!(bounds, b, "splitter bounds must agree across shards");
            }
            stats.push(s);
        }
        Ok((bounds, stats))
    }

    fn merge_delta(&mut self) -> Result<Vec<BucketStats<T>>, BackendError> {
        self.call(
            Bodies::Broadcast(&[protocol::CMD_MERGE_DELTA]),
            protocol::decode_bucket_stats_reply::<T>,
        )
    }

    fn execute(&mut self, plan: &BatchPlan<T>) -> Result<Vec<ShardBatchOutcome<T>>, BackendError> {
        self.call(Bodies::Broadcast(&protocol::encode_execute(plan)), protocol::decode_outcome::<T>)
    }

    fn export_sketches(&mut self) -> Result<Vec<EpsSketch<T>>, BackendError> {
        self.call(
            Bodies::Broadcast(&[protocol::CMD_EXPORT_SKETCH]),
            protocol::decode_sketch_reply::<T>,
        )
    }

    fn supports_membership(&self) -> bool {
        true
    }

    fn worker_pids(&self) -> Vec<u32> {
        self.links.iter().filter_map(Tr::pid).collect()
    }

    fn replace_worker(&mut self, rank: usize) -> Result<Vec<u64>, BackendError> {
        assert!(rank < self.links.len(), "shard {rank} out of range");
        let snap = self.control_one(rank, &[CMD_EXPORT])?;
        let fresh = self.transport.spawn(rank)?;
        let old = std::mem::replace(&mut self.links[rank], fresh);
        if let Err(e) = self.control_one(rank, &protocol::encode_import(IMPORT_REPLACE, &snap)) {
            // The import failed: the shard stays where it was.
            let fresh = std::mem::replace(&mut self.links[rank], old);
            self.shutdown_worker(fresh);
            return Err(e);
        }
        self.shutdown_worker(old);
        self.rebuild_fabric()?;
        self.sizes_round()
    }

    fn join_worker(&mut self) -> Result<Vec<u64>, BackendError> {
        let link = self.transport.spawn(self.links.len())?;
        self.links.push(link);
        self.rebuild_fabric()?;
        self.sizes_round()
    }

    fn retire_worker(&mut self, rank: usize) -> Result<Vec<u64>, BackendError> {
        assert!(rank < self.links.len(), "shard {rank} out of range");
        if self.links.len() == 1 {
            return Err(BackendError::Unsupported { verb: "retire_worker on the last shard" });
        }
        let snap = self.control_one(rank, &[CMD_EXPORT])?;
        let old = self.links.remove(rank);
        self.shutdown_worker(old);
        // Ranks above the retiree shift down; the BIND round renumbers them.
        self.rebuild_fabric()?;
        let dst = rank % self.links.len();
        self.control_one(dst, &protocol::encode_import(IMPORT_MERGE, &snap))?;
        self.sizes_round()
    }

    fn recover(&mut self) -> Result<RecoveryReport, BackendError> {
        // Detect: one ping round under the shared deadline.
        let pings = self.control_round(Bodies::Broadcast(&[CMD_PING]));
        let dead: Vec<usize> =
            pings.iter().enumerate().filter_map(|(rank, r)| r.is_err().then_some(rank)).collect();
        // Re-shard: respawn the dead ranks with empty shards (their data is
        // lost — the surviving multiset stays exact) and reset every
        // survivor's index (a shard index abandoned mid-batch is not
        // trustworthy; the next exact batch rebuilds it). The survivors'
        // ε-sketches stay: execution permutes but never changes the
        // multiset, so each remains a valid bounded-error summary.
        for &rank in &dead {
            let fresh = self.transport.spawn(rank)?;
            let old = std::mem::replace(&mut self.links[rank], fresh);
            self.shutdown_worker(old);
        }
        let reset = protocol::encode_index_reset::<T>();
        for rank in (0..self.links.len()).filter(|rank| !dead.contains(rank)) {
            self.control_one(rank, &reset)?;
        }
        self.rebuild_fabric()?;
        self.poisoned = false;
        let sizes = self.sizes_round()?;
        Ok(RecoveryReport { replaced: dead, sizes })
    }
}

impl<T: Key, Tr: Transport> Drop for MessagePassing<T, Tr> {
    fn drop(&mut self) {
        // Reap-on-drop: tell every worker to exit, then wait for each, so
        // dropping an engine never leaks shard threads or processes.
        let exit = protocol::encode_framed(self.next_seq, &[CMD_EXIT]);
        for link in &mut self.links {
            Tr::send(link, Cow::Borrowed(&exit));
        }
        for link in self.links.drain(..) {
            self.transport.reap(link);
        }
    }
}

// =====================================================================
// Worker side
// =====================================================================

/// The worker's end of its command link.
pub(crate) trait FramePipe {
    /// The next command frame; `None` once the host is gone.
    fn recv(&mut self) -> Option<Vec<u8>>;

    /// Sends one reply frame; `false` when the host is gone.
    fn send(&mut self, frame: Vec<u8>) -> bool;
}

/// The worker's source of collective fabrics, one per membership epoch.
pub(crate) trait Fabric {
    /// BIND: the worker has dropped its old `Proc`; prepare this rank's
    /// end of epoch `epoch`'s `p`-way fabric.
    fn bind(&mut self, epoch: u64, rank: usize, p: usize) -> Result<(), String>;

    /// CONNECT: every peer has bound; build the `Proc` over the fabric.
    fn connect(&mut self) -> Result<Proc, String>;
}

/// The shard worker's command loop: unframe, serve control verbs directly,
/// run data-plane verbs against the owned shard ([`run_guarded`]), reply
/// under the command's sequence number (see the [module docs](self)).
/// `faults` fire at the data-plane dispatch (the thread transport's test
/// instrumentation; empty everywhere else). Returns the worker's exit
/// code: 0 when told to exit or the host is gone, 1 on a broken pipe.
pub(crate) fn serve<T: Key>(
    pipe: &mut impl FramePipe,
    fabric: &mut impl Fabric,
    mut cfg: WorkerConfig,
    faults: &[Fault],
) -> i32 {
    let mut shard: Shard<T> = ops::init_shard(cfg.sketch_capacity);
    let mut proc: Option<Proc> = None;
    let mut executes_served = 0u64;
    let ok = || vec![REPLY_OK];
    loop {
        let Some(mut frame) = pipe.recv() else {
            // Host gone (engine dropped without EXIT, or host crashed).
            return 0;
        };
        let Ok((_, body)) = protocol::split_framed(&frame) else {
            // An unframeable command cannot be answered under a matching
            // sequence number; exit and let the host time out.
            return 1;
        };
        let reply = match (body.first().copied(), proc.as_mut()) {
            (Some(CMD_EXIT), _) => return 0,
            (Some(CMD_PING), _) => ok(),
            (Some(CMD_FABRIC_BIND), _) => {
                // Tear down the old fabric first: our peers must see it
                // close before the next epoch connects.
                proc = None;
                let bound = protocol::decode_fabric_bind(body).map_err(|e| e.detail);
                match bound.and_then(|(epoch, rank, p)| {
                    cfg.rank = rank;
                    fabric.bind(epoch, rank, p)
                }) {
                    Ok(()) => ok(),
                    Err(detail) => protocol::encode_wire_error(&detail),
                }
            }
            (Some(CMD_FABRIC_CONNECT), _) => match fabric.connect() {
                Ok(fresh) => {
                    proc = Some(fresh);
                    ok()
                }
                Err(detail) => protocol::encode_wire_error(&detail),
            },
            (Some(CMD_EXPORT), _) => {
                let mut w = Writer::new(REPLY_OK);
                protocol::encode_snapshot(&mut w, &shard);
                w.into_frame()
            }
            (Some(CMD_IMPORT), _) => match protocol::decode_import::<T>(body) {
                Ok((IMPORT_REPLACE, snap)) => {
                    // Exact restore — the migrated shard is
                    // indistinguishable from one that never moved.
                    shard = snap;
                    ok()
                }
                Ok((IMPORT_MERGE, snap)) => {
                    // Absorb the data and *merge* the ε-sketches —
                    // EpsSketch::merge is closed under the error bound, so
                    // the union sketch keeps a provable guarantee without
                    // re-reading the data. The bucket runs no longer
                    // describe the union, so drop the index.
                    shard.data.extend(snap.data);
                    shard.index = None;
                    shard.sketch.merge(&snap.sketch);
                    ok()
                }
                Ok((mode, _)) => {
                    protocol::encode_wire_error(&format!("unknown import mode {mode}"))
                }
                Err(e) => protocol::encode_wire_error(&e.detail),
            },
            // Everything else is a data-plane verb and needs a live Proc.
            (_, None) => {
                protocol::encode_wire_error("shard has no fabric (no bind/connect round yet)")
            }
            (tag, Some(live)) => {
                // The fault hook: straggle, die mid-batch, or lose the
                // reply, as the injected faults say for this rank.
                let rank = cfg.rank;
                let nth = executes_served;
                let executing = tag == Some(CMD_EXECUTE);
                executes_served += u64::from(executing);
                for fault in faults {
                    match fault {
                        Fault::SlowShard { rank: r, delay } if *r == rank => {
                            std::thread::sleep(*delay)
                        }
                        _ => {}
                    }
                }
                let panic_now = executing && faults.contains(&Fault::PanicOnExecute { rank, nth });
                let reply = run_guarded(live, &mut shard, &cfg, body, panic_now);
                if reply.first() != Some(&REPLY_OK) {
                    // This program failed: the Proc's collective state can
                    // no longer be trusted. Drop it (peers see our end of
                    // the fabric close) but keep serving control verbs so
                    // the host can re-shard around the failure.
                    proc = None;
                } else if executing && faults.contains(&Fault::DropReplyOnExecute { rank, nth }) {
                    // A lost reply frame: the program ran, the host never
                    // hears about it (and will poison itself).
                    continue;
                }
                reply
            }
        };
        // The reply rides the command's own buffer back: the host frees
        // what the host allocated, so no block ever changes threads to die.
        frame.truncate(protocol::FRAME_HEADER_BYTES);
        frame.extend_from_slice(&reply);
        if !pipe.send(frame) {
            return 1;
        }
    }
}

/// Runs one data-plane command under the worker's one `catch_unwind`: a
/// panic (real, or injected by `panic_now`) or protocol violation comes
/// back as a failure reply, exactly as a `Session` worker reports one.
fn run_guarded<T: Key>(
    proc: &mut Proc,
    shard: &mut Shard<T>,
    cfg: &WorkerConfig,
    body: &[u8],
    panic_now: bool,
) -> Vec<u8> {
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        if panic_now {
            // Mid-batch: enter the batch's opening barrier (so the peers
            // are committed to the collective pass), then die.
            proc.barrier();
            panic!("injected fault: shard worker {} panicked mid-batch", cfg.rank);
        }
        protocol::run_command::<T>(proc, shard, cfg, body)
    }));
    match outcome {
        Ok(Ok(payload)) => payload,
        Ok(Err(protocol_err)) => protocol::encode_protocol_error(&protocol_err),
        Err(payload) => {
            let mut w = Writer::new(protocol::REPLY_PANICKED);
            w.str(&panic_message(payload));
            w.into_frame()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::channel_mp::{ChannelMpTuning, ThreadTransport};
    use super::*;
    use crate::EngineConfig;
    use cgselect_runtime::MachineModel;
    use crossbeam::channel::{unbounded, Sender};

    /// An in-memory transport with scripted workers: a link whose `reply`
    /// is `None` fails every send; otherwise every command is answered
    /// with that body under the command's own sequence number.
    struct Scripted;

    struct ScriptedLink {
        reply: Option<Vec<u8>>,
        tx: Sender<Vec<u8>>,
        rx: Receiver<Vec<u8>>,
    }

    fn scripted(reply: Option<Vec<u8>>) -> ScriptedLink {
        let (tx, rx) = unbounded();
        ScriptedLink { reply, tx, rx }
    }

    impl Transport for Scripted {
        type Link = ScriptedLink;

        const KIND: BackendKind = BackendKind::ChannelMp;

        fn spawn(&mut self, rank: usize) -> Result<ScriptedLink, BackendError> {
            Err(BackendError::Spawn { rank, detail: "scripted links are built by hand".into() })
        }

        fn send(link: &mut ScriptedLink, frame: Cow<'_, [u8]>) -> bool {
            let Some(reply) = &link.reply else { return false };
            let (seq, _) = protocol::split_framed(&frame).expect("host frames are well-formed");
            link.tx.send(protocol::encode_framed(seq, reply)).is_ok()
        }

        fn replies(link: &ScriptedLink) -> &Receiver<Vec<u8>> {
            &link.rx
        }

        fn rewire(&mut self, _links: &[ScriptedLink], _epoch: u64) {}

        fn reap(&mut self, _link: ScriptedLink) {}
    }

    #[test]
    fn failed_send_does_not_mask_a_peers_reported_panic() {
        // Rank 1's send fails while rank 0 has a genuine panic to report:
        // the round must still collect rank 0's reply and triage it as the
        // root cause, not stop at the first failed send.
        let mut panicked = Writer::new(protocol::REPLY_PANICKED);
        panicked.str("shard 0 fell over");
        let mut backend = MessagePassing::<u64, Scripted> {
            transport: Scripted,
            links: vec![scripted(Some(panicked.into_frame())), scripted(None)],
            reply_timeout: Duration::from_secs(5),
            epoch: 0,
            next_seq: 1,
            poisoned: false,
            _marker: PhantomData,
        };
        let err = backend.ingest(vec![vec![1], vec![2]]).unwrap_err();
        assert_eq!(
            err,
            BackendError::WorkerPanicked { rank: 0, message: "shard 0 fell over".into() }
        );
        assert!(backend.is_poisoned());
        assert_eq!(backend.rebalance().unwrap_err(), BackendError::Poisoned);
    }

    #[test]
    fn straggler_timeouts_share_one_deadline() {
        // Two stragglers sleep far past the reply deadline. With a shared
        // deadline the host stalls ~one reply_timeout total; the old
        // per-worker sequential timeouts would stall ~2x. The margin
        // asserted here (< 2 full timeouts) fails on the sequential shape
        // even under scheduler noise.
        let cfg = EngineConfig::new(3).model(MachineModel::free());
        let tuning = ChannelMpTuning::new()
            .reply_timeout(Duration::from_millis(700))
            .proc_timeout(Duration::from_millis(200))
            .fault(Fault::SlowShard { rank: 0, delay: Duration::from_secs(2) })
            .fault(Fault::SlowShard { rank: 1, delay: Duration::from_secs(2) });
        let reply_timeout = tuning.reply_timeout;
        let transport = ThreadTransport::<u64>::new(&cfg, tuning);
        let mut backend = MessagePassing::<u64, _>::start(transport, 3, reply_timeout).unwrap();
        let start = Instant::now();
        let err = backend.ingest(vec![vec![1], vec![2], vec![3]]).unwrap_err();
        let elapsed = start.elapsed();
        assert!(
            matches!(
                err,
                BackendError::WorkerUnresponsive { .. } | BackendError::WorkerPanicked { .. }
            ),
            "{err:?}"
        );
        assert!(
            elapsed < Duration::from_millis(1300),
            "collect loop must share one deadline across stragglers, stalled {elapsed:?}"
        );
        assert!(backend.is_poisoned());
    }
}
