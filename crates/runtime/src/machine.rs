//! The SPMD machine: spawns `p` virtual processors and joins their results.

use std::sync::mpsc::channel;
use std::time::Duration;

use crate::envelope::Envelope;
use crate::model::MachineModel;
use crate::process::Proc;
use crate::wiremsg::{WireMsg, WireMsgError, WireReader};

/// A coarse-grained parallel machine with `p` virtual processors.
///
/// [`Machine::run`] executes one SPMD program: the closure is invoked once
/// per processor (each on its own OS thread) with a [`Proc`] handle, and the
/// per-processor return values are collected in rank order.
///
/// ```
/// use cgselect_runtime::Machine;
/// let ranks = Machine::new(3).run(|p| p.rank()).unwrap();
/// assert_eq!(ranks, vec![0, 1, 2]);
/// ```
#[derive(Clone, Debug)]
pub struct Machine {
    p: usize,
    model: MachineModel,
    recv_timeout: Duration,
}

/// Error raised when an SPMD program fails — one typed value end to end:
/// the runtime's fallout sites unwind with it, a caught unwind is read back
/// through [`RunError::from_unwind`], and out-of-process backends carry it
/// in their reply frames with its [`WireMsg`] codec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// A virtual processor panicked; carries the rank and panic message of
    /// the first failing rank.
    ProcPanicked {
        /// Rank of the panicking processor.
        rank: usize,
        /// Panic payload rendered as a string.
        message: String,
    },
    /// The SPMD program completed but left unconsumed messages behind,
    /// which indicates mismatched communication.
    PendingMessages {
        /// Rank holding the messages.
        rank: usize,
        /// Human-readable summary of the leftover envelopes.
        detail: String,
    },
    /// The SPMD program completed with phase timers still open.
    UnbalancedPhases {
        /// Rank with the open phase.
        rank: usize,
    },
    /// The persistent [`crate::Session`] refused to run because an earlier
    /// program in it failed, leaving worker state untrustworthy.
    SessionPoisoned,
    /// A frame crossing a process boundary failed to decode (truncated,
    /// version-mismatched, or corrupt) — raised by out-of-process execution
    /// backends instead of aborting on a half-written frame.
    WireProtocol {
        /// Rank (worker) whose frame failed to decode.
        rank: usize,
        /// Human-readable description of the decode failure.
        detail: String,
    },
    /// A peer's end of the link closed under a send to it or a receive
    /// from it: fallout of that peer's own failure.
    PeerLost {
        /// Rank that lost the peer.
        rank: usize,
        /// The peer whose link closed.
        peer: usize,
        /// Tag of the message being sent or awaited.
        tag: u64,
    },
    /// A receive waited out the machine's receive timeout — fallout of a
    /// peer's failure, or mismatched SPMD communication.
    RecvTimeout {
        /// Rank that timed out.
        rank: usize,
        /// Source the receive was waiting on.
        src: usize,
        /// Tag the receive was waiting on.
        tag: u64,
        /// The wait, the virtual time and the stashed messages.
        detail: String,
    },
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::ProcPanicked { rank, message } => {
                write!(f, "virtual processor {rank} panicked: {message}")
            }
            RunError::PendingMessages { rank, detail } => {
                write!(f, "processor {rank} finished with unconsumed messages: {detail}")
            }
            RunError::UnbalancedPhases { rank } => {
                write!(f, "processor {rank} finished with an unclosed phase timer")
            }
            RunError::SessionPoisoned => {
                write!(f, "session poisoned by an earlier failed program")
            }
            RunError::WireProtocol { rank, detail } => {
                write!(f, "worker {rank} wire protocol error: {detail}")
            }
            RunError::PeerLost { rank, peer, tag } => write!(
                f,
                "proc {rank} lost peer {peer} at tag {tag:#x}: its end of the link closed \
                 (the peer likely panicked)"
            ),
            RunError::RecvTimeout { rank, src, tag, detail } => write!(
                f,
                "proc {rank} timed out waiting for (src={src}, tag={tag:#x}) after {detail} — \
                 this usually means mismatched SPMD communication (a peer never sent, or sent \
                 under a different tag)"
            ),
        }
    }
}

impl std::error::Error for RunError {}

impl Machine {
    /// Creates a machine with `p` processors and the default (CM-5) model.
    ///
    /// # Panics
    /// Panics if `p == 0`.
    pub fn new(p: usize) -> Self {
        Self::with_model(p, MachineModel::default())
    }

    /// Creates a machine with `p` processors and an explicit cost model.
    pub fn with_model(p: usize, model: MachineModel) -> Self {
        assert!(p >= 1, "a machine needs at least one processor");
        Machine { p, model, recv_timeout: Duration::from_secs(30) }
    }

    /// Overrides the receive timeout used to diagnose deadlocks (default 30s).
    pub fn recv_timeout(mut self, timeout: Duration) -> Self {
        self.recv_timeout = timeout;
        self
    }

    /// Number of processors.
    pub fn nprocs(&self) -> usize {
        self.p
    }

    /// The configured receive timeout (shared with sessions started from
    /// this machine).
    pub(crate) fn timeout(&self) -> Duration {
        self.recv_timeout
    }

    /// The machine's cost model.
    pub fn model(&self) -> MachineModel {
        self.model
    }

    /// Runs one SPMD program and returns the per-rank results in rank order.
    ///
    /// After the user closure returns, the runtime executes a final barrier
    /// and verifies that no processor holds unconsumed messages and that all
    /// phase timers are closed — turning protocol bugs into hard errors
    /// instead of silent corruption of the next run.
    pub fn run<F, R>(&self, f: F) -> Result<Vec<R>, RunError>
    where
        F: Fn(&mut Proc) -> R + Send + Sync,
        R: Send,
    {
        let results: Vec<Result<R, RunError>> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .procs()
                .into_iter()
                .map(|mut proc| {
                    let f = &f;
                    scope.spawn(move || {
                        let out = f(&mut proc);
                        // End-of-run protocol check: everyone synchronizes,
                        // then no messages may remain anywhere.
                        proc.finish_program().map(|()| out)
                    })
                })
                .collect();
            handles
                .into_iter()
                .enumerate()
                .map(|(rank, h)| h.join().unwrap_or_else(|p| Err(RunError::from_unwind(rank, p))))
                .collect()
        });
        root_cause(results)
    }
}

/// The per-rank results of one program in rank order, or its root cause:
/// the first failure that is not fallout of another rank's
/// ([`RunError::is_secondary`]), else the first fallout. Shared by
/// [`Machine::run`] and [`crate::Session::run`].
pub(crate) fn root_cause<R>(
    results: impl IntoIterator<Item = Result<R, RunError>>,
) -> Result<Vec<R>, RunError> {
    let mut out = Vec::new();
    let mut failures = Vec::new();
    for r in results {
        match r {
            Ok(v) => out.push(v),
            Err(e) => failures.push(e),
        }
    }
    failures.into_iter().min_by_key(RunError::is_secondary).map_or(Ok(out), Err)
}

impl RunError {
    /// True for the runtime's own fallout — [`RunError::PeerLost`] and
    /// [`RunError::RecvTimeout`], which a rank raises because *another*
    /// rank failed. [`Machine::run`] and [`crate::Session`] report root
    /// causes instead of fallout; external execution backends that collect
    /// per-worker failures themselves should apply the same triage.
    pub fn is_secondary(&self) -> bool {
        matches!(self, RunError::PeerLost { .. } | RunError::RecvTimeout { .. })
    }

    /// The error a caught unwind of processor `rank` stands for: the typed
    /// [`RunError`] it unwound with, else [`RunError::ProcPanicked`] with
    /// the panic message. Every backend that `catch_unwind`s its workers
    /// reads the payload through it.
    pub fn from_unwind(rank: usize, payload: Box<dyn std::any::Any + Send>) -> RunError {
        if let Some(err) = payload.downcast_ref::<RunError>() {
            return err.clone();
        }
        let message = match (payload.downcast_ref::<String>(), payload.downcast_ref::<&str>()) {
            (Some(s), _) => s.clone(),
            (None, Some(s)) => s.to_string(),
            (None, None) => "<non-string panic payload>".to_string(),
        };
        RunError::ProcPanicked { rank, message }
    }

    /// This error as raised on `rank` (the rank of every variant that names
    /// one is set): how a host stamps an error decoded off a worker's reply
    /// frame, whose rank is not on the wire.
    pub fn at_rank(mut self, at: usize) -> RunError {
        match &mut self {
            RunError::ProcPanicked { rank, .. }
            | RunError::PendingMessages { rank, .. }
            | RunError::UnbalancedPhases { rank }
            | RunError::WireProtocol { rank, .. }
            | RunError::PeerLost { rank, .. }
            | RunError::RecvTimeout { rank, .. } => *rank = at,
            RunError::SessionPoisoned => {}
        }
        self
    }
}

/// One variant byte, then the variant's fields in declaration order — all
/// but `rank`: the receiver knows it from the link the error arrived on
/// and stamps it with [`RunError::at_rank`] (a decoded error reads rank 0).
impl WireMsg for RunError {
    fn wire_encode(&self, out: &mut Vec<u8>) {
        match self {
            RunError::ProcPanicked { message, .. } => (0u8, message.clone()).wire_encode(out),
            RunError::PendingMessages { detail, .. } => (1u8, detail.clone()).wire_encode(out),
            RunError::UnbalancedPhases { .. } => 2u8.wire_encode(out),
            RunError::SessionPoisoned => 3u8.wire_encode(out),
            RunError::WireProtocol { detail, .. } => (4u8, detail.clone()).wire_encode(out),
            RunError::PeerLost { peer, tag, .. } => (5u8, *peer, *tag).wire_encode(out),
            RunError::RecvTimeout { src, tag, detail, .. } => {
                (6u8, *src, *tag, detail.clone()).wire_encode(out)
            }
        }
    }

    fn wire_decode(r: &mut WireReader<'_>) -> Result<Self, WireMsgError> {
        let rank = 0;
        Ok(match u8::wire_decode(r)? {
            0 => RunError::ProcPanicked { rank, message: String::wire_decode(r)? },
            1 => RunError::PendingMessages { rank, detail: String::wire_decode(r)? },
            2 => RunError::UnbalancedPhases { rank },
            3 => RunError::SessionPoisoned,
            4 => RunError::WireProtocol { rank, detail: String::wire_decode(r)? },
            5 => {
                let (peer, tag) = WireMsg::wire_decode(r)?;
                RunError::PeerLost { rank, peer, tag }
            }
            6 => {
                let (src, tag, detail) = WireMsg::wire_decode(r)?;
                RunError::RecvTimeout { rank, src, tag, detail }
            }
            b => return Err(WireMsgError::new(format!("unknown RunError variant {b:#x}"))),
        })
    }
}

impl Machine {
    /// Builds the `p` connected [`Proc`] handles of this machine without
    /// running anything: the virtual crossbar is wired up and each handle
    /// can be moved onto a caller-owned worker thread.
    ///
    /// This is the constructor for execution backends that manage their own
    /// long-lived workers — [`crate::Session`] spawns and owns its threads
    /// for you, whereas a message-passing engine backend wants to own each
    /// shard's thread and command loop itself. The handles must be driven
    /// together (collectives block until every rank participates), every
    /// program a backend runs over them must end with
    /// [`Proc::finish_program`], and the backend must gate program
    /// boundaries — collect every rank's result before issuing the next
    /// program, as `Session` does through its result channels — or a fast
    /// rank's next-program messages race the slow ranks' end-of-program
    /// checks.
    pub fn procs(&self) -> Vec<Proc> {
        let mut txs = Vec::with_capacity(self.p);
        let mut rxs = Vec::with_capacity(self.p);
        for _ in 0..self.p {
            let (tx, rx) = channel::<Envelope>();
            txs.push(tx);
            rxs.push(rx);
        }
        rxs.into_iter()
            .enumerate()
            .map(|(rank, rx)| {
                Proc::new(rank, self.p, self.model, txs.clone(), rx, self.recv_timeout)
            })
            .collect()
    }

    /// Builds the [`Proc`] handle for one rank of this machine over an
    /// out-of-process transport: the caller supplies a
    /// [`crate::fabric::FabricLink`] carrying encoded frames between the
    /// peers (e.g. Unix-domain sockets between shard worker processes),
    /// and the runtime layers its virtual clock, `(src, tag)` matching and
    /// collectives on top.
    ///
    /// Each of the machine's `p` ranks must be constructed exactly once
    /// (typically one per process) against links that are wired to each
    /// other; the SPMD discipline and the per-program
    /// [`Proc::finish_program`] protocol are the same as for
    /// [`Machine::procs`]. Because modeled message sizes are computed before
    /// encoding, a program run over a fabric produces bit-identical virtual
    /// times and collective counts to the same program run in process.
    ///
    /// # Panics
    /// Panics if `rank >= p`.
    pub fn fabric_proc(&self, rank: usize, link: Box<dyn crate::fabric::FabricLink>) -> Proc {
        assert!(rank < self.p, "fabric rank {rank} out of range (p = {})", self.p);
        Proc::new_fabric(rank, self.p, self.model, link, self.recv_timeout)
    }

    /// Runs an SPMD program where each processor starts from its slice of
    /// pre-distributed input data — the common pattern of every experiment
    /// in this repository (`parts[rank]` is cloned into rank's closure).
    ///
    /// # Panics
    /// Panics if `parts.len() != p`.
    pub fn run_distributed<T, F, R>(&self, parts: &[Vec<T>], f: F) -> Result<Vec<R>, RunError>
    where
        T: Clone + Send + Sync,
        F: Fn(&mut Proc, Vec<T>) -> R + Send + Sync,
        R: Send,
    {
        assert_eq!(parts.len(), self.p, "need exactly one input vector per processor");
        self.run(|proc| f(proc, parts[proc.rank()].clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_in_rank_order() {
        let out = Machine::new(5).run(|p| p.rank() * 10).unwrap();
        assert_eq!(out, vec![0, 10, 20, 30, 40]);
    }

    #[test]
    fn single_proc_machine_works() {
        let out = Machine::new(1).run(|p| (p.rank(), p.nprocs())).unwrap();
        assert_eq!(out, vec![(0, 1)]);
    }

    #[test]
    #[should_panic(expected = "at least one processor")]
    fn zero_procs_rejected() {
        let _ = Machine::new(0);
    }

    #[test]
    fn panic_is_reported_with_rank() {
        let err = Machine::new(3)
            .recv_timeout(Duration::from_millis(200))
            .run(|p| {
                if p.rank() == 1 {
                    panic!("boom at rank one");
                }
                p.rank()
            })
            .unwrap_err();
        match err {
            RunError::ProcPanicked { rank: 1, message } => {
                assert!(message.contains("boom at rank one"), "message: {message}")
            }
            other => panic!("unexpected error: {other:?}"),
        }
    }

    #[test]
    fn leftover_messages_are_detected() {
        let err = Machine::new(2)
            .run(|p| {
                if p.rank() == 0 {
                    p.send(1, 7, 42u32); // never received
                }
            })
            .unwrap_err();
        match err {
            RunError::PendingMessages { rank: 1, detail } => {
                assert_eq!(detail, "stashed (src=0, tag=0x7)")
            }
            other => panic!("unexpected error: {other:?}"),
        }
        // On one processor the final barrier receives nothing, so the stray
        // message is still queued in the channel when the check drains it.
        let err = Machine::new(1).run(|p| p.send(0, 7, 42u32)).unwrap_err();
        match err {
            RunError::PendingMessages { rank: 0, detail } => {
                assert_eq!(detail, "queued (src=0, tag=0x7)")
            }
            other => panic!("unexpected error: {other:?}"),
        }
    }

    #[test]
    fn unbalanced_phase_is_detected() {
        let err = Machine::new(1)
            .run(|p| {
                p.phase_begin("oops");
            })
            .unwrap_err();
        assert_eq!(err, RunError::UnbalancedPhases { rank: 0 });
    }

    #[test]
    fn run_distributed_hands_out_slices() {
        let parts: Vec<Vec<u32>> = vec![vec![1, 2], vec![3], vec![]];
        let out = Machine::new(3)
            .run_distributed(&parts, |proc, mine| (proc.rank(), mine.len()))
            .unwrap();
        assert_eq!(out, vec![(0, 2), (1, 1), (2, 0)]);
    }

    #[test]
    #[should_panic(expected = "one input vector per processor")]
    fn run_distributed_checks_shape() {
        let parts: Vec<Vec<u32>> = vec![vec![1]];
        let _ = Machine::new(2).run_distributed(&parts, |_, v| v.len());
    }

    #[test]
    fn ping_pong_and_virtual_time() {
        let model = MachineModel::new(10.0, 1.0, 0.0); // tau=10s, mu=1 s/byte
        let times = Machine::with_model(2, model)
            .run(|p| {
                if p.rank() == 0 {
                    p.send(1, 1, 5u64); // 8 bytes: sender pays 10 + 8 = 18
                    let v: u64 = p.recv(1, 2);
                    assert_eq!(v, 6);
                } else {
                    let v: u64 = p.recv(0, 1);
                    assert_eq!(v, 5);
                    p.send(0, 2, v + 1);
                }
                p.now()
            })
            .unwrap();
        // rank1: recv completes at max(0, 0+18)+8 = 26; reply send -> 26+18 = 44
        assert_eq!(times[1], 44.0);
        // rank0: send -> 18; reply sent_at=26 arrives 26+18=44; +copy 8 = 52
        assert_eq!(times[0], 52.0);
    }

    #[test]
    fn out_of_order_tags_are_stashed() {
        Machine::new(2)
            .run(|p| {
                if p.rank() == 0 {
                    p.send(1, 10, 1u8);
                    p.send(1, 20, 2u8);
                } else {
                    // Receive in the opposite order of sending.
                    let b: u8 = p.recv(0, 20);
                    let a: u8 = p.recv(0, 10);
                    assert_eq!((a, b), (1, 2));
                }
            })
            .unwrap();
    }

    #[test]
    fn timeout_diagnostic_mentions_peer() {
        let err = Machine::new(2)
            .recv_timeout(Duration::from_millis(100))
            .run(|p| {
                if p.rank() == 0 {
                    let _: u8 = p.recv(1, 99); // never sent
                }
            })
            .unwrap_err();
        match &err {
            RunError::RecvTimeout { rank: 0, src: 1, tag: 0x63, .. } => {
                let message = err.to_string();
                assert!(message.contains("timed out"), "message: {message}");
                assert!(message.contains("tag=0x63"), "message: {message}");
            }
            other => panic!("unexpected error: {other:?}"),
        }
        assert!(err.is_secondary());
    }

    /// Runs `f` on `proc` under `catch_unwind` and reads the unwind back
    /// as the error it carries.
    fn unwound(proc: &mut Proc, f: impl FnOnce(&mut Proc)) -> RunError {
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(proc)))
            .expect_err("the call must unwind");
        RunError::from_unwind(proc.rank(), payload)
    }

    #[test]
    fn a_send_to_a_dropped_peer_unwinds_typed_peer_lost() {
        let mut procs = Machine::new(3).procs();
        drop(procs.remove(2));
        let err = unwound(&mut procs[0], |p| p.send(2, 0x2A, 7u64));
        assert_eq!(err, RunError::PeerLost { rank: 0, peer: 2, tag: 0x2A });
        assert!(err.is_secondary());
    }

    #[test]
    fn a_recv_past_the_timeout_unwinds_typed_recv_timeout() {
        let machine = Machine::new(2).recv_timeout(Duration::from_millis(50));
        let mut procs = machine.procs();
        procs[1].send(0, 5, 1u8); // stashed while rank 0 waits for tag 6
        let err = unwound(&mut procs[0], |p| {
            let _: u8 = p.recv(1, 6);
        });
        let RunError::RecvTimeout { rank: 0, src: 1, tag: 6, .. } = &err else {
            panic!("unexpected error: {err:?}");
        };
        let message = err.to_string();
        for needle in
            ["timed out", "(src=1, tag=0x6)", "50ms", "stashed messages: [(src=1, tag=0x5)]"]
        {
            assert!(message.contains(needle), "{needle:?} missing from: {message}");
        }
    }

    #[test]
    fn from_unwind_renders_plain_panics_as_proc_panicked() {
        let payload = std::panic::catch_unwind(|| panic!("plain {}", 42)).unwrap_err();
        assert_eq!(
            RunError::from_unwind(3, payload),
            RunError::ProcPanicked { rank: 3, message: "plain 42".into() }
        );
        let payload = std::panic::catch_unwind(|| std::panic::panic_any(7u8)).unwrap_err();
        assert!(matches!(
            RunError::from_unwind(1, payload),
            RunError::ProcPanicked { rank: 1, .. }
        ));
    }

    #[test]
    fn run_errors_cross_the_wire_without_their_rank() {
        use crate::wiremsg::{decode_frame, encode_frame};
        for err in [
            RunError::ProcPanicked { rank: 4, message: "boom".into() },
            RunError::PendingMessages { rank: 4, detail: "queued (src=0, tag=0x7)".into() },
            RunError::UnbalancedPhases { rank: 4 },
            RunError::SessionPoisoned,
            RunError::WireProtocol { rank: 4, detail: "bad frame".into() },
            RunError::PeerLost { rank: 4, peer: 1, tag: 0x63 },
            RunError::RecvTimeout { rank: 4, src: 2, tag: 9, detail: "30s".into() },
        ] {
            let decoded: RunError = decode_frame(&encode_frame(&err)).unwrap();
            assert_eq!(decoded.clone().at_rank(4), err);
            assert_eq!(decoded.is_secondary(), err.is_secondary());
            assert_eq!(encode_frame(&decoded), encode_frame(&err), "{err:?}");
        }
        assert!(decode_frame::<RunError>(&[7]).is_err());
    }

    #[test]
    fn the_root_cause_beats_fallout_in_any_rank_order() {
        let lost = RunError::PeerLost { rank: 0, peer: 1, tag: 1 };
        let panicked = RunError::ProcPanicked { rank: 1, message: "x".into() };
        let pick = |rs: Vec<Result<(), RunError>>| root_cause(rs).unwrap_err();
        assert_eq!(pick(vec![Err(lost.clone()), Err(panicked.clone()), Ok(())]), panicked);
        assert_eq!(pick(vec![Err(panicked.clone()), Err(lost.clone())]), panicked);
        assert_eq!(pick(vec![Ok(()), Err(lost.clone())]), lost);
        assert_eq!(root_cause(vec![Ok(1), Ok(2)]), Ok(vec![1, 2]));
    }

    #[test]
    fn type_mismatch_panics_with_expected_type() {
        let err = Machine::new(2)
            .recv_timeout(Duration::from_millis(200))
            .run(|p| {
                if p.rank() == 0 {
                    p.send(1, 3, 1u32);
                } else {
                    let _: u64 = p.recv(0, 3);
                }
            })
            .unwrap_err();
        match err {
            RunError::ProcPanicked { rank: 1, message } => {
                assert!(message.contains("unexpected payload type"), "{message}");
                assert!(message.contains("u64"), "{message}");
            }
            other => panic!("unexpected error: {other:?}"),
        }
    }

    #[test]
    fn vec_messages_model_element_bytes() {
        let model = MachineModel::new(0.0, 1.0, 0.0);
        let out = Machine::with_model(2, model)
            .run(|p| {
                if p.rank() == 0 {
                    p.send_vec(1, 1, vec![1u32, 2, 3]); // 12 bytes
                    p.now()
                } else {
                    let v: Vec<u32> = p.recv_vec(0, 1);
                    assert_eq!(v, vec![1, 2, 3]);
                    p.now()
                }
            })
            .unwrap();
        assert_eq!(out[0], 12.0); // sender: mu * 12
        assert_eq!(out[1], 24.0); // receiver: arrival 12 + copy 12
    }

    #[test]
    fn charge_ops_advances_clock() {
        let model = MachineModel::new(0.0, 0.0, 2.0);
        let out = Machine::with_model(1, model)
            .run(|p| {
                p.charge_ops(5);
                (p.now(), p.ops_charged())
            })
            .unwrap();
        assert_eq!(out[0], (10.0, 5));
    }

    #[test]
    fn procs_fabric_runs_collectives_on_caller_owned_threads() {
        // The external-backend pattern: take the wired-up Proc handles, move
        // each onto its own long-lived worker thread, and run a stream of
        // programs against them. The host must gate program boundaries
        // (collect every worker's reply before issuing the next command) —
        // that is what makes the per-program `finish_program` protocol
        // check race-free, exactly as `Session` gates via its result
        // channels.
        let machine = Machine::with_model(4, MachineModel::free());
        let mut links = Vec::new();
        let handles: Vec<_> = machine
            .procs()
            .into_iter()
            .map(|mut proc| {
                let (cmd_tx, cmd_rx) = channel::<u64>();
                let (res_tx, res_rx) = channel::<u64>();
                links.push((cmd_tx, res_rx));
                std::thread::spawn(move || {
                    while let Ok(round) = cmd_rx.recv() {
                        let s = proc.combine(proc.rank() as u64 + round, |a, b| a + b);
                        proc.finish_program().unwrap();
                        res_tx.send(s).unwrap();
                    }
                    proc.comm_stats().collective_ops
                })
            })
            .collect();
        for round in 0..3u64 {
            for (tx, _) in &links {
                tx.send(round).unwrap();
            }
            let sums: Vec<u64> = links.iter().map(|(_, rx)| rx.recv().unwrap()).collect();
            assert_eq!(sums, vec![6 + 4 * round; 4], "round {round}");
        }
        drop(links); // disconnect: workers exit their command loops
        let ops: Vec<u64> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        // SPMD discipline: every rank counts the same collectives.
        assert!(ops[0] > 0);
        assert_eq!(ops, vec![ops[0]; 4]);
    }

    #[test]
    fn comm_stats_count_messages() {
        let stats = Machine::new(2)
            .run(|p| {
                if p.rank() == 0 {
                    p.send(1, 1, 0u64);
                    p.send_vec(1, 2, vec![0u8; 100]);
                } else {
                    let _: u64 = p.recv(0, 1);
                    let _: Vec<u8> = p.recv_vec(0, 2);
                }
                p.comm_stats()
            })
            .unwrap();
        // Snapshots are taken before the end-of-run barrier, so they are exact.
        assert_eq!(stats[0].msgs_sent, 2);
        assert_eq!(stats[0].bytes_sent, 108);
        assert_eq!(stats[1].msgs_recv, 2);
        assert_eq!(stats[1].bytes_recv, 108);
    }
}
