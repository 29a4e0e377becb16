//! The SPMD machine: spawns `p` virtual processors and joins their results.

use std::sync::mpsc::channel;
use std::time::Duration;

use crate::envelope::Envelope;
use crate::model::MachineModel;
use crate::process::Proc;

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

/// Error raised when an SPMD program fails.
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
        let p = self.p;
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
                .map(|(rank, h)| match h.join() {
                    Ok(r) => r,
                    Err(payload) => {
                        Err(RunError::ProcPanicked { rank, message: panic_message(payload) })
                    }
                })
                .collect()
        });

        let mut out = Vec::with_capacity(p);
        let mut primary_err = None;
        let mut secondary_err = None;
        for r in results {
            match r {
                Ok(v) => out.push(v),
                Err(e) => {
                    // When one processor panics, its peers typically fail
                    // afterwards with timeouts or disconnects while waiting
                    // for it. Report the root cause, not the fallout.
                    if e.is_secondary() {
                        if secondary_err.is_none() {
                            secondary_err = Some(e);
                        }
                    } else if primary_err.is_none() {
                        primary_err = Some(e);
                    }
                }
            }
        }
        match primary_err.or(secondary_err) {
            Some(e) => Err(e),
            None => Ok(out),
        }
    }
}

impl RunError {
    /// True for failures that are usually *consequences* of another
    /// processor's failure (timeouts and disconnects raised by the runtime
    /// itself). [`Machine::run`] and [`crate::Session`] use it to report
    /// root causes instead of fallout; external execution backends that
    /// collect per-worker failures themselves should apply the same
    /// triage.
    pub fn is_secondary(&self) -> bool {
        match self {
            RunError::ProcPanicked { message, .. } => {
                message.contains("timed out after")
                    || message.contains("all senders disconnected")
                    || message.contains("receiver hung up")
            }
            _ => false,
        }
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

/// Renders a caught panic payload (`&str` or `String`) as a message
/// string, for reporting a worker's death. Shared by [`Machine::run`], the
/// [`crate::Session`] worker loop, and external execution backends that
/// `catch_unwind` their own workers.
pub fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
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
        match err {
            RunError::ProcPanicked { rank: 0, message } => {
                assert!(message.contains("timed out"), "message: {message}");
                assert!(message.contains("tag=0x63"), "message: {message}");
            }
            other => panic!("unexpected error: {other:?}"),
        }
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
