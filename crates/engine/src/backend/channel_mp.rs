//! The thread transport of the message-passing backend: one long-lived
//! worker thread per shard, frames on in-process channels.
//!
//! [`BackendChoice::ChannelMp`](super::BackendChoice::ChannelMp) runs the
//! shared host and serve loop (`super::mp`) over this transport. It is the
//! process transport (`super::socket_mp`) minus the operating system: the
//! same byte frames cross a per-worker channel instead of a socket, each
//! worker's deployment configuration is moved (not serialized) into its
//! thread exactly as argv and config files reach a remote shard process out
//! of band, and each membership epoch's collective fabric is a fresh set of
//! in-process [`cgselect_runtime::Proc`]s (from
//! [`cgselect_runtime::Machine::procs`], the same fabric `LocalSpmd` rides —
//! which is what keeps collective-round counts identical across backends)
//! handed to the workers over a typed side channel. Everything is
//! deterministic and in one address space, so this is also where [`Fault`]
//! injection lives: the conformance harness forces a worker panic
//! mid-batch, a lost reply or a straggling shard and pins the typed error,
//! the poisoning and the recovery at the backend boundary.

use std::borrow::Cow;
use std::marker::PhantomData;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;
use std::time::Duration;

use cgselect_runtime::{Key, Machine, Proc};

use crate::EngineConfig;

use super::mp::{self, Fabric, FramePipe, Transport};
use super::protocol::WorkerConfig;
use super::{BackendError, BackendKind};

/// Tuning (and test instrumentation) of
/// [`BackendChoice::ChannelMp`](super::BackendChoice::ChannelMp) engines.
#[derive(Clone, Debug)]
pub struct ChannelMpTuning {
    /// How long the host waits for the round's reply frames before
    /// declaring the silent workers [`BackendError::WorkerUnresponsive`]
    /// and poisoning the backend. One deadline covers the whole collect
    /// loop. Keep comfortably **above** `proc_timeout`: when a worker dies
    /// mid-collective its surviving peers may only report (as
    /// `RunError::RecvTimeout` fallout) after `proc_timeout` has elapsed,
    /// and those reports must reach the host before the reply deadline
    /// fires or typed root causes degrade to spurious `WorkerUnresponsive`.
    pub reply_timeout: Duration,
    /// The workers' collective receive timeout (how long a shard blocked in
    /// a collective waits for a dead peer before failing itself).
    pub proc_timeout: Duration,
    /// Injected faults, for exercising the failure paths deterministically.
    pub faults: Vec<Fault>,
}

impl Default for ChannelMpTuning {
    fn default() -> Self {
        ChannelMpTuning {
            // 2x the collective timeout: headroom for peers' timeout
            // reports to arrive before the host declares silence.
            reply_timeout: Duration::from_secs(60),
            proc_timeout: Duration::from_secs(30),
            faults: Vec::new(),
        }
    }
}

impl ChannelMpTuning {
    /// Defaults: 60 s reply timeout, 30 s collective timeout, no faults.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builder-style reply-timeout choice.
    pub fn reply_timeout(mut self, timeout: Duration) -> Self {
        self.reply_timeout = timeout;
        self
    }

    /// Builder-style collective-timeout choice.
    pub fn proc_timeout(mut self, timeout: Duration) -> Self {
        self.proc_timeout = timeout;
        self
    }

    /// Builder-style fault injection.
    pub fn fault(mut self, fault: Fault) -> Self {
        self.faults.push(fault);
        self
    }
}

/// An injected fault, for pinning down the message-passing backend's
/// typed-error, poisoning and recovery behavior in tests. Faults are keyed
/// by rank and fire in the worker's data-plane dispatch; control verbs
/// (fabric wiring, migration, ping) are never faulted.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Fault {
    /// Worker `rank` panics *mid-batch* while serving its `nth`
    /// batch-execute command (0-based): it enters the batch's opening
    /// barrier, then dies, leaving its peers mid-collective.
    PanicOnExecute {
        /// The faulty worker.
        rank: usize,
        /// Which of its execute commands triggers the panic.
        nth: u64,
    },
    /// Worker `rank` executes its `nth` batch-execute command to completion
    /// but its reply frame is lost (never sent).
    DropReplyOnExecute {
        /// The faulty worker.
        rank: usize,
        /// Which of its execute commands loses its reply.
        nth: u64,
    },
    /// Worker `rank` sleeps `delay` before serving every data-plane command
    /// — a straggling shard. Must be well below both timeouts; the program
    /// still completes correctly, just later.
    SlowShard {
        /// The slow worker.
        rank: usize,
        /// Extra latency per command.
        delay: Duration,
    },
}

/// The thread transport (see the [module docs](self)).
pub(crate) struct ThreadTransport<T> {
    cfg: EngineConfig,
    tuning: ChannelMpTuning,
    _marker: PhantomData<fn(T)>,
}

impl<T: Key> ThreadTransport<T> {
    pub(crate) fn new(cfg: &EngineConfig, tuning: ChannelMpTuning) -> Self {
        ThreadTransport { cfg: cfg.clone(), tuning, _marker: PhantomData }
    }
}

/// One live shard worker thread, as the host holds it.
pub(crate) struct ThreadLink {
    cmd: Sender<Vec<u8>>,
    reply: Receiver<Vec<u8>>,
    /// The typed side channel each epoch's `Proc` is staged on.
    fabrics: Sender<(u64, Proc)>,
    handle: JoinHandle<()>,
}

impl<T: Key> Transport for ThreadTransport<T> {
    type Link = ThreadLink;

    const KIND: BackendKind = BackendKind::ChannelMp;

    fn spawn(&mut self, rank: usize) -> Result<ThreadLink, BackendError> {
        let (cmd, commands) = channel::<Vec<u8>>();
        let (replies, reply) = channel::<Vec<u8>>();
        let (fabrics, staged) = channel::<(u64, Proc)>();
        let cfg = WorkerConfig {
            rank,
            sketch_capacity: self.cfg.sketch_capacity,
            selection: self.cfg.selection.clone(),
            balancer: self.cfg.balancer,
        };
        let faults = self.tuning.faults.clone();
        let handle = std::thread::Builder::new()
            .name(format!("cgselect-mp-shard{rank}"))
            .spawn(move || {
                let mut pipe = ChannelPipe { commands, replies };
                let mut fabric = StagedFabric { staged, epoch: 0 };
                mp::serve::<T>(&mut pipe, &mut fabric, cfg, &faults);
            })
            .map_err(|e| BackendError::Spawn { rank, detail: e.to_string() })?;
        Ok(ThreadLink { cmd, reply, fabrics, handle })
    }

    fn send(link: &mut ThreadLink, frame: Cow<'_, [u8]>) -> bool {
        link.cmd.send(frame.into_owned()).is_ok()
    }

    fn replies(link: &ThreadLink) -> &Receiver<Vec<u8>> {
        &link.reply
    }

    fn rewire(&mut self, links: &[ThreadLink], epoch: u64) {
        let machine =
            Machine::with_model(links.len(), self.cfg.model).recv_timeout(self.tuning.proc_timeout);
        for (link, proc) in links.iter().zip(machine.procs()) {
            // A dead worker fails its BIND round; nothing to report here.
            let _ = link.fabrics.send((epoch, proc));
        }
    }

    fn reap(&mut self, link: ThreadLink) {
        // Join-on-reap, mirroring `Session`: a worker that was told to
        // exit (or lost its command channel) returns from its serve loop.
        let _ = link.handle.join();
    }
}

struct ChannelPipe {
    commands: Receiver<Vec<u8>>,
    replies: Sender<Vec<u8>>,
}

impl FramePipe for ChannelPipe {
    fn recv(&mut self) -> Option<Vec<u8>> {
        self.commands.recv().ok()
    }

    fn send(&mut self, frame: Vec<u8>) -> bool {
        self.replies.send(frame).is_ok()
    }
}

/// The worker's end of the fabric side channel: BIND names the epoch,
/// CONNECT takes that epoch's staged `Proc` (skipping any left over from a
/// rewire that failed part-way).
struct StagedFabric {
    staged: Receiver<(u64, Proc)>,
    epoch: u64,
}

impl Fabric for StagedFabric {
    fn bind(&mut self, epoch: u64, _rank: usize, _p: usize) -> Result<(), String> {
        self.epoch = epoch;
        Ok(())
    }

    fn connect(&mut self) -> Result<Proc, String> {
        while let Ok((epoch, proc)) = self.staged.try_recv() {
            if epoch == self.epoch {
                return Ok(proc);
            }
        }
        Err(format!("no fabric staged for epoch {}", self.epoch))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_tuning_gives_reply_deadline_headroom() {
        // Peers report a dead rank only after proc_timeout; the host's
        // reply deadline must sit beyond that or root causes degrade to
        // WorkerUnresponsive.
        let t = ChannelMpTuning::default();
        assert!(t.reply_timeout >= t.proc_timeout + t.proc_timeout / 2);
    }
}
