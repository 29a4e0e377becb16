//! The process transport of the message-passing backend: one shard worker
//! **process** per rank, every byte on a real socket.
//!
//! [`BackendChoice::SocketMp`](super::BackendChoice::SocketMp) runs the
//! shared host and serve loop (`super::mp`) with the thread boundary of
//! `super::channel_mp` promoted to a process boundary. The host spawns one
//! `cgselect-shard-worker` child per shard and speaks the exact same
//! versioned, sequence-numbered command/reply protocol (`super::protocol`)
//! over a Unix-domain control socket — each frame additionally `u32`-LE
//! length-prefixed, because a stream has no message boundaries (the framing
//! is TCP-ready: nothing below assumes the stream is local). The one frame
//! that exists only here is INIT: the deployment configuration a thread
//! worker receives by move crosses the control socket once, at sequence 0.
//! Shard-to-shard collectives cross a second socket mesh, the **fabric**,
//! rebuilt per membership epoch on fresh epoch-scoped socket paths: each
//! worker implements the runtime's [`cgselect_runtime::FabricLink`]
//! transport over peer sockets and drives an ordinary
//! [`cgselect_runtime::Proc`] through
//! [`cgselect_runtime::Machine::fabric_proc`]. Because the virtual-time
//! model charges modeled bytes computed *before* encoding, and all three
//! backends run the identical `super::ops` shard code, answers,
//! collective-round counts and virtual-time makespans are identical across
//! transports — the property `tests/backend_conformance.rs` pins down.
//!
//! A worker that dies mid-collective (say, by SIGKILL) surfaces within one
//! reply deadline as a typed [`BackendError`] — never a hang — and
//! [`super::ExecBackend::recover`] respawns it.

use std::borrow::Cow;
use std::io::{Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use cgselect_balance::Balancer;
use cgselect_core::{SampleSortAlgo, SelectionConfig};
use cgselect_runtime::wiremsg::encode_slice;
use cgselect_runtime::{
    FabricLink, FabricPoll, FabricRecvError, Key, Machine, MachineModel, OrdF64, Proc, Topology,
    WireEnvelope, WireMsg, WireMsgError,
};
use cgselect_seqsel::LocalKernel;

use crate::EngineConfig;

use super::channel_mp::Fault;
use super::mp::{self, Fabric, FramePipe, Transport};
use super::protocol::{self, WorkerConfig, CMD_INIT, REPLY_OK};
use super::{BackendError, BackendKind};

/// Tuning of [`BackendChoice::SocketMp`](super::BackendChoice::SocketMp)
/// engines.
#[derive(Clone, Debug)]
pub struct SocketMpTuning {
    /// How long the host waits for a round's reply frames before declaring
    /// the silent workers [`BackendError::WorkerUnresponsive`]. One deadline
    /// covers the whole collect loop. Keep comfortably **above**
    /// `proc_timeout` (see [`super::ChannelMpTuning::reply_timeout`]).
    pub reply_timeout: Duration,
    /// The workers' collective receive timeout (how long a shard blocked in
    /// a collective waits for a dead peer before failing itself).
    pub proc_timeout: Duration,
    /// How long the host waits for a spawned worker process to connect and
    /// acknowledge its deployment configuration.
    pub spawn_timeout: Duration,
}

impl Default for SocketMpTuning {
    fn default() -> Self {
        SocketMpTuning {
            reply_timeout: Duration::from_secs(60),
            proc_timeout: Duration::from_secs(30),
            spawn_timeout: Duration::from_secs(10),
        }
    }
}

impl SocketMpTuning {
    /// Defaults: 60 s reply timeout, 30 s collective timeout, 10 s spawn
    /// timeout.
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

    /// Builder-style spawn-timeout choice.
    pub fn spawn_timeout(mut self, timeout: Duration) -> Self {
        self.spawn_timeout = timeout;
        self
    }
}

// ---------------------------------------------------------------------
// Stream framing: every protocol frame on a byte stream is u32-LE
// length-prefixed. Nothing here assumes Unix sockets specifically — the
// same functions would drive a TcpStream.
// ---------------------------------------------------------------------

/// Upper bound on a single frame (1 GiB) — a corrupt length prefix must
/// not trigger a gigantic allocation.
const MAX_FRAME_BYTES: u32 = 1 << 30;

fn write_stream_frame(w: &mut impl Write, frame: &[u8]) -> std::io::Result<()> {
    w.write_all(&(frame.len() as u32).to_le_bytes())?;
    w.write_all(frame)?;
    w.flush()
}

fn read_stream_frame(r: &mut impl Read) -> std::io::Result<Vec<u8>> {
    let mut len = [0u8; 4];
    r.read_exact(&mut len)?;
    let len = u32::from_le_bytes(len);
    if len > MAX_FRAME_BYTES {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds the {MAX_FRAME_BYTES}-byte cap"),
        ));
    }
    let mut buf = vec![0u8; len as usize];
    r.read_exact(&mut buf)?;
    Ok(buf)
}

/// Locates the `cgselect-shard-worker` binary: the `CGSELECT_WORKER_BIN`
/// environment variable wins; otherwise walk up from the current
/// executable's directory (test binaries live in `target/debug/deps`, the
/// worker in `target/debug`).
fn discover_worker_bin() -> Result<PathBuf, String> {
    if let Ok(p) = std::env::var("CGSELECT_WORKER_BIN") {
        let p = PathBuf::from(p);
        if p.is_file() {
            return Ok(p);
        }
        return Err(format!("CGSELECT_WORKER_BIN={} is not a file", p.display()));
    }
    let exe = std::env::current_exe().map_err(|e| format!("current_exe failed: {e}"))?;
    for dir in exe.ancestors().skip(1) {
        let cand = dir.join("cgselect-shard-worker");
        if cand.is_file() {
            return Ok(cand);
        }
    }
    Err(format!(
        "cgselect-shard-worker binary not found near {} (build it with \
         `cargo build -p cgselect-engine --bins` or set CGSELECT_WORKER_BIN)",
        exe.display()
    ))
}

fn spawn_err(rank: usize) -> impl Fn(std::io::Error) -> BackendError {
    move |e| BackendError::Spawn { rank, detail: e.to_string() }
}

static DIR_COUNTER: AtomicU64 = AtomicU64::new(0);

fn fabric_path(dir: &Path, epoch: u64, rank: usize) -> PathBuf {
    dir.join(format!("fab-e{epoch}-r{rank}.sock"))
}

// ---------------------------------------------------------------------
// Enum byte codecs for the deployment configuration (INIT frame).
// ---------------------------------------------------------------------

fn balancer_to_u8(b: Balancer) -> u8 {
    match b {
        Balancer::None => 0,
        Balancer::Omlb => 1,
        Balancer::ModOmlb => 2,
        Balancer::DimExchange => 3,
        Balancer::GlobalExchange => 4,
    }
}

fn balancer_from_u8(v: u8) -> Option<Balancer> {
    Some(match v {
        0 => Balancer::None,
        1 => Balancer::Omlb,
        2 => Balancer::ModOmlb,
        3 => Balancer::DimExchange,
        4 => Balancer::GlobalExchange,
        _ => return None,
    })
}

fn topology_to_u8(t: Topology) -> u8 {
    match t {
        Topology::Crossbar => 0,
        Topology::Hypercube => 1,
        Topology::Mesh2D => 2,
    }
}

fn topology_from_u8(v: u8) -> Option<Topology> {
    Some(match v {
        0 => Topology::Crossbar,
        1 => Topology::Hypercube,
        2 => Topology::Mesh2D,
        _ => return None,
    })
}

fn kernel_to_u8(k: Option<LocalKernel>) -> u8 {
    match k {
        None => 0,
        Some(LocalKernel::Deterministic) => 1,
        Some(LocalKernel::Randomized) => 2,
        Some(LocalKernel::IntroSelect) => 3,
    }
}

fn kernel_from_u8(v: u8) -> Option<Option<LocalKernel>> {
    Some(match v {
        0 => None,
        1 => Some(LocalKernel::Deterministic),
        2 => Some(LocalKernel::Randomized),
        3 => Some(LocalKernel::IntroSelect),
        _ => return None,
    })
}

fn sort_to_u8(s: SampleSortAlgo) -> u8 {
    match s {
        SampleSortAlgo::Psrs => 0,
        SampleSortAlgo::Bitonic => 1,
        SampleSortAlgo::GatherSort => 2,
    }
}

fn sort_from_u8(v: u8) -> Option<SampleSortAlgo> {
    Some(match v {
        0 => SampleSortAlgo::Psrs,
        1 => SampleSortAlgo::Bitonic,
        2 => SampleSortAlgo::GatherSort,
        _ => return None,
    })
}

/// The INIT fields after the socket directory, four to a group: the machine
/// model (its `hop_cost` opens the second group), the selection config,
/// and last the engine's balancer.
type InitTail = ((f64, f64, f64, u8), (f64, u64, u8, usize), (usize, f64, f64, u8), (u8, u64, u8));

/// Encodes the INIT command: `(wire tag, rank, sketch capacity, proc timeout
/// in ns)`, the socket directory, then [`InitTail`]. The leading wire tag
/// names the element type so the (monomorphic) worker binary can dispatch
/// to the right `serve::<T>`.
pub(super) fn encode_init(
    wire_tag: u8,
    rank: usize,
    cfg: &EngineConfig,
    proc_timeout: Duration,
    dir: &Path,
) -> Vec<u8> {
    let mut out = vec![CMD_INIT];
    (wire_tag, rank, cfg.sketch_capacity, proc_timeout.as_nanos() as u64).wire_encode(&mut out);
    encode_slice(dir.display().to_string().as_bytes(), &mut out);
    let (m, s) = (&cfg.model, &cfg.selection);
    let tail: InitTail = (
        (m.tau, m.mu, m.t_op, topology_to_u8(m.topology)),
        (m.hop_cost, s.seed, balancer_to_u8(s.balancer), s.threshold_coeff),
        (s.min_sequential, s.epsilon, s.delta_coeff, kernel_to_u8(s.local_kernel)),
        (sort_to_u8(s.sample_sort), u64::from(s.max_iters), balancer_to_u8(cfg.balancer)),
    );
    tail.wire_encode(&mut out);
    out
}

/// Parses the INIT command into the element type's wire tag and everything
/// a worker process needs to serve: its deployment configuration and the
/// (still unbound) fabric mesh.
pub(super) fn decode_init(body: &[u8]) -> Result<(u8, WorkerConfig, SocketMesh), WireMsgError> {
    let bad = |what: &str| WireMsgError::new(format!("bad INIT field: {what}"));
    let ((wire_tag, rank, sketch_capacity, timeout_ns), dir, tail) =
        protocol::decode_fields::<((u8, usize, usize, u64), Vec<u8>, InitTail)>(body)?;
    let (
        (tau, mu, t_op, topology),
        (hop_cost, seed, sel_balancer, threshold_coeff),
        (min_sequential, epsilon, delta_coeff, kernel),
        (sort, max_iters, balancer),
    ) = tail;
    let topology = topology_from_u8(topology).ok_or_else(|| bad("topology"))?;
    let model = MachineModel { tau, mu, t_op, topology, hop_cost };
    let selection = SelectionConfig {
        seed,
        balancer: balancer_from_u8(sel_balancer).ok_or_else(|| bad("selection balancer"))?,
        threshold_coeff,
        min_sequential,
        epsilon,
        delta_coeff,
        local_kernel: kernel_from_u8(kernel).ok_or_else(|| bad("local kernel"))?,
        sample_sort: sort_from_u8(sort).ok_or_else(|| bad("sample sort"))?,
        max_iters: u32::try_from(max_iters).map_err(|_| bad("max_iters"))?,
    };
    let balancer = balancer_from_u8(balancer).ok_or_else(|| bad("engine balancer"))?;
    let cfg = WorkerConfig { rank, sketch_capacity, selection, balancer };
    let dir = PathBuf::from(String::from_utf8_lossy(&dir).into_owned());
    Ok((
        wire_tag,
        cfg,
        SocketMesh { dir, model, proc_timeout: Duration::from_nanos(timeout_ns), bound: None },
    ))
}

// =====================================================================
// Host side
// =====================================================================

/// One live shard worker process, as the host sees it.
pub(crate) struct WorkerHandle {
    child: Child,
    /// Write half of the control socket (commands flow here).
    stream: UnixStream,
    /// Reply frames, pumped off the read half by `reader`.
    reply: Receiver<Vec<u8>>,
    reader: JoinHandle<()>,
}

/// The process transport (see the [module docs](self)).
pub(crate) struct SocketTransport {
    dir: PathBuf,
    bin: PathBuf,
    cfg: EngineConfig,
    tuning: SocketMpTuning,
    /// The element type's wire tag, sent in every INIT frame.
    wire_tag: u8,
    /// Monotonic spawn counter: control-socket paths stay unique across
    /// worker generations at the same rank.
    spawns: u64,
}

impl SocketTransport {
    /// Locates the worker binary and creates this engine's socket directory.
    pub(crate) fn new<T: Key>(
        cfg: &EngineConfig,
        tuning: SocketMpTuning,
    ) -> Result<Self, BackendError> {
        let bin =
            discover_worker_bin().map_err(|detail| BackendError::Spawn { rank: 0, detail })?;
        let dir = std::env::temp_dir().join(format!(
            "cgselect-mp-{}-{}",
            std::process::id(),
            DIR_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).map_err(spawn_err(0))?;
        Ok(SocketTransport { dir, bin, cfg: cfg.clone(), tuning, wire_tag: T::WIRE_TAG, spawns: 0 })
    }
}

impl SocketTransport {
    /// Accepts the child's control connection, sends INIT (the one
    /// out-of-band frame, sequence 0 — everything after it is the shared
    /// protocol), checks the acknowledgement and starts the reply pump.
    #[allow(clippy::type_complexity)]
    fn handshake(
        &self,
        rank: usize,
        listener: &UnixListener,
        child: &mut Child,
    ) -> Result<(UnixStream, Receiver<Vec<u8>>, JoinHandle<()>), BackendError> {
        let err = spawn_err(rank);
        let refused = |detail: &str| BackendError::Spawn { rank, detail: detail.into() };
        listener.set_nonblocking(true).map_err(&err)?;
        let deadline = Instant::now() + self.tuning.spawn_timeout;
        let mut stream = loop {
            match listener.accept() {
                Ok((s, _)) => break s,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    if child.try_wait().map_err(&err)?.is_some() || Instant::now() > deadline {
                        return Err(refused("worker process did not connect its control socket"));
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(e) => return Err(err(e)),
            }
        };
        stream.set_nonblocking(false).map_err(&err)?;
        let init = encode_init(self.wire_tag, rank, &self.cfg, self.tuning.proc_timeout, &self.dir);
        write_stream_frame(&mut stream, &protocol::encode_framed(0, &init)).map_err(&err)?;
        stream.set_read_timeout(Some(self.tuning.spawn_timeout)).map_err(&err)?;
        let ack = read_stream_frame(&mut stream).map_err(&err)?;
        stream.set_read_timeout(None).map_err(&err)?;
        if !matches!(protocol::split_framed(&ack), Ok((0, [REPLY_OK]))) {
            return Err(refused("worker rejected its deployment configuration"));
        }
        let mut read_half = stream.try_clone().map_err(&err)?;
        let (tx, rx) = channel::<Vec<u8>>();
        let reader = std::thread::Builder::new()
            .name(format!("cgselect-socket-host-r{rank}"))
            .spawn(move || {
                // EOF or error ends the pump; dropping tx disconnects the
                // reply channel, which the collect loop reports as
                // WorkerUnresponsive.
                while let Ok(frame) = read_stream_frame(&mut read_half) {
                    if tx.send(frame).is_err() {
                        break;
                    }
                }
            })
            .map_err(&err)?;
        Ok((stream, rx, reader))
    }
}

impl Drop for SocketTransport {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

impl Transport for SocketTransport {
    type Link = WorkerHandle;

    const KIND: BackendKind = BackendKind::SocketMp;

    /// Spawns one worker process, hands it the deployment configuration
    /// over its fresh control socket and waits for the acknowledgement.
    fn spawn(&mut self, rank: usize) -> Result<WorkerHandle, BackendError> {
        let err = spawn_err(rank);
        self.spawns += 1;
        let ctrl = self.dir.join(format!("ctrl-{}.sock", self.spawns));
        let listener = UnixListener::bind(&ctrl).map_err(&err)?;
        let mut child =
            Command::new(&self.bin).arg(&ctrl).stdin(Stdio::null()).spawn().map_err(&err)?;
        let shaken = self.handshake(rank, &listener, &mut child);
        let _ = std::fs::remove_file(&ctrl);
        match shaken {
            Ok((stream, reply, reader)) => Ok(WorkerHandle { child, stream, reply, reader }),
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                Err(e)
            }
        }
    }

    fn send(link: &mut WorkerHandle, frame: Cow<'_, [u8]>) -> bool {
        write_stream_frame(&mut link.stream, &frame).is_ok()
    }

    fn replies(link: &WorkerHandle) -> &Receiver<Vec<u8>> {
        &link.reply
    }

    /// Nothing to stage host-side: the workers build each epoch's mesh
    /// themselves, on socket paths the BIND round's epoch names.
    fn rewire(&mut self, _links: &[WorkerHandle], _epoch: u64) {}

    /// Reaps the child, escalating to SIGKILL if it ignores EXIT.
    fn reap(&mut self, mut link: WorkerHandle) {
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            match link.child.try_wait() {
                Ok(Some(_)) => break,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    let _ = link.child.kill();
                    let _ = link.child.wait();
                    break;
                }
            }
        }
        let _ = link.reader.join();
    }

    fn pid(link: &WorkerHandle) -> Option<u32> {
        Some(link.child.id())
    }
}

impl FramePipe for UnixStream {
    fn recv(&mut self) -> Option<Vec<u8>> {
        read_stream_frame(self).ok()
    }

    fn send(&mut self, frame: Vec<u8>) -> bool {
        write_stream_frame(self, &frame).is_ok()
    }
}

// =====================================================================
// Worker side
// =====================================================================

/// Events the per-peer fabric reader threads feed the link's queue.
enum FabricEvent {
    Env(WireEnvelope),
    Down(usize),
}

/// [`FabricLink`] over a Unix-socket mesh: one stream per peer (the
/// lower-ranked side listens, the higher-ranked side connects), one reader
/// thread per peer pumping envelopes into a single queue, loopback via a
/// local sender. Per-peer FIFO holds because each peer's envelopes ride one
/// stream read by one thread; a peer's `Down` marker is sent by that same
/// thread after its last envelope.
struct SocketFabric {
    rank: usize,
    p: usize,
    writers: Vec<Option<UnixStream>>,
    loopback: Sender<FabricEvent>,
    rx: Receiver<FabricEvent>,
    downs: usize,
}

impl SocketFabric {
    /// Establishes this rank's half of the epoch's mesh. Every peer's
    /// listener already exists (the host ran the full BIND round first), so
    /// connects need no retry; the 8-byte rank handshake identifies each
    /// accepted stream.
    fn establish(
        dir: &Path,
        epoch: u64,
        rank: usize,
        p: usize,
        listener: Option<UnixListener>,
        accept_deadline: Instant,
    ) -> std::io::Result<Self> {
        let (tx, rx) = channel::<FabricEvent>();
        let mut writers: Vec<Option<UnixStream>> = (0..p).map(|_| None).collect();
        for (peer, slot) in writers.iter_mut().enumerate().take(rank) {
            let mut s = UnixStream::connect(fabric_path(dir, epoch, peer))?;
            s.write_all(&(rank as u64).to_le_bytes())?;
            *slot = Some(s);
        }
        if rank + 1 < p {
            let listener = listener.expect("a non-top rank binds a fabric listener");
            listener.set_nonblocking(true)?;
            let mut accepted = 0usize;
            while accepted < p - rank - 1 {
                match listener.accept() {
                    Ok((mut s, _)) => {
                        s.set_nonblocking(false)?;
                        s.set_read_timeout(Some(Duration::from_secs(10)))?;
                        let mut buf = [0u8; 8];
                        s.read_exact(&mut buf)?;
                        s.set_read_timeout(None)?;
                        let peer = u64::from_le_bytes(buf) as usize;
                        if peer <= rank || peer >= p {
                            return Err(std::io::Error::new(
                                std::io::ErrorKind::InvalidData,
                                format!("bad fabric handshake rank {peer}"),
                            ));
                        }
                        writers[peer] = Some(s);
                        accepted += 1;
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        if Instant::now() > accept_deadline {
                            return Err(std::io::Error::new(
                                std::io::ErrorKind::TimedOut,
                                "fabric peers did not all connect",
                            ));
                        }
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    Err(e) => return Err(e),
                }
            }
        }
        for (peer, stream) in writers.iter().enumerate() {
            let Some(stream) = stream else { continue };
            let mut read_half = stream.try_clone()?;
            let txc = tx.clone();
            std::thread::Builder::new().name(format!("cgselect-fabric-r{rank}p{peer}")).spawn(
                move || {
                    while let Ok(frame) = read_stream_frame(&mut read_half) {
                        let Ok(env) = WireEnvelope::from_frame(&frame) else { break };
                        if txc.send(FabricEvent::Env(env)).is_err() {
                            return;
                        }
                    }
                    let _ = txc.send(FabricEvent::Down(peer));
                },
            )?;
        }
        // The worker's own listener socket file is no longer needed once
        // the mesh is up.
        let _ = std::fs::remove_file(fabric_path(dir, epoch, rank));
        Ok(SocketFabric { rank, p, writers, loopback: tx, rx, downs: 0 })
    }
}

impl FabricLink for SocketFabric {
    fn deliver(&mut self, dst: usize, env: WireEnvelope) -> bool {
        if dst == self.rank {
            return self.loopback.send(FabricEvent::Env(env)).is_ok();
        }
        match self.writers.get_mut(dst).and_then(Option::as_mut) {
            Some(stream) => write_stream_frame(stream, &env.to_frame()).is_ok(),
            None => false,
        }
    }

    fn poll(&mut self, timeout: Duration) -> Result<FabricPoll, FabricRecvError> {
        // Once every peer is down nothing more can arrive: surface what is
        // queued, then report the link closed without waiting.
        let event = if self.p > 1 && self.downs >= self.p - 1 {
            self.rx.try_recv().map_err(|_| FabricRecvError::Closed)?
        } else {
            self.rx.recv_timeout(timeout).map_err(|e| match e {
                RecvTimeoutError::Timeout => FabricRecvError::Timeout,
                RecvTimeoutError::Disconnected => FabricRecvError::Closed,
            })?
        };
        match event {
            FabricEvent::Env(env) => Ok(FabricPoll::Message(env)),
            FabricEvent::Down(peer) => {
                self.downs += 1;
                Ok(FabricPoll::PeerDown(peer))
            }
        }
    }

    fn drain_pending(&mut self) -> Vec<(usize, u64)> {
        let mut out = Vec::new();
        while let Ok(ev) = self.rx.try_recv() {
            match ev {
                FabricEvent::Env(env) => out.push((env.src, env.tag)),
                FabricEvent::Down(_) => self.downs += 1,
            }
        }
        out
    }
}

/// The worker's [`Fabric`]: BIND listens on this rank's epoch-scoped
/// socket, CONNECT establishes the mesh and builds the `Proc` over it.
pub(super) struct SocketMesh {
    dir: PathBuf,
    model: MachineModel,
    proc_timeout: Duration,
    /// `(epoch, rank, p, listener)` of a BIND awaiting its CONNECT.
    bound: Option<(u64, usize, usize, Option<UnixListener>)>,
}

impl Fabric for SocketMesh {
    fn bind(&mut self, epoch: u64, rank: usize, p: usize) -> Result<(), String> {
        self.bound = None;
        let listener = if rank + 1 < p {
            let path = fabric_path(&self.dir, epoch, rank);
            Some(UnixListener::bind(path).map_err(|e| format!("fabric bind failed: {e}"))?)
        } else {
            None
        };
        self.bound = Some((epoch, rank, p, listener));
        Ok(())
    }

    fn connect(&mut self) -> Result<Proc, String> {
        let (epoch, rank, p, listener) =
            self.bound.take().ok_or("fabric connect without a preceding bind")?;
        let deadline = Instant::now() + self.proc_timeout.max(Duration::from_secs(5));
        let fabric = SocketFabric::establish(&self.dir, epoch, rank, p, listener, deadline)
            .map_err(|e| format!("fabric connect failed: {e}"))?;
        let machine = Machine::with_model(p, self.model).recv_timeout(self.proc_timeout);
        Ok(machine.fabric_proc(rank, Box::new(fabric)))
    }
}

/// Entry point of the `cgselect-shard-worker` binary: connects the control
/// socket named by `argv[1]`, reads and acknowledges the INIT frame, and
/// runs the shared serve loop — monomorphized for the element type the
/// frame's wire tag names — over the control socket and the socket mesh.
/// Returns the process exit code.
pub fn worker_main() -> i32 {
    run_worker().unwrap_or_else(|e| {
        eprintln!("cgselect-shard-worker: {e}");
        2
    })
}

fn run_worker() -> Result<i32, String> {
    let ctrl = std::env::args().nth(1).ok_or("usage: cgselect-shard-worker <control-socket>")?;
    let mut stream = UnixStream::connect(&ctrl).map_err(|e| format!("connect {ctrl}: {e}"))?;
    let frame = read_stream_frame(&mut stream).map_err(|e| format!("read INIT: {e}"))?;
    let (wire_tag, cfg, mut mesh) = match protocol::split_framed(&frame) {
        Ok((0, body)) if body.first() == Some(&CMD_INIT) => {
            decode_init(body).map_err(|e| format!("bad INIT: {e}"))?
        }
        _ => return Err("malformed INIT frame".into()),
    };
    let serve: fn(&mut UnixStream, &mut SocketMesh, WorkerConfig, &[Fault]) -> i32 = match wire_tag
    {
        u8::WIRE_TAG => mp::serve::<u8>,
        u16::WIRE_TAG => mp::serve::<u16>,
        u32::WIRE_TAG => mp::serve::<u32>,
        u64::WIRE_TAG => mp::serve::<u64>,
        u128::WIRE_TAG => mp::serve::<u128>,
        usize::WIRE_TAG => mp::serve::<usize>,
        i8::WIRE_TAG => mp::serve::<i8>,
        i16::WIRE_TAG => mp::serve::<i16>,
        i32::WIRE_TAG => mp::serve::<i32>,
        i64::WIRE_TAG => mp::serve::<i64>,
        i128::WIRE_TAG => mp::serve::<i128>,
        isize::WIRE_TAG => mp::serve::<isize>,
        OrdF64::WIRE_TAG => mp::serve::<OrdF64>,
        other => return Err(format!("unknown wire tag {other}")),
    };
    // The acknowledgement rides sequence 0, like INIT itself.
    if write_stream_frame(&mut stream, &protocol::encode_framed(0, &[REPLY_OK])).is_err() {
        return Ok(1);
    }
    Ok(serve(&mut stream, &mut mesh, cfg, &[]))
}

#[cfg(test)]
mod tests {
    use super::super::ops::{self, Shard};
    use super::*;
    use crate::index::recut_shard_index;
    use cgselect_seqsel::{OpCount, SepBound};

    #[test]
    fn init_frame_round_trips() {
        let cfg = EngineConfig::new(5)
            .model(MachineModel::free())
            .sketch_capacity(17)
            .balancer(Balancer::DimExchange);
        let frame =
            encode_init(u64::WIRE_TAG, 3, &cfg, Duration::from_millis(250), Path::new("/tmp/x"));
        assert_eq!(frame[0], CMD_INIT);
        assert_eq!(frame[1], u64::WIRE_TAG);
        let (wire_tag, worker, mesh) = decode_init(&frame).unwrap();
        assert_eq!(wire_tag, u64::WIRE_TAG);
        assert_eq!(worker.rank, 3);
        assert_eq!(worker.sketch_capacity, 17);
        assert_eq!(mesh.proc_timeout, Duration::from_millis(250));
        assert_eq!(mesh.dir, PathBuf::from("/tmp/x"));
        assert_eq!(mesh.model, MachineModel::free());
        assert_eq!(format!("{:?}", worker.selection), format!("{:?}", cfg.selection));
        assert_eq!(worker.balancer, Balancer::DimExchange);
    }

    #[test]
    fn an_init_whose_max_iters_overflows_u32_is_refused() {
        let cfg = EngineConfig::new(2).model(MachineModel::free());
        let frame = encode_init(u64::WIRE_TAG, 0, &cfg, Duration::from_millis(250), Path::new("d"));
        // The tail ends `(sample sort u8, max_iters u64, balancer u8)`.
        let forged = |max_iters: u64| {
            let mut forged = frame.clone();
            let at = forged.len() - 9;
            forged[at..at + 8].copy_from_slice(&max_iters.to_le_bytes());
            decode_init(&forged).map(|(_, worker, _)| worker.selection.max_iters)
        };
        assert_eq!(forged(u64::from(u32::MAX)).unwrap(), u32::MAX);
        let err = forged(u64::from(u32::MAX) + 1).unwrap_err();
        assert_eq!(err.detail, "bad INIT field: max_iters");
    }

    #[test]
    fn enum_byte_codecs_round_trip() {
        for b in [
            Balancer::None,
            Balancer::Omlb,
            Balancer::ModOmlb,
            Balancer::DimExchange,
            Balancer::GlobalExchange,
        ] {
            assert_eq!(balancer_from_u8(balancer_to_u8(b)), Some(b));
        }
        for t in [Topology::Crossbar, Topology::Hypercube, Topology::Mesh2D] {
            assert_eq!(topology_from_u8(topology_to_u8(t)), Some(t));
        }
        for k in [
            None,
            Some(LocalKernel::Deterministic),
            Some(LocalKernel::Randomized),
            Some(LocalKernel::IntroSelect),
        ] {
            assert_eq!(kernel_from_u8(kernel_to_u8(k)), Some(k));
        }
        for s in [SampleSortAlgo::Psrs, SampleSortAlgo::Bitonic, SampleSortAlgo::GatherSort] {
            assert_eq!(sort_from_u8(sort_to_u8(s)), Some(s));
        }
        assert_eq!(balancer_from_u8(99), None);
        assert_eq!(topology_from_u8(99), None);
        assert_eq!(kernel_from_u8(99), None);
        assert_eq!(sort_from_u8(99), None);
    }

    #[test]
    fn shard_snapshot_round_trips_exactly() {
        let mut shard: Shard<u64> = ops::init_shard(8);
        for x in [5u64, 1, 9, 7, 3, 3, 8, 2, 6, 4, 0, 11, 13, 12] {
            shard.sketch.offer(x);
            shard.data.push(x);
        }
        // Bucket-order the first eleven under two splitters; the last three
        // stay behind as the delta run.
        let bounds =
            vec![SepBound { value: 4, inclusive: false }, SepBound { value: 9, inclusive: true }];
        let (idx, _) = recut_shard_index(&mut shard.data[..11], None, bounds, &mut OpCount::new());
        assert_eq!(idx.offsets, vec![0, 5, 11, 11]);
        shard.index = Some(idx);
        let frame = protocol::encode_export_reply(&shard);
        let restored: Shard<u64> = protocol::decode_fields(&frame).unwrap();
        assert_eq!(restored.data, shard.data);
        let idx = restored.index.as_ref().unwrap();
        let orig = shard.index.as_ref().unwrap();
        assert_eq!(idx.bounds, orig.bounds);
        assert_eq!(idx.offsets, orig.offsets);
        assert_eq!(idx.minmax, orig.minmax, "recomputed on import, never on the wire");
        assert_eq!(restored.sketch, shard.sketch);
        assert_eq!(restored.sketch.to_bytes(), shard.sketch.to_bytes());
    }

    #[test]
    fn stream_framing_round_trips() {
        let mut buf: Vec<u8> = Vec::new();
        write_stream_frame(&mut buf, b"hello").unwrap();
        write_stream_frame(&mut buf, b"").unwrap();
        write_stream_frame(&mut buf, &[7u8; 300]).unwrap();
        let mut r = &buf[..];
        assert_eq!(read_stream_frame(&mut r).unwrap(), b"hello");
        assert_eq!(read_stream_frame(&mut r).unwrap(), b"");
        assert_eq!(read_stream_frame(&mut r).unwrap(), vec![7u8; 300]);
        assert!(read_stream_frame(&mut r).is_err(), "EOF is an error, not a frame");
    }

    #[test]
    fn corrupt_length_prefixes_do_not_allocate() {
        let mut buf: Vec<u8> = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        let mut r = &buf[..];
        let err = read_stream_frame(&mut r).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    /// A two-rank fabric with no peer streams whose reader queue already
    /// holds `events`, as the reader threads would have left it.
    fn queued_fabric(events: Vec<FabricEvent>) -> SocketFabric {
        let (loopback, rx) = channel();
        for event in events {
            assert!(loopback.send(event).is_ok());
        }
        SocketFabric { rank: 0, p: 2, writers: vec![None, None], loopback, rx, downs: 0 }
    }

    fn envelope(tag: u64) -> WireEnvelope {
        WireEnvelope { src: 1, tag, sent_at: 0.5, bytes: 8, payload: vec![tag as u8] }
    }

    #[test]
    fn fabric_poll_surfaces_queued_envelopes_then_closes_without_waiting() {
        let mut fabric = queued_fabric(vec![
            FabricEvent::Env(envelope(3)),
            FabricEvent::Env(envelope(4)),
            FabricEvent::Down(1),
        ]);
        let long = Duration::from_secs(30);
        for tag in [3, 4] {
            match fabric.poll(long) {
                Ok(FabricPoll::Message(env)) => assert_eq!(env, envelope(tag)),
                other => panic!("expected the envelope tagged {tag}, got {other:?}"),
            }
        }
        assert!(matches!(fabric.poll(long), Ok(FabricPoll::PeerDown(1))));
        // Every peer is down and the queue is empty: closed at once, not
        // after the timeout.
        let start = Instant::now();
        assert_eq!(fabric.poll(long).unwrap_err(), FabricRecvError::Closed);
        assert!(start.elapsed() < Duration::from_secs(5), "poll waited {:?}", start.elapsed());

        // What the end-of-program check reports for an unconsumed envelope.
        let mut leftover = queued_fabric(vec![FabricEvent::Env(envelope(7))]);
        assert_eq!(leftover.drain_pending(), vec![(1, 7)]);
        assert!(leftover.drain_pending().is_empty());
    }
}
