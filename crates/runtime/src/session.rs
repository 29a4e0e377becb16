//! Persistent SPMD sessions: the machine's worker threads stay alive
//! between `run` calls, so per-processor state (data shards, RNG streams,
//! the virtual clock itself) survives across an unbounded stream of
//! programs.
//!
//! [`crate::Machine::run`] is one-shot: it spawns `p` threads, runs one SPMD
//! program, and tears everything down — the right shape for the paper's
//! select-once experiments, and the wrong shape for a long-lived query
//! engine, where data must remain resident on the processors while many
//! queries are served against it. A [`Session`] keeps the `p` virtual
//! processors alive; each carries its [`Proc`] (clock, tag epochs, comm
//! counters all continue monotonically) and a typed [`ShardStore`] in which
//! SPMD programs can leave state for their successors.
//!
//! ```
//! use cgselect_runtime::Machine;
//!
//! let mut session = Machine::new(4).session();
//! // First program: park a shard of data on every processor.
//! session
//!     .run(|proc, store| {
//!         store.insert::<Vec<u64>>((0..10u64).map(|i| i * 4 + proc.rank() as u64).collect());
//!     })
//!     .unwrap();
//! // Later program, same threads: query the resident shards collectively.
//! let sums = session
//!     .run(|proc, store| {
//!         let mine: u64 = store.get::<Vec<u64>>().unwrap().iter().sum();
//!         proc.combine(mine, |a, b| a + b)
//!     })
//!     .unwrap();
//! assert_eq!(sums, vec![(0..40u64).sum(); 4]);
//! ```

use std::any::{Any, TypeId};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::machine::{root_cause, Machine, RunError};
use crate::model::MachineModel;
use crate::process::Proc;

/// Typed per-processor storage that outlives individual [`Session::run`]
/// calls: one slot per Rust type, keyed by `TypeId`.
///
/// SPMD programs use it to leave state for later programs — a query engine
/// parks its data shard (and auxiliary sketches) here once and then serves
/// every subsequent query against it without redistribution.
#[derive(Default)]
pub struct ShardStore {
    slots: HashMap<TypeId, Box<dyn Any + Send>>,
}

impl ShardStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts `value`, returning the previously stored value of that type.
    pub fn insert<T: Any + Send>(&mut self, value: T) -> Option<T> {
        self.slots
            .insert(TypeId::of::<T>(), Box::new(value))
            .map(|old| *old.downcast::<T>().expect("slot keyed by TypeId"))
    }

    /// Shared reference to the stored `T`, if present.
    pub fn get<T: Any + Send>(&self) -> Option<&T> {
        self.slots
            .get(&TypeId::of::<T>())
            .map(|b| b.downcast_ref::<T>().expect("slot keyed by TypeId"))
    }

    /// Mutable reference to the stored `T`, if present.
    pub fn get_mut<T: Any + Send>(&mut self) -> Option<&mut T> {
        self.slots
            .get_mut(&TypeId::of::<T>())
            .map(|b| b.downcast_mut::<T>().expect("slot keyed by TypeId"))
    }

    /// Mutable reference to the stored `T`, inserting `init()` first if the
    /// slot is empty.
    pub fn get_or_insert_with<T: Any + Send>(&mut self, init: impl FnOnce() -> T) -> &mut T {
        self.slots
            .entry(TypeId::of::<T>())
            .or_insert_with(|| Box::new(init()))
            .downcast_mut::<T>()
            .expect("slot keyed by TypeId")
    }

    /// Removes and returns the stored `T`.
    pub fn remove<T: Any + Send>(&mut self) -> Option<T> {
        self.slots
            .remove(&TypeId::of::<T>())
            .map(|b| *b.downcast::<T>().expect("slot keyed by TypeId"))
    }

    /// Number of occupied slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True if no slot is occupied.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }
}

/// A type-erased SPMD program plus the channel its result goes back on.
type Job = Arc<dyn Fn(&mut Proc, &mut ShardStore) -> Box<dyn Any + Send> + Send + Sync>;

enum Command {
    Run(Job),
    Exit,
}

struct Worker {
    commands: Sender<Command>,
    results: Receiver<Result<Box<dyn Any + Send>, RunError>>,
    handle: Option<JoinHandle<()>>,
}

/// A persistent `p`-processor machine: worker threads (and their virtual
/// clocks, tag epochs and [`ShardStore`]s) survive between [`Session::run`]
/// calls. Obtain one from [`Machine::session`].
///
/// Failure semantics: if any processor panics (or ends a program with
/// unconsumed messages / open phases), the session is **poisoned** — the
/// failing program's error is returned and every subsequent `run` fails
/// fast with [`RunError::SessionPoisoned`], because surviving workers may
/// hold inconsistent state. This mirrors mutex poisoning: a long-lived
/// engine should treat it as fatal and rebuild.
pub struct Session {
    p: usize,
    model: MachineModel,
    workers: Vec<Worker>,
    poisoned: bool,
}

/// A [`Session`] is `Send`: it can be handed off whole — resident shards,
/// live worker threads and all — to another owner thread, which is how the
/// engine's async frontend moves a populated session onto its dedicated
/// batcher thread. This assertion makes the guarantee a compile-time
/// contract so a future field cannot silently revoke it.
const _: () = {
    const fn assert_send<S: Send>() {}
    assert_send::<Session>();
};

impl Machine {
    /// Starts a persistent session with this machine's shape: the `p`
    /// worker threads stay alive until the session is dropped.
    pub fn session(&self) -> Session {
        Session::start(self.nprocs(), self.model(), self.timeout())
    }
}

impl Session {
    /// Starts a session with `p` processors and the default (CM-5) model.
    pub fn new(p: usize) -> Self {
        Self::start(p, MachineModel::default(), Duration::from_secs(30))
    }

    /// Starts a session with an explicit cost model.
    pub fn with_model(p: usize, model: MachineModel) -> Self {
        Self::start(p, model, Duration::from_secs(30))
    }

    fn start(p: usize, model: MachineModel, timeout: Duration) -> Self {
        assert!(p >= 1, "a session needs at least one processor");
        let machine = Machine::with_model(p, model).recv_timeout(timeout);
        let workers = machine
            .procs()
            .into_iter()
            .map(|proc| {
                let (cmd_tx, cmd_rx) = channel::<Command>();
                let (res_tx, res_rx) = channel::<Result<Box<dyn Any + Send>, RunError>>();
                let handle = std::thread::Builder::new()
                    .name(format!("cgselect-session-p{}", proc.rank()))
                    .spawn(move || worker_loop(proc, cmd_rx, res_tx))
                    .expect("failed to spawn session worker thread");
                Worker { commands: cmd_tx, results: res_rx, handle: Some(handle) }
            })
            .collect();
        Session { p, model, workers, poisoned: false }
    }

    /// Number of processors.
    pub fn nprocs(&self) -> usize {
        self.p
    }

    /// The session's cost model.
    pub fn model(&self) -> MachineModel {
        self.model
    }

    /// True once a program has failed in this session.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// Runs one SPMD program on the persistent processors and returns the
    /// per-rank results in rank order.
    ///
    /// Unlike [`Machine::run`], the closure also receives the processor's
    /// [`ShardStore`], whose contents persist to the next `run`. The same
    /// end-of-program protocol checks apply (final barrier, no unconsumed
    /// messages, balanced phase timers); a failure poisons the session.
    pub fn run<F, R>(&mut self, f: F) -> Result<Vec<R>, RunError>
    where
        F: Fn(&mut Proc, &mut ShardStore) -> R + Send + Sync + 'static,
        R: Send + 'static,
    {
        if self.poisoned {
            return Err(RunError::SessionPoisoned);
        }
        let job: Job = Arc::new(move |proc, store| Box::new(f(proc, store)) as Box<dyn Any + Send>);
        for w in &self.workers {
            if w.commands.send(Command::Run(job.clone())).is_err() {
                self.poisoned = true;
                return Err(RunError::SessionPoisoned);
            }
        }
        let results = self.workers.iter().map(|w| match w.results.recv() {
            Ok(Ok(boxed)) => match boxed.downcast::<R>() {
                Ok(v) => Ok(*v),
                Err(_) => unreachable!("job result type fixed by the closure"),
            },
            Ok(Err(e)) => Err(e),
            // Worker thread died without replying.
            Err(_) => Err(RunError::SessionPoisoned),
        });
        let out = root_cause(results);
        self.poisoned = out.is_err();
        out
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        for w in &self.workers {
            let _ = w.commands.send(Command::Exit);
        }
        for w in &mut self.workers {
            if let Some(h) = w.handle.take() {
                let _ = h.join();
            }
        }
    }
}

fn worker_loop(
    mut proc: Proc,
    commands: Receiver<Command>,
    results: Sender<Result<Box<dyn Any + Send>, RunError>>,
) {
    let mut store = ShardStore::new();
    while let Ok(cmd) = commands.recv() {
        let job = match cmd {
            Command::Run(job) => job,
            Command::Exit => break,
        };
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let out = job(&mut proc, &mut store);
            // End-of-program protocol check, as in `Machine::run`: everyone
            // synchronizes, then no messages may remain anywhere and all
            // phase timers must be closed.
            proc.finish_program().map(|()| out)
        }));
        let reply = outcome.unwrap_or_else(|p| Err(RunError::from_unwind(proc.rank(), p)));
        let failed = reply.is_err();
        if results.send(reply).is_err() || failed {
            // Session dropped mid-run, or this program failed: this worker's
            // Proc state can no longer be trusted — stop serving.
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_in_rank_order_across_runs() {
        let mut s = Session::with_model(5, MachineModel::free());
        for round in 0..4u64 {
            let out = s.run(move |proc, _| proc.rank() as u64 * 10 + round).unwrap();
            assert_eq!(out, (0..5).map(|r| r as u64 * 10 + round).collect::<Vec<_>>());
        }
    }

    #[test]
    fn store_persists_between_runs() {
        let mut s = Session::with_model(3, MachineModel::free());
        s.run(|proc, store| {
            store.insert::<Vec<u64>>(vec![proc.rank() as u64; 4]);
        })
        .unwrap();
        let lens = s
            .run(|_, store| {
                let v = store.get_mut::<Vec<u64>>().unwrap();
                v.push(99);
                v.len()
            })
            .unwrap();
        assert_eq!(lens, vec![5, 5, 5]);
        let sums: Vec<u64> =
            s.run(|_, store| store.get::<Vec<u64>>().unwrap().iter().sum()).unwrap();
        assert_eq!(sums, vec![99, 4 + 99, 8 + 99]);
    }

    #[test]
    fn collectives_work_across_runs_and_clock_is_monotone() {
        let mut s = Session::with_model(4, MachineModel::cm5());
        let t1 = s.run(|proc, _| {
            proc.combine(1u64, |a, b| a + b);
            proc.now()
        });
        let t2 = s.run(|proc, _| {
            let sum = proc.combine(proc.rank() as u64, |a, b| a + b);
            assert_eq!(sum, 6);
            proc.now()
        });
        let (t1, t2) = (t1.unwrap(), t2.unwrap());
        for (a, b) in t1.iter().zip(&t2) {
            assert!(b > a, "virtual clock must keep advancing across runs");
        }
    }

    #[test]
    fn point_to_point_state_is_clean_between_runs() {
        let mut s = Session::with_model(2, MachineModel::free());
        for round in 0..3u64 {
            s.run(move |proc, _| {
                if proc.rank() == 0 {
                    proc.send(1, round, round * 7);
                } else {
                    let v: u64 = proc.recv(0, round);
                    assert_eq!(v, round * 7);
                }
            })
            .unwrap();
        }
    }

    #[test]
    fn comm_stats_accumulate_monotonically() {
        let mut s = Session::with_model(4, MachineModel::free());
        let before = s.run(|proc, _| proc.comm_stats()).unwrap();
        let after = s
            .run(|proc, _| {
                proc.combine(1u64, |a, b| a + b);
                proc.comm_stats()
            })
            .unwrap();
        for (b, a) in before.iter().zip(&after) {
            let d = a.since(b);
            assert!(d.collective_ops >= 2, "combine = reduce + broadcast, got {d:?}");
        }
    }

    #[test]
    fn panic_poisons_the_session() {
        // Short timeout so peers waiting on the dead rank fail fast.
        let mut s = Session::start(3, MachineModel::free(), Duration::from_millis(200));
        let err = s
            .run(|proc, _| {
                if proc.rank() == 1 {
                    panic!("engine shard fault");
                }
                proc.barrier();
            })
            .unwrap_err();
        match err {
            RunError::ProcPanicked { rank: 1, message } => {
                assert!(message.contains("engine shard fault"), "{message}");
            }
            other => panic!("unexpected error: {other:?}"),
        }
        assert!(s.is_poisoned());
        let err = s.run(|_, _| ()).unwrap_err();
        assert_eq!(err, RunError::SessionPoisoned);
    }

    #[test]
    fn leftover_messages_poison_the_session() {
        let mut s = Session::with_model(2, MachineModel::free());
        let err = s
            .run(|proc, _| {
                if proc.rank() == 0 {
                    proc.send(1, 7, 42u32); // never received
                }
            })
            .unwrap_err();
        match err {
            RunError::PendingMessages { rank: 1, .. } => {}
            other => panic!("unexpected error: {other:?}"),
        }
        assert!(s.is_poisoned());
    }

    #[test]
    fn session_matches_machine_semantics() {
        let machine = Machine::with_model(4, MachineModel::cm5());
        let one_shot = machine.run(|proc| proc.scan(proc.rank() as u64 + 1, |a, b| a + b)).unwrap();
        let mut s = machine.session();
        let persistent = s.run(|proc, _| proc.scan(proc.rank() as u64 + 1, |a, b| a + b)).unwrap();
        assert_eq!(one_shot, persistent);
    }

    #[test]
    fn session_hand_off_to_another_thread_keeps_state_and_clocks() {
        // The async-frontend pattern: populate a session on one thread,
        // move it (shards resident) to a dedicated worker thread, keep
        // serving there, then hand it back.
        let mut s = Session::with_model(3, MachineModel::cm5());
        s.run(|proc, store| {
            store.insert::<Vec<u64>>(vec![proc.rank() as u64 * 100; 8]);
        })
        .unwrap();
        let t0 = s.run(|proc, _| proc.now()).unwrap();
        let handle = std::thread::spawn(move || {
            let sums: Vec<u64> =
                s.run(|_, store| store.get::<Vec<u64>>().unwrap().iter().sum()).unwrap();
            assert_eq!(sums, vec![0, 800, 1600]);
            s
        });
        let mut s = handle.join().unwrap();
        // Back on the original thread: shards and the virtual clocks
        // survived both hand-offs.
        let t1 = s.run(|proc, _| proc.now()).unwrap();
        for (a, b) in t0.iter().zip(&t1) {
            assert!(b > a, "clock must keep advancing across thread hand-offs");
        }
        let lens = s.run(|_, store| store.get::<Vec<u64>>().unwrap().len()).unwrap();
        assert_eq!(lens, vec![8, 8, 8]);
    }

    #[test]
    fn many_runs_do_not_leak_or_wedge() {
        let mut s = Session::with_model(4, MachineModel::free());
        for i in 0..200u64 {
            let out = s.run(move |proc, _| proc.combine(i, |a, b| a.max(b))).unwrap();
            assert_eq!(out, vec![i; 4]);
        }
    }
}
