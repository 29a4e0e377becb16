//! The in-process SPMD backend: the engine's original execution substrate,
//! now behind the [`ExecBackend`] seam.

use std::marker::PhantomData;
use std::sync::{Arc, Mutex};

use cgselect_balance::Balancer;
use cgselect_runtime::{Key, Session, ShardStore};

use crate::index::BucketStats;
use crate::EngineConfig;

use super::ops::{self, Shard};
use super::{BackendError, BackendKind, BatchPlan, ExecBackend, ShardBatchOutcome, ShardDeletion};

/// The in-process backend: a persistent [`Session`] whose worker threads
/// keep each `Shard` resident in their typed `ShardStore`, with programs
/// shipped as shared closures. This is exactly the engine's pre-backend
/// execution path, so it is the reference implementation the conformance
/// harness measures the message-passing backend against.
pub struct LocalSpmd<T: Key> {
    session: Session,
    balancer: Balancer,
    _marker: PhantomData<fn(T)>,
}

impl<T: Key> LocalSpmd<T> {
    /// Starts the session and installs the empty shards.
    pub(crate) fn start(cfg: &EngineConfig) -> Result<Self, BackendError> {
        let mut session = Session::with_model(cfg.nprocs, cfg.model);
        let capacity = cfg.sketch_capacity;
        session.run(move |_proc, store| {
            store.insert(ops::init_shard::<T>(capacity));
        })?;
        Ok(LocalSpmd { session, balancer: cfg.balancer, _marker: PhantomData })
    }

    /// The shard installed at construction; its absence means the store was
    /// tampered with, which is a bug.
    fn shard_mut(store: &mut ShardStore) -> &mut Shard<T> {
        store.get_mut::<Shard<T>>().expect("engine shard must be installed")
    }
}

impl<T: Key> ExecBackend<T> for LocalSpmd<T> {
    fn nprocs(&self) -> usize {
        self.session.nprocs()
    }

    fn kind(&self) -> BackendKind {
        BackendKind::LocalSpmd
    }

    fn is_poisoned(&self) -> bool {
        self.session.is_poisoned()
    }

    fn ingest(&mut self, chunks: Vec<Vec<T>>) -> Result<Vec<u64>, BackendError> {
        assert_eq!(chunks.len(), self.session.nprocs(), "one ingest chunk per shard");
        // Each worker takes (moves) its own chunk out of the shared slots —
        // ingest is the engine's primary data path and must not copy the
        // batch a second time.
        let chunks: Arc<Vec<Mutex<Option<Vec<T>>>>> =
            Arc::new(chunks.into_iter().map(|c| Mutex::new(Some(c))).collect());
        Ok(self.session.run(move |proc, store| {
            let mine: Vec<T> = chunks[proc.rank()]
                .lock()
                .expect("ingest chunk lock")
                .take()
                .expect("each rank takes its chunk exactly once");
            ops::ingest_shard(proc, Self::shard_mut(store), mine)
        })?)
    }

    fn delete(&mut self, values: Vec<T>) -> Result<Vec<ShardDeletion>, BackendError> {
        let sorted = Arc::new(values);
        Ok(self
            .session
            .run(move |proc, store| ops::delete_shard(proc, Self::shard_mut(store), &sorted))?)
    }

    fn rebalance(&mut self) -> Result<Vec<u64>, BackendError> {
        let balancer = self.balancer;
        Ok(self
            .session
            .run(move |proc, store| ops::rebalance_shard(proc, Self::shard_mut(store), balancer))?)
    }

    fn build_index(
        &mut self,
        buckets: usize,
    ) -> Result<(Vec<cgselect_seqsel::SepBound<T>>, Vec<BucketStats<T>>), BackendError> {
        let per_proc = self.session.run(move |proc, store| {
            ops::build_index_shard(proc, Self::shard_mut(store), buckets)
        })?;
        let mut bounds = Vec::new();
        let mut stats = Vec::with_capacity(per_proc.len());
        for (rank, (b, s)) in per_proc.into_iter().enumerate() {
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
        Ok(self
            .session
            .run(move |proc, store| ops::merge_delta_shard(proc, Self::shard_mut(store)))?)
    }

    fn execute(&mut self, plan: &BatchPlan<T>) -> Result<Vec<ShardBatchOutcome<T>>, BackendError> {
        let plan = plan.clone();
        Ok(self
            .session
            .run(move |proc, store| ops::execute_shard(proc, Self::shard_mut(store), &plan))?)
    }

    fn export_sketches(&mut self) -> Result<Vec<crate::sketch::EpsSketch<T>>, BackendError> {
        Ok(self.session.run(move |_proc, store| Self::shard_mut(store).sketch.clone())?)
    }
}
