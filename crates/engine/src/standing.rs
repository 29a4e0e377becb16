//! Standing queries: long-lived subscriptions that re-evaluate a [`Request`]
//! whenever the engine's resident data moves, streaming stamped [`Outcome`]s
//! to a [`StandingHandle`].
//!
//! A standing query is registered once with [`crate::Engine::subscribe`] and a
//! [`RefreshPolicy`] that controls *when* the answer is recomputed:
//!
//! * [`RefreshPolicy::EveryBatch`] — refresh whenever the mutation version has
//!   advanced since the last delivered update (every ingest/delete).
//! * [`RefreshPolicy::OnDelta`] — refresh once the number of mutated elements
//!   since the last update reaches the given fraction of the resident
//!   population. Coarser than `EveryBatch`; a dashboard that tolerates 1%
//!   staleness uses `OnDelta(0.01)`.
//! * [`RefreshPolicy::Deadline`] — refresh at least every `ms` milliseconds of
//!   wall time, even if nothing changed. The only wall-clock-driven policy;
//!   the other two are deterministic functions of the mutation history.
//!
//! Refreshes ride the engine's ordinary batch pipeline: due subscriptions are
//! appended to the next [`crate::Engine::run`] batch (or flushed explicitly
//! with [`crate::Engine::refresh_standing`]), so they share splitter probes,
//! collective rounds, and index refinement with foreground queries. Because
//! the global index rebases its bucket histograms over the pending delta run,
//! most refreshes after small ingests re-serve from the host-side histogram
//! at **zero collective operations** — the subscription only pays
//! communication when its candidate window actually moved.
//!
//! Every update carries a gap-free, monotonically increasing sequence number
//! (starting at 0) and the [`crate::Freshness`] stamp of the batch that
//! produced it. Dropping the handle (receiver) auto-unsubscribes on the next
//! delivery attempt.

use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::time::Instant;

use cgselect_runtime::Key;

use crate::request::{Outcome, Request};

/// Opaque identity of a registered standing query.
///
/// Returned by [`crate::Engine::subscribe`] (via [`StandingHandle::id`]) and
/// consumed by [`crate::Engine::unsubscribe`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SubscriptionId(pub u64);

/// When a standing query is re-evaluated.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum RefreshPolicy {
    /// Refresh whenever the engine's mutation version advanced since the last
    /// delivered update. Every ingest or delete triggers a refresh.
    EveryBatch,
    /// Refresh once the elements mutated since the last update reach this
    /// fraction of the resident population (`0.01` = 1% churn).
    OnDelta(f64),
    /// Refresh at least every `ms` milliseconds of wall time, whether or not
    /// the data moved. Also refreshes immediately when invalidated by a
    /// membership change.
    Deadline(u64),
}

/// One update streamed to a [`StandingHandle`].
#[derive(Clone, Debug)]
pub struct StandingUpdate<T> {
    /// Gap-free sequence number, starting at 0 for the first update.
    pub seq: u64,
    /// The freshly computed outcome, freshness-stamped like any batch answer.
    pub outcome: Outcome<T>,
}

/// Receiving end of a standing query: a typed stream of [`StandingUpdate`]s.
///
/// Dropping the handle unsubscribes implicitly — the engine removes the
/// subscription the next time it tries to deliver to the closed channel.
pub struct StandingHandle<T: Key> {
    id: SubscriptionId,
    rx: Receiver<StandingUpdate<T>>,
}

impl<T: Key> std::fmt::Debug for StandingHandle<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StandingHandle").field("id", &self.id).finish_non_exhaustive()
    }
}

impl<T: Key> StandingHandle<T> {
    /// The subscription's identity, for [`crate::Engine::unsubscribe`].
    pub fn id(&self) -> SubscriptionId {
        self.id
    }

    /// Block until the next update arrives, or `None` once the engine side
    /// has dropped the subscription (unsubscribe or engine shutdown).
    pub fn recv(&self) -> Option<StandingUpdate<T>> {
        self.rx.recv().ok()
    }

    /// Non-blocking poll: `Ok(Some(_))` if an update is queued, `Ok(None)` if
    /// the stream is empty but live, `Err(())` if the engine side is gone.
    #[allow(clippy::result_unit_err)]
    pub fn try_recv(&self) -> Result<Option<StandingUpdate<T>>, ()> {
        match self.rx.try_recv() {
            Ok(u) => Ok(Some(u)),
            Err(TryRecvError::Empty) => Ok(None),
            Err(TryRecvError::Disconnected) => Err(()),
        }
    }

    /// Block up to `timeout` for the next update.
    pub fn recv_timeout(&self, timeout: std::time::Duration) -> Option<StandingUpdate<T>> {
        match self.rx.recv_timeout(timeout) {
            Ok(u) => Some(u),
            Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => None,
        }
    }

    /// Drain every update currently queued without blocking.
    pub fn drain(&self) -> Vec<StandingUpdate<T>> {
        let mut out = Vec::new();
        while let Ok(u) = self.rx.try_recv() {
            out.push(u);
        }
        out
    }
}

/// Engine-side record of one subscription.
struct Subscription<T: Key> {
    id: SubscriptionId,
    request: Request<T>,
    policy: RefreshPolicy,
    tx: Sender<StandingUpdate<T>>,
    /// Next sequence number to assign (== updates delivered so far).
    seq: u64,
    /// Mutation version reflected by the last delivered update.
    last_version: Option<u64>,
    /// `Engine::mutated` at the last delivered update.
    last_mutated: u64,
    /// Wall-clock instant of the last delivered update (Deadline policy).
    last_refresh: Option<Instant>,
    /// Set by membership changes (migrate/join/retire/recover): the next
    /// refresh must fully re-resolve regardless of policy.
    invalidated: bool,
}

impl<T: Key> Subscription<T> {
    fn is_due(&self, version: u64, mutated: u64, total: u64) -> bool {
        if self.invalidated {
            return true;
        }
        let last_version = match self.last_version {
            // Never refreshed: due as soon as there is anything to answer.
            None => return true,
            Some(v) => v,
        };
        match self.policy {
            RefreshPolicy::EveryBatch => version != last_version,
            RefreshPolicy::OnDelta(frac) => {
                let delta = mutated.saturating_sub(self.last_mutated);
                delta > 0 && (delta as f64) >= frac * (total.max(1) as f64)
            }
            RefreshPolicy::Deadline(ms) => match self.last_refresh {
                None => true,
                Some(t) => t.elapsed().as_millis() as u64 >= ms,
            },
        }
    }
}

/// The engine's registry of live subscriptions.
pub(crate) struct StandingRegistry<T: Key> {
    subs: Vec<Subscription<T>>,
    next_id: u64,
}

impl<T: Key> Default for StandingRegistry<T> {
    fn default() -> Self {
        StandingRegistry { subs: Vec::new(), next_id: 0 }
    }
}

impl<T: Key> StandingRegistry<T> {
    pub(crate) fn subscribe(
        &mut self,
        request: Request<T>,
        policy: RefreshPolicy,
    ) -> StandingHandle<T> {
        let id = SubscriptionId(self.next_id);
        self.next_id += 1;
        let (tx, rx) = channel();
        self.subs.push(Subscription {
            id,
            request,
            policy,
            tx,
            seq: 0,
            last_version: None,
            last_mutated: 0,
            last_refresh: None,
            invalidated: false,
        });
        StandingHandle { id, rx }
    }

    pub(crate) fn unsubscribe(&mut self, id: SubscriptionId) -> bool {
        let before = self.subs.len();
        self.subs.retain(|s| s.id != id);
        self.subs.len() != before
    }

    pub(crate) fn len(&self) -> usize {
        self.subs.len()
    }

    /// Membership changed (shard migrated, worker joined/retired, recovery):
    /// every cached answer window is suspect; force full re-resolution.
    pub(crate) fn invalidate_all(&mut self) {
        for s in &mut self.subs {
            s.invalidated = true;
        }
    }

    /// Subscriptions due for a refresh under the current mutation state,
    /// in registration order. Pure: does not mark anything refreshed.
    pub(crate) fn due_requests(
        &self,
        version: u64,
        mutated: u64,
        total: u64,
    ) -> Vec<(SubscriptionId, Request<T>)> {
        self.subs
            .iter()
            .filter(|s| s.is_due(version, mutated, total))
            .map(|s| (s.id, s.request.clone()))
            .collect()
    }

    /// Deliver one update to subscription `id`, stamping the next sequence
    /// number and recording the refresh point. Returns `false` (and removes
    /// the subscription) if the receiver was dropped.
    pub(crate) fn deliver(
        &mut self,
        id: SubscriptionId,
        outcome: Outcome<T>,
        version: u64,
        mutated: u64,
    ) -> bool {
        let Some(pos) = self.subs.iter().position(|s| s.id == id) else {
            return false;
        };
        let sub = &mut self.subs[pos];
        let update = StandingUpdate { seq: sub.seq, outcome };
        if sub.tx.send(update).is_err() {
            // Handle dropped: auto-unsubscribe.
            self.subs.remove(pos);
            return false;
        }
        sub.seq += 1;
        sub.last_version = Some(version);
        sub.last_mutated = mutated;
        sub.last_refresh = Some(Instant::now());
        sub.invalidated = false;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{Request, Response, Served};

    fn dummy_outcome() -> Outcome<u64> {
        Outcome {
            response: Response::Element(7),
            served: Served::Index,
            cost: crate::request::CostAttribution { collective_ops: 0.0 },
            freshness: crate::request::Freshness { version: 1, elements: 1 },
        }
    }

    #[test]
    fn every_batch_due_only_on_version_change() {
        let mut reg: StandingRegistry<u64> = StandingRegistry::default();
        let h = reg.subscribe(Request::median(), RefreshPolicy::EveryBatch);
        // Never refreshed: due immediately.
        assert!(!reg.due_requests(0, 0, 10).is_empty());
        assert!(reg.deliver(h.id(), dummy_outcome(), 3, 5));
        assert!(reg.due_requests(3, 5, 10).is_empty(), "same version: not due");
        assert!(!reg.due_requests(4, 6, 10).is_empty(), "version moved: due");
        let got = h.drain();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].seq, 0);
    }

    #[test]
    fn on_delta_needs_fractional_churn() {
        let mut reg: StandingRegistry<u64> = StandingRegistry::default();
        let h = reg.subscribe(Request::median(), RefreshPolicy::OnDelta(0.10));
        assert!(reg.deliver(h.id(), dummy_outcome(), 1, 0));
        // 5 mutated out of 100 resident: below 10%.
        assert!(reg.due_requests(2, 5, 100).is_empty());
        // 10 mutated out of 100: at threshold.
        assert!(!reg.due_requests(3, 10, 100).is_empty());
    }

    #[test]
    fn sequence_numbers_are_gap_free() {
        let mut reg: StandingRegistry<u64> = StandingRegistry::default();
        let h = reg.subscribe(Request::median(), RefreshPolicy::EveryBatch);
        for v in 1..=5 {
            assert!(reg.deliver(h.id(), dummy_outcome(), v, v));
        }
        let seqs: Vec<u64> = h.drain().into_iter().map(|u| u.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn dropped_handle_auto_unsubscribes() {
        let mut reg: StandingRegistry<u64> = StandingRegistry::default();
        let h = reg.subscribe(Request::median(), RefreshPolicy::EveryBatch);
        let id = h.id();
        drop(h);
        assert_eq!(reg.len(), 1);
        assert!(!reg.deliver(id, dummy_outcome(), 1, 1));
        assert_eq!(reg.len(), 0, "closed channel removes the subscription");
    }

    #[test]
    fn invalidation_overrides_policy() {
        let mut reg: StandingRegistry<u64> = StandingRegistry::default();
        let h = reg.subscribe(Request::median(), RefreshPolicy::OnDelta(0.5));
        assert!(reg.deliver(h.id(), dummy_outcome(), 1, 0));
        assert!(reg.due_requests(1, 0, 100).is_empty());
        reg.invalidate_all();
        assert!(!reg.due_requests(1, 0, 100).is_empty(), "invalidated subs are always due");
        // Delivering clears the invalidation.
        assert!(reg.deliver(h.id(), dummy_outcome(), 1, 0));
        assert!(reg.due_requests(1, 0, 100).is_empty());
    }
}
